// Batch-scope timeline of a stage-parallel cluster pipeline: given a
// StagePlan and the per-sample per-layer cycle counts of an executed batch,
// replay the batch through the stage graph with finite inter-stage spike
// FIFOs and report makespan, fill/drain, per-stage busy/stall/idle splits and
// FIFO peak occupancy.
//
// Semantics (the FIFO backpressure contract ARCHITECTURE.md documents):
//  * Stages process samples in order, store-and-forward at sample
//    granularity: stage s+1 may start sample i once stage s has *pushed* it
//    (the handoff transfer itself is priced into the producing boundary
//    layer's service time by the sharded backend).
//  * A producing stage occupies its clusters until the push completes: when
//    the downstream FIFO lacks room for the sample's boundary spikes, the
//    stage stalls (KernelStats::fifo_stall_cycles) until the consumer's
//    starts free enough room. A sample larger than the whole FIFO waits for
//    an empty FIFO (virtual cut-through with minimum capacity one sample).
//  * The consumer pops a sample's spikes the moment it starts processing it.
//
// Conservation (pinned by tests/test_partition.cpp): for every stage,
// last_finish - first_start == service + stall + idle exactly, and a deeper
// FIFO never increases stalls or makespan.
#pragma once

#include <span>
#include <vector>

#include "kernels/kernel_stats.hpp"
#include "kernels/partition.hpp"
#include "runtime/engine.hpp"

namespace spikestream::runtime {

struct StageTrace {
  double service_cycles = 0;  ///< sum of per-sample service on this stage
  double stall_cycles = 0;    ///< blocked on a full downstream FIFO
  double idle_cycles = 0;     ///< starved between samples (empty upstream)
  double first_start = 0;     ///< when the stage began its first sample
  double last_finish = 0;     ///< when the stage pushed its final sample
  double peak_fifo_spikes = 0;  ///< peak occupancy of this stage's OUTPUT FIFO
  double handoff_bytes = 0;   ///< total boundary payload pushed downstream
  /// Aggregated activity of the stage's member layers over the whole batch,
  /// with `cycles` set to the stage's busy window (first_start..last_finish)
  /// and the stall itemized — feed to arch::compute_energy for per-stage
  /// energy including the stalled-but-clocked time.
  kernels::KernelStats stats;

  double window_cycles() const { return last_finish - first_start; }
};

struct StageTimeline {
  double makespan_cycles = 0;  ///< batch start -> last stage's final push
  double fill_cycles = 0;      ///< sample 0's latency through every stage
  double steady_cycles_per_sample = 0;  ///< measured initiation interval
  double total_stall_cycles = 0;
  std::vector<StageTrace> stages;

  double cycles_per_sample(std::size_t batch) const {
    return batch > 0 ? makespan_cycles / static_cast<double>(batch) : 0.0;
  }
};

/// Pure recurrence over explicit matrices (unit-testable without a network):
/// services[s][i] = service cycles of sample i on stage s; spikes_out[s][i] =
/// boundary spikes stage s pushes for sample i (ignored for the last stage).
/// All inner vectors must share one batch size.
StageTimeline simulate_stage_timeline(
    const std::vector<std::vector<double>>& services,
    const std::vector<std::vector<double>>& spikes_out,
    int fifo_depth_spikes);

/// Replay an executed batch through `plan`: per-sample stage service = the
/// member layers' modeled cycles in `batch` (which the stage-mode sharded
/// backend produced at each stage's group cluster count), boundary spikes
/// recovered from the layer metrics. `net` supplies layer geometry.
StageTimeline simulate_stage_pipeline(const kernels::StagePlan& plan,
                                      const snn::Network& net,
                                      std::span<const InferenceResult> batch,
                                      const kernels::PipelineConfig& cfg);

}  // namespace spikestream::runtime
