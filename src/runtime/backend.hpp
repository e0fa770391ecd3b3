// Pluggable execution backends: one interface, three performance models.
//
//  * AnalyticalBackend    — the layer-granular mechanistic cost model
//    (kernels/layer_kernels + kernels/cost_model), the path every figure
//    bench uses. Fast: one network timestep costs microseconds of host time.
//  * CycleAccurateBackend — the same functional math, but per-layer timing is
//    re-anchored by running the paper's inner loops on the cycle-level
//    `arch::Cluster` ISS (what tests/test_model_vs_iss.cpp did ad hoc).
//  * ShardedBackend       — computes each layer's spikes in one full-width
//    functional pass, then times N simulated clusters' shards of the layer
//    (output-channel tiles, row stripes or FC fan-in segments) and merges
//    the per-cluster KernelStats: wall-clock takes the max, activity sums.
//
// All backends compute bit-identical spikes (they share one functional pass
// contract); they differ only in the timing/energy attribution. Backends are
// immutable after construction and safe to share across threads (the sharded
// backend's plans are one immutable epoch that prepare() and its fault calls
// replace whole, never edit) — per-sample state (membranes AND the scratch
// arenas every run borrows) lives in snn::NetworkState; a
// kernels::LayerScratch is threaded through each call so steady-state
// execution allocates nothing. Every layer run times its own
// spikes exactly, so modeled cycles are a pure function of the layer and its
// input, independent of execution order.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "arch/noc.hpp"
#include "common/function_ref.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/layer_kernels.hpp"
#include "kernels/partition.hpp"
#include "kernels/scratch.hpp"
#include "snn/network.hpp"
#include "snn/tensor.hpp"

namespace spikestream::snn {
class NetworkState;
}

namespace spikestream::runtime {

class WorkerPool;

enum class BackendKind {
  kAnalytical,     ///< mechanistic cost model (default, fastest)
  kCycleAccurate,  ///< ISS-calibrated per-layer timing
  kSharded,        ///< N-cluster tile partition with thread workers
};

const char* backend_name(BackendKind k);

struct BackendConfig {
  BackendKind kind = BackendKind::kAnalytical;
  /// ShardedBackend: number of simulated clusters a layer is split across,
  /// in [1, arch::NocModel::kMaxClusters] (the constructor throws
  /// otherwise).
  int clusters = 4;
  /// ShardedBackend: run the per-cluster shards on the persistent worker
  /// pool (false = deterministic serial loop, useful for debugging; results
  /// are bit-identical either way).
  bool shard_threads = true;
  /// ShardedBackend: host-side fan-out cutoff. A layer with fewer output
  /// elements than this executes its shards serially on the submitting
  /// thread even in pooled mode — for small layers the pool handoff and
  /// worker wakeups cost more host time than the shard work itself (the
  /// sharded-4 regression in BENCH_host.json). Modeled timing and spikes
  /// are bit-identical either way; only host wall-clock changes. Must be
  /// >= 0.
  int shard_min_work = 32 * 1024;
  /// ShardedBackend: how layers are split across clusters (see
  /// kernels/partition.hpp). The default reproduces the historical
  /// output-channel tiling exactly.
  kernels::PartitionStrategy partition =
      kernels::PartitionStrategy::kOutputChannel;
  /// ShardedBackend: inter-cluster interconnect model. Traffic is always
  /// counted (KernelStats::noc_bytes, priced by the energy model); enabling
  /// `noc.model_contention` additionally lets it gate layer wall-clock.
  arch::NocParams noc;
  /// ShardedBackend: stage-parallel pipelining (see kernels::PipelineConfig).
  /// When enabled, prepare() partitions the network's layers into pipeline
  /// stages over cluster groups (or keeps one data-parallel stage when that
  /// costs less), prices each layer at its group width and charges the
  /// boundary FIFO handoffs. Off by default (historical behavior, bit-exact).
  kernels::PipelineConfig pipeline;
};

/// One in-flight sample's borrowed buffers for a batch-scope layer call (see
/// ExecutionBackend::run_batch). Shared with the kernel layer so batch-scope
/// calls pass the caller's lane array straight through.
using kernels::LayerLane;

/// Per-lane continuation of a batch-scope layer call, called with the lane's
/// index once that lane's results are final (see ExecutionBackend::
/// run_batch).
using LaneTail = common::FunctionRef<void(std::size_t)>;

class ExecutionBackend {
 public:
  explicit ExecutionBackend(const kernels::RunOptions& opt) : opt_(opt) {}
  virtual ~ExecutionBackend() = default;

  ExecutionBackend(const ExecutionBackend&) = delete;
  ExecutionBackend& operator=(const ExecutionBackend&) = delete;

  virtual const char* name() const = 0;
  /// Simulated clusters one layer is spread across (1 except for sharding).
  virtual int num_clusters() const { return 1; }

  /// Called once per engine construction with the quantized network: lets a
  /// backend precompute per-layer state (the sharded backend plans every
  /// layer's shards here and publishes them as its plan epoch, so partition
  /// choices are made once per network, not per run). Must be idempotent
  /// and thread-safe; the default does nothing.
  virtual void prepare(const snn::Network& net) const { (void)net; }

  /// Pre-size the per-layer scratch arenas of a freshly built NetworkState
  /// for this backend's execution shape (e.g. one shard lane per planned
  /// cluster), so even the first run fans out without growing vectors. The
  /// base implementation reserves the occupancy-dependent buffer (the CSR
  /// index arena) for each layer's zero-sparsity worst case: steady-state
  /// execution then stays allocation-free even when a late timestep pushes
  /// occupancy to a new maximum. Overrides should call it before adding
  /// their own shaping.
  virtual void presize_state(snn::NetworkState& state,
                             const snn::Network& net) const;

  const kernels::RunOptions& options() const { return opt_; }

  // Per-layer execution. `membrane` is the layer's persistent neuron state
  // (output-shaped) and is updated in place; `scratch` is the borrowed arena
  // all buffers live in — the returned reference aliases `scratch.main.run`
  // and is valid until the next run on the same scratch. Implementations must
  // be safe to call concurrently from multiple threads as long as each call
  // uses a distinct scratch (BatchRunner shares one backend across all sample
  // workers, one NetworkState each).
  virtual const kernels::LayerRun& run_encode(
      const snn::LayerSpec& spec, const snn::LayerWeights& weights,
      const snn::Tensor& padded_image, snn::Tensor& membrane,
      kernels::LayerScratch& scratch) const = 0;
  virtual const kernels::LayerRun& run_conv(
      const snn::LayerSpec& spec, const snn::LayerWeights& weights,
      const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
      kernels::LayerScratch& scratch) const = 0;
  virtual const kernels::LayerRun& run_fc(
      const snn::LayerSpec& spec, const snn::LayerWeights& weights,
      const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
      kernels::LayerScratch& scratch) const = 0;

  // Batch-scope execution: run one layer for every lane of a lockstep wave
  // in a single call (InferenceEngine::run_layer_batch hands over every
  // layer kind this way, inputs already compressed — `lane.image` for encode
  // layers, `lane.ifmap` otherwise). The contract is strict: spikes AND
  // modeled stats must be bit-identical to running each lane alone through
  // run_encode / run_conv / run_fc — modeled accounting is per-sample
  // deterministic (segment-major charges are amortized batch means), so a
  // backend may change only host-side execution order, locality and
  // parallelism. `pool` (null = the calling thread alone) is the wave's
  // worker pool. `tail(i)` runs exactly once per lane i, as soon as that
  // lane's spikes and stats are final, on whichever executor finished the
  // lane — so the caller's per-lane bookkeeping rides in this call's pool
  // job instead of a job of its own. The default runs each lane's layer
  // call and its tail as one pool task; each lane's scratch/membrane must
  // be distinct.
  virtual void run_batch(const snn::LayerSpec& spec,
                         const snn::LayerWeights& weights,
                         std::span<const LayerLane> lanes, WorkerPool* pool,
                         LaneTail tail) const;

  // One-shot conveniences (tests / benches): run with a private scratch and
  // return the result by value.
  kernels::LayerRun run_encode(const snn::LayerSpec& spec,
                               const snn::LayerWeights& weights,
                               const snn::Tensor& padded_image,
                               snn::Tensor& membrane) const {
    kernels::LayerScratch s;
    run_encode(spec, weights, padded_image, membrane, s);
    return std::move(s.main.run);
  }
  kernels::LayerRun run_conv(const snn::LayerSpec& spec,
                             const snn::LayerWeights& weights,
                             const compress::CsrIfmap& ifmap,
                             snn::Tensor& membrane) const {
    kernels::LayerScratch s;
    run_conv(spec, weights, ifmap, membrane, s);
    return std::move(s.main.run);
  }
  kernels::LayerRun run_fc(const snn::LayerSpec& spec,
                           const snn::LayerWeights& weights,
                           const compress::CsrIfmap& ifmap,
                           snn::Tensor& membrane) const {
    kernels::LayerScratch s;
    run_fc(spec, weights, ifmap, membrane, s);
    return std::move(s.main.run);
  }

 protected:
  kernels::RunOptions opt_;
};

/// The seed's hard-wired analytical path, now one backend among several.
class AnalyticalBackend : public ExecutionBackend {
 public:
  explicit AnalyticalBackend(const kernels::RunOptions& opt)
      : ExecutionBackend(opt) {}

  const char* name() const override { return "analytical"; }

  const kernels::LayerRun& run_encode(
      const snn::LayerSpec& spec, const snn::LayerWeights& weights,
      const snn::Tensor& padded_image, snn::Tensor& membrane,
      kernels::LayerScratch& scratch) const override;
  const kernels::LayerRun& run_conv(const snn::LayerSpec& spec,
                                    const snn::LayerWeights& weights,
                                    const compress::CsrIfmap& ifmap,
                                    snn::Tensor& membrane,
                                    kernels::LayerScratch& scratch)
      const override;
  const kernels::LayerRun& run_fc(const snn::LayerSpec& spec,
                                  const snn::LayerWeights& weights,
                                  const compress::CsrIfmap& ifmap,
                                  snn::Tensor& membrane,
                                  kernels::LayerScratch& scratch)
      const override;

  /// One pool job per call. Conv and encode layers run as (lane x
  /// output-row-block) tiles claimed off `pool`; the executor that finishes
  /// a lane's last tile runs that lane's timing tail and then `tail`.
  /// Segment-major FC waves split the lanes into about one group per pool
  /// slot; each group task runs a band-major functional sweep over its lanes
  /// (kernels::fc_functional_batch), then their timing tails and `tail`s.
  /// Bit-identical to the per-lane default by construction.
  void run_batch(const snn::LayerSpec& spec, const snn::LayerWeights& weights,
                 std::span<const LayerLane> lanes, WorkerPool* pool,
                 LaneTail tail) const override;

  using ExecutionBackend::run_conv;
  using ExecutionBackend::run_encode;
  using ExecutionBackend::run_fc;

 protected:
  // Timing tails: the exact timing pass over the spikes the functional pass
  // just wrote into `ks`. Every execution path — per lane, row-tiled,
  // band-major — ends in one of these, so the cycle-accurate backend
  // appends its ISS re-anchoring by overriding them alone.
  virtual void time_encode(const snn::LayerSpec& spec,
                           kernels::KernelScratch& ks) const;
  virtual void time_conv(const snn::LayerSpec& spec,
                         const compress::CsrIfmap& ifmap,
                         kernels::KernelScratch& ks) const;
  virtual void time_fc(const snn::LayerSpec& spec,
                       const compress::CsrIfmap& ifmap,
                       kernels::KernelScratch& ks) const;
};

/// The functional pass of a conv or encode layer for every lane of a wave,
/// as (lane x output-row-block) tiles claimed off `pool` (null = the calling
/// thread alone) in one pool job: shapes each lane's output buffers,
/// accumulates and fires its rows, and sums each lane's tile spike counts
/// into its `scratch->main.run.out_nnz`. `done(i)` runs once per lane, on
/// the executor that finished lane i's last tile, once its spikes and
/// out_nnz are final. Bit-identical to the whole-layer pass for any tile
/// count. The analytical backend's `done` is the lane's timing tail; the
/// sharded backend runs its per-shard timing passes after the call.
void functional_row_tiles(const snn::LayerSpec& spec,
                          const snn::LayerWeights& weights,
                          std::span<const LayerLane> lanes, WorkerPool* pool,
                          LaneTail done);

/// Instantiate a backend from a config. `pool` is the persistent worker pool
/// a sharded backend should fan its shards out on (shared with the batch
/// runner when the engine provides one); null lets the backend create its
/// own. Non-sharded backends ignore it.
std::unique_ptr<ExecutionBackend> make_backend(
    const kernels::RunOptions& opt, const BackendConfig& cfg = {},
    std::shared_ptr<WorkerPool> pool = nullptr);

}  // namespace spikestream::runtime
