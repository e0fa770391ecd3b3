// Warm-lane batch executor: the batch runs as lockstep waves of `depth`
// samples (runtime::run_lockstep_batch -> InferenceEngine::run_wave) on a set
// of `depth` pipeline lanes — full snn::NetworkStates, membranes plus
// per-layer LayerScratch — that the runner keeps warm across run() calls.
// Sample i always runs on lane i mod depth, after the lane's previous
// occupant finished. Inside a wave every lane finishes layer l before any
// lane starts layer l + 1: conv and encode layers split into row tiles on
// the pool, and with RunOptions::segment_major_lanes >= 2 each segmented FC
// layer streams its weight bands once for the whole wave.
//
// Results are bit-identical to a serial BatchRunner run for every depth,
// backend and worker count: each sample executes exactly the operations the
// serial path executes, on its own state, and results are handed back in
// sample order (tests/test_pipeline.cpp pins this across depths x backends
// x cluster counts). The one carve-out is RunOptions::batch_weight_reuse,
// which is *about* lane history: the first sample of each lane is charged
// cold weight DMA, so modeled DMA/cycles (never spikes) vary with depth,
// and — because lanes stay warm across run() calls — a runner's second
// batch starts with all lanes warm. The rotation sample -> lane (i mod
// depth) is deterministic, unlike the racing slot assignment of a
// multithreaded BatchRunner, and the lane cache is the offline model of a
// server's lane lifetime.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/multistep.hpp"

namespace spikestream::runtime {

class WorkerPool;

class PipelinedBatchRunner {
 public:
  /// `depth` = lanes per wave (clamped to >= 1; 1 runs the samples one at
  /// a time in the serial BatchRunner order). `workers` = 0 picks
  /// std::thread::hardware_concurrency(); with more than one worker the
  /// runner shares the engine's pool or owns one for the row tiles.
  PipelinedBatchRunner(const snn::Network& net, const kernels::RunOptions& opt,
                       const BackendConfig& backend = {},
                       const arch::EnergyParams& energy = {}, int depth = 2,
                       int workers = 0);
  ~PipelinedBatchRunner();

  /// `timesteps` LIF steps per image (constant-current coding). Results are
  /// in input order and independent of depth and worker count.
  std::vector<MultiStepResult> run(const std::vector<snn::Tensor>& images,
                                   int timesteps = 1) const;

  /// Single-timestep variant keeping the full per-layer metrics per sample.
  std::vector<InferenceResult> run_single_step(
      const std::vector<snn::Tensor>& images) const;

  const InferenceEngine& engine() const { return engine_; }
  int depth() const { return depth_; }

 private:
  /// One wave lane: its network state and the per-timestep result being
  /// filled.
  struct Lane {
    snn::NetworkState state;
    InferenceResult step;
  };

  /// Borrow the whole warmed lane set, grown to at least `want` lanes (or
  /// build one on first use / while another run holds it), and return all
  /// of it afterwards — lanes are full NetworkStates, and rebuilding `depth`
  /// of them per call would cost more than a short batch saves. Returned
  /// lanes keep their arenas (and their weight-residency marks: with
  /// batch_weight_reuse the weights genuinely stay pinned across
  /// back-to-back batches on one engine, short calls included).
  std::vector<Lane> borrow_lanes(std::size_t want) const;
  void return_lanes(std::vector<Lane>&& lanes) const;

  /// `timesteps` steps of every image, each finished step handed to `keep`:
  /// lockstep waves on the warm lanes.
  void run_steps(const std::vector<snn::Tensor>& images, int timesteps,
                 KeepStep keep) const;

  InferenceEngine engine_;
  int depth_;
  std::shared_ptr<WorkerPool> pool_;
  mutable std::mutex lanes_mu_;
  mutable std::vector<Lane> lane_cache_;
};

}  // namespace spikestream::runtime
