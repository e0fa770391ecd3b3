// Batch inference runner: amortizes network copy + weight quantization across
// a batch of samples (both happen exactly once, at construction) and runs the
// samples concurrently on a shared immutable engine — each worker slot owns
// one snn::NetworkState (cleared between samples, its scratch arenas reused),
// so per-sample membrane dynamics stay fully independent and the outputs are
// bit-identical to a serial run, whatever the worker count.
//
// Samples fan out on the engine's persistent WorkerPool — the same threads
// the sharded backend fans its per-layer shards out on — so batch x shard
// parallelism can never oversubscribe the host and no thread is ever spawned
// per call.
//
// Segment-major lockstep: with RunOptions::segment_major_lanes >= 2 the
// runner switches from sample fan-out to lockstep waves
// (InferenceEngine::run_wave) — up to that many samples advance through the
// network layer by layer *together*, so each fan-in weight band of a
// segmented FC layer is charged one modeled stream per wave and swept on the
// host once per lane group (about one group per pool slot) instead of once
// per sample, and conv layers split into row tiles across the pool. Outputs
// and modeled stats stay bit-identical to the per-sample path (the
// segment-major accounting is deterministic per-sample, independent of the
// schedule). The wave lanes are built fresh for every call, so under
// batch_weight_reuse back-to-back calls on one runner report the same
// modeled DMA.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/multistep.hpp"

namespace spikestream::runtime {

class WorkerPool;

class BatchRunner {
 public:
  /// `workers` = 0 picks std::thread::hardware_concurrency(); explicit
  /// counts are clamped to it.
  BatchRunner(const snn::Network& net, const kernels::RunOptions& opt,
              const BackendConfig& backend = {},
              const arch::EnergyParams& energy = {}, int workers = 0);
  ~BatchRunner();

  /// `timesteps` LIF steps per image (constant-current coding). Results are
  /// in input order and independent of the worker count.
  std::vector<MultiStepResult> run(const std::vector<snn::Tensor>& images,
                                   int timesteps = 1) const;

  /// Single-timestep variant keeping the full per-layer metrics per sample.
  std::vector<InferenceResult> run_single_step(
      const std::vector<snn::Tensor>& images) const;

  const InferenceEngine& engine() const { return engine_; }
  int workers() const { return workers_; }

 private:
  /// `timesteps` steps of every image, each finished step handed to `keep`:
  /// sample fan-out, or lockstep waves on lanes built fresh for this call.
  void run_steps(const std::vector<snn::Tensor>& images, int timesteps,
                 KeepStep keep) const;

  InferenceEngine engine_;
  int workers_;
  std::shared_ptr<WorkerPool> pool_;
};

}  // namespace spikestream::runtime
