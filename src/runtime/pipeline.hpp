// Stage-overlapped (pipelined) batch executor: where BatchRunner fans whole
// samples out across worker slots, the pipelined runner overlaps the *layers*
// of consecutive samples — layer L of sample i runs concurrently with layer
// L+1 of sample i-1 — using the engine's per-layer stepping API
// (InferenceEngine::begin_sample / run_layer).
//
// Execution model: one sample's timestep is a chain of `layers` stages (a
// multi-timestep run is `timesteps * layers` stages — membranes integrate, so
// a sample's timesteps can never overlap each other). Samples advance through
// the stages in lockstep "ticks": at tick t, every in-flight sample executes
// its next stage, all stage executions of one tick running concurrently on
// the persistent WorkerPool. `depth` bounds how many samples are in flight —
// each in-flight sample owns one pipeline lane (a full snn::NetworkState:
// membranes + per-layer LayerScratch), so depth 2 is the classic
// double-buffered pipeline and lane reuse is only possible after the previous
// occupant fully drained. Concurrent stages touch disjoint lanes by
// construction, which is exactly the aliasing contract run_layer documents.
//
// Results are bit-identical to a serial BatchRunner run for every depth,
// backend and worker count: each sample executes exactly the operations the
// serial path executes, on its own state, and all merges happen in sample
// order (tests/test_pipeline.cpp pins this across depths x backends x
// cluster counts). The one carve-out is RunOptions::batch_weight_reuse,
// which is *about* lane history: the first sample of each lane is charged
// cold weight DMA, so modeled DMA/cycles (never spikes) vary with depth,
// and — because lanes stay warm across run() calls — a runner's second
// batch starts with all lanes warm. The rotation sample -> lane (i mod
// depth) is deterministic, unlike the racing slot assignment of a
// multithreaded BatchRunner.
//
// Segment-major lockstep: stage overlap keeps in-flight samples at
// *different* layers, which is exactly what the segment-major batched FC
// schedule (RunOptions::segment_major_lanes) cannot use — it wants all
// lanes at the same segmented FC layer so each weight band streams once for
// the whole set. With segment_major_lanes >= 2 the runner therefore trades
// stage overlap for lockstep waves: `depth` samples advance layer by layer
// together through InferenceEngine::run_wave (conv layers as row tiles on
// the pool, segmented FC layers as one band-major sweep). Both schedules
// overlap the same host work; outputs and modeled stats stay bit-identical
// to the serial path either way, and the waves run on the same warm lanes,
// so their weight-residency history carries across calls too.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/function_ref.hpp"
#include "runtime/engine.hpp"
#include "runtime/multistep.hpp"

namespace spikestream::runtime {

class WorkerPool;

class PipelinedBatchRunner {
 public:
  /// `depth` = maximum samples in flight (clamped to >= 1; 1 degenerates to
  /// the serial BatchRunner order). `workers` = 0 picks
  /// std::thread::hardware_concurrency().
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
  /// One in-flight sample: its network state, the per-timestep result being
  /// filled, and the inter-layer spike carry.
  struct Lane {
    snn::NetworkState state;
    InferenceResult step;
    const snn::SpikeMap* carry = nullptr;
  };

  /// Borrow the warmed lane set (or build one on first use / while another
  /// run holds it) and return it afterwards — pipeline lanes are full
  /// NetworkStates, and rebuilding `depth` of them per call would cost more
  /// than a short batch saves. Returned lanes keep their arenas (and their
  /// weight-residency marks: with batch_weight_reuse the weights genuinely
  /// stay pinned across back-to-back batches on one engine).
  std::vector<Lane> borrow_lanes(std::size_t n_samples) const;
  void return_lanes(std::vector<Lane>&& lanes) const;

  /// Drive `n` samples through `stages` pipeline stages. `step(sample,
  /// stage, lane)` executes one stage of one sample in pipeline lane `lane`;
  /// calls within one tick run concurrently on the pool, and a sample's
  /// stages always run in order.
  void run_stages(
      std::size_t n, std::size_t stages,
      common::FunctionRef<void(std::size_t, std::size_t, Lane&)> step,
      std::vector<Lane>& lanes) const;

  /// `timesteps` steps of every image, each finished step handed to `keep`:
  /// stage overlap, or lockstep waves on the same warm lanes.
  void run_steps(const std::vector<snn::Tensor>& images, int timesteps,
                 KeepStep keep) const;

  InferenceEngine engine_;
  int depth_;
  std::shared_ptr<WorkerPool> pool_;
  mutable std::mutex lanes_mu_;
  mutable std::vector<Lane> lane_cache_;
};

}  // namespace spikestream::runtime
