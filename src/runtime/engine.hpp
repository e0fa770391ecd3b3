// End-to-end inference engine: chains the per-layer execution of a pluggable
// ExecutionBackend over a network, carrying spikes (pool -> pad -> compress)
// between layers exactly like the golden reference, and collecting per-layer
// runtime / utilization / energy metrics — the quantities plotted in
// Figs. 3b, 3c and 4.
//
// The engine itself is immutable after construction (network weights are
// quantized once, the backend is fixed): the stateless `run(..., state)`
// overloads may be called concurrently from many threads, each with its own
// snn::NetworkState. The state-carrying convenience API (`run(image)` /
// `reset()`) wraps an internal default state for single-threaded callers.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arch/energy.hpp"
#include "kernels/layer_kernels.hpp"
#include "runtime/backend.hpp"
#include "snn/network.hpp"
#include "snn/state.hpp"

namespace spikestream::runtime {

struct LayerMetrics {
  std::string name;
  kernels::KernelStats stats;
  double in_firing_rate = 0;   ///< ifmap activity (incl. padding zeros)
  double out_firing_rate = 0;  ///< raw output activity
  double csr_bytes = 0;        ///< compressed ifmap footprint (ours)
  double aer_bytes = 0;        ///< AER ifmap footprint (neuromorphic format)
  arch::EnergyBreakdown energy;
  double power_w = 0;

  double runtime_ms(double freq_hz = 1e9) const {
    return stats.cycles / freq_hz * 1e3;
  }
};

struct InferenceResult {
  std::vector<LayerMetrics> layers;
  double total_cycles = 0;
  double total_energy_mj = 0;
  snn::SpikeMap final_output;

  double total_runtime_ms(double freq_hz = 1e9) const {
    return total_cycles / freq_hz * 1e3;
  }
};

class InferenceEngine {
 public:
  /// Copies the network, quantizes its weights to `opt.fmt` (once, amortized
  /// over every subsequent sample) and executes with an AnalyticalBackend.
  InferenceEngine(const snn::Network& net, const kernels::RunOptions& opt,
                  const arch::EnergyParams& energy = {});

  /// Same, but executes through the backend described by `backend`.
  InferenceEngine(const snn::Network& net, const kernels::RunOptions& opt,
                  const BackendConfig& backend,
                  const arch::EnergyParams& energy = {});

  /// Adopts a caller-constructed backend (shared, must outlive the engine's
  /// runs). Weights are quantized to the backend's format.
  InferenceEngine(const snn::Network& net,
                  std::shared_ptr<ExecutionBackend> backend,
                  const arch::EnergyParams& energy = {});

  // --- stateless API (thread-safe: one NetworkState per concurrent sample) --

  /// One timestep on a raw (unpadded) image; membranes live in `state`.
  InferenceResult run(const snn::Tensor& image, snn::NetworkState& state) const;

  /// One timestep on event-camera style input: a binary spike map feeding the
  /// first layer directly (the network must not start with kEncodeConv).
  /// `events` must already be padded to the first layer's ifmap shape.
  InferenceResult run_events(const snn::SpikeMap& events,
                             snn::NetworkState& state) const;

  // --- scratch-reusing API (the hot path) -----------------------------------
  // Same semantics, but the result is written into a caller-owned
  // InferenceResult whose buffers are reused across calls: together with the
  // scratch arenas inside `state`, a warmed-up (state, out) pair runs a whole
  // timestep with zero heap allocations per layer.

  void run(const snn::Tensor& image, snn::NetworkState& state,
           InferenceResult& out) const;
  void run_events(const snn::SpikeMap& events, snn::NetworkState& state,
                  InferenceResult& out) const;

  // --- per-layer stepping API (run() is a loop over it) ---------------------
  // One timestep can be driven layer by layer instead of through run():
  // begin_sample() sizes `out`, then run_layer(l, ...) executes layer l and
  // returns the spike map the next layer consumes (null after the last
  // layer, whose raw output went to out.final_output). `carry` must be the
  // pointer returned by the previous run_layer call — for layer 0 the
  // caller's event map, or null on encode-first networks. The carry aliases
  // buffers inside `state`'s layer-l scratch, so different samples may step
  // concurrently as long as each uses its own (state, out) pair — the
  // property the lockstep waves below build on.

  void begin_sample(InferenceResult& out) const;
  const snn::SpikeMap* run_layer(std::size_t l, const snn::Tensor* image,
                                 const snn::SpikeMap* carry,
                                 snn::NetworkState& state,
                                 InferenceResult& out) const;

  // --- batch-scope layer stepping (segment-major lockstep executors) --------
  // One lane per in-flight sample of a lockstep wave: the runners advance
  // all lanes through the same layer together, and every layer reaches the
  // backend as one ExecutionBackend::run_batch call over all lanes — a
  // segmented FC layer then streams its weight bands once per wave instead
  // of once per sample, and a conv layer splits into row tiles that keep
  // every pool thread busy even in a one-lane wave. `carry` is updated in
  // place by run_layer_batch, exactly like the pointer run_layer returns.

  struct BatchLane {
    const snn::Tensor* image = nullptr;
    const snn::SpikeMap* carry = nullptr;
    snn::NetworkState* state = nullptr;
    InferenceResult* out = nullptr;
  };

  /// Execute layer `l` for every lane: compress each lane's input, hand all
  /// lanes to ExecutionBackend::run_batch, then route each lane's spikes —
  /// the per-lane steps run on `pool` when one is given (lanes own distinct
  /// states, the same aliasing contract run_layer documents). Results are
  /// bit-identical to calling run_layer per lane in order, including
  /// modeled stats.
  void run_layer_batch(std::size_t l, std::span<BatchLane> lanes,
                       WorkerPool* pool = nullptr) const;

  /// Observation and injection points of run_wave, called with the
  /// timestep, the layer (where one applies) and the whole wave. Every
  /// default is a no-op.
  struct WaveHooks {
    virtual ~WaveHooks() = default;
    virtual void before_layer(int, std::size_t, std::span<BatchLane>) {}
    virtual void after_layer(int, std::size_t, std::span<BatchLane>) {}
    virtual void after_timestep(int, std::span<BatchLane>) {}
  };

  /// One lockstep wave, the only one in the runtime: clear every lane's
  /// state, then per timestep begin_sample each lane's `out`, feed `image`
  /// to layer 0 and run_layer_batch every layer — each lane finishes layer
  /// l before any lane starts layer l + 1. A lane's weight residency
  /// (KernelScratch::weights_warm) survives the clear, so under
  /// batch_weight_reuse the caller's lane lifetime sets the modeled DMA.
  void run_wave(std::span<BatchLane> lanes, int timesteps, WorkerPool* pool,
                WaveHooks* hooks = nullptr) const;

  /// Fresh zeroed membrane state shaped for this engine's network, with the
  /// scratch arenas pre-sized for the backend's execution shape (one shard
  /// lane per planned cluster on the sharded backend).
  snn::NetworkState make_state() const {
    snn::NetworkState state(net_);
    backend_->presize_state(state, net_);
    return state;
  }

  // --- stateful convenience API (single-threaded callers) -------------------

  /// One timestep on the engine's internal state. Membranes persist across
  /// calls until reset().
  InferenceResult run(const snn::Tensor& image);
  InferenceResult run_events(const snn::SpikeMap& events);

  /// Clear the internal membrane state (between independent input samples).
  void reset();

  const snn::Network& network() const { return net_; }
  /// SDC-injection surface (runtime/integrity.hpp): the live quantized
  /// weight slice of layer `l`, as every backend reads it through the
  /// engine's network copy — a bit flipped here is functionally visible to
  /// all of them. Fault injectors must restore what they flip between wave
  /// attempts (flip_weight_bit is involutive); nothing else may mutate the
  /// engine after construction.
  snn::LayerWeights& mutable_weights(std::size_t l) { return net_.weights(l); }
  const kernels::RunOptions& options() const { return backend_->options(); }
  const ExecutionBackend& backend() const { return *backend_; }
  const arch::EnergyParams& energy_params() const { return energy_; }

  /// The persistent worker pool this engine's backend fans out on (null for
  /// backends that never thread). BatchRunner reuses it so batch-sample and
  /// shard fan-out share one clamped set of threads.
  const std::shared_ptr<WorkerPool>& worker_pool() const { return pool_; }

 private:
  /// Shared constructor tail: quantize weights, let the backend prepare its
  /// per-network plans, shape the internal state.
  void init();

  void run_impl(const snn::Tensor* image, const snn::SpikeMap* events,
                snn::NetworkState& state, InferenceResult& out) const;

  /// One lane's backend input for layer `l`: the padded image of an encode
  /// layer (the image must fit the layer exactly) or the compressed spike
  /// carry, with the lane's membrane and scratch.
  LayerLane layer_input(std::size_t l, const BatchLane& lane) const;
  /// Compress a layer's spike-map input into its scratch CSR arena and fill
  /// the input-side metrics (name, footprints, firing rate).
  const compress::CsrIfmap& encode_layer_input(std::size_t l,
                                               const snn::SpikeMap& carry,
                                               snn::NetworkState& state,
                                               InferenceResult& out) const;
  /// Output-side metric/energy bookkeeping + spike routing of one lane;
  /// returns the next layer's carry.
  const snn::SpikeMap* finish_layer(std::size_t l,
                                    const kernels::LayerRun& lr,
                                    snn::NetworkState& state,
                                    InferenceResult& out) const;

  snn::Network net_;
  std::shared_ptr<WorkerPool> pool_;  ///< created before the backend using it
  std::shared_ptr<ExecutionBackend> backend_;
  arch::EnergyParams energy_;
  snn::NetworkState state_;  ///< backing store for the stateful API
};

}  // namespace spikestream::runtime
