#include "runtime/engine.hpp"

#include <thread>

#include "common/check.hpp"
#include "compress/aer.hpp"
#include "compress/csr_ifmap.hpp"
#include "runtime/worker_pool.hpp"
#include "snn/reference.hpp"

namespace spikestream::runtime {

namespace {

/// The engine creates the persistent pool its backend (and any BatchRunner
/// on top) fans out on — one clamped set of threads for both the per-layer
/// shard level and the per-sample batch level, so the two can never
/// oversubscribe the host. Backends that never thread get no pool.
std::shared_ptr<WorkerPool> pool_for(const BackendConfig& cfg) {
  if (cfg.kind == BackendKind::kSharded && cfg.shard_threads) {
    return std::make_shared<WorkerPool>(
        static_cast<int>(std::thread::hardware_concurrency()) - 1);
  }
  return nullptr;
}

}  // namespace

InferenceEngine::InferenceEngine(const snn::Network& net,
                                 const kernels::RunOptions& opt,
                                 const arch::EnergyParams& energy)
    : InferenceEngine(net, opt, BackendConfig{}, energy) {}

InferenceEngine::InferenceEngine(const snn::Network& net,
                                 const kernels::RunOptions& opt,
                                 const BackendConfig& backend,
                                 const arch::EnergyParams& energy)
    : net_(net),
      pool_(pool_for(backend)),
      backend_(make_backend(opt, backend, pool_)),
      energy_(energy) {
  init();
}

InferenceEngine::InferenceEngine(const snn::Network& net,
                                 std::shared_ptr<ExecutionBackend> backend,
                                 const arch::EnergyParams& energy)
    : net_(net), backend_(std::move(backend)), energy_(energy) {
  init();
}

void InferenceEngine::init() {
  SPK_CHECK(backend_ != nullptr, "InferenceEngine: null backend");
  const kernels::RunOptions& opt = backend_->options();
  SPK_CHECK(opt.cores >= 1, "RunOptions::cores must be >= 1, got "
                                << opt.cores);
  SPK_CHECK(opt.segment_major_lanes >= 1,
            "RunOptions::segment_major_lanes must be >= 1, got "
                << opt.segment_major_lanes);
  net_.quantize_weights(opt.fmt);
  backend_->prepare(net_);  // partition plans live beside the weights
  state_.reshape(net_);
  backend_->presize_state(state_, net_);
}

void InferenceEngine::reset() { state_.clear(); }

InferenceResult InferenceEngine::run(const snn::Tensor& image) {
  return run(image, state_);
}

InferenceResult InferenceEngine::run_events(const snn::SpikeMap& events) {
  return run_events(events, state_);
}

InferenceResult InferenceEngine::run(const snn::Tensor& image,
                                     snn::NetworkState& state) const {
  InferenceResult out;
  run(image, state, out);
  return out;
}

InferenceResult InferenceEngine::run_events(const snn::SpikeMap& events,
                                            snn::NetworkState& state) const {
  InferenceResult out;
  run_events(events, state, out);
  return out;
}

void InferenceEngine::run(const snn::Tensor& image, snn::NetworkState& state,
                          InferenceResult& out) const {
  run_impl(&image, nullptr, state, out);
}

void InferenceEngine::run_events(const snn::SpikeMap& events,
                                 snn::NetworkState& state,
                                 InferenceResult& out) const {
  SPK_CHECK(net_.num_layers() > 0 &&
                net_.layer(0).kind != snn::LayerKind::kEncodeConv,
            "event input requires a network without an encode layer");
  run_impl(nullptr, &events, state, out);
}

void InferenceEngine::begin_sample(InferenceResult& out) const {
  out.layers.resize(net_.num_layers());
  out.total_cycles = 0;
  out.total_energy_mj = 0;
}

const compress::CsrIfmap& InferenceEngine::encode_layer_input(
    std::size_t l, const snn::SpikeMap& carry, snn::NetworkState& state,
    InferenceResult& out) const {
  const snn::LayerSpec& spec = net_.layer(l);
  kernels::LayerScratch& scratch = state.scratch(l);
  LayerMetrics& m = out.layers[l];
  m.name = spec.name;
  compress::CsrIfmap& csr = scratch.csr;
  compress::CsrIfmap::encode_into(carry, csr);
  // Footprints and firing rates come straight from the CSR counts — the
  // AER event list is never materialized on the hot path.
  m.csr_bytes = static_cast<double>(csr.footprint_bytes());
  m.aer_bytes = static_cast<double>(compress::AerEvents::footprint_from_count(
      csr.nnz(), spec.kind != snn::LayerKind::kFc));
  m.in_firing_rate = carry.size() ? static_cast<double>(csr.nnz()) /
                                        static_cast<double>(carry.size())
                                  : 0.0;
  return csr;
}

const snn::SpikeMap* InferenceEngine::finish_layer(
    std::size_t l, const kernels::LayerRun& lr, snn::NetworkState& state,
    InferenceResult& out) const {
  const kernels::RunOptions& opt = backend_->options();
  const snn::LayerSpec& spec = net_.layer(l);
  kernels::LayerScratch& scratch = state.scratch(l);
  LayerMetrics& m = out.layers[l];
  m.out_firing_rate =
      lr.out_spikes.size() ? static_cast<double>(lr.out_nnz) /
                                 static_cast<double>(lr.out_spikes.size())
                           : 0.0;
  m.stats = lr.stats;
  m.energy = arch::compute_energy(energy_, lr.stats.to_activity(), opt.fmt);
  m.power_w = arch::average_power_w(energy_, lr.stats.to_activity(), opt.fmt);
  out.total_cycles += lr.stats.cycles;
  out.total_energy_mj += m.energy.total_mj();

  // Route spikes to the next layer exactly like the reference, through the
  // scratch-owned pool/pad/flatten buffers.
  const snn::SpikeMap* next = &lr.out_spikes;
  if (spec.pool_after) {
    snn::or_pool2_into(*next, scratch.pooled);
    next = &scratch.pooled;
  }
  if (l + 1 < net_.num_layers()) {
    if (net_.layer(l + 1).kind == snn::LayerKind::kFc) {
      snn::flatten_into(*next, scratch.routed);
    } else {
      snn::pad_into(*next, spec.pad_next, scratch.routed);
    }
    return &scratch.routed;
  }
  out.final_output = lr.out_spikes;
  return nullptr;
}

LayerLane InferenceEngine::layer_input(std::size_t l,
                                       const BatchLane& lane) const {
  SPK_CHECK(lane.state->num_layers() == net_.num_layers(),
            "NetworkState does not match this network (use make_state())");
  const snn::LayerSpec& spec = net_.layer(l);
  kernels::LayerScratch& scratch = lane.state->scratch(l);
  LayerLane io;
  io.membrane = &lane.state->membrane(l);
  io.scratch = &scratch;
  if (spec.kind != snn::LayerKind::kEncodeConv) {
    SPK_CHECK(lane.carry != nullptr, "layer " << spec.name << ": no input");
    io.ifmap = &encode_layer_input(l, *lane.carry, *lane.state, *lane.out);
    return io;
  }
  SPK_CHECK(lane.image != nullptr, "encode layer needs a dense image input");
  snn::Reference::pad_dense_into(
      *lane.image, snn::Reference::encode_padding(spec, *lane.image),
      scratch.padded);
  io.image = &scratch.padded;
  // Layer-1 ifmap is a dense RGB tensor: report its dense HWC size as
  // "ours" and the event-per-pixel AER equivalent as the AER column.
  LayerMetrics& m = lane.out->layers[l];
  m.name = spec.name;
  const double px = static_cast<double>(spec.in_h) * spec.in_w * spec.in_c;
  m.csr_bytes = px * common::fp_bytes(backend_->options().fmt);
  m.aer_bytes = px * 8.0;
  m.in_firing_rate = 1.0;
  return io;
}

const snn::SpikeMap* InferenceEngine::run_layer(std::size_t l,
                                                const snn::Tensor* image,
                                                const snn::SpikeMap* carry,
                                                snn::NetworkState& state,
                                                InferenceResult& out) const {
  BatchLane lane{image, carry, &state, &out};
  run_layer_batch(l, std::span(&lane, 1), nullptr);
  return lane.carry;
}

void InferenceEngine::run_layer_batch(std::size_t l,
                                      std::span<BatchLane> lanes,
                                      WorkerPool* pool) const {
  // Per-lane input compression, one batch-scope backend call, per-lane
  // metric/routing tails — all lanes advance through this layer together.
  // The lane buffer is thread_local so the steady state reuses its capacity;
  // the tasks below reach it through `io`, never by name (a pool thread
  // would see its own instance). A one-lane call (run_layer) uses the stack,
  // so stepping on a pool thread never grows that thread's buffer.
  static thread_local std::vector<LayerLane> io_buf;
  LayerLane one;
  if (lanes.size() > 1) io_buf.resize(lanes.size());
  const std::span<LayerLane> io =
      lanes.size() > 1 ? std::span(io_buf) : std::span(&one, lanes.size());
  for_each_index(pool, lanes.size(), [&](std::size_t i) {
    io[i] = layer_input(l, lanes[i]);
  });
  backend_->run_batch(net_.layer(l), net_.weights(l), io, pool);
  for_each_index(pool, lanes.size(), [&](std::size_t i) {
    BatchLane& lane = lanes[i];
    lane.carry = finish_layer(l, lane.state->scratch(l).main.run, *lane.state,
                              *lane.out);
  });
}

void InferenceEngine::run_wave(std::span<BatchLane> lanes, int timesteps,
                               WorkerPool* pool, WaveHooks* hooks) const {
  WaveHooks none;
  WaveHooks& h = hooks != nullptr ? *hooks : none;
  for (BatchLane& lane : lanes) lane.state->clear();
  for (int t = 0; t < timesteps; ++t) {
    for (BatchLane& lane : lanes) {
      begin_sample(*lane.out);
      lane.carry = nullptr;
    }
    for (std::size_t l = 0; l < net_.num_layers(); ++l) {
      h.before_layer(t, l, lanes);
      run_layer_batch(l, lanes, pool);
      h.after_layer(t, l, lanes);
    }
    h.after_timestep(t, lanes);
  }
}

void InferenceEngine::run_impl(const snn::Tensor* image,
                               const snn::SpikeMap* events,
                               snn::NetworkState& state,
                               InferenceResult& out) const {
  begin_sample(out);
  // Spikes flowing into the next layer. Points at the previous layer's
  // `routed` scratch buffer (or the caller's event map for layer 0), so the
  // carry is never copied.
  const snn::SpikeMap* carry = events;
  for (std::size_t l = 0; l < net_.num_layers(); ++l) {
    carry = run_layer(l, image, carry, state, out);
  }
}

}  // namespace spikestream::runtime
