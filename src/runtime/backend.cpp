#include "runtime/backend.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/check.hpp"
#include "runtime/backend_cycle.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/worker_pool.hpp"
#include "snn/state.hpp"

namespace spikestream::runtime {

const char* backend_name(BackendKind k) {
  switch (k) {
    case BackendKind::kAnalytical: return "analytical";
    case BackendKind::kCycleAccurate: return "cycle-accurate";
    case BackendKind::kSharded: return "sharded";
  }
  return "?";
}

namespace {

/// Logarithmic occupancy bucket (~12% granularity): spike counts within one
/// bucket share a memoized timing result, which bounds the relative cycle
/// deviation by the bucket width.
long occupancy_bucket(std::size_t nnz) {
  if (nnz == 0) return -1;
  return static_cast<long>(
      std::floor(std::log2(static_cast<double>(nnz)) * 6.0));
}

/// Occupancies within this fraction of a layer's running average share its
/// bucket. Tighter than the ~12% bucket width, so snapping adds at most one
/// bucket of extra deviation while removing the edge-jitter misses.
constexpr double kEmaSnapBand = 0.10;
constexpr double kEmaAlpha = 0.25;

/// Memo table capacity (power of two). Sized for hundreds of distinct
/// (layer, occupancy-bucket) keys — an order of magnitude above what the
/// S-VGG11 batch workload produces — while keeping the pre-reserved slot
/// arena small. Inserts beyond ~this many distinct keys are dropped.
constexpr std::size_t kMemoCapacity = 2048;

/// Pre-reserved per-core cycle capacity of each slot: covers any plausible
/// `RunOptions::cores`, so storing a result never grows the slot's vector.
constexpr std::size_t kMemoCoreReserve = 32;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Key salt for runs whose weight tile is already SPM-resident (batch-level
/// weight-tile reuse): warm and cold runs of the same occupancy bucket have
/// different DMA timelines and must not share a memo entry.
constexpr std::uint64_t kWarmWeightsSalt = 0x9e3779b97f4a7c15ull;

}  // namespace

CostMemo::CostMemo() : slots_(kMemoCapacity) {
  for (Slot& s : slots_) {
    s.value.stats.core_cycles.reserve(kMemoCoreReserve);
  }
}

std::size_t CostMemo::probe_start(const Key& key) const {
  const std::uint64_t h =
      mix64(std::get<0>(key) ^
            mix64(static_cast<std::uint64_t>(std::get<1>(key)) * 31 +
                  static_cast<std::uint64_t>(std::get<2>(key))));
  return static_cast<std::size_t>(h) & (kMemoCapacity - 1);
}

CostMemo::Slot* CostMemo::find_slot(const Key& key) const {
  std::size_t i = probe_start(key);
  for (std::size_t n = 0; n < kMemoCapacity; ++n) {
    Slot& s = slots_[i];
    if (!s.used || s.key == key) return &s;
    i = (i + 1) & (kMemoCapacity - 1);
  }
  return nullptr;  // table full and key absent
}

long CostMemo::snapped_bucket(double& ema, std::size_t nnz) const {
  const double x = static_cast<double>(nnz);
  if (ema >= 0.0 && std::abs(x - ema) <= kEmaSnapBand * std::max(ema, 1.0)) {
    const long b =
        occupancy_bucket(static_cast<std::size_t>(std::llround(ema)));
    ema += kEmaAlpha * (x - ema);
    return b;
  }
  ema = x;  // jumped out of the band: restart the average here
  return occupancy_bucket(nnz);
}

CostMemo::Key CostMemo::make_key(const snn::LayerSpec& spec,
                                 std::size_t in_nnz, std::size_t out_nnz,
                                 std::uint64_t salt) const {
  const std::uint64_t sig = kernels::layer_signature(spec) ^ salt;
  std::lock_guard<std::mutex> lock(mu_);
  Ema& e = ema_[sig];
  return {sig, snapped_bucket(e.in, in_nnz), snapped_bucket(e.out, out_nnz)};
}

bool CostMemo::lookup(const Key& key, kernels::LayerRun& run) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Slot* s = find_slot(key);
  if (s == nullptr || !s->used) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  run.stats = s->value.stats;  // copy-assign reuses core_cycles capacity
  run.plan = s->value.plan;
  return true;
}

void CostMemo::insert(const Key& key, const kernels::LayerRun& run) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot* s = find_slot(key);
  if (s == nullptr || s->used) return;  // full, or a racing writer won
  s->key = key;
  s->value.stats = run.stats;  // slot's core_cycles capacity is pre-reserved
  s->value.plan = run.plan;
  s->used = true;
}

void ExecutionBackend::run_batch(const snn::LayerSpec& spec,
                                 const snn::LayerWeights& weights,
                                 std::span<const LayerLane> lanes,
                                 WorkerPool* pool) const {
  for_each_index(pool, lanes.size(), [&](std::size_t i) {
    const LayerLane& lane = lanes[i];
    switch (spec.kind) {
      case snn::LayerKind::kEncodeConv:
        run_encode(spec, weights, *lane.image, *lane.membrane, *lane.scratch);
        break;
      case snn::LayerKind::kConv:
        run_conv(spec, weights, *lane.ifmap, *lane.membrane, *lane.scratch);
        break;
      case snn::LayerKind::kFc:
        run_fc(spec, weights, *lane.ifmap, *lane.membrane, *lane.scratch);
        break;
    }
  });
}

void ExecutionBackend::presize_state(snn::NetworkState& state,
                                     const snn::Network& net) const {
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const snn::LayerSpec& spec = net.layer(l);
    kernels::LayerScratch& scratch = state.scratch(l);
    const std::size_t positions = static_cast<std::size_t>(spec.in_h) *
                                  static_cast<std::size_t>(spec.in_w);
    const std::size_t in_elems =
        positions * static_cast<std::size_t>(spec.in_c);
    // Input-compression arena: worst case is every input neuron spiking.
    scratch.csr.reserve(positions, in_elems);
  }
}

// ---------------------------------------------------------------------------
// AnalyticalBackend
// ---------------------------------------------------------------------------

namespace {

/// Memo key salt for this run's weight-residency mode. A memo hit must also
/// mark the scratch warm — the cached stats were computed under the same
/// salt, so the skipped timing pass would have done exactly that.
std::uint64_t warm_salt(const kernels::RunOptions& opt,
                        const kernels::KernelScratch& ks) {
  return opt.batch_weight_reuse && ks.weights_warm ? kWarmWeightsSalt : 0;
}

/// Smallest accumulate worth a row tile of its own, in weight-row element
/// adds: a lane's layer is split only while every tile keeps at least this
/// much work, so the pool handoff stays small next to it and tiny layers
/// run as one tile per lane.
constexpr double kMinTileAdds = 64.0 * 1024;

/// Row tiles a wave aims to give each pool executor, so that claiming tiles
/// dynamically evens out rows of unequal spike density.
constexpr std::size_t kTilesPerSlot = 4;

/// Output-row blocks per lane of a conv or encode wave: enough tiles to
/// keep every pool executor busy, never fewer than kMinTileAdds of work
/// each, never more than the layer's output rows.
std::size_t row_blocks(const snn::LayerSpec& spec,
                       std::span<const LayerLane> lanes,
                       const WorkerPool* pool) {
  const std::size_t slots =
      pool != nullptr ? static_cast<std::size_t>(pool->slots()) : 1;
  const std::size_t n = lanes.size();
  if (slots <= 1 || n == 0) return 1;
  // Element adds per lane: each input spike feeds up to k*k output
  // positions one out_c-wide weight row each; the dense encode layer walks
  // its whole fan-in at every output position.
  const double row_adds = static_cast<double>(spec.k) * spec.k * spec.out_c;
  double adds = 0;
  for (const LayerLane& lane : lanes) {
    adds += spec.kind == snn::LayerKind::kEncodeConv
                ? row_adds * spec.in_c * spec.out_h() * spec.out_w()
                : row_adds * static_cast<double>(lane.ifmap->nnz());
  }
  const auto affordable = static_cast<std::size_t>(
      adds / static_cast<double>(n) / kMinTileAdds);
  const std::size_t wanted = (kTilesPerSlot * slots + n - 1) / n;
  return std::max<std::size_t>(
      1, std::min({wanted, affordable,
                   static_cast<std::size_t>(spec.out_h())}));
}

}  // namespace

void AnalyticalBackend::memoized_timing(
    const snn::LayerSpec& spec, std::size_t in_nnz, kernels::KernelScratch& ks,
    common::FunctionRef<void()> timing) const {
  if (!memo_) {
    timing();
    return;
  }
  const auto key =
      memo_->make_key(spec, in_nnz, ks.run.out_nnz, warm_salt(opt_, ks));
  if (memo_->lookup(key, ks.run)) {
    ks.weights_warm = true;
    return;
  }
  timing();
  memo_->insert(key, ks.run);
}

void AnalyticalBackend::time_encode(const snn::LayerSpec& spec,
                                    kernels::KernelScratch& ks) const {
  // The dense input has no occupancy; key on the output spikes only.
  memoized_timing(spec, 0, ks,
                  [&] { kernels::encode_timing(spec, opt_, ks); });
}

void AnalyticalBackend::time_conv(const snn::LayerSpec& spec,
                                  const compress::CsrIfmap& ifmap,
                                  kernels::KernelScratch& ks) const {
  memoized_timing(spec, ifmap.nnz(), ks,
                  [&] { kernels::conv_timing(spec, ifmap, opt_, ks); });
}

void AnalyticalBackend::time_fc(const snn::LayerSpec& spec,
                                const compress::CsrIfmap& ifmap,
                                kernels::KernelScratch& ks) const {
  memoized_timing(spec, ifmap.nnz(), ks,
                  [&] { kernels::fc_timing(spec, ifmap, opt_, ks); });
}

const kernels::LayerRun& AnalyticalBackend::run_encode(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const snn::Tensor& padded_image, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  kernels::encode_functional(spec, weights, padded_image, membrane,
                             scratch.main);
  time_encode(spec, scratch.main);
  return scratch.main.run;
}

const kernels::LayerRun& AnalyticalBackend::run_conv(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  kernels::conv_functional(spec, weights, ifmap, membrane, scratch.main);
  time_conv(spec, ifmap, scratch.main);
  return scratch.main.run;
}

const kernels::LayerRun& AnalyticalBackend::run_fc(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  kernels::fc_functional(spec, weights, ifmap, membrane, scratch.main);
  time_fc(spec, ifmap, scratch.main);
  return scratch.main.run;
}

void AnalyticalBackend::run_batch(const snn::LayerSpec& spec,
                                  const snn::LayerWeights& weights,
                                  std::span<const LayerLane> lanes,
                                  WorkerPool* pool) const {
  if (spec.kind != snn::LayerKind::kFc) {
    run_row_tiles(spec, weights, lanes, pool);
    return;
  }
  if (lanes.size() > 1 && opt_.segment_major_lanes > 1) {
    // Band-major functional sweep across every lane (the host-side mirror
    // of streaming each weight band into SPM once per batch), then the
    // usual per-lane timing pass — which charges the same deterministic
    // amortized numbers the serial path charges.
    kernels::fc_functional_batch(spec, weights, lanes);
    for (const LayerLane& lane : lanes) {
      time_fc(spec, *lane.ifmap, lane.scratch->main);
    }
    return;
  }
  ExecutionBackend::run_batch(spec, weights, lanes, pool);
}

void AnalyticalBackend::run_row_tiles(const snn::LayerSpec& spec,
                                      const snn::LayerWeights& weights,
                                      std::span<const LayerLane> lanes,
                                      WorkerPool* pool) const {
  const bool encode = spec.kind == snn::LayerKind::kEncodeConv;
  const auto rows = static_cast<std::size_t>(spec.out_h());
  const std::size_t blocks = row_blocks(spec, lanes, pool);
  for (const LayerLane& lane : lanes) {
    kernels::begin_row_tiles(spec, *lane.membrane, lane.scratch->main);
  }
  // Spike count of every tile, lane-major. The buffer is thread_local so
  // the steady state reuses its capacity; the tasks below reach it through
  // `fired`, never by name (a pool thread would see its own instance). A
  // single tile uses the stack, like run_layer_batch's one-lane case.
  static thread_local std::vector<std::size_t> fired_buf;
  std::size_t one = 0;
  const std::size_t tiles = lanes.size() * blocks;
  if (tiles > 1) fired_buf.assign(tiles, 0);
  const std::span<std::size_t> fired =
      tiles > 1 ? std::span(fired_buf) : std::span(&one, tiles);
  for_each_index(pool, fired.size(), [&](std::size_t t) {
    const LayerLane& lane = lanes[t / blocks];
    const std::size_t b = t % blocks;
    const int oy0 = static_cast<int>(b * rows / blocks);
    const int oy1 = static_cast<int>((b + 1) * rows / blocks);
    kernels::KernelScratch& ks = lane.scratch->main;
    fired[t] = encode ? kernels::encode_functional_rows(
                            spec, weights, *lane.image, *lane.membrane, ks,
                            oy0, oy1)
                      : kernels::conv_functional_rows(
                            spec, weights, *lane.ifmap, *lane.membrane, ks,
                            oy0, oy1);
  });
  for_each_index(pool, lanes.size(), [&](std::size_t i) {
    kernels::KernelScratch& ks = lanes[i].scratch->main;
    const auto lane_tiles = fired.subspan(i * blocks, blocks);
    ks.run.out_nnz =
        std::accumulate(lane_tiles.begin(), lane_tiles.end(), std::size_t{0});
    if (encode) {
      time_encode(spec, ks);
    } else {
      time_conv(spec, *lanes[i].ifmap, ks);
    }
  });
}

std::unique_ptr<ExecutionBackend> make_backend(
    const kernels::RunOptions& opt, const BackendConfig& cfg,
    std::shared_ptr<WorkerPool> pool) {
  switch (cfg.kind) {
    case BackendKind::kAnalytical:
      return std::make_unique<AnalyticalBackend>(opt, cfg.memoize_cost);
    case BackendKind::kCycleAccurate:
      return std::make_unique<CycleAccurateBackend>(opt, cfg.iss_sample_spvas,
                                                    cfg.memoize_cost);
    case BackendKind::kSharded:
      return std::make_unique<ShardedBackend>(
          opt, cfg.clusters, cfg.shard_threads, cfg.partition, cfg.noc,
          std::move(pool), cfg.shard_min_work, cfg.replan, cfg.pipeline);
  }
  SPK_CHECK(false, "unknown backend kind");
  return nullptr;
}

}  // namespace spikestream::runtime
