#include "runtime/backend.hpp"

#include <algorithm>
#include <atomic>

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

void ExecutionBackend::run_batch(const snn::LayerSpec& spec,
                                 const snn::LayerWeights& weights,
                                 std::span<const LayerLane> lanes,
                                 WorkerPool* pool, LaneTail tail) const {
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
    tail(i);
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

void AnalyticalBackend::time_encode(const snn::LayerSpec& spec,
                                    kernels::KernelScratch& ks) const {
  kernels::encode_timing(spec, opt_, ks);
}

void AnalyticalBackend::time_conv(const snn::LayerSpec& spec,
                                  const compress::CsrIfmap& ifmap,
                                  kernels::KernelScratch& ks) const {
  kernels::conv_timing(spec, ifmap, opt_, ks);
}

void AnalyticalBackend::time_fc(const snn::LayerSpec& spec,
                                const compress::CsrIfmap& ifmap,
                                kernels::KernelScratch& ks) const {
  kernels::fc_timing(spec, ifmap, opt_, ks);
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
                                  WorkerPool* pool, LaneTail tail) const {
  if (spec.kind != snn::LayerKind::kFc) {
    functional_row_tiles(spec, weights, lanes, pool, [&](std::size_t i) {
      kernels::KernelScratch& ks = lanes[i].scratch->main;
      if (spec.kind == snn::LayerKind::kEncodeConv) {
        time_encode(spec, ks);
      } else {
        time_conv(spec, *lanes[i].ifmap, ks);
      }
      tail(i);
    });
    return;
  }
  if (lanes.size() > 1 && opt_.segment_major_lanes > 1) {
    // Band-major functional sweeps over lane groups, about one group per
    // pool slot: each weight band is hot in one executor's caches once per
    // group (the host-side mirror of streaming it into SPM once per batch),
    // and the groups run in parallel. Each group then runs its lanes'
    // timing passes — which charge the same deterministic amortized numbers
    // the serial path charges — and their tails.
    const std::size_t n = lanes.size();
    const std::size_t groups = std::min<std::size_t>(
        n, pool != nullptr ? static_cast<std::size_t>(pool->slots()) : 1);
    for_each_index(pool, groups, [&](std::size_t g) {
      const std::size_t lo = g * n / groups;
      const std::size_t hi = (g + 1) * n / groups;
      kernels::fc_functional_batch(spec, weights, lanes.subspan(lo, hi - lo));
      for (std::size_t i = lo; i < hi; ++i) {
        time_fc(spec, *lanes[i].ifmap, lanes[i].scratch->main);
        tail(i);
      }
    });
    return;
  }
  ExecutionBackend::run_batch(spec, weights, lanes, pool, tail);
}

void functional_row_tiles(const snn::LayerSpec& spec,
                          const snn::LayerWeights& weights,
                          std::span<const LayerLane> lanes, WorkerPool* pool,
                          LaneTail done) {
  const bool encode = spec.kind == snn::LayerKind::kEncodeConv;
  const auto rows = static_cast<std::size_t>(spec.out_h());
  const std::size_t blocks = row_blocks(spec, lanes, pool);
  for (const LayerLane& lane : lanes) {
    kernels::begin_row_tiles(spec, *lane.membrane, lane.scratch->main);
  }
  // Accumulates and fires row block `b` of `lane`; returns its spike count.
  const auto tile = [&](const LayerLane& lane, std::size_t b) {
    const int oy0 = static_cast<int>(b * rows / blocks);
    const int oy1 = static_cast<int>((b + 1) * rows / blocks);
    kernels::KernelScratch& ks = lane.scratch->main;
    return encode ? kernels::encode_functional_rows(
                        spec, weights, *lane.image, *lane.membrane, ks, oy0,
                        oy1)
                  : kernels::conv_functional_rows(
                        spec, weights, *lane.ifmap, *lane.membrane, ks, oy0,
                        oy1);
  };
  if (blocks == 1) {
    // One tile per lane (always so without a pool): the lane's task is its
    // whole-layer pass and then its tail, with no shared counter.
    for_each_index(pool, lanes.size(), [&](std::size_t i) {
      lanes[i].scratch->main.run.out_nnz = tile(lanes[i], 0);
      done(i);
    });
    return;
  }
  // Each tile adds its spike count to the lane's out_nnz and counts down
  // the lane's outstanding tiles. The countdown orders every tile's rows and
  // count before the decrement that reaches zero, so the executor that
  // finishes a lane's last tile sees the whole lane and runs its tail at
  // once — tails fill the stragglers' gaps of this one job.
  for (const LayerLane& lane : lanes) {
    lane.scratch->main.run.out_nnz = 0;
    lane.scratch->tiles_left = blocks;
  }
  for_each_index(pool, lanes.size() * blocks, [&](std::size_t t) {
    const LayerLane& lane = lanes[t / blocks];
    std::atomic_ref<std::size_t>(lane.scratch->main.run.out_nnz) +=
        tile(lane, t % blocks);
    if (--std::atomic_ref<std::size_t>(lane.scratch->tiles_left) == 0) {
      done(t / blocks);
    }
  });
}

std::unique_ptr<ExecutionBackend> make_backend(
    const kernels::RunOptions& opt, const BackendConfig& cfg,
    std::shared_ptr<WorkerPool> pool) {
  switch (cfg.kind) {
    case BackendKind::kAnalytical:
      return std::make_unique<AnalyticalBackend>(opt);
    case BackendKind::kCycleAccurate:
      return std::make_unique<CycleAccurateBackend>(opt);
    case BackendKind::kSharded:
      return std::make_unique<ShardedBackend>(
          opt, cfg.clusters, cfg.shard_threads, cfg.partition, cfg.noc,
          std::move(pool), cfg.shard_min_work, cfg.pipeline);
  }
  SPK_CHECK(false, "unknown backend kind");
  return nullptr;
}

}  // namespace spikestream::runtime
