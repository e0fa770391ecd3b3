#include "kernels/partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "compress/csr_ifmap.hpp"

namespace spikestream::kernels {

namespace {

int n_groups(int channels, int simd) { return (channels + simd - 1) / simd; }

/// Widest shard of a range split (0 when the split is empty).
int max_extent(const std::vector<ShardRange>& shards) {
  int worst = 0;
  for (const ShardRange& r : shards) worst = std::max(worst, r.extent());
  return worst;
}

/// Estimated cycles of one conv/encode output position carrying `groups`
/// SIMD output-channel groups, at planning density `density`.
double position_cost(const snn::LayerSpec& spec, const RunOptions& opt,
                     int groups, double density) {
  const CostParams& p = opt.cost;
  const int simd = common::simd_lanes(opt.fmt);
  const bool fp8 = opt.fmt == common::FpFormat::FP8;
  const double k2 = static_cast<double>(spec.k) * spec.k;
  const double act = activation_cycles(p, simd, density * simd, fp8);
  if (spec.kind == snn::LayerKind::kEncodeConv) {
    const double dot = k2 * spec.in_c;
    if (opt.variant == Variant::kBaseline) {
      return (baseline_dense_dot_cycles(p, dot) + act) * groups;
    }
    const double fpu = (p.dense_ii() * dot + p.dense_residue) * groups;
    const double integer = (p.dense_setup + act) * groups;
    return std::max(fpu, integer);
  }
  const double elems = density * spec.in_c * k2;
  switch (opt.variant) {
    case Variant::kBaseline:
      return (elems * p.baseline_elem_cycles + p.baseline_spva_overhead * k2 +
              act) *
             groups;
    case Variant::kDenseNoTc: {
      const double fpu =
          (p.fadd_latency * k2 * spec.in_c + p.ss_residue * k2) * groups;
      const double integer =
          p.steal_cost + (p.dense_setup * k2 + act) * groups;
      return std::max(fpu, integer);
    }
    case Variant::kSpikeStream:
    default: {
      const double fpu = (p.fadd_latency * elems + p.ss_residue * k2) * groups;
      const double integer = p.steal_cost + (p.ss_setup * k2 + act) * groups;
      return std::max(fpu, integer);
    }
  }
}

}  // namespace

const char* partition_strategy_name(PartitionStrategy s) {
  switch (s) {
    case PartitionStrategy::kOutputChannel: return "output-channel";
    case PartitionStrategy::kIfmapStripe: return "ifmap-stripe";
    case PartitionStrategy::kHybrid: return "hybrid";
  }
  return "?";
}

const char* exec_mode_name(ExecMode m) {
  switch (m) {
    case ExecMode::kAuto: return "auto";
    case ExecMode::kDataParallel: return "data-parallel";
    case ExecMode::kStageParallel: return "stage-parallel";
    case ExecMode::kHybrid: return "hybrid";
  }
  return "?";
}

const char* shard_axis_name(ShardAxis a) {
  switch (a) {
    case ShardAxis::kOutputChannel: return "out-channel";
    case ShardAxis::kIfmapStripe: return "row-stripe";
    case ShardAxis::kFanIn: return "fan-in";
  }
  return "?";
}

std::uint64_t layer_signature(const snn::LayerSpec& spec) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  mix(spec.name.data(), spec.name.size());
  const int dims[] = {static_cast<int>(spec.kind), spec.in_h, spec.in_w,
                      spec.in_c,  spec.k,          spec.out_c};
  mix(dims, sizeof(dims));
  return h;
}

Partitioner::Partitioner(const RunOptions& opt, int clusters,
                         PartitionStrategy strategy)
    : opt_(opt), clusters_(std::max(1, clusters)), strategy_(strategy) {}

std::vector<ShardRange> Partitioner::channel_slices(int out_c, int simd,
                                                    int clusters) {
  const int groups = n_groups(out_c, simd);
  const int active = std::min(clusters, groups);
  std::vector<ShardRange> sl;
  sl.reserve(static_cast<std::size_t>(std::max(active, 1)));
  for (int s = 0; s < active; ++s) {
    const int g_lo = s * groups / active;
    const int g_hi = (s + 1) * groups / active;
    const int lo = g_lo * simd;
    const int hi = std::min(g_hi * simd, out_c);
    if (hi > lo) sl.push_back({lo, hi});
  }
  return sl;
}

std::vector<ShardRange> Partitioner::row_stripes(int out_rows, int clusters) {
  const int active = std::min(clusters, std::max(out_rows, 1));
  std::vector<ShardRange> sl;
  sl.reserve(static_cast<std::size_t>(active));
  for (int s = 0; s < active; ++s) {
    const int lo = s * out_rows / active;
    const int hi = (s + 1) * out_rows / active;
    if (hi > lo) sl.push_back({lo, hi});
  }
  return sl;
}

std::vector<ShardRange> Partitioner::fanin_segments(int in_c, int simd,
                                                    int clusters) {
  // Same SIMD-aligned even split as the channel slicer, applied to the input
  // channel space: each cluster owns a disjoint weight-row band.
  return channel_slices(in_c, simd, clusters);
}

double Partitioner::estimate_output_channel(
    const snn::LayerSpec& spec) const {
  const double density = kDefaultDensity;
  const CostParams& p = opt_.cost;
  const int simd = common::simd_lanes(opt_.fmt);
  const int worst_groups =
      n_groups(max_extent(channel_slices(spec.out_c, simd, clusters_)), simd);
  if (spec.kind == snn::LayerKind::kFc) {
    const double nnz = density * spec.in_c;
    const double fp8_act = activation_cycles(
        p, simd, density * simd, opt_.fmt == common::FpFormat::FP8);
    const double per_group =
        std::max(p.fadd_latency * nnz + p.ss_residue, p.ss_setup) + fp8_act;
    const double rounds = std::ceil(static_cast<double>(worst_groups) /
                                    std::max(1, opt_.cores));
    return rounds * per_group + nnz * p.fc_prescale_per_spike / opt_.cores +
           p.icache_layer_warmup;
  }
  const double positions =
      static_cast<double>(spec.out_h()) * static_cast<double>(spec.out_w());
  return positions * position_cost(spec, opt_, worst_groups, density) /
             std::max(1, opt_.cores) +
         p.icache_layer_warmup;
}

double Partitioner::estimate_ifmap_stripe(const snn::LayerSpec& spec) const {
  SPK_CHECK(spec.kind != snn::LayerKind::kFc,
            "ifmap stripes need spatial rows; FC layers use fan-in segments");
  const double density = kDefaultDensity;
  const CostParams& p = opt_.cost;
  const int simd = common::simd_lanes(opt_.fmt);
  const double worst_positions =
      static_cast<double>(max_extent(row_stripes(spec.out_h(), clusters_))) *
      spec.out_w();
  const int groups = n_groups(spec.out_c, simd);
  return worst_positions * position_cost(spec, opt_, groups, density) /
             std::max(1, opt_.cores) +
         p.icache_layer_warmup;
}

double Partitioner::estimate_fanin(const snn::LayerSpec& spec) const {
  SPK_CHECK(spec.kind == snn::LayerKind::kFc,
            "fan-in segmentation is an FC strategy");
  const double density = kDefaultDensity;
  const CostParams& p = opt_.cost;
  const int simd = common::simd_lanes(opt_.fmt);
  const double nnz_shard =
      density * static_cast<double>(
                    max_extent(fanin_segments(spec.in_c, simd, clusters_)));
  const int groups = n_groups(spec.out_c, simd);
  const double rounds =
      std::ceil(static_cast<double>(groups) / std::max(1, opt_.cores));
  const double accumulate =
      rounds * std::max(p.fadd_latency * nnz_shard + p.ss_residue, p.ss_setup) +
      nnz_shard * p.fc_prescale_per_spike / opt_.cores;
  // Sequential tail on the merging cluster: stream (n-1) partial ofmap
  // vectors over the NoC, add them group-wise, then run the activation once.
  const double partials = static_cast<double>(std::min(
                              clusters_, n_groups(spec.in_c, simd))) -
                          1.0;
  // Partial vectors stream at the global port width — the same single
  // source of truth (CostParams::dram) the DMA cost queries price from.
  const double reduce =
      partials * groups * p.fadd_latency +
      partials * spec.out_c * common::fp_bytes(opt_.fmt) /
          p.dram.bytes_per_cycle;
  const double act =
      rounds * activation_cycles(p, simd, density * simd,
                                 opt_.fmt == common::FpFormat::FP8);
  return accumulate + reduce + act + p.icache_layer_warmup;
}

double Partitioner::estimate_axis(const snn::LayerSpec& spec,
                                  ShardAxis axis) const {
  switch (axis) {
    case ShardAxis::kOutputChannel:
      return estimate_output_channel(spec);
    case ShardAxis::kIfmapStripe:
      return estimate_ifmap_stripe(spec);
    case ShardAxis::kFanIn:
      return estimate_fanin(spec);
  }
  return 0.0;
}

LayerPlan Partitioner::make_axis_plan(const snn::LayerSpec& spec,
                                      ShardAxis axis) const {
  const int simd = common::simd_lanes(opt_.fmt);
  LayerPlan plan;
  plan.axis = axis;
  if (clusters_ > 1) {
    switch (axis) {
      case ShardAxis::kOutputChannel:
        plan.shards = channel_slices(spec.out_c, simd, clusters_);
        break;
      case ShardAxis::kIfmapStripe:
        plan.shards = row_stripes(spec.out_h(), clusters_);
        break;
      case ShardAxis::kFanIn:
        plan.shards = fanin_segments(spec.in_c, simd, clusters_);
        break;
    }
  }
  // A single-shard fan-in plan would pay reduction bookkeeping for nothing;
  // collapse it (and any other degenerate split) to one output-channel shard.
  if (plan.shards.size() <= 1) {
    plan.axis = ShardAxis::kOutputChannel;
    plan.shards = {{0, spec.out_c}};
  }
  return plan;
}

LayerPlan Partitioner::plan_layer(const snn::LayerSpec& spec) const {
  const bool fc = spec.kind == snn::LayerKind::kFc;
  if (clusters_ <= 1) {
    LayerPlan plan;
    plan.shards = {{0, spec.out_c}};
    return plan;
  }
  const ShardAxis alt_axis =
      fc ? ShardAxis::kFanIn : ShardAxis::kIfmapStripe;
  switch (strategy_) {
    case PartitionStrategy::kOutputChannel:
      return make_axis_plan(spec, ShardAxis::kOutputChannel);
    case PartitionStrategy::kIfmapStripe:
      return make_axis_plan(spec, alt_axis);
    case PartitionStrategy::kHybrid:
      break;
  }
  const double oc = estimate_output_channel(spec);
  const double alt = estimate_axis(spec, alt_axis);
  // Prefer the historical axis unless the alternative is clearly ahead:
  // output-channel tiles conserve activity exactly and need no halo or
  // reduction bookkeeping, so a marginal estimate should not flip them.
  LayerPlan plan;
  if (alt < 0.95 * oc) {
    plan = make_axis_plan(spec, alt_axis);
    plan.est_cycles = alt;
    plan.est_alt_cycles = oc;
  } else {
    plan = make_axis_plan(spec, ShardAxis::kOutputChannel);
    plan.est_cycles = oc;
    plan.est_alt_cycles = alt;
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Stage-parallel pipeline planning
// ---------------------------------------------------------------------------

double Partitioner::layer_cost(const snn::LayerSpec& spec, int group) const {
  const Partitioner sub(opt_, std::max(1, group), strategy_);
  const double oc = sub.estimate_output_channel(spec);
  if (group <= 1) return oc;
  const ShardAxis alt_axis = spec.kind == snn::LayerKind::kFc
                                 ? ShardAxis::kFanIn
                                 : ShardAxis::kIfmapStripe;
  switch (strategy_) {
    case PartitionStrategy::kOutputChannel:
      return oc;
    case PartitionStrategy::kIfmapStripe:
      return sub.estimate_axis(spec, alt_axis);
    case PartitionStrategy::kHybrid:
      break;
  }
  // Mirror plan_layer's hysteresis so the stage estimate prices the axis a
  // group-sized partitioner would actually execute with.
  const double alt = sub.estimate_axis(spec, alt_axis);
  return alt < 0.95 * oc ? alt : oc;
}

namespace {

/// In-flight samples the stage planner amortizes fill/drain over: per-sample
/// cost = (fill + (lanes - 1) * steady) / lanes.
constexpr double kPlannerLanes = 8.0;

/// Estimated inter-stage handoff after `spec` at planning density: the
/// boundary layer's compressed spike payload crossing the fabric to the next
/// stage's owner plus the per-spike FIFO enqueue on the producer.
struct HandoffEstimate {
  double bytes = 0;
  double cycles = 0;
};

HandoffEstimate estimate_handoff(const snn::LayerSpec& spec,
                                 const RunOptions& opt,
                                 const arch::NocParams& noc, double density) {
  const double elems = static_cast<double>(spec.out_h()) *
                       static_cast<double>(spec.out_w()) *
                       static_cast<double>(spec.out_c);
  const double nnz = density * elems;
  HandoffEstimate h;
  h.bytes = static_cast<double>(compress::CsrIfmap::footprint_from_count(
      static_cast<std::size_t>(nnz), spec.out_h(), spec.out_w()));
  const double transfer =
      noc.topology == arch::NocTopology::kLegacyCeiling
          ? arch::noc_transfer_cycles(noc, h.bytes)
          // Point-to-point route: injection + (worst case) one ring traversal
          // + ejection, serialized at one link's width.
          : noc.hop_latency * 3.0 + h.bytes / noc.link_bytes_per_cycle;
  h.cycles = transfer + nnz * opt.cost.fifo_push_per_spike;
  return h;
}

}  // namespace

StagePlan Partitioner::plan_pipeline(const snn::Network& net,
                                     const PipelineConfig& cfg,
                                     const arch::NocParams& noc) const {
  return plan_pipeline(net.layers(), cfg, noc);
}

StagePlan Partitioner::plan_pipeline(std::span<const snn::LayerSpec> layers,
                                     const PipelineConfig& cfg,
                                     const arch::NocParams& noc) const {
  const int L = static_cast<int>(layers.size());
  SPK_CHECK(L > 0, "pipeline planning needs at least one layer");
  const int C = clusters_;

  // Per-layer service estimates at every group size that can occur, and the
  // boundary handoff after each layer.
  std::vector<std::vector<double>> cost(static_cast<std::size_t>(L));
  std::vector<HandoffEstimate> handoff(static_cast<std::size_t>(L));
  for (int l = 0; l < L; ++l) {
    cost[static_cast<std::size_t>(l)].resize(static_cast<std::size_t>(C) + 1);
    for (int g = 1; g <= C; ++g) {
      cost[static_cast<std::size_t>(l)][static_cast<std::size_t>(g)] =
          layer_cost(layers[static_cast<std::size_t>(l)], g);
    }
    handoff[static_cast<std::size_t>(l)] =
        estimate_handoff(layers[static_cast<std::size_t>(l)], opt_, noc,
                         kDefaultDensity);
  }
  const double dp_total = [&] {
    double t = 0;
    for (int l = 0; l < L; ++l) {
      t += cost[static_cast<std::size_t>(l)][static_cast<std::size_t>(C)];
    }
    return t;
  }();

  // Build the balanced S-stage partition (DP minimizing the max stage
  // service, boundary handoffs included) and return its amortized per-sample
  // cost; the stage list lands in `out`.
  auto build = [&](int S, std::vector<PipelineStage>& out) {
    auto group_size = [&](int s) { return (s + 1) * C / S - s * C / S; };
    auto stage_service = [&](int i, int j, int s) {
      const int g = group_size(s);
      double svc = 0;
      for (int l = i; l < j; ++l) {
        svc += cost[static_cast<std::size_t>(l)][static_cast<std::size_t>(g)];
      }
      if (s < S - 1) svc += handoff[static_cast<std::size_t>(j - 1)].cycles;
      return svc;
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    // f[j][s] = minimal achievable max-stage-service covering layers [0, j)
    // with stages [0, s); parent[j][s] reconstructs the split points.
    std::vector<std::vector<double>> f(
        static_cast<std::size_t>(L) + 1,
        std::vector<double>(static_cast<std::size_t>(S) + 1, kInf));
    std::vector<std::vector<int>> parent(
        static_cast<std::size_t>(L) + 1,
        std::vector<int>(static_cast<std::size_t>(S) + 1, -1));
    f[0][0] = 0;
    for (int s = 1; s <= S; ++s) {
      for (int j = s; j <= L - (S - s); ++j) {
        for (int i = s - 1; i < j; ++i) {
          if (f[static_cast<std::size_t>(i)][static_cast<std::size_t>(s - 1)] ==
              kInf) {
            continue;
          }
          const double v = std::max(
              f[static_cast<std::size_t>(i)][static_cast<std::size_t>(s - 1)],
              stage_service(i, j, s - 1));
          if (v < f[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)]) {
            f[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] = v;
            parent[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)] =
                i;
          }
        }
      }
    }
    out.clear();
    out.resize(static_cast<std::size_t>(S));
    int j = L;
    for (int s = S; s >= 1; --s) {
      const int i =
          parent[static_cast<std::size_t>(j)][static_cast<std::size_t>(s)];
      PipelineStage& st = out[static_cast<std::size_t>(s - 1)];
      st.layer_lo = i;
      st.layer_hi = j;
      st.cluster_lo = (s - 1) * C / S;
      st.cluster_hi = s * C / S;
      st.est_service_cycles = stage_service(i, j, s - 1);
      st.est_handoff_bytes =
          s < S ? handoff[static_cast<std::size_t>(j - 1)].bytes : 0.0;
      j = i;
    }
    double steady = 0, fill = 0;
    for (const PipelineStage& st : out) {
      steady = std::max(steady, st.est_service_cycles);
      fill += st.est_service_cycles;
    }
    return (fill + (kPlannerLanes - 1.0) * steady) / kPlannerLanes;
  };

  auto classify = [&](const std::vector<PipelineStage>& stages) {
    if (stages.size() <= 1) return ExecMode::kDataParallel;
    for (const PipelineStage& st : stages) {
      if (st.clusters() > 1) return ExecMode::kHybrid;
    }
    return ExecMode::kStageParallel;
  };
  auto admissible = [&](ExecMode mode) {
    return cfg.mode == ExecMode::kAuto || cfg.mode == mode;
  };

  const int s_max = std::min(C, L);

  StagePlan best;
  double best_cost = std::numeric_limits<double>::infinity();
  bool found = false;
  std::vector<PipelineStage> stages;
  for (int S = 1; S <= s_max; ++S) {
    const double amortized = build(S, stages);
    const ExecMode mode = classify(stages);
    // A forced mode can be unrealizable (pure stage-parallel needs as many
    // layers as clusters; a 2-cluster hybrid has no multi-cluster group to
    // give). Admit the nearest shape when the sweep would otherwise end
    // empty.
    const bool fallback = cfg.mode != ExecMode::kAuto && S == s_max && !found;
    if (!admissible(mode) && !fallback) continue;
    if (amortized < best_cost || !found) {
      best_cost = amortized;
      best.mode = mode;
      best.stages = stages;
      found = true;
    }
  }
  SPK_CHECK(found, "pipeline planner found no admissible stage shape for mode "
                       << exec_mode_name(cfg.mode));
  best.est_steady_cycles = 0;
  best.est_fill_cycles = 0;
  for (const PipelineStage& st : best.stages) {
    best.est_steady_cycles =
        std::max(best.est_steady_cycles, st.est_service_cycles);
    best.est_fill_cycles += st.est_service_cycles;
  }
  best.est_dp_cycles = dp_total;
  return best;
}

}  // namespace spikestream::kernels
