// Partition planning: how one layer's work is split across N simulated
// clusters. Extracted from the sharded backend (which hard-coded
// output-channel tiles) into a first-class, cost-model-driven subsystem:
//
//  * kOutputChannel — the historical scheme. SIMD-group-aligned output
//    channel ranges, one disjoint ofmap slice per cluster, the full ifmap
//    broadcast to every cluster. No inter-cluster reduction; per-group
//    activation accounting is preserved, so activity counters conserve
//    exactly.
//  * kIfmapStripe   — spatial output-row stripes (conv/encode layers). Each
//    cluster computes *all* output channels for a contiguous band of output
//    rows and only needs its halo'd ifmap rows — no broadcast, just halo
//    duplication on the NoC. Every output position is computed with its full
//    fan-in, so spikes stay bit-identical and activity conserves exactly.
//    FC layers have no spatial rows; for them this strategy degenerates to
//    kFanIn: input-channel segments with an explicit partial-sum reduction,
//    so a 10-class head stops idling 5 of 8 clusters. The reduction's extra
//    adds/traffic are itemized (not hidden) in the merged KernelStats, and
//    the *functional* pass still runs unsharded so spikes remain bit-exact.
//  * kHybrid        — per-layer choice between the two by querying the cost
//    model with an assumed planning density (occupancies are unknown at plan
//    time; plans are computed once per network at engine construction).
//
// A LayerPlan is a value, immutable once computed: the sharded backend keeps
// every prepared layer's plan in one immutable epoch indexed by layer
// signature, and sizes its per-shard scratch lanes from it so steady-state
// shard fan-out allocates nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/noc.hpp"
#include "kernels/layer_kernels.hpp"
#include "snn/network.hpp"

namespace spikestream::kernels {

enum class PartitionStrategy {
  kOutputChannel,  ///< historical scheme on every layer (exact back-compat)
  kIfmapStripe,    ///< spatial stripes on conv/encode, fan-in segments on FC
  kHybrid,         ///< per-layer cost-model choice
};

const char* partition_strategy_name(PartitionStrategy s);

/// Which axis one layer's shards cut along.
enum class ShardAxis {
  kOutputChannel,  ///< [lo, hi) = output channel range (SIMD-group aligned)
  kIfmapStripe,    ///< [lo, hi) = output row range
  kFanIn,          ///< [lo, hi) = input channel range (FC partial sums)
};

const char* shard_axis_name(ShardAxis a);

struct ShardRange {
  int lo = 0, hi = 0;  ///< [lo, hi) along the plan's axis
  int extent() const { return hi - lo; }
  bool operator==(const ShardRange&) const = default;
};

struct LayerPlan {
  ShardAxis axis = ShardAxis::kOutputChannel;
  std::vector<ShardRange> shards;
  /// Planning-time cost estimates (cycles at assumed density) that drove the
  /// hybrid choice; est_alt_cycles = 0 when no alternative axis existed.
  double est_cycles = 0;
  double est_alt_cycles = 0;
  std::size_t n() const { return shards.size(); }
};

/// FNV-1a over a layer's name + geometry: the key plan epochs index by.
/// Layers with equal signatures partition (and cost) identically.
std::uint64_t layer_signature(const snn::LayerSpec& spec);

// --- stage-parallel pipelining (the third plan axis) -------------------------
//
// Besides splitting each layer across all clusters (data-parallel sharding),
// the planner can assign contiguous *layer ranges* to cluster groups as
// pipeline stages coupled by inter-stage spike FIFOs: stage s runs its
// layers sharded across its own group while stage s+1 processes the previous
// sample. Steady-state batch cycles then become the max over stage service
// times (plus fill/drain), replacing the sum over layers. A hybrid plan
// shards multi-cluster stage groups internally.

enum class ExecMode {
  kAuto,          ///< planner picks among the three below by cost query
  kDataParallel,  ///< one stage, every layer across all clusters
  kStageParallel, ///< one cluster per stage (pure pipeline)
  kHybrid,        ///< multi-cluster stage groups, internally sharded
};

const char* exec_mode_name(ExecMode m);

struct PipelineConfig {
  /// Master switch: when false the sharded backend runs pure data-parallel
  /// (historical behavior, bit-exact).
  bool enabled = false;
  /// kAuto lets the cost model choose; forcing a mode pins the stage count
  /// (benches compare the three modes on equal footing this way).
  ExecMode mode = ExecMode::kAuto;
  /// Capacity of each inter-stage FIFO, in spikes. A producing stage whose
  /// downstream FIFO cannot accept its boundary spikes stalls until the
  /// consumer drains room (backpressure); the batch-scope timeline itemizes
  /// those cycles in KernelStats::fifo_stall_cycles.
  int fifo_depth_spikes = 4096;
  /// Upper bound on the stage count (0 = min(clusters, layers)).
  int max_stages = 0;
  /// Assumed in-flight samples when amortizing fill/drain in the planner's
  /// cost query: per-sample cost = (fill + (B - 1) * steady) / B.
  int batch_lanes = 8;
};

/// One pipeline stage: layers [layer_lo, layer_hi) on clusters
/// [cluster_lo, cluster_hi).
struct PipelineStage {
  int layer_lo = 0, layer_hi = 0;
  int cluster_lo = 0, cluster_hi = 0;
  /// Planning-time per-sample service estimate (member layers at the
  /// group's cluster count, plus the boundary handoff + FIFO push).
  double est_service_cycles = 0;
  /// Estimated boundary spike payload handed to the next stage (0 for the
  /// last stage).
  double est_handoff_bytes = 0;
  int clusters() const { return cluster_hi - cluster_lo; }
  int layers() const { return layer_hi - layer_lo; }
};

struct StagePlan {
  /// The concrete mode of this plan (never kAuto).
  ExecMode mode = ExecMode::kDataParallel;
  std::vector<PipelineStage> stages;  ///< size 1 under kDataParallel
  /// Planning-time estimates: steady-state initiation interval (max stage
  /// service), first-sample fill latency (sum of services), and the
  /// data-parallel reference (every layer at the full cluster count).
  double est_steady_cycles = 0;
  double est_fill_cycles = 0;
  double est_dp_cycles = 0;

  int num_stages() const { return static_cast<int>(stages.size()); }
  /// Stage index owning layer `l` (-1 when out of range).
  int stage_of_layer(int l) const {
    for (int s = 0; s < num_stages(); ++s) {
      if (l >= stages[s].layer_lo && l < stages[s].layer_hi) return s;
    }
    return -1;
  }
};

class Partitioner {
 public:
  /// Assumed ifmap density at static plan time. Plans are computed once per
  /// network, before any input exists; the paper's workloads fire in the
  /// 10–30% range, and the axis ranking is insensitive to the exact value
  /// (it cancels out of every term that scales with occupancy).
  static constexpr double kDefaultDensity = 0.15;

  Partitioner(const RunOptions& opt, int clusters, PartitionStrategy strategy);

  PartitionStrategy strategy() const { return strategy_; }
  int clusters() const { return clusters_; }

  /// Plan one layer (the hybrid strategy ranks axes at kDefaultDensity;
  /// the fixed strategies need no estimate).
  LayerPlan plan_layer(const snn::LayerSpec& spec) const;

  // --- shard range builders (exposed for tests) -----------------------------

  /// SIMD-group-aligned output channel ranges; fewer groups than clusters
  /// leaves trailing clusters unassigned (empty ranges are dropped).
  static std::vector<ShardRange> channel_slices(int out_c, int simd,
                                                int clusters);
  /// Contiguous output-row bands, at most one per cluster, balanced to within
  /// one row.
  static std::vector<ShardRange> row_stripes(int out_rows, int clusters);
  /// SIMD-aligned input-channel segments for FC partial-sum sharding.
  static std::vector<ShardRange> fanin_segments(int in_c, int simd,
                                                int clusters);

  /// Choose between data-parallel sharding, stage-parallel pipelining and a
  /// hybrid for `net`: balance contiguous layer ranges across candidate
  /// stage counts (DP minimizing the max stage service, boundary handoffs
  /// priced via `noc`), then pick the mode with the lowest per-sample cost
  /// amortized over cfg.batch_lanes in-flight samples. cfg.mode != kAuto
  /// restricts the candidates to that mode's shape.
  StagePlan plan_pipeline(const snn::Network& net, const PipelineConfig& cfg,
                          const arch::NocParams& noc) const;

  /// Same planning over a bare layer list (the sharded backend plans its
  /// epochs from the prepared specs, not the Network).
  StagePlan plan_pipeline(std::span<const snn::LayerSpec> layers,
                          const PipelineConfig& cfg,
                          const arch::NocParams& noc) const;

 private:
  // Planning-time cost queries: estimated layer cycles on `clusters()`
  // clusters at kDefaultDensity, from the mechanistic cost-model constants.
  // These rank axes; they are not predictions of any particular input's
  // cycle count.
  double estimate_output_channel(const snn::LayerSpec& spec) const;
  double estimate_ifmap_stripe(const snn::LayerSpec& spec) const;
  double estimate_fanin(const snn::LayerSpec& spec) const;
  /// Dispatch over the three estimates above.
  double estimate_axis(const snn::LayerSpec& spec, ShardAxis axis) const;

  /// Estimated per-sample cycles of `spec` sharded across a `group`-cluster
  /// stage under this partitioner's strategy (the axis a group-sized
  /// partitioner would execute with).
  double layer_cost(const snn::LayerSpec& spec, int group) const;

  /// The plan for one shard axis. Falls back to a single output-channel
  /// shard when the axis degenerates for this layer.
  LayerPlan make_axis_plan(const snn::LayerSpec& spec, ShardAxis axis) const;

  RunOptions opt_;
  int clusters_;
  PartitionStrategy strategy_;
};

}  // namespace spikestream::kernels
