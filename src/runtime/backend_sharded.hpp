// Multi-cluster sharded backend, rebuilt on the partition-plan subsystem
// (kernels/partition.hpp): each layer executes according to an immutable
// LayerPlan — output-channel tiles, spatial ifmap stripes, or FC fan-in
// segments — computed once per network (cost-model-driven for the hybrid
// strategy) and cached by layer signature.
//
// Spikes come from one full-width functional pass per layer — conv and
// encode layers as the analytical backend's row tiles (functional_row_tiles,
// on the persistent WorkerPool), FC layers as one fc_functional call — so
// they are the unsharded layer's spikes for every plan by construction.
// Shards carry timing only: each cluster's timing pass runs on its own view
// of the result (an output-channel tile sees its channel slice of the
// spikes, a stripe its halo'd CSR row slice and its output rows, a fan-in
// segment its input-channel band plus an explicit partial-reduction tail on
// the merging cluster). Shards run on the same pool in per-cluster
// ShardLanes of the borrowed LayerScratch, so steady-state execution
// performs zero heap allocations in both serial and pooled mode.
//
// Per-cluster KernelStats merge with wall-clock = max and activity = sum;
// inter-cluster traffic (broadcast replicas, stripe halos, ofmap gathers,
// partial reductions) is recorded in KernelStats::noc_bytes and — when
// NocParams::model_contention is set — charged against the shared-bandwidth
// ceiling of arch/noc.hpp instead of assuming a perfect crossbar.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "arch/noc.hpp"
#include "common/function_ref.hpp"
#include "kernels/partition.hpp"
#include "runtime/backend.hpp"
#include "runtime/worker_pool.hpp"

namespace spikestream::runtime {

class ShardedBackend : public ExecutionBackend {
 public:
  /// `pool` = null creates a private pool sized for `clusters` (when
  /// `use_threads`); passing the engine's pool shares one set of threads
  /// between shard fan-out and batch-sample fan-out. Layers with fewer
  /// output elements than `min_work` run their shard timing passes on the
  /// submitting thread even in pooled mode (host-side cutoff, bit-identical
  /// results).
  ShardedBackend(const kernels::RunOptions& opt, int clusters,
                 bool use_threads = true,
                 kernels::PartitionStrategy strategy =
                     kernels::PartitionStrategy::kOutputChannel,
                 const arch::NocParams& noc = {},
                 std::shared_ptr<WorkerPool> pool = nullptr,
                 int min_work = 32 * 1024,
                 const kernels::ReplanConfig& replan = {},
                 const kernels::PipelineConfig& pipeline = {});

  const char* name() const override { return "sharded"; }
  int num_clusters() const override { return clusters_; }
  kernels::PartitionStrategy strategy() const {
    return partitioner_.strategy();
  }
  const arch::NocParams& noc_params() const { return noc_; }
  const kernels::PipelineConfig& pipeline_config() const { return pipeline_; }

  /// The stage assignment prepare() chose (default-constructed — zero stages
  /// — before prepare, or when stage-parallel execution is disabled).
  /// Per-layer runs then price each layer at its stage's group width and
  /// charge the boundary handoffs; the batch-scope FIFO timeline lives in
  /// runtime/stage_pipeline.hpp.
  const kernels::StagePlan& stage_plan() const { return stage_plan_; }
  /// True when prepare() armed a multi-stage pipeline for this network.
  bool stage_parallel_active() const {
    return pipeline_.enabled && stage_plan_.num_stages() > 1;
  }

  /// Plan every layer, so the plans live alongside the quantized weights
  /// from construction on and the first run already executes
  /// allocation-light.
  void prepare(const snn::Network& net) const override;
  /// One shard lane per planned cluster in every layer's scratch.
  void presize_state(snn::NetworkState& state,
                     const snn::Network& net) const override;

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

  using ExecutionBackend::run_conv;
  using ExecutionBackend::run_encode;
  using ExecutionBackend::run_fc;

  /// The (cached) partition plan of one layer. Exposed for benches/tests.
  /// With adaptive re-planning the returned reference is only valid until
  /// the next run swaps this layer's plan — hold the value, not the ref,
  /// across runs.
  const kernels::LayerPlan& plan_for(const snn::LayerSpec& spec) const;

  // --- occupancy-adaptive re-planning (BackendConfig::replan) ---------------

  /// How often this layer's shard axis has been swapped by the re-planner.
  int replan_flips(const snn::LayerSpec& spec) const;
  /// The layer's current shard axis (== plan_for(spec).axis).
  kernels::ShardAxis active_axis(const snn::LayerSpec& spec) const;
  /// The layer's current occupancy EMA (-1 before the first observation).
  double occupancy_ema(const snn::LayerSpec& spec) const;

  /// Legacy view of the output-channel ranges for a layer with `out_c`
  /// channels (SIMD-group aligned). Exposed for tests.
  std::vector<std::pair<int, int>> slices(int out_c) const;

  // --- fault injection / degraded mode (runtime/faults.hpp) -----------------
  // All const (the backend is shared const on the hot path) and thread-safe:
  // structural faults mutate the same copy-on-write plan cache the adaptive
  // re-planner uses, so in-flight waves keep their pinned plans and the next
  // dispatch picks up the degraded ones. Cluster ids below are *active slot*
  // ids: after a fail-stop the survivors are renumbered into the dense
  // [0, active_clusters()) range the re-planned shards execute on.

  /// Fail-stop: mask `cluster` out of the active set and re-pick every
  /// prepared layer's plan over the survivors (stage pipelines re-balance at
  /// the reduced width). Exactly one re-plan pass per accepted fault — see
  /// degrade_replans(). Returns false (and changes nothing) when the cluster
  /// is out of range, already failed, or the last survivor. Completed spikes
  /// are bit-identical across any plan, so only modeled timing degrades.
  bool fail_cluster(int cluster) const;
  /// Straggler: multiply the shard service time of one active cluster slot
  /// by `factor` >= 1 (1 restores full speed).
  void set_cluster_slowdown(int cluster, double factor) const;
  /// Derate one active cluster slot's NoC injection/ejection bandwidth by
  /// `factor` >= 1. Under the legacy shared-ceiling topology the whole
  /// fabric runs at the worst derate (a shared bus has no per-link wires).
  void set_link_degrade(int cluster, double factor) const;

  /// Clusters still in the active set (== num_clusters() when healthy).
  int active_clusters() const {
    return active_clusters_.load(std::memory_order_relaxed);
  }
  int failed_clusters() const { return clusters_ - active_clusters(); }
  /// Degraded-mode re-plan passes completed — exactly one per accepted
  /// fail_cluster(), never more (the no-oscillation guarantee: occupancy-
  /// adaptive re-planning freezes while degraded).
  int degrade_replans() const {
    return degrade_replans_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-layer stage assignment, filled by prepare() in stage mode. Keyed by
  /// layer signature like the plan cache. A default value — stage 0 on
  /// cluster 0, no boundary — is what every layer outside stage mode gets.
  struct StageInfo {
    int stage = 0;
    int cluster_lo = 0;  ///< first cluster of the owning group
    int group = 1;       ///< group width the layer's plan was sized for
    bool boundary = false;       ///< last layer of a non-final stage
    int next_cluster_lo = 0;     ///< consumer group's lead cluster
  };

  /// True when `spec` is big enough for pool fan-out of its shard timing
  /// passes to beat the handoff overhead (the per-shard minimum-work
  /// cutoff).
  bool pool_worthwhile(const snn::LayerSpec& spec) const;

  /// Run `fn(shard_index)` for every shard — on the pool when `pooled`,
  /// serially otherwise (bit-identical either way).
  void for_shards(std::size_t n, bool pooled,
                  common::FunctionRef<void(std::size_t)> fn) const;

  /// Merge per-shard stats into `merged` (wall-clock max / activity sum) and
  /// keep the slowest shard's DMA plan. `base` is the first cluster slot the
  /// shards run on: a slot with an injected slowdown has its shard's
  /// wall-clock scaled by the straggler factor before the max.
  void merge_shard_stats(const kernels::LayerScratch& scratch, std::size_t n,
                         kernels::LayerRun& merged, int base) const;

  /// Shared row-stripe merge (conv + encode): merge stats, return the ofmap
  /// gather traffic of shards 1..n-1.
  double merge_stripe_shards(const kernels::LayerPlan& plan,
                             const snn::LayerSpec& spec,
                             const kernels::LayerScratch& scratch,
                             kernels::LayerRun& merged, int base) const;

  /// Record inter-cluster traffic and, with contention modeling on, let the
  /// fabric gate the layer's wall-clock (the raise is itemized in
  /// KernelStats::noc_contention_cycles). Under the legacy-ceiling topology
  /// `legacy_bytes` is accumulated and priced exactly like the historical
  /// expression (bit-exact back-compat); under a link-level topology
  /// `charge` replays the transfer pattern onto a per-link NocModel —
  /// noc_bytes then counts each link traversal once (a multicast is no
  /// longer billed one full replica per receiver) and the gate is the
  /// bottleneck link's serialization, not a shared ceiling.
  void apply_noc(kernels::KernelStats& st, double legacy_bytes,
                 common::FunctionRef<void(arch::NocModel&)> charge) const;

  /// Boundary-layer tail of a pipeline stage: charge the producing group for
  /// packing its output spikes into the inter-stage FIFO and for the handoff
  /// crossing to the consumer group's lead cluster. No-op outside stage mode
  /// (historical runs are bit-exact).
  void apply_stage_handoff(const StageInfo& stage, const snn::LayerSpec& spec,
                           kernels::LayerRun& run) const;

  // Per-plan timing passes. Each runs after the full-width functional pass
  // has written the layer's spikes and out_nnz into scratch.main.run, times
  // every shard on its view of them, merges the shard stats into
  // scratch.main.run and charges the plan's NoC traffic. `base` is the
  // first cluster of the group executing the layer (0 outside stage mode).

  /// Output-channel tiling: every shard sees its SIMD-aligned channel slice
  /// of the spikes and runs `time` on it; the input is broadcast.
  /// `input_bytes` is one cluster's copy of the layer input (for the NoC
  /// broadcast charge).
  const kernels::LayerRun& run_channel_sharded(
      const kernels::LayerPlan& plan, const snn::LayerSpec& spec,
      kernels::LayerScratch& scratch, double input_bytes, int base,
      common::FunctionRef<void(const snn::LayerSpec&, kernels::KernelScratch&)>
          time) const;

  const kernels::LayerRun& run_stripe_conv(const kernels::LayerPlan& plan,
                                           const snn::LayerSpec& spec,
                                           const compress::CsrIfmap& ifmap,
                                           kernels::LayerScratch& scratch,
                                           int base) const;
  const kernels::LayerRun& run_stripe_encode(const kernels::LayerPlan& plan,
                                             const snn::LayerSpec& spec,
                                             kernels::LayerScratch& scratch,
                                             int base) const;
  const kernels::LayerRun& run_fc_fanin(const kernels::LayerPlan& plan,
                                        const snn::LayerSpec& spec,
                                        const compress::CsrIfmap& ifmap,
                                        kernels::LayerScratch& scratch,
                                        int base) const;

  /// Current plan of the layer with signature `sig` by copyable handle: the
  /// dispatch path pins the plan it executes with for the whole layer run,
  /// so the adaptive re-planner can swap in a new plan concurrently without
  /// invalidating in-flight shards (copy-on-write — the old plan lives until
  /// its last holder drops it). A non-null `stage` receives a copy of the
  /// layer's stage assignment, read under the same shared lock: a copy,
  /// because a concurrent fail_cluster rebuilds stage_info_.
  std::shared_ptr<const kernels::LayerPlan> plan_handle(
      std::uint64_t sig, const snn::LayerSpec& spec,
      StageInfo* stage = nullptr) const;

  /// Adaptive re-planning bookkeeping of one layer. The mutex serializes
  /// EMA updates from concurrent batch workers; the replan decision itself
  /// is two allocation-free cost-model evaluations, so the steady-state
  /// (non-flipping) path stays heap-free.
  struct AdaptiveState {
    std::mutex mu;
    double ema = -1.0;  ///< measured input-density EMA, -1 = unseeded
    long runs = 0;
    int flips = 0;
    kernels::ShardAxis axis = kernels::ShardAxis::kOutputChannel;
  };

  /// Record one observed input density for `spec` and re-rank its shard
  /// axes once the warmup window has passed; swaps the cached plan (and
  /// counts a flip) when the candidate clears the hysteresis margin. No-op
  /// unless replan_.enabled.
  void observe_density(std::uint64_t sig, const snn::LayerSpec& spec,
                       std::size_t in_nnz, std::size_t in_elems) const;

  double initial_plan_density() const;

  // --- degraded-mode internals ----------------------------------------------

  /// Re-pick every prepared layer's plan over `width` clusters (COW swap
  /// under plan_mu_; stage mode re-balances the pipeline first). Plans use
  /// the layer's measured density EMA when one is seeded, the initial
  /// planning density otherwise. Caller holds fault_mu_.
  void replan_for_width(int width) const;
  /// The layer's measured density EMA when seeded, initial_plan_density()
  /// otherwise — what degraded re-planning plans at.
  double planning_density(std::uint64_t sig) const;
  /// Straggler factor of one active cluster slot (1.0 = healthy). One
  /// relaxed flag load on the healthy hot path.
  double shard_slowdown(int cluster) const {
    if (!any_slowdown_.load(std::memory_order_relaxed)) return 1.0;
    if (cluster < 0 || cluster >= arch::NocModel::kMaxClusters) return 1.0;
    return slowdown_[static_cast<std::size_t>(cluster)].load(
        std::memory_order_relaxed);
  }

  int clusters_;
  bool threads_;
  int min_work_;  ///< output elements below which fan-out stays serial
  kernels::Partitioner partitioner_;
  arch::NocParams noc_;
  kernels::ReplanConfig replan_;
  kernels::PipelineConfig pipeline_;
  /// Stage assignment of the prepared network (stage mode only). Written
  /// under plan_mu_ by prepare() and by degraded re-planning; layer calls
  /// copy their entry out under the shared lock (plan_handle).
  mutable kernels::StagePlan stage_plan_;
  mutable std::map<std::uint64_t, StageInfo> stage_info_;
  std::shared_ptr<WorkerPool> pool_;
  /// Reader-writer lock: after prepare() the plan cache is read-only on the
  /// hot path (one shared acquisition per layer dispatch); the exclusive
  /// side only runs for specs never planned before — or for a re-plan swap.
  mutable std::shared_mutex plan_mu_;
  mutable std::map<std::uint64_t, std::shared_ptr<const kernels::LayerPlan>>
      plans_;
  /// node-stable map: AdaptiveState holds a mutex and must not move.
  /// adaptive_mu_ guards the map structure only (find / first-touch insert);
  /// per-layer updates serialize on the entry's own mutex.
  mutable std::mutex adaptive_mu_;
  mutable std::map<std::uint64_t, AdaptiveState> adaptive_;

  // --- fault state (runtime/faults.hpp) -------------------------------------
  /// Serializes structural fault application (fail_cluster and friends are
  /// rare control-plane calls; the data plane reads only the atomics below).
  /// Lock order: fault_mu_ -> adaptive_mu_ -> AdaptiveState::mu -> plan_mu_.
  mutable std::mutex fault_mu_;
  /// The specs prepare() planned, in layer order — the plan cache only keeps
  /// signatures, so degraded re-planning needs them to rebuild every plan.
  mutable std::vector<snn::LayerSpec> prepared_specs_;
  mutable std::array<bool, arch::NocModel::kMaxClusters> failed_{};
  mutable std::atomic<int> active_clusters_{1};
  mutable std::atomic<int> degrade_replans_{0};
  mutable std::atomic<bool> any_slowdown_{false};
  mutable std::atomic<bool> any_link_derate_{false};
  mutable std::array<std::atomic<double>, arch::NocModel::kMaxClusters>
      slowdown_;
  mutable std::array<std::atomic<double>, arch::NocModel::kMaxClusters>
      link_derate_;
  /// Worst link derate across clusters (legacy shared-ceiling divisor).
  mutable std::atomic<double> max_link_derate_{1.0};
};

}  // namespace spikestream::runtime
