// Multi-cluster sharded backend, rebuilt on the partition-plan subsystem
// (kernels/partition.hpp): each layer executes according to an immutable
// LayerPlan — output-channel tiles, spatial ifmap stripes, or FC fan-in
// segments — computed once per network (cost-model-driven for the hybrid
// strategy).
//
// Plans are values. Everything a layer call reads about how the network is
// split and which clusters are healthy — every prepared layer's LayerPlan
// and stage assignment, the StagePlan, the active width, slowdowns and link
// derates — lives in one immutable NetworkPlan epoch, published through an
// atomic pointer. A layer call does one acquire load and takes no lock;
// prepare() and the fault calls build the next epoch under one writer mutex
// and publish it, so a call in flight finishes on the epoch it loaded.
//
// Spikes come from one full-width functional pass per layer — conv and
// encode layers as the analytical backend's row tiles (functional_row_tiles,
// on the persistent WorkerPool), FC layers as one fc_functional call — so
// they are the unsharded layer's spikes for every plan by construction.
// Shards carry timing only: each cluster's timing pass runs on its own view
// of the result, in place — an output-channel tile times its channel groups
// of the full-width spikes, a stripe its output rows and the halo'd rows of
// the full-width CSR input, a fan-in segment its input-channel band plus an
// explicit partial-reduction tail on the merging cluster. Nothing is copied:
// the per-position stream terms and group counts are computed once per
// layer call and every shard reads its range of them (kernels' "timing
// views"). Shards time into per-cluster KernelScratch lanes of the borrowed
// LayerScratch, so steady-state execution performs zero heap allocations in
// both serial and pooled mode.
//
// Per-cluster KernelStats merge with wall-clock = max and activity = sum;
// inter-cluster traffic (broadcast replicas, stripe halos, ofmap gathers,
// partial reductions) is recorded in KernelStats::noc_bytes and — when
// NocParams::model_contention is set — charged against the shared-bandwidth
// ceiling of arch/noc.hpp instead of assuming a perfect crossbar.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
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
  /// results). Throws spikestream::Error, naming the BackendConfig field,
  /// unless 1 <= clusters <= arch::NocModel::kMaxClusters and min_work >= 0.
  ShardedBackend(const kernels::RunOptions& opt, int clusters,
                 bool use_threads = true,
                 kernels::PartitionStrategy strategy =
                     kernels::PartitionStrategy::kOutputChannel,
                 const arch::NocParams& noc = {},
                 std::shared_ptr<WorkerPool> pool = nullptr,
                 int min_work = 32 * 1024,
                 const kernels::PipelineConfig& pipeline = {});

  const char* name() const override { return "sharded"; }
  int num_clusters() const override { return clusters_; }
  kernels::PartitionStrategy strategy() const { return strategy_; }
  const arch::NocParams& noc_params() const { return noc_; }
  const kernels::PipelineConfig& pipeline_config() const { return pipeline_; }

  /// The stage assignment of the current epoch (zero stages before
  /// prepare, or when stage-parallel execution is disabled). Per-layer runs
  /// price each layer at its stage's group width and charge the boundary
  /// handoffs; the batch-scope FIFO timeline lives in
  /// runtime/stage_pipeline.hpp.
  kernels::StagePlan stage_plan() const { return epoch().stage_plan; }
  /// True when the current epoch runs a multi-stage pipeline.
  bool stage_parallel_active() const {
    return epoch().stage_plan.num_stages() > 1;
  }

  /// Plan every layer at the active width and publish the epoch, so the
  /// plans live alongside the quantized weights from construction on.
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

  /// The current epoch's partition plan of one layer; a layer outside the
  /// prepared network is planned at the epoch's width. Exposed for
  /// benches/tests.
  kernels::LayerPlan plan_for(const snn::LayerSpec& spec) const;

  /// Legacy view of the output-channel ranges for a layer with `out_c`
  /// channels (SIMD-group aligned). Exposed for tests.
  std::vector<std::pair<int, int>> slices(int out_c) const;

  // --- fault injection / degraded mode (runtime/faults.hpp) -----------------
  // All const (the backend is shared const on the hot path) and thread-safe:
  // each accepted call publishes a new epoch, so layer calls in flight finish
  // on the epoch they loaded and the next call sees the fault. Cluster ids
  // are *active slot* ids: after a fail-stop the survivors are renumbered
  // into the dense [0, active_clusters()) range the re-planned shards
  // execute on.

  /// Fail-stop: drop active slot `cluster` and re-plan every prepared layer
  /// over the survivors (stage pipelines re-balance at the reduced width).
  /// Exactly one re-plan pass per accepted fault — see degrade_replans().
  /// Returns false (and changes nothing) unless 0 <= cluster <
  /// active_clusters() and another cluster survives. Completed spikes are
  /// bit-identical across any plan, so only modeled timing degrades.
  bool fail_cluster(int cluster) const;
  /// Straggler: multiply the shard service time of one cluster slot by
  /// `factor` >= 1 (1 restores full speed). Ids outside [0,
  /// active_clusters()), slots a fail-stop removed included, are ignored.
  void set_cluster_slowdown(int cluster, double factor) const;
  /// Derate one cluster slot's NoC injection/ejection bandwidth by
  /// `factor` >= 1. Under the legacy shared-ceiling topology the whole
  /// fabric runs at the worst derate of the active slots (a shared bus has
  /// no per-link wires). Ids outside [0, active_clusters()) are ignored.
  /// Slowdowns and derates follow their cluster through fail-stops: a
  /// failed slot's leave with it, and survivors keep theirs when they are
  /// renumbered.
  void set_link_degrade(int cluster, double factor) const;

  /// Clusters still in the active set (== num_clusters() when healthy).
  int active_clusters() const { return epoch().width; }
  int failed_clusters() const { return clusters_ - active_clusters(); }
  /// Degraded-mode re-plan passes completed — exactly one per accepted
  /// fail_cluster(), never more.
  int degrade_replans() const { return epoch().faults.degrade_replans; }

 private:
  /// Per-layer stage assignment (stage mode only). A default value — stage
  /// 0 on cluster 0, no boundary — is what every layer outside stage mode
  /// gets.
  struct StageInfo {
    int stage = 0;
    int cluster_lo = 0;  ///< first cluster of the owning group
    int group = 1;       ///< group width the layer's plan was sized for
    bool boundary = false;       ///< last layer of a non-final stage
    int next_cluster_lo = 0;     ///< consumer group's lead cluster
  };

  /// One immutable planning epoch. Built whole by prepare() and the fault
  /// calls, never modified after publication.
  struct NetworkPlan {
    struct Layer {
      kernels::LayerPlan plan;
      StageInfo stage;
    };
    /// Injected faults, carried over from epoch to epoch.
    struct Faults {
      int degrade_replans = 0;  ///< accepted fail-stops
      /// Per cluster slot: straggler factor and NoC link derate (1 =
      /// healthy), and the worst derate over the active slots (the legacy
      /// shared-ceiling divisor). Only the active slots [0, width) are
      /// read.
      std::array<double, arch::NocModel::kMaxClusters> slowdown = ones();
      std::array<double, arch::NocModel::kMaxClusters> link_derate = ones();
      double max_link_derate = 1.0;

      void refresh_max_link_derate(int width) {
        max_link_derate =
            *std::max_element(link_derate.begin(), link_derate.begin() + width);
      }
      /// Fail-stop of active slot `slot` out of `width`: its slowdown and
      /// derate leave with it, and the survivors above it move down one
      /// slot together with theirs, as the re-plan renumbers them.
      void retire(int slot, int width) {
        for (auto* per_slot : {&slowdown, &link_derate}) {
          std::copy(per_slot->begin() + slot + 1, per_slot->begin() + width,
                    per_slot->begin() + slot);
          (*per_slot)[static_cast<std::size_t>(width - 1)] = 1.0;
        }
        refresh_max_link_derate(width - 1);
      }

      static std::array<double, arch::NocModel::kMaxClusters> ones() {
        std::array<double, arch::NocModel::kMaxClusters> a;
        a.fill(1.0);
        return a;
      }
    };
    std::vector<snn::LayerSpec> specs;  ///< the prepared network, in order
    std::map<std::uint64_t, Layer> layers;  ///< by layer signature
    kernels::StagePlan stage_plan;  ///< empty outside stage mode
    int width = 1;                  ///< active clusters
    Faults faults;
  };

  const NetworkPlan& epoch() const {
    return *epoch_.load(std::memory_order_acquire);
  }
  /// The plans and stages of `specs` at `width` active clusters (stage mode
  /// re-balances the pipeline at that width and plans each layer at its
  /// group's width), with no faults. A pure function of its arguments and
  /// the backend's configuration.
  NetworkPlan plan_network(std::span<const snn::LayerSpec> specs,
                           int width) const;
  /// `spec`'s layer entry in `ep`. A spec outside the prepared network is
  /// planned at the epoch's width into `miss` (not cached).
  const NetworkPlan::Layer& layer_of(const NetworkPlan& ep,
                                     const snn::LayerSpec& spec,
                                     NetworkPlan::Layer& miss) const;
  /// Retain `next` and make it the current epoch. Writers hold writer_mu_.
  void publish(NetworkPlan next) const;

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
  void merge_shard_stats(const NetworkPlan& ep,
                         const kernels::LayerScratch& scratch, std::size_t n,
                         kernels::LayerRun& merged, int base) const;

  /// Shared row-stripe merge (conv + encode): merge stats, return the ofmap
  /// gather traffic of shards 1..n-1.
  double merge_stripe_shards(const NetworkPlan& ep,
                             const kernels::LayerPlan& plan,
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
  void apply_noc(const NetworkPlan& ep, kernels::KernelStats& st,
                 double legacy_bytes,
                 common::FunctionRef<void(arch::NocModel&)> charge) const;

  /// Boundary-layer tail of a pipeline stage: charge the producing group for
  /// packing its output spikes into the inter-stage FIFO and for the handoff
  /// crossing to the consumer group's lead cluster. No-op outside stage mode
  /// (historical runs are bit-exact).
  void apply_stage_handoff(const NetworkPlan& ep, const StageInfo& stage,
                           const snn::LayerSpec& spec,
                           kernels::LayerRun& run) const;

  /// Time every shard's view (its channel tile or its output rows) of the
  /// layer call in place, into scratch.lanes[0, plan.n()): the per-layer
  /// timing terms once into scratch.main, the shards' task lists (on the
  /// pool when pool_worthwhile), all their schedules in one interleaved
  /// call, then each shard's DMA plan. `ifmap` is null for encode layers.
  void time_shards(const kernels::LayerPlan& plan, const snn::LayerSpec& spec,
                   const compress::CsrIfmap* ifmap,
                   kernels::LayerScratch& scratch) const;

  // Per-plan timing passes. Each runs after the full-width functional pass
  // has written the layer's spikes and out_nnz into scratch.main.run, times
  // every shard on its view of them, merges the shard stats into
  // scratch.main.run and charges the plan's NoC traffic. `ep` is the epoch
  // the layer call loaded; `base` is the first cluster of the group
  // executing the layer (0 outside stage mode).

  /// Output-channel tiling: every shard times its SIMD-aligned channel
  /// tile; the input (`ifmap`, null for encode layers) is broadcast.
  /// `input_bytes` is one cluster's copy of the layer input (for the NoC
  /// broadcast charge).
  const kernels::LayerRun& run_channel_sharded(
      const NetworkPlan& ep, const kernels::LayerPlan& plan,
      const snn::LayerSpec& spec, const compress::CsrIfmap* ifmap,
      kernels::LayerScratch& scratch, double input_bytes, int base) const;

  const kernels::LayerRun& run_stripe_conv(const NetworkPlan& ep,
                                           const kernels::LayerPlan& plan,
                                           const snn::LayerSpec& spec,
                                           const compress::CsrIfmap& ifmap,
                                           kernels::LayerScratch& scratch,
                                           int base) const;
  const kernels::LayerRun& run_stripe_encode(const NetworkPlan& ep,
                                             const kernels::LayerPlan& plan,
                                             const snn::LayerSpec& spec,
                                             kernels::LayerScratch& scratch,
                                             int base) const;
  const kernels::LayerRun& run_fc_fanin(const NetworkPlan& ep,
                                        const kernels::LayerPlan& plan,
                                        const snn::LayerSpec& spec,
                                        const compress::CsrIfmap& ifmap,
                                        kernels::LayerScratch& scratch,
                                        int base) const;

  int clusters_;
  bool threads_;
  int min_work_;  ///< output elements below which fan-out stays serial
  kernels::PartitionStrategy strategy_;
  arch::NocParams noc_;
  kernels::PipelineConfig pipeline_;
  std::shared_ptr<WorkerPool> pool_;

  /// The current epoch. Every epoch ever published stays in `epochs_` until
  /// the backend is destroyed (a few KB per accepted prepare or fault call),
  /// so a pointer a layer call loaded never dangles.
  mutable std::atomic<const NetworkPlan*> epoch_{nullptr};
  /// Serializes the writers: prepare() and the fault calls.
  mutable std::mutex writer_mu_;
  mutable std::vector<std::unique_ptr<const NetworkPlan>> epochs_;
};

}  // namespace spikestream::runtime
