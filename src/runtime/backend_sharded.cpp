#include "runtime/backend_sharded.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/float_formats.hpp"
#include "snn/state.hpp"

namespace spikestream::runtime {

namespace {

/// Copy channels [lo, hi) of the layer's full-width spikes into a shard's
/// compact map (reused capacity); returns the slice's spike count.
std::size_t slice_channels_into(const snn::SpikeMap& t, int lo, int hi,
                                snn::SpikeMap& out) {
  out.reshape(t.h, t.w, hi - lo);
  const std::uint8_t* src = t.v.data() + lo;
  std::uint8_t* dst = out.v.data();
  const std::size_t positions =
      static_cast<std::size_t>(t.h) * static_cast<std::size_t>(t.w);
  const std::size_t n = static_cast<std::size_t>(hi - lo);
  for (std::size_t p = 0; p < positions; ++p) {
    std::copy_n(src + p * static_cast<std::size_t>(t.c), n, dst + p * n);
  }
  return snn::spike_count(out);
}

/// Copy spatial rows [lo, hi) of the layer's full-width spikes into a
/// shard's compact map (one block copy: rows are contiguous in HWC); returns
/// the slice's spike count.
std::size_t slice_rows_into(const snn::SpikeMap& t, int lo, int hi,
                            snn::SpikeMap& out) {
  out.reshape(hi - lo, t.w, t.c);
  const std::size_t row =
      static_cast<std::size_t>(t.w) * static_cast<std::size_t>(t.c);
  std::copy_n(t.v.data() + static_cast<std::size_t>(lo) * row,
              static_cast<std::size_t>(hi - lo) * row, out.v.data());
  return snn::spike_count(out);
}

}  // namespace

ShardedBackend::ShardedBackend(const kernels::RunOptions& opt, int clusters,
                               bool use_threads,
                               kernels::PartitionStrategy strategy,
                               const arch::NocParams& noc,
                               std::shared_ptr<WorkerPool> pool, int min_work,
                               const kernels::ReplanConfig& replan,
                               const kernels::PipelineConfig& pipeline)
    : ExecutionBackend(opt),
      clusters_(std::max(1, clusters)),
      threads_(use_threads),
      min_work_(std::max(0, min_work)),
      partitioner_(opt, std::max(1, clusters), strategy),
      noc_(noc),
      replan_(replan),
      pipeline_(pipeline),
      pool_(std::move(pool)) {
  if (threads_ && pool_ == nullptr) {
    pool_ = std::make_shared<WorkerPool>(clusters_ - 1);
  }
  active_clusters_.store(clusters_, std::memory_order_relaxed);
  for (auto& s : slowdown_) s.store(1.0, std::memory_order_relaxed);
  for (auto& d : link_derate_) d.store(1.0, std::memory_order_relaxed);
}

double ShardedBackend::initial_plan_density() const {
  // Adaptive mode plans for the cold start (membranes are empty, the first
  // timesteps run far below steady-state density); the measured EMA upgrades
  // the plan after warmup. Static mode keeps the historical assumption.
  return replan_.enabled ? replan_.cold_density
                         : kernels::Partitioner::kDefaultDensity;
}

std::vector<std::pair<int, int>> ShardedBackend::slices(int out_c) const {
  const int simd = common::simd_lanes(opt_.fmt);
  std::vector<std::pair<int, int>> sl;
  for (const kernels::ShardRange& r :
       kernels::Partitioner::channel_slices(out_c, simd, clusters_)) {
    sl.emplace_back(r.lo, r.hi);
  }
  return sl;
}

std::shared_ptr<const kernels::LayerPlan> ShardedBackend::plan_handle(
    std::uint64_t sig, const snn::LayerSpec& spec, StageInfo* stage) const {
  {
    std::shared_lock<std::shared_mutex> lock(plan_mu_);
    if (stage != nullptr) {
      const auto st = stage_info_.find(sig);  // empty outside stage mode
      if (st != stage_info_.end()) *stage = st->second;
    }
    const auto it = plans_.find(sig);
    if (it != plans_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(plan_mu_);
  const auto it = plans_.find(sig);  // re-check: another writer may have won
  if (it != plans_.end()) return it->second;
  // Cold miss: plan at the *active* width, so a layer first seen after a
  // fail-stop never lands shards on a failed cluster. Healthy runs take the
  // member partitioner (no construction on the common path). Only layers
  // outside the prepared network miss, so none has a stage assignment.
  const int width = active_clusters_.load(std::memory_order_relaxed);
  kernels::LayerPlan plan =
      width == clusters_
          ? partitioner_.plan_layer(spec, initial_plan_density())
          : kernels::Partitioner(opt_, width, partitioner_.strategy())
                .plan_layer(spec, initial_plan_density());
  return plans_
      .emplace(sig, std::make_shared<const kernels::LayerPlan>(std::move(plan)))
      .first->second;
}

const kernels::LayerPlan& ShardedBackend::plan_for(
    const snn::LayerSpec& spec) const {
  // The handle keeps the plan's refcount in the cache; the reference stays
  // valid until a re-plan swap replaces it (see the header note).
  return *plan_handle(kernels::layer_signature(spec), spec);
}

void ShardedBackend::observe_density(std::uint64_t sig,
                                     const snn::LayerSpec& spec,
                                     std::size_t in_nnz,
                                     std::size_t in_elems) const {
  // Stage mode freezes plans at the stage grouping prepare() chose: an
  // adaptive axis flip would re-plan the layer at the *full* cluster count
  // and silently widen a stage's group, so re-planning is disabled whenever
  // the pipeline is armed.
  if (pipeline_.enabled) return;
  if (!replan_.enabled || clusters_ <= 1 || in_elems == 0) return;
  // Degraded mode freezes occupancy-adaptive re-planning: the member
  // partitioner estimates (and make_axis_plan) work at the full cluster
  // count, so an adaptive flip after a fail-stop would silently re-widen the
  // plan onto dead clusters. Plans were re-picked at fault time with the
  // then-current EMA; that choice stands until the fleet heals — this is
  // also what makes the degrade re-plan flip exactly once per fault.
  if (active_clusters_.load(std::memory_order_relaxed) != clusters_) return;
  AdaptiveState* st;
  {
    std::lock_guard<std::mutex> lock(adaptive_mu_);
    st = &adaptive_[sig];  // node-stable; first touch inserts
  }
  const double density =
      static_cast<double>(in_nnz) / static_cast<double>(in_elems);
  std::lock_guard<std::mutex> lock(st->mu);
  if (st->runs == 0) st->axis = plan_for(spec).axis;
  st->ema = st->ema < 0.0
                ? density
                : st->ema + replan_.ema_alpha * (density - st->ema);
  ++st->runs;
  if (st->runs < replan_.warmup_runs) return;
  const kernels::ShardAxis current = st->axis;
  // Re-rank the two viable axes at the measured density (allocation-free
  // estimates). The alternative must clear the hysteresis margin to win;
  // at a stable density the winner is then also hysteresis-stable, so the
  // plan cannot oscillate around a break-even point.
  const kernels::ShardAxis alt = spec.kind == snn::LayerKind::kFc
                                     ? kernels::ShardAxis::kFanIn
                                     : kernels::ShardAxis::kIfmapStripe;
  const kernels::ShardAxis candidate =
      current == kernels::ShardAxis::kOutputChannel
          ? alt
          : kernels::ShardAxis::kOutputChannel;
  const double est_cur = partitioner_.estimate_axis(spec, current, st->ema);
  const double est_new = partitioner_.estimate_axis(spec, candidate, st->ema);
  if (est_new >= replan_.hysteresis * est_cur) return;
  // Build and swap the new plan while still holding the per-layer lock:
  // concurrent observers of the same layer must see axis bookkeeping and
  // cached plan move together, or two racing flips could land their swaps
  // out of order and leave st->axis disagreeing with the executing plan
  // forever. A flip is rare (at most one per density regime), so the
  // allocation stays off the steady path; lock order st->mu -> plan_mu_ is
  // safe because no path acquires st->mu while holding plan_mu_.
  // Degenerate candidates collapse to a single output-channel shard inside
  // make_axis_plan, exactly like the static planner.
  auto next = std::make_shared<const kernels::LayerPlan>(
      partitioner_.make_axis_plan(spec, candidate));
  if (next->axis == current) return;  // candidate degenerated: keep the plan
  st->axis = next->axis;
  ++st->flips;
  std::unique_lock<std::shared_mutex> plock(plan_mu_);
  plans_[sig] = std::move(next);
}

int ShardedBackend::replan_flips(const snn::LayerSpec& spec) const {
  const std::uint64_t sig = kernels::layer_signature(spec);
  AdaptiveState* st = nullptr;
  {
    std::lock_guard<std::mutex> lock(adaptive_mu_);
    const auto it = adaptive_.find(sig);
    if (it == adaptive_.end()) return 0;
    st = &it->second;  // node-stable
  }
  std::lock_guard<std::mutex> lock(st->mu);
  return st->flips;
}

kernels::ShardAxis ShardedBackend::active_axis(
    const snn::LayerSpec& spec) const {
  return plan_for(spec).axis;
}

double ShardedBackend::occupancy_ema(const snn::LayerSpec& spec) const {
  const std::uint64_t sig = kernels::layer_signature(spec);
  AdaptiveState* st = nullptr;
  {
    std::lock_guard<std::mutex> lock(adaptive_mu_);
    const auto it = adaptive_.find(sig);
    if (it == adaptive_.end()) return -1.0;
    st = &it->second;  // node-stable
  }
  std::lock_guard<std::mutex> lock(st->mu);
  return st->ema;
}

// ---------------------------------------------------------------------------
// Fault injection / degraded mode
// ---------------------------------------------------------------------------

double ShardedBackend::planning_density(std::uint64_t sig) const {
  AdaptiveState* st = nullptr;
  {
    std::lock_guard<std::mutex> lock(adaptive_mu_);
    const auto it = adaptive_.find(sig);
    if (it != adaptive_.end()) st = &it->second;  // node-stable
  }
  if (st != nullptr) {
    std::lock_guard<std::mutex> lock(st->mu);
    if (st->ema >= 0.0) return st->ema;
  }
  return initial_plan_density();
}

void ShardedBackend::replan_for_width(int width) const {
  if (prepared_specs_.empty()) return;  // nothing prepared: cold misses will
                                        // plan at the active width anyway
  kernels::Partitioner part(opt_, width, partitioner_.strategy());
  if (pipeline_.enabled && stage_plan_.num_stages() > 0) {
    // Stage mode: re-balance the whole pipeline at the surviving width, then
    // re-pin every member layer's plan at its new group size — the same
    // shape prepare() built, one cluster narrower. Adaptive EMAs are never
    // seeded in stage mode, so the planning density matches prepare()'s.
    kernels::StagePlan sp = part.plan_pipeline(
        std::span<const snn::LayerSpec>(prepared_specs_), pipeline_, noc_,
        initial_plan_density());
    std::unique_lock<std::shared_mutex> lock(plan_mu_);
    stage_plan_ = std::move(sp);
    stage_info_.clear();
    for (int s = 0; s < stage_plan_.num_stages(); ++s) {
      const kernels::PipelineStage& st =
          stage_plan_.stages[static_cast<std::size_t>(s)];
      kernels::Partitioner group_part(opt_, st.clusters(),
                                      partitioner_.strategy());
      for (int l = st.layer_lo; l < st.layer_hi; ++l) {
        const snn::LayerSpec& spec =
            prepared_specs_[static_cast<std::size_t>(l)];
        StageInfo info;
        info.stage = s;
        info.cluster_lo = st.cluster_lo;
        info.group = st.clusters();
        info.boundary =
            s + 1 < stage_plan_.num_stages() && l == st.layer_hi - 1;
        info.next_cluster_lo =
            info.boundary
                ? stage_plan_.stages[static_cast<std::size_t>(s + 1)].cluster_lo
                : 0;
        const std::uint64_t sig = kernels::layer_signature(spec);
        stage_info_[sig] = info;
        plans_[sig] = std::make_shared<const kernels::LayerPlan>(
            group_part.plan_layer(spec, initial_plan_density()));
      }
    }
    return;
  }
  for (const snn::LayerSpec& spec : prepared_specs_) {
    const std::uint64_t sig = kernels::layer_signature(spec);
    // Measured density where one is seeded: the degraded plan should serve
    // the traffic the layer actually sees, not the cold-start assumption.
    auto next = std::make_shared<const kernels::LayerPlan>(
        part.plan_layer(spec, planning_density(sig)));
    std::unique_lock<std::shared_mutex> lock(plan_mu_);
    plans_[sig] = std::move(next);
  }
}

bool ShardedBackend::fail_cluster(int cluster) const {
  std::lock_guard<std::mutex> lock(fault_mu_);
  const int active = active_clusters_.load(std::memory_order_relaxed);
  if (cluster < 0 || cluster >= clusters_ || active <= 1) return false;
  if (failed_[static_cast<std::size_t>(cluster)]) return false;
  failed_[static_cast<std::size_t>(cluster)] = true;
  const int width = active - 1;
  // Survivors renumber into the dense [0, width) slot range: plans encode
  // shard counts and ranges, not physical cluster ids, so masking a cluster
  // is exactly re-planning one narrower. COW swap — in-flight runs keep the
  // plan they pinned; the next dispatch executes degraded.
  replan_for_width(width);
  active_clusters_.store(width, std::memory_order_relaxed);
  degrade_replans_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void ShardedBackend::set_cluster_slowdown(int cluster, double factor) const {
  if (cluster < 0 || cluster >= arch::NocModel::kMaxClusters) return;
  std::lock_guard<std::mutex> lock(fault_mu_);
  slowdown_[static_cast<std::size_t>(cluster)].store(
      std::max(1.0, factor), std::memory_order_relaxed);
  bool any = false;
  for (int c = 0; c < clusters_ && c < arch::NocModel::kMaxClusters; ++c) {
    any |= slowdown_[static_cast<std::size_t>(c)].load(
               std::memory_order_relaxed) > 1.0;
  }
  any_slowdown_.store(any, std::memory_order_relaxed);
}

void ShardedBackend::set_link_degrade(int cluster, double factor) const {
  if (cluster < 0 || cluster >= arch::NocModel::kMaxClusters) return;
  std::lock_guard<std::mutex> lock(fault_mu_);
  link_derate_[static_cast<std::size_t>(cluster)].store(
      std::max(1.0, factor), std::memory_order_relaxed);
  double worst = 1.0;
  bool any = false;
  for (int c = 0; c < clusters_ && c < arch::NocModel::kMaxClusters; ++c) {
    const double d =
        link_derate_[static_cast<std::size_t>(c)].load(
            std::memory_order_relaxed);
    worst = std::max(worst, d);
    any |= d > 1.0;
  }
  max_link_derate_.store(worst, std::memory_order_relaxed);
  any_link_derate_.store(any, std::memory_order_relaxed);
}

void ShardedBackend::prepare(const snn::Network& net) const {
  {
    // The plan cache is signature-keyed; keep the specs themselves so a
    // fail-stop can re-plan every prepared layer without the Network.
    std::lock_guard<std::mutex> lock(fault_mu_);
    prepared_specs_.clear();
    prepared_specs_.reserve(net.num_layers());
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      prepared_specs_.push_back(net.layer(l));
    }
  }
  if (pipeline_.enabled && clusters_ > 1 && net.num_layers() > 0) {
    // Choose the execution mode for this network (data-parallel vs
    // stage-parallel vs hybrid) and pin every member layer's partition plan
    // at its stage's group width: the plan cache then serves group-sized
    // plans on the hot path with no stage-awareness. Layers outside the
    // prepared network (unknown signatures) still fall back to full-width
    // plans via plan_handle, exactly like before.
    kernels::StagePlan sp = partitioner_.plan_pipeline(
        net, pipeline_, noc_, initial_plan_density());
    std::unique_lock<std::shared_mutex> lock(plan_mu_);
    stage_plan_ = std::move(sp);
    stage_info_.clear();
    for (int s = 0; s < stage_plan_.num_stages(); ++s) {
      const kernels::PipelineStage& st =
          stage_plan_.stages[static_cast<std::size_t>(s)];
      kernels::Partitioner group_part(opt_, st.clusters(),
                                      partitioner_.strategy());
      for (int l = st.layer_lo; l < st.layer_hi; ++l) {
        const snn::LayerSpec& spec = net.layer(static_cast<std::size_t>(l));
        StageInfo info;
        info.stage = s;
        info.cluster_lo = st.cluster_lo;
        info.group = st.clusters();
        info.boundary =
            s + 1 < stage_plan_.num_stages() && l == st.layer_hi - 1;
        info.next_cluster_lo =
            info.boundary
                ? stage_plan_.stages[static_cast<std::size_t>(s + 1)].cluster_lo
                : 0;
        const std::uint64_t sig = kernels::layer_signature(spec);
        stage_info_[sig] = info;
        plans_[sig] = std::make_shared<const kernels::LayerPlan>(
            group_part.plan_layer(spec, initial_plan_density()));
      }
    }
  }
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const snn::LayerSpec& spec = net.layer(l);
    const kernels::ShardAxis axis = plan_for(spec).axis;  // plans a miss
    if (replan_.enabled && !pipeline_.enabled) {
      // Pre-create the adaptive bookkeeping, so steady-state observation
      // never builds map nodes.
      std::lock_guard<std::mutex> lock(adaptive_mu_);
      adaptive_[kernels::layer_signature(spec)].axis = axis;
    }
  }
}

void ShardedBackend::presize_state(snn::NetworkState& state,
                                   const snn::Network& net) const {
  ExecutionBackend::presize_state(state, net);  // worst-case main arenas
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const snn::LayerSpec& spec = net.layer(l);
    const kernels::LayerPlan& plan = plan_for(spec);
    // With re-planning the layer may flip to its alternative axis later
    // (FC: fan-in <-> output-channel, conv/encode: stripe <-> output-
    // channel); presize the lanes for whichever plan needs more so the swap
    // does not grow arenas mid-run.
    kernels::LayerPlan alt;
    if (replan_.enabled && !pipeline_.enabled && clusters_ > 1) {
      const kernels::ShardAxis other =
          plan.axis == kernels::ShardAxis::kOutputChannel
              ? (spec.kind == snn::LayerKind::kFc
                     ? kernels::ShardAxis::kFanIn
                     : kernels::ShardAxis::kIfmapStripe)
              : kernels::ShardAxis::kOutputChannel;
      alt = partitioner_.make_axis_plan(spec, other);
    }
    const std::size_t lanes_needed = std::max(plan.n(), alt.n());
    if (lanes_needed <= 1) continue;
    kernels::LayerScratch& scratch = state.scratch(l);
    if (scratch.lanes.size() < lanes_needed) {
      scratch.lanes.resize(lanes_needed);
    }
    auto reserve_stripes = [&](const kernels::LayerPlan& p) {
      if (p.axis != kernels::ShardAxis::kIfmapStripe) return;
      for (std::size_t s = 0; s < p.n(); ++s) {
        // Halo'd input stripe, zero-sparsity worst case.
        const std::size_t in_rows =
            static_cast<std::size_t>(p.shards[s].extent() + spec.k - 1);
        const std::size_t positions =
            in_rows * static_cast<std::size_t>(spec.in_w);
        scratch.lanes[s].csr.reserve(
            positions, positions * static_cast<std::size_t>(spec.in_c));
      }
    };
    reserve_stripes(plan);
    reserve_stripes(alt);
  }
}

bool ShardedBackend::pool_worthwhile(const snn::LayerSpec& spec) const {
  // Output elements approximate a shard timing pass's host work (the spike
  // slice and the group counts are both O(out elements)); below the cutoff
  // the pool handoff and worker wakeups dominate, so the submitting thread
  // runs the shards itself. Simulated timing still models `clusters_`
  // parallel clusters.
  const double elems = static_cast<double>(spec.out_h()) * spec.out_w() *
                       static_cast<double>(spec.out_c);
  return elems >= static_cast<double>(min_work_);
}

void ShardedBackend::for_shards(
    std::size_t n, bool pooled,
    common::FunctionRef<void(std::size_t)> fn) const {
  if (!pooled || !threads_ || pool_ == nullptr || n <= 1) {
    for (std::size_t s = 0; s < n; ++s) fn(s);
    return;
  }
  pool_->parallel_for(n, n,
                      [&fn](std::size_t, std::size_t i) { fn(i); });
}

// Each shard's timing pass ran the tile planner on its own sub-spec, so
// under the banked DRAM model every cluster prices its streams against a
// private DRAM channel: merge_parallel takes the max of the per-channel DMA
// timelines (channels drain concurrently) and sums the row-hit/row-miss
// activity counters, exactly like the other per-cluster activity.
void ShardedBackend::merge_shard_stats(const kernels::LayerScratch& scratch,
                                       std::size_t n,
                                       kernels::LayerRun& merged,
                                       int base) const {
  std::size_t slowest = 0;
  double slowest_eff = -1.0;
  double eff_max = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const kernels::LayerRun& run = scratch.lanes[s].ks.run;
    if (s == 0) {
      merged.stats = run.stats;
    } else {
      merged.stats.merge_parallel(run.stats);
    }
    // Straggler injection: a slowed cluster slot serves its shard `factor`
    // times slower. Only the shard's wall-clock stretches (the itemized
    // compute/DMA work is unchanged — the extra time is stall on the sick
    // cluster); the layer's merged wall-clock is the max over effective
    // shard times.
    const double eff =
        run.stats.cycles * shard_slowdown(base + static_cast<int>(s));
    eff_max = std::max(eff_max, eff);
    if (eff > slowest_eff) {
      slowest_eff = eff;
      slowest = s;
    }
  }
  if (eff_max > merged.stats.cycles) merged.stats.cycles = eff_max;
  merged.plan = scratch.lanes[slowest].ks.run.plan;
}

double ShardedBackend::merge_stripe_shards(
    const kernels::LayerPlan& plan, const snn::LayerSpec& spec,
    const kernels::LayerScratch& scratch, kernels::LayerRun& merged,
    int base) const {
  double gather_bytes = 0;
  for (std::size_t s = 1; s < plan.n(); ++s) {
    gather_bytes += static_cast<double>(
        compress::CsrIfmap::footprint_from_count(
            scratch.lanes[s].ks.run.out_nnz, plan.shards[s].extent(),
            spec.out_w()));
  }
  merge_shard_stats(scratch, plan.n(), merged, base);
  return gather_bytes;
}

void ShardedBackend::apply_noc(
    kernels::KernelStats& st, double legacy_bytes,
    common::FunctionRef<void(arch::NocModel&)> charge) const {
  if (noc_.topology == arch::NocTopology::kLegacyCeiling) {
    // Historical accounting, bit-exact when healthy: payload totals (a
    // broadcast counts one replica per receiver) against one shared-
    // bandwidth ceiling. The gate raise is itemized but numerically
    // unchanged. An injected link derate divides the shared ceiling by the
    // worst factor — a shared bus has no per-link wires to degrade.
    st.noc_bytes += legacy_bytes;
    if (noc_.model_contention) {
      arch::NocParams p = noc_;
      if (any_link_derate_.load(std::memory_order_relaxed)) {
        p.shared_bytes_per_cycle /=
            max_link_derate_.load(std::memory_order_relaxed);
      }
      const double gate = arch::noc_transfer_cycles(p, st.noc_bytes);
      if (gate > st.cycles) {
        st.noc_contention_cycles += gate - st.cycles;
        st.cycles = gate;
      }
    }
    return;
  }
  // Link-level topology: replay the transfer pattern onto per-link byte
  // accumulators. noc_bytes then counts each link traversal once (multicast
  // payloads are NOT multiplied by the receiver count) and the fabric gate
  // is hop latency plus the bottleneck link's serialization.
  arch::NocModel model(noc_, clusters_);
  if (any_link_derate_.load(std::memory_order_relaxed)) {
    for (int c = 0; c < clusters_ && c < arch::NocModel::kMaxClusters; ++c) {
      model.set_link_derate(
          c, link_derate_[static_cast<std::size_t>(c)].load(
                 std::memory_order_relaxed));
    }
  }
  charge(model);
  st.noc_bytes += model.total_link_bytes();
  if (noc_.model_contention) {
    const double gate = model.cycles();
    if (gate > st.cycles) {
      st.noc_contention_cycles += gate - st.cycles;
      st.cycles = gate;
    }
  }
}

void ShardedBackend::apply_stage_handoff(const StageInfo& stage,
                                         const snn::LayerSpec& spec,
                                         kernels::LayerRun& run) const {
  if (!stage.boundary) return;
  // The producing group packs each boundary spike into the inter-stage FIFO
  // (integer-core work alongside the activation append), then the CSR
  // payload crosses the fabric to the consumer group's lead cluster.
  const double push =
      static_cast<double>(run.out_nnz) * opt_.cost.fifo_push_per_spike;
  run.stats.compute_cycles += push;
  run.stats.cycles += push;
  run.stats.int_instrs += push;
  const double bytes =
      static_cast<double>(compress::CsrIfmap::footprint_from_count(
          run.out_nnz, spec.out_h(), spec.out_w()));
  const int src = stage.cluster_lo + stage.group - 1;
  const int dst = stage.next_cluster_lo;
  apply_noc(run.stats, bytes, [&](arch::NocModel& m) {
    m.unicast(src, dst, bytes);
  });
}

// ---------------------------------------------------------------------------
// Output-channel tiling (the historical scheme)
// ---------------------------------------------------------------------------

const kernels::LayerRun& ShardedBackend::run_channel_sharded(
    const kernels::LayerPlan& plan, const snn::LayerSpec& spec,
    kernels::LayerScratch& scratch, double input_bytes, int base,
    common::FunctionRef<void(const snn::LayerSpec&, kernels::KernelScratch&)>
        time) const {
  const std::size_t n = plan.n();
  if (scratch.lanes.size() < n) scratch.lanes.resize(n);
  kernels::LayerRun& merged = scratch.main.run;
  for_shards(n, pool_worthwhile(spec), [&](std::size_t s) {
    const kernels::ShardRange r = plan.shards[s];
    kernels::KernelScratch& ks = scratch.lanes[s].ks;
    ks.run.out_nnz =
        slice_channels_into(merged.out_spikes, r.lo, r.hi, ks.run.out_spikes);
    snn::LayerSpec sub = spec;
    sub.out_c = r.extent();
    time(sub, ks);
  });
  merge_shard_stats(scratch, n, merged, base);

  // The input is broadcast: every cluster beyond the owner receives a full
  // replica; the owner gathers the other clusters' ofmap slices. The legacy
  // total bills one replica per receiver; the link model replays the same
  // pattern as one multicast (each link charged once) plus gather unicasts.
  double noc = static_cast<double>(n - 1) * input_bytes;
  for (std::size_t s = 1; s < n; ++s) {
    noc += static_cast<double>(compress::CsrIfmap::footprint_from_count(
        scratch.lanes[s].ks.run.out_nnz, spec.out_h(), spec.out_w()));
  }
  apply_noc(merged.stats, noc, [&](arch::NocModel& m) {
    m.multicast(base, base, base + static_cast<int>(n), input_bytes);
    for (std::size_t s = 1; s < n; ++s) {
      m.unicast(base + static_cast<int>(s), base,
                static_cast<double>(compress::CsrIfmap::footprint_from_count(
                    scratch.lanes[s].ks.run.out_nnz, spec.out_h(),
                    spec.out_w())));
    }
  });
  return merged;
}

// ---------------------------------------------------------------------------
// Ifmap stripes (spatial row bands, conv/encode)
// ---------------------------------------------------------------------------

const kernels::LayerRun& ShardedBackend::run_stripe_conv(
    const kernels::LayerPlan& plan, const snn::LayerSpec& spec,
    const compress::CsrIfmap& ifmap, kernels::LayerScratch& scratch,
    int base) const {
  const std::size_t n = plan.n();
  if (scratch.lanes.size() < n) scratch.lanes.resize(n);
  kernels::LayerRun& merged = scratch.main.run;
  for_shards(n, pool_worthwhile(spec), [&](std::size_t s) {
    const kernels::ShardRange r = plan.shards[s];
    kernels::ShardLane& lane = scratch.lanes[s];
    snn::LayerSpec sub = spec;
    sub.in_h = r.extent() + spec.k - 1;  // halo'd input rows
    ifmap.slice_rows_into(r.lo, r.lo + sub.in_h, lane.csr);
    lane.ks.run.out_nnz = slice_rows_into(merged.out_spikes, r.lo, r.hi,
                                          lane.ks.run.out_spikes);
    kernels::conv_timing(sub, lane.csr, opt_, lane.ks);
  });

  // Stripes need no broadcast: clusters exchange only the halo overlap (the
  // summed stripe footprints minus one resident copy) plus the ofmap gather.
  double halo_bytes = -static_cast<double>(ifmap.footprint_bytes());
  for (std::size_t s = 0; s < n; ++s) {
    halo_bytes += static_cast<double>(scratch.lanes[s].csr.footprint_bytes());
  }
  const double gather_bytes =
      merge_stripe_shards(plan, spec, scratch, merged, base);
  const double halo = std::max(0.0, halo_bytes);
  apply_noc(merged.stats, halo + gather_bytes, [&](arch::NocModel& m) {
    // Halos flow between adjacent stripes: split the overlap traffic evenly
    // over the n - 1 neighbor pairs. Ofmap slices gather to the owner.
    const double per_pair = halo / static_cast<double>(n - 1);
    for (std::size_t s = 1; s < n; ++s) {
      const int c = base + static_cast<int>(s);
      m.unicast(c - 1, c, per_pair);
      m.unicast(c, base,
                static_cast<double>(compress::CsrIfmap::footprint_from_count(
                    scratch.lanes[s].ks.run.out_nnz, plan.shards[s].extent(),
                    spec.out_w())));
    }
  });
  return merged;
}

const kernels::LayerRun& ShardedBackend::run_stripe_encode(
    const kernels::LayerPlan& plan, const snn::LayerSpec& spec,
    kernels::LayerScratch& scratch, int base) const {
  const std::size_t n = plan.n();
  if (scratch.lanes.size() < n) scratch.lanes.resize(n);
  const double px_bytes = static_cast<double>(common::fp_bytes(opt_.fmt)) *
                          spec.in_w * spec.in_c;
  kernels::LayerRun& merged = scratch.main.run;
  for_shards(n, pool_worthwhile(spec), [&](std::size_t s) {
    const kernels::ShardRange r = plan.shards[s];
    kernels::KernelScratch& ks = scratch.lanes[s].ks;
    snn::LayerSpec sub = spec;
    sub.in_h = r.extent() + spec.k - 1;
    ks.run.out_nnz =
        slice_rows_into(merged.out_spikes, r.lo, r.hi, ks.run.out_spikes);
    kernels::encode_timing(sub, opt_, ks);
  });

  // Dense image stripes: the halo is the (n - 1) * (k - 1) duplicated rows.
  const double halo_rows =
      static_cast<double>(n - 1) * static_cast<double>(spec.k - 1);
  const double gather_bytes =
      merge_stripe_shards(plan, spec, scratch, merged, base);
  apply_noc(merged.stats, halo_rows * px_bytes + gather_bytes,
            [&](arch::NocModel& m) {
              // (k - 1) image rows duplicated per neighbor pair, plus the
              // ofmap gather to the owner.
              const double pair_bytes =
                  static_cast<double>(spec.k - 1) * px_bytes;
              for (std::size_t s = 1; s < n; ++s) {
                const int c = base + static_cast<int>(s);
                m.unicast(c - 1, c, pair_bytes);
                m.unicast(
                    c, base,
                    static_cast<double>(
                        compress::CsrIfmap::footprint_from_count(
                            scratch.lanes[s].ks.run.out_nnz,
                            plan.shards[s].extent(), spec.out_w())));
              }
            });
  return merged;
}

// ---------------------------------------------------------------------------
// FC fan-in segments (partial-sum sharding)
// ---------------------------------------------------------------------------

const kernels::LayerRun& ShardedBackend::run_fc_fanin(
    const kernels::LayerPlan& plan, const snn::LayerSpec& spec,
    const compress::CsrIfmap& ifmap, kernels::LayerScratch& scratch,
    int base) const {
  // Only timing is split: the full-width functional pass already ran, and
  // partial-sum merges are not FP-associative, so this axis could never
  // have sharded it.
  const std::size_t n = plan.n();
  if (scratch.lanes.size() < n) scratch.lanes.resize(n);
  for_shards(n, pool_worthwhile(spec), [&](std::size_t s) {
    kernels::fc_fanin_shard_timing(spec, ifmap, plan.shards[s].lo,
                                   plan.shards[s].hi, opt_,
                                   scratch.lanes[s].ks);
  });

  kernels::LayerRun& merged = scratch.main.run;
  merge_shard_stats(scratch, n, merged, base);

  // Sequential tail: partial vectors cross the NoC to the merging cluster,
  // are reduced group-wise, then thresholded exactly once. The inputs were
  // disjoint (no broadcast), so the partials are the only extra traffic.
  const kernels::FcFanInMergeCost tail = kernels::fc_fanin_merge_cost(
      spec, merged.out_spikes, static_cast<int>(n), opt_);
  merged.stats.compute_cycles += tail.cycles;
  merged.stats.cycles += tail.cycles;
  merged.stats.fpu_ops += tail.fpu_ops;
  merged.stats.int_instrs += tail.int_instrs;
  merged.stats.tcdm_words += tail.tcdm_words;
  apply_noc(merged.stats, tail.noc_bytes, [&](arch::NocModel& m) {
    // Partial-sum vectors converge on the merging cluster, one per peer.
    const double per_peer = tail.noc_bytes / static_cast<double>(n - 1);
    for (std::size_t s = 1; s < n; ++s) {
      m.unicast(base + static_cast<int>(s), base, per_peer);
    }
  });
  return merged;
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

const kernels::LayerRun& ShardedBackend::run_conv(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  const std::uint64_t sig = kernels::layer_signature(spec);
  observe_density(sig, spec, ifmap.nnz(),
                  static_cast<std::size_t>(spec.in_h) * spec.in_w *
                      static_cast<std::size_t>(spec.in_c));
  StageInfo stage;
  const auto plan_ref = plan_handle(sig, spec, &stage);  // pinned for this run
  const kernels::LayerPlan& plan = *plan_ref;
  SPK_CHECK(!plan.shards.empty(), "sharded " << spec.name << ": empty plan");
  // Spikes from one full-width pass, tiled on the shard pool when threads
  // are on (the tile rule keeps tiny layers at one tile, off the pool).
  const LayerLane lane{.ifmap = &ifmap, .membrane = &membrane,
                       .scratch = &scratch};
  functional_row_tiles(spec, weights, std::span(&lane, 1),
                       threads_ ? pool_.get() : nullptr);
  // Every path below lands its merged result in scratch.main.run, so the
  // stage-boundary handoff (no-op outside stage mode) tails all of them.
  if (plan.n() <= 1) {
    kernels::conv_timing(spec, ifmap, opt_, scratch.main);
  } else if (plan.axis == kernels::ShardAxis::kIfmapStripe) {
    run_stripe_conv(plan, spec, ifmap, scratch, stage.cluster_lo);
  } else {
    SPK_CHECK(plan.axis == kernels::ShardAxis::kOutputChannel,
              "conv " << spec.name << ": unsupported shard axis");
    run_channel_sharded(
        plan, spec, scratch, static_cast<double>(ifmap.footprint_bytes()),
        stage.cluster_lo,
        [&](const snn::LayerSpec& sub, kernels::KernelScratch& ks) {
          kernels::conv_timing(sub, ifmap, opt_, ks);
        });
  }
  apply_stage_handoff(stage, spec, scratch.main.run);
  return scratch.main.run;
}

const kernels::LayerRun& ShardedBackend::run_fc(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  const std::uint64_t sig = kernels::layer_signature(spec);
  observe_density(sig, spec, ifmap.nnz(), static_cast<std::size_t>(spec.in_c));
  StageInfo stage;
  const auto plan_ref = plan_handle(sig, spec, &stage);  // pinned for this run
  const kernels::LayerPlan& plan = *plan_ref;
  SPK_CHECK(!plan.shards.empty(), "sharded " << spec.name << ": empty plan");
  kernels::fc_functional(spec, weights, ifmap, membrane, scratch.main);
  if (plan.n() <= 1) {
    kernels::fc_timing(spec, ifmap, opt_, scratch.main);
  } else if (plan.axis == kernels::ShardAxis::kFanIn) {
    run_fc_fanin(plan, spec, ifmap, scratch, stage.cluster_lo);
  } else {
    SPK_CHECK(plan.axis == kernels::ShardAxis::kOutputChannel,
              "fc " << spec.name << ": unsupported shard axis");
    run_channel_sharded(
        plan, spec, scratch, static_cast<double>(ifmap.footprint_bytes()),
        stage.cluster_lo,
        [&](const snn::LayerSpec& sub, kernels::KernelScratch& ks) {
          kernels::fc_timing(sub, ifmap, opt_, ks);
        });
  }
  apply_stage_handoff(stage, spec, scratch.main.run);
  return scratch.main.run;
}

const kernels::LayerRun& ShardedBackend::run_encode(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const snn::Tensor& padded_image, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  // The encode layer's dense input has density 1.0 by construction; there is
  // nothing for the occupancy re-planner to observe.
  StageInfo stage;
  const auto plan_ref =
      plan_handle(kernels::layer_signature(spec), spec, &stage);
  const kernels::LayerPlan& plan = *plan_ref;
  SPK_CHECK(!plan.shards.empty(), "sharded " << spec.name << ": empty plan");
  const LayerLane lane{.membrane = &membrane, .scratch = &scratch,
                       .image = &padded_image};
  functional_row_tiles(spec, weights, std::span(&lane, 1),
                       threads_ ? pool_.get() : nullptr);
  if (plan.n() <= 1) {
    kernels::encode_timing(spec, opt_, scratch.main);
  } else if (plan.axis == kernels::ShardAxis::kIfmapStripe) {
    run_stripe_encode(plan, spec, scratch, stage.cluster_lo);
  } else {
    SPK_CHECK(plan.axis == kernels::ShardAxis::kOutputChannel,
              "encode " << spec.name << ": unsupported shard axis");
    const double image_bytes =
        static_cast<double>(common::fp_bytes(opt_.fmt)) * spec.in_h *
        spec.in_w * spec.in_c;
    run_channel_sharded(
        plan, spec, scratch, image_bytes, stage.cluster_lo,
        [&](const snn::LayerSpec& sub, kernels::KernelScratch& ks) {
          kernels::encode_timing(sub, opt_, ks);
        });
  }
  apply_stage_handoff(stage, spec, scratch.main.run);
  return scratch.main.run;
}

}  // namespace spikestream::runtime
