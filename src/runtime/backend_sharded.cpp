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
                               const kernels::PipelineConfig& pipeline)
    : ExecutionBackend(opt),
      clusters_(clusters),
      threads_(use_threads),
      min_work_(min_work),
      strategy_(strategy),
      noc_(noc),
      pipeline_(pipeline),
      pool_(std::move(pool)) {
  SPK_CHECK(clusters >= 1 && clusters <= arch::NocModel::kMaxClusters,
            "BackendConfig::clusters must be in [1, "
                << arch::NocModel::kMaxClusters << "], got " << clusters);
  SPK_CHECK(min_work >= 0,
            "BackendConfig::shard_min_work must be >= 0, got " << min_work);
  if (threads_ && pool_ == nullptr) {
    pool_ = std::make_shared<WorkerPool>(clusters_ - 1);
  }
  NetworkPlan healthy;
  healthy.width = clusters_;
  publish(std::move(healthy));
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

// ---------------------------------------------------------------------------
// Plan epochs
// ---------------------------------------------------------------------------

ShardedBackend::NetworkPlan ShardedBackend::plan_network(
    std::span<const snn::LayerSpec> specs, int width) const {
  NetworkPlan ep;
  ep.specs.assign(specs.begin(), specs.end());
  ep.width = width;
  if (pipeline_.enabled && clusters_ > 1 && !specs.empty()) {
    // Choose the execution mode (data-parallel vs stage-parallel vs hybrid)
    // at the active width and plan every member layer at its stage's group
    // width, so layer calls execute group-sized plans with no further
    // stage-awareness.
    ep.stage_plan = kernels::Partitioner(opt_, width, strategy_)
                        .plan_pipeline(specs, pipeline_, noc_);
    const std::vector<kernels::PipelineStage>& stages = ep.stage_plan.stages;
    for (std::size_t s = 0; s < stages.size(); ++s) {
      const kernels::PipelineStage& st = stages[s];
      const kernels::Partitioner group(opt_, st.clusters(), strategy_);
      for (int l = st.layer_lo; l < st.layer_hi; ++l) {
        const snn::LayerSpec& spec = specs[static_cast<std::size_t>(l)];
        const bool boundary = s + 1 < stages.size() && l == st.layer_hi - 1;
        ep.layers[kernels::layer_signature(spec)] = {
            group.plan_layer(spec),
            {.stage = static_cast<int>(s),
             .cluster_lo = st.cluster_lo,
             .group = st.clusters(),
             .boundary = boundary,
             .next_cluster_lo = boundary ? stages[s + 1].cluster_lo : 0}};
      }
    }
    return ep;
  }
  const kernels::Partitioner part(opt_, width, strategy_);
  for (const snn::LayerSpec& spec : specs) {
    ep.layers[kernels::layer_signature(spec)].plan = part.plan_layer(spec);
  }
  return ep;
}

const ShardedBackend::NetworkPlan::Layer& ShardedBackend::layer_of(
    const NetworkPlan& ep, const snn::LayerSpec& spec,
    NetworkPlan::Layer& miss) const {
  const auto it = ep.layers.find(kernels::layer_signature(spec));
  if (it != ep.layers.end()) return it->second;
  // Planned at the epoch's width, so a layer first seen after a fail-stop
  // never lands shards on a failed cluster.
  miss.plan = kernels::Partitioner(opt_, ep.width, strategy_).plan_layer(spec);
  return miss;
}

void ShardedBackend::publish(NetworkPlan next) const {
  epochs_.push_back(std::make_unique<const NetworkPlan>(std::move(next)));
  epoch_.store(epochs_.back().get(), std::memory_order_release);
}

kernels::LayerPlan ShardedBackend::plan_for(const snn::LayerSpec& spec) const {
  NetworkPlan::Layer miss;
  return layer_of(epoch(), spec, miss).plan;
}

void ShardedBackend::prepare(const snn::Network& net) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const NetworkPlan& cur = epoch();
  NetworkPlan next = plan_network(net.layers(), cur.width);
  next.faults = cur.faults;
  publish(std::move(next));
}

// ---------------------------------------------------------------------------
// Fault injection / degraded mode
// ---------------------------------------------------------------------------

bool ShardedBackend::fail_cluster(int cluster) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const NetworkPlan& cur = epoch();
  if (cluster < 0 || cluster >= cur.width || cur.width <= 1) return false;
  // Survivors renumber into the dense [0, width) slot range: plans encode
  // shard counts and ranges, not physical cluster ids, so dropping a slot
  // is exactly re-planning one narrower.
  NetworkPlan next = plan_network(cur.specs, cur.width - 1);
  next.faults = cur.faults;
  ++next.faults.degrade_replans;
  next.faults.retire(cluster, cur.width);
  publish(std::move(next));
  return true;
}

void ShardedBackend::set_cluster_slowdown(int cluster, double factor) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const NetworkPlan& cur = epoch();
  if (cluster < 0 || cluster >= cur.width) return;
  NetworkPlan next = cur;
  next.faults.slowdown[static_cast<std::size_t>(cluster)] =
      std::max(1.0, factor);
  publish(std::move(next));
}

void ShardedBackend::set_link_degrade(int cluster, double factor) const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const NetworkPlan& cur = epoch();
  if (cluster < 0 || cluster >= cur.width) return;
  NetworkPlan next = cur;
  next.faults.link_derate[static_cast<std::size_t>(cluster)] =
      std::max(1.0, factor);
  next.faults.refresh_max_link_derate(next.width);
  publish(std::move(next));
}

void ShardedBackend::presize_state(snn::NetworkState& state,
                                   const snn::Network& net) const {
  ExecutionBackend::presize_state(state, net);  // worst-case main arenas
  const NetworkPlan& ep = epoch();
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const snn::LayerSpec& spec = net.layer(l);
    NetworkPlan::Layer miss;
    const kernels::LayerPlan& plan = layer_of(ep, spec, miss).plan;
    if (plan.n() <= 1) continue;
    kernels::LayerScratch& scratch = state.scratch(l);
    if (scratch.lanes.size() < plan.n()) scratch.lanes.resize(plan.n());
    if (plan.axis != kernels::ShardAxis::kIfmapStripe) continue;
    for (std::size_t s = 0; s < plan.n(); ++s) {
      // Halo'd input stripe, zero-sparsity worst case.
      const std::size_t in_rows =
          static_cast<std::size_t>(plan.shards[s].extent() + spec.k - 1);
      const std::size_t positions =
          in_rows * static_cast<std::size_t>(spec.in_w);
      scratch.lanes[s].csr.reserve(
          positions, positions * static_cast<std::size_t>(spec.in_c));
    }
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
void ShardedBackend::merge_shard_stats(const NetworkPlan& ep,
                                       const kernels::LayerScratch& scratch,
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
        run.stats.cycles *
        ep.faults.slowdown[static_cast<std::size_t>(base) + s];
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
    const NetworkPlan& ep, const kernels::LayerPlan& plan,
    const snn::LayerSpec& spec, const kernels::LayerScratch& scratch,
    kernels::LayerRun& merged, int base) const {
  double gather_bytes = 0;
  for (std::size_t s = 1; s < plan.n(); ++s) {
    gather_bytes += static_cast<double>(
        compress::CsrIfmap::footprint_from_count(
            scratch.lanes[s].ks.run.out_nnz, plan.shards[s].extent(),
            spec.out_w()));
  }
  merge_shard_stats(ep, scratch, plan.n(), merged, base);
  return gather_bytes;
}

void ShardedBackend::apply_noc(
    const NetworkPlan& ep, kernels::KernelStats& st, double legacy_bytes,
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
      if (ep.faults.max_link_derate > 1.0) {
        p.shared_bytes_per_cycle /= ep.faults.max_link_derate;
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
  if (ep.faults.max_link_derate > 1.0) {
    for (int c = 0; c < ep.width; ++c) {
      model.set_link_derate(
          c, ep.faults.link_derate[static_cast<std::size_t>(c)]);
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

void ShardedBackend::apply_stage_handoff(const NetworkPlan& ep,
                                         const StageInfo& stage,
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
  apply_noc(ep, run.stats, bytes, [&](arch::NocModel& m) {
    m.unicast(src, dst, bytes);
  });
}

// ---------------------------------------------------------------------------
// Output-channel tiling (the historical scheme)
// ---------------------------------------------------------------------------

const kernels::LayerRun& ShardedBackend::run_channel_sharded(
    const NetworkPlan& ep, const kernels::LayerPlan& plan,
    const snn::LayerSpec& spec,
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
  merge_shard_stats(ep, scratch, n, merged, base);

  // The input is broadcast: every cluster beyond the owner receives a full
  // replica; the owner gathers the other clusters' ofmap slices. The legacy
  // total bills one replica per receiver; the link model replays the same
  // pattern as one multicast (each link charged once) plus gather unicasts.
  double noc = static_cast<double>(n - 1) * input_bytes;
  for (std::size_t s = 1; s < n; ++s) {
    noc += static_cast<double>(compress::CsrIfmap::footprint_from_count(
        scratch.lanes[s].ks.run.out_nnz, spec.out_h(), spec.out_w()));
  }
  apply_noc(ep, merged.stats, noc, [&](arch::NocModel& m) {
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
    const NetworkPlan& ep, const kernels::LayerPlan& plan,
    const snn::LayerSpec& spec,
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
      merge_stripe_shards(ep, plan, spec, scratch, merged, base);
  const double halo = std::max(0.0, halo_bytes);
  apply_noc(ep, merged.stats, halo + gather_bytes, [&](arch::NocModel& m) {
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
    const NetworkPlan& ep, const kernels::LayerPlan& plan,
    const snn::LayerSpec& spec,
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
      merge_stripe_shards(ep, plan, spec, scratch, merged, base);
  apply_noc(ep, merged.stats, halo_rows * px_bytes + gather_bytes,
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
    const NetworkPlan& ep, const kernels::LayerPlan& plan,
    const snn::LayerSpec& spec,
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
  merge_shard_stats(ep, scratch, n, merged, base);

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
  apply_noc(ep, merged.stats, tail.noc_bytes, [&](arch::NocModel& m) {
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
  const NetworkPlan& ep = epoch();  // this call's epoch, start to finish
  NetworkPlan::Layer miss;
  const auto& [plan, stage] = layer_of(ep, spec, miss);
  SPK_CHECK(!plan.shards.empty(), "sharded " << spec.name << ": empty plan");
  // Spikes from one full-width pass, tiled on the shard pool when threads
  // are on (the tile rule keeps tiny layers at one tile, off the pool).
  const LayerLane lane{.ifmap = &ifmap, .membrane = &membrane,
                       .scratch = &scratch};
  functional_row_tiles(spec, weights, std::span(&lane, 1),
                       threads_ ? pool_.get() : nullptr, [](std::size_t) {});
  // Every path below lands its merged result in scratch.main.run, so the
  // stage-boundary handoff (no-op outside stage mode) tails all of them.
  if (plan.n() <= 1) {
    kernels::conv_timing(spec, ifmap, opt_, scratch.main);
  } else if (plan.axis == kernels::ShardAxis::kIfmapStripe) {
    run_stripe_conv(ep, plan, spec, ifmap, scratch, stage.cluster_lo);
  } else {
    SPK_CHECK(plan.axis == kernels::ShardAxis::kOutputChannel,
              "conv " << spec.name << ": unsupported shard axis");
    run_channel_sharded(
        ep, plan, spec, scratch, static_cast<double>(ifmap.footprint_bytes()),
        stage.cluster_lo,
        [&](const snn::LayerSpec& sub, kernels::KernelScratch& ks) {
          kernels::conv_timing(sub, ifmap, opt_, ks);
        });
  }
  apply_stage_handoff(ep, stage, spec, scratch.main.run);
  return scratch.main.run;
}

const kernels::LayerRun& ShardedBackend::run_fc(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  const NetworkPlan& ep = epoch();
  NetworkPlan::Layer miss;
  const auto& [plan, stage] = layer_of(ep, spec, miss);
  SPK_CHECK(!plan.shards.empty(), "sharded " << spec.name << ": empty plan");
  kernels::fc_functional(spec, weights, ifmap, membrane, scratch.main);
  if (plan.n() <= 1) {
    kernels::fc_timing(spec, ifmap, opt_, scratch.main);
  } else if (plan.axis == kernels::ShardAxis::kFanIn) {
    run_fc_fanin(ep, plan, spec, ifmap, scratch, stage.cluster_lo);
  } else {
    SPK_CHECK(plan.axis == kernels::ShardAxis::kOutputChannel,
              "fc " << spec.name << ": unsupported shard axis");
    run_channel_sharded(
        ep, plan, spec, scratch, static_cast<double>(ifmap.footprint_bytes()),
        stage.cluster_lo,
        [&](const snn::LayerSpec& sub, kernels::KernelScratch& ks) {
          kernels::fc_timing(sub, ifmap, opt_, ks);
        });
  }
  apply_stage_handoff(ep, stage, spec, scratch.main.run);
  return scratch.main.run;
}

const kernels::LayerRun& ShardedBackend::run_encode(
    const snn::LayerSpec& spec, const snn::LayerWeights& weights,
    const snn::Tensor& padded_image, snn::Tensor& membrane,
    kernels::LayerScratch& scratch) const {
  const NetworkPlan& ep = epoch();
  NetworkPlan::Layer miss;
  const auto& [plan, stage] = layer_of(ep, spec, miss);
  SPK_CHECK(!plan.shards.empty(), "sharded " << spec.name << ": empty plan");
  const LayerLane lane{.membrane = &membrane, .scratch = &scratch,
                       .image = &padded_image};
  functional_row_tiles(spec, weights, std::span(&lane, 1),
                       threads_ ? pool_.get() : nullptr, [](std::size_t) {});
  if (plan.n() <= 1) {
    kernels::encode_timing(spec, opt_, scratch.main);
  } else if (plan.axis == kernels::ShardAxis::kIfmapStripe) {
    run_stripe_encode(ep, plan, spec, scratch, stage.cluster_lo);
  } else {
    SPK_CHECK(plan.axis == kernels::ShardAxis::kOutputChannel,
              "encode " << spec.name << ": unsupported shard axis");
    const double image_bytes =
        static_cast<double>(common::fp_bytes(opt_.fmt)) * spec.in_h *
        spec.in_w * spec.in_c;
    run_channel_sharded(
        ep, plan, spec, scratch, image_bytes, stage.cluster_lo,
        [&](const snn::LayerSpec& sub, kernels::KernelScratch& ks) {
          kernels::encode_timing(sub, opt_, ks);
        });
  }
  apply_stage_handoff(ep, stage, spec, scratch.main.run);
  return scratch.main.run;
}

}  // namespace spikestream::runtime
