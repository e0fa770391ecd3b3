// Partition-plan subsystem contract:
//  (1) spike outputs are bit-identical across every partition strategy
//      (output-channel / ifmap-stripe / hybrid), cluster count, and serial
//      vs pooled execution — partitioning may only change timing attribution;
//  (2) merged KernelStats conserve activity: output-channel and row-stripe
//      plans repartition the same work exactly, and the fan-in plan's
//      reduction overhead is itemized, not hidden;
//  (3) the hybrid strategy queries the cost model sensibly (narrow layers
//      stop idling clusters, wide layers keep the historical tiling);
//  (4) the NoC model records inter-cluster traffic and, when contention is
//      enabled, a tighter bandwidth ceiling never speeds a layer up;
//  (5) the worker pool runs every task exactly once, supports nesting, and
//      propagates exceptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/noc.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/kernel_stats.hpp"
#include "kernels/layer_kernels.hpp"
#include "kernels/partition.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/stage_pipeline.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/multistep.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/worker_pool.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;

namespace {

snn::Network test_net(int mid_c = 32) {
  snn::Network net = snn::Network::make_tiny(18, 3, mid_c, 10);
  sc::Rng rng(42);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.20, 0.15, 0.30};
  snn::calibrate_thresholds(net, calib, targets);
  return net;
}

rt::BackendConfig sharded_cfg(k::PartitionStrategy strategy, int clusters,
                              bool threads = true) {
  rt::BackendConfig cfg;
  cfg.kind = rt::BackendKind::kSharded;
  cfg.clusters = clusters;
  cfg.shard_threads = threads;
  cfg.partition = strategy;
  return cfg;
}

snn::LayerSpec conv_spec(int in_hw, int in_c, int out_c) {
  snn::LayerSpec s;
  s.kind = snn::LayerKind::kConv;
  s.name = "conv";
  s.in_h = s.in_w = in_hw;
  s.in_c = in_c;
  s.k = 3;
  s.out_c = out_c;
  return s;
}

snn::LayerSpec fc_spec(int in_c, int out_c) {
  snn::LayerSpec s;
  s.kind = snn::LayerKind::kFc;
  s.name = "fc";
  s.in_c = in_c;
  s.out_c = out_c;
  return s;
}

}  // namespace

// ---------------------------------------------------------------------------
// Plan construction
// ---------------------------------------------------------------------------

TEST(Partitioner, ChannelSlicesAlignToSimdGroups) {
  const auto sl = k::Partitioner::channel_slices(10, 4, 4);
  ASSERT_EQ(sl.size(), 3u);  // 3 groups of 4 lanes -> 3 active shards
  EXPECT_EQ(sl[0], (k::ShardRange{0, 4}));
  EXPECT_EQ(sl[1], (k::ShardRange{4, 8}));
  EXPECT_EQ(sl[2], (k::ShardRange{8, 10}));
}

TEST(Partitioner, RowStripesCoverAllRowsDisjointly) {
  for (int rows : {5, 16, 33}) {
    for (int clusters : {1, 4, 8}) {
      const auto sl = k::Partitioner::row_stripes(rows, clusters);
      ASSERT_FALSE(sl.empty());
      EXPECT_LE(sl.size(), static_cast<std::size_t>(clusters));
      EXPECT_EQ(sl.front().lo, 0);
      EXPECT_EQ(sl.back().hi, rows);
      for (std::size_t s = 1; s < sl.size(); ++s) {
        EXPECT_EQ(sl[s].lo, sl[s - 1].hi);  // contiguous, disjoint
      }
      // Balanced to within one row.
      int lo = rows, hi = 0;
      for (const auto& r : sl) {
        lo = std::min(lo, r.extent());
        hi = std::max(hi, r.extent());
      }
      EXPECT_LE(hi - lo, 1);
    }
  }
}

TEST(Partitioner, HybridPicksFanInForNarrowFcHead) {
  k::RunOptions opt;
  const k::Partitioner part(opt, 8, k::PartitionStrategy::kHybrid);
  // 10-class head: 3 SIMD groups would idle 5 of 8 clusters under
  // output-channel tiling; the cost model must pick fan-in segments.
  const auto narrow = part.plan_layer(fc_spec(1024, 10));
  EXPECT_EQ(narrow.axis, k::ShardAxis::kFanIn);
  EXPECT_EQ(narrow.n(), 8u);
  EXPECT_LT(narrow.est_cycles, narrow.est_alt_cycles);
  // A wide FC layer keeps the historical tiling.
  const auto wide = part.plan_layer(fc_spec(1024, 1024));
  EXPECT_EQ(wide.axis, k::ShardAxis::kOutputChannel);
}

TEST(Partitioner, HybridPicksStripesForNarrowConv) {
  k::RunOptions opt;
  const k::Partitioner part(opt, 8, k::PartitionStrategy::kHybrid);
  // out_c = 4 is a single FP16 SIMD group: output-channel tiling cannot use
  // more than one cluster, row stripes use all eight.
  const auto narrow = part.plan_layer(conv_spec(34, 16, 4));
  EXPECT_EQ(narrow.axis, k::ShardAxis::kIfmapStripe);
  EXPECT_EQ(narrow.n(), 8u);
  const auto wide = part.plan_layer(conv_spec(18, 128, 256));
  EXPECT_EQ(wide.axis, k::ShardAxis::kOutputChannel);
}

TEST(Partitioner, SingleClusterPlansAreUnsharded) {
  k::RunOptions opt;
  for (const auto strategy :
       {k::PartitionStrategy::kOutputChannel, k::PartitionStrategy::kIfmapStripe,
        k::PartitionStrategy::kHybrid}) {
    const k::Partitioner part(opt, 1, strategy);
    const auto plan = part.plan_layer(conv_spec(18, 32, 32));
    EXPECT_EQ(plan.n(), 1u) << k::partition_strategy_name(strategy);
  }
}

// ---------------------------------------------------------------------------
// Spike parity across plans
// ---------------------------------------------------------------------------

TEST(PartitionParity, SpikesBitIdenticalAcrossStrategiesClustersAndPooling) {
  const snn::Network net = test_net();
  k::RunOptions opt;
  const rt::InferenceEngine analytical(net, opt);
  const auto images = snn::make_batch(2, 99, 16, 16, 3);

  for (const auto strategy :
       {k::PartitionStrategy::kOutputChannel, k::PartitionStrategy::kIfmapStripe,
        k::PartitionStrategy::kHybrid}) {
    for (const int clusters : {1, 4, 8}) {
      for (const bool pooled : {false, true}) {
        const rt::InferenceEngine sharded(
            net, opt, sharded_cfg(strategy, clusters, pooled));
        for (const auto& img : images) {
          snn::NetworkState sa = analytical.make_state();
          snn::NetworkState ss = sharded.make_state();
          for (int t = 0; t < 3; ++t) {
            const auto ra = analytical.run(img, sa);
            const auto rs = sharded.run(img, ss);
            ASSERT_EQ(ra.final_output.v, rs.final_output.v)
                << k::partition_strategy_name(strategy) << " clusters="
                << clusters << " pooled=" << pooled << " t=" << t;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Activity conservation of merged KernelStats
// ---------------------------------------------------------------------------

TEST(PartitionConservation, OutputChannelAndStripePlansConserveActivity) {
  const snn::Network net = test_net();
  k::RunOptions opt;
  const rt::InferenceEngine analytical(net, opt);
  const auto img = snn::make_batch(1, 6, 16, 16, 3)[0];
  snn::NetworkState sa = analytical.make_state();
  const auto ra = analytical.run(img, sa);

  for (const auto strategy : {k::PartitionStrategy::kOutputChannel,
                              k::PartitionStrategy::kIfmapStripe}) {
    const rt::InferenceEngine sharded(net, opt, sharded_cfg(strategy, 4));
    snn::NetworkState ss = sharded.make_state();
    const auto rs = sharded.run(img, ss);
    for (std::size_t l = 0; l < ra.layers.size(); ++l) {
      const auto& a = ra.layers[l].stats;
      const auto& s = rs.layers[l].stats;
      if (net.layer(l).kind == snn::LayerKind::kFc &&
          strategy == k::PartitionStrategy::kIfmapStripe) {
        continue;  // fan-in: itemized overhead, checked separately below
      }
      EXPECT_NEAR(s.fpu_ops, a.fpu_ops, 1e-6 * a.fpu_ops + 1e-6)
          << k::partition_strategy_name(strategy) << " layer " << l;
      EXPECT_NEAR(s.tcdm_words, a.tcdm_words, 1e-6 * a.tcdm_words + 1e-6)
          << k::partition_strategy_name(strategy) << " layer " << l;
      EXPECT_NEAR(s.ssr_elems, a.ssr_elems, 1e-6 * a.ssr_elems + 1e-6)
          << k::partition_strategy_name(strategy) << " layer " << l;
      // Wall-clock per layer never exceeds the single-cluster run (the NoC
      // ceiling is off by default).
      EXPECT_LE(s.cycles, a.cycles + 1e-9)
          << k::partition_strategy_name(strategy) << " layer " << l;
    }
  }
}

TEST(PartitionConservation, FanInReductionIsItemizedExactly) {
  const snn::Network net = test_net();
  k::RunOptions opt;
  const int clusters = 4;
  const rt::InferenceEngine analytical(net, opt);
  const rt::InferenceEngine sharded(
      net, opt, sharded_cfg(k::PartitionStrategy::kIfmapStripe, clusters));
  const auto img = snn::make_batch(1, 6, 16, 16, 3)[0];
  snn::NetworkState sa = analytical.make_state();
  snn::NetworkState ss = sharded.make_state();
  const auto ra = analytical.run(img, sa);
  const auto rs = sharded.run(img, ss);

  const std::size_t l = net.num_layers() - 1;  // the FC head
  ASSERT_EQ(net.layer(l).kind, snn::LayerKind::kFc);
  const auto* be = dynamic_cast<const rt::ShardedBackend*>(&sharded.backend());
  ASSERT_NE(be, nullptr);
  const k::LayerPlan& plan = be->plan_for(net.layer(l));
  ASSERT_EQ(plan.axis, k::ShardAxis::kFanIn);
  const double n = static_cast<double>(plan.n());
  ASSERT_GT(n, 1.0);

  const auto& a = ra.layers[l].stats;
  const auto& s = rs.layers[l].stats;
  const int simd = sc::simd_lanes(opt.fmt);
  const double groups = (net.layer(l).out_c + simd - 1) / simd;
  // The accumulation work is conserved; the reduction adds exactly
  // (n - 1) partial-vector merges of `groups` SIMD adds each.
  EXPECT_NEAR(s.fpu_ops - a.fpu_ops, (n - 1) * groups,
              1e-9 * a.fpu_ops + 1e-9);
  EXPECT_NEAR(s.ssr_elems, a.ssr_elems, 1e-6 * a.ssr_elems + 1e-6);
  EXPECT_NEAR(s.tcdm_words - a.tcdm_words, 2.0 * (n - 1) * groups,
              1e-9 * a.tcdm_words + 1e-9);
  // The partial vectors are the only inter-cluster traffic (inputs are
  // disjoint — no broadcast).
  const double fp_bytes = sc::fp_bytes(opt.fmt);
  EXPECT_NEAR(s.noc_bytes, (n - 1) * net.layer(l).out_c * fp_bytes, 1e-9);
}

// ---------------------------------------------------------------------------
// Per-shard timing against a per-shard kernel oracle
// ---------------------------------------------------------------------------

namespace {

/// Output channels [lo, hi) of a weight tensor as a compact tensor, with the
/// binary16 image the kernels stream when the source has one.
snn::LayerWeights weight_channels(const snn::LayerWeights& w, int lo, int hi) {
  snn::LayerWeights sub;
  sub.k = w.k;
  sub.in_c = w.in_c;
  sub.out_c = hi - lo;
  for (int kh = 0; kh < w.k; ++kh) {
    for (int kw = 0; kw < w.k; ++kw) {
      for (int ci = 0; ci < w.in_c; ++ci) {
        for (int co = lo; co < hi; ++co) sub.v.push_back(w.at(kh, kw, ci, co));
      }
    }
  }
  if (w.half_exact) sub.build_half();
  return sub;
}

template <typename T>
snn::Hwc<T> channels_of(const snn::Hwc<T>& t, int lo, int hi) {
  snn::Hwc<T> out(t.h, t.w, hi - lo);
  for (int y = 0; y < t.h; ++y) {
    for (int x = 0; x < t.w; ++x) {
      for (int c = lo; c < hi; ++c) out.at(y, x, c - lo) = t.at(y, x, c);
    }
  }
  return out;
}

template <typename T>
void put_channels(snn::Hwc<T>& full, const snn::Hwc<T>& part, int lo) {
  for (int y = 0; y < part.h; ++y) {
    for (int x = 0; x < part.w; ++x) {
      for (int c = 0; c < part.c; ++c) full.at(y, x, lo + c) = part.at(y, x, c);
    }
  }
}

template <typename T>
snn::Hwc<T> rows_of(const snn::Hwc<T>& t, int lo, int hi) {
  snn::Hwc<T> out(hi - lo, t.w, t.c);
  for (int y = lo; y < hi; ++y) {
    for (int x = 0; x < t.w; ++x) {
      for (int c = 0; c < t.c; ++c) out.at(y - lo, x, c) = t.at(y, x, c);
    }
  }
  return out;
}

template <typename T>
void put_rows(snn::Hwc<T>& full, const snn::Hwc<T>& part, int lo) {
  for (int y = 0; y < part.h; ++y) {
    for (int x = 0; x < part.w; ++x) {
      for (int c = 0; c < part.c; ++c) full.at(lo + y, x, c) = part.at(y, x, c);
    }
  }
}

/// Every KernelStats field, compared by bit pattern.
void expect_stats_identical(const k::KernelStats& got,
                            const k::KernelStats& want,
                            const std::string& where) {
#define SPK_EXPECT_IDENTICAL(field, rule)                              \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.field),                   \
            std::bit_cast<std::uint64_t>(want.field))                  \
      << where << " " #field ": " << got.field << " vs " << want.field;
  SPIKESTREAM_KERNEL_COUNTERS(SPK_EXPECT_IDENTICAL)
#undef SPK_EXPECT_IDENTICAL
  EXPECT_EQ(got.active_cores, want.active_cores) << where;
  ASSERT_EQ(got.core_cycles.size(), want.core_cycles.size()) << where;
  for (std::size_t c = 0; c < got.core_cycles.size(); ++c) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.core_cycles[c]),
              std::bit_cast<std::uint64_t>(want.core_cycles[c]))
        << where << " core_cycles[" << c << "]";
  }
}

/// Run layer `l` of `net` through a 4-cluster sharded backend for three
/// timesteps (fresh random input each, membrane carried) and check every
/// shard's timing pass against an oracle that runs the whole kernel on the
/// shard's own sub-problem: sliced weights and membrane for output-channel
/// tiles, halo'd CSR or image rows and a membrane row band for stripes, the
/// fan-in shard timing after one full-width functional pass for fan-in.
void check_shards_against_oracle(const snn::Network& net, std::size_t l,
                                 k::PartitionStrategy strategy,
                                 k::ShardAxis axis, bool pooled) {
  const k::RunOptions opt;
  const snn::LayerSpec& spec = net.layer(l);
  const snn::LayerWeights& w = net.weights(l);
  const std::string where = spec.name + " " +
                            k::partition_strategy_name(strategy) +
                            (pooled ? " pooled" : " serial");
  const rt::ShardedBackend be(
      opt, 4, pooled, strategy, {},
      pooled ? std::make_shared<rt::WorkerPool>(3) : nullptr, /*min_work=*/0);
  const k::LayerPlan plan = be.plan_for(spec);
  ASSERT_EQ(plan.axis, axis) << where;
  const std::size_t n = plan.n();
  ASSERT_GT(n, 1u) << where;
  std::vector<snn::LayerWeights> w_slices;
  if (axis == k::ShardAxis::kOutputChannel) {
    for (const k::ShardRange& r : plan.shards) {
      w_slices.push_back(weight_channels(w, r.lo, r.hi));
    }
  }

  k::LayerScratch scratch;
  snn::Tensor membrane(spec.out_h(), spec.out_w(), spec.out_c);
  snn::Tensor oracle_membrane = membrane;
  std::vector<k::KernelScratch> oracle(n);
  k::KernelScratch full;
  sc::Rng rng(17 + l);
  std::size_t fired = 0;
  for (int t = 0; t < 3; ++t) {
    const std::string at = where + " t=" + std::to_string(t);
    snn::Tensor image;
    spikestream::compress::CsrIfmap ifmap;
    const k::LayerRun* run = nullptr;
    if (spec.kind == snn::LayerKind::kEncodeConv) {
      image = snn::Tensor(spec.in_h, spec.in_w, spec.in_c);
      for (float& v : image.v) v = static_cast<float>(rng.uniform());
      run = &be.run_encode(spec, w, image, membrane, scratch);
    } else {
      snn::SpikeMap in(spec.in_h, spec.in_w, spec.in_c);
      for (auto& b : in.v) b = rng.bernoulli(0.2);
      spikestream::compress::CsrIfmap::encode_into(in, ifmap);
      run = spec.kind == snn::LayerKind::kConv
                ? &be.run_conv(spec, w, ifmap, membrane, scratch)
                : &be.run_fc(spec, w, ifmap, membrane, scratch);
    }

    snn::SpikeMap oracle_spikes(spec.out_h(), spec.out_w(), spec.out_c);
    if (axis == k::ShardAxis::kFanIn) {
      k::fc_functional(spec, w, ifmap, oracle_membrane, full);
      oracle_spikes = full.run.out_spikes;
    }
    k::KernelStats merged;
    for (std::size_t s = 0; s < n; ++s) {
      const k::ShardRange r = plan.shards[s];
      snn::LayerSpec sub = spec;
      k::KernelScratch& ks = oracle[s];
      if (axis == k::ShardAxis::kOutputChannel) {
        sub.out_c = r.extent();
        snn::Tensor m = channels_of(oracle_membrane, r.lo, r.hi);
        if (spec.kind == snn::LayerKind::kEncodeConv) {
          k::run_encode_layer(sub, w_slices[s], image, m, opt, ks);
        } else if (spec.kind == snn::LayerKind::kConv) {
          k::run_conv_layer(sub, w_slices[s], ifmap, m, opt, ks);
        } else {
          k::run_fc_layer(sub, w_slices[s], ifmap, m, opt, ks);
        }
        put_channels(oracle_membrane, m, r.lo);
        put_channels(oracle_spikes, ks.run.out_spikes, r.lo);
      } else if (axis == k::ShardAxis::kIfmapStripe) {
        sub.in_h = r.extent() + spec.k - 1;
        snn::Tensor m = rows_of(oracle_membrane, r.lo, r.hi);
        if (spec.kind == snn::LayerKind::kEncodeConv) {
          k::run_encode_layer(sub, w, rows_of(image, r.lo, r.lo + sub.in_h),
                              m, opt, ks);
        } else {
          spikestream::compress::CsrIfmap stripe;
          ifmap.slice_rows_into(r.lo, r.lo + sub.in_h, stripe);
          k::run_conv_layer(sub, w, stripe, m, opt, ks);
        }
        put_rows(oracle_membrane, m, r.lo);
        put_rows(oracle_spikes, ks.run.out_spikes, r.lo);
      } else {
        k::fc_fanin_shard_timing(spec, ifmap, r.lo, r.hi, opt, ks);
      }
      expect_stats_identical(scratch.lanes[s].run.stats, ks.run.stats,
                             at + " shard " + std::to_string(s));
      if (s == 0) {
        merged = ks.run.stats;
      } else {
        merged.merge_parallel(ks.run.stats);
      }
    }
    if (axis == k::ShardAxis::kFanIn) {
      // The merging cluster's reduction and activation tail.
      const k::FcFanInMergeCost tail = k::fc_fanin_merge_cost(
          spec, oracle_spikes, static_cast<int>(n), opt);
      merged.compute_cycles += tail.cycles;
      merged.cycles += tail.cycles;
      merged.fpu_ops += tail.fpu_ops;
      merged.int_instrs += tail.int_instrs;
      merged.tcdm_words += tail.tcdm_words;
    }
    // NoC traffic is charged on top of the merge (the NocModel tests pin
    // it); every other field is the shards' merge.
    k::KernelStats got = run->stats;
    EXPECT_GT(got.noc_bytes, 0.0) << at;
    got.noc_bytes = merged.noc_bytes;
    expect_stats_identical(got, merged, at + " merged");
    EXPECT_EQ(run->out_spikes.v, oracle_spikes.v) << at;
    EXPECT_EQ(run->out_nnz, snn::spike_count(oracle_spikes)) << at;
    EXPECT_EQ(membrane.v, oracle_membrane.v) << at;
    fired += run->out_nnz;
  }
  EXPECT_GT(fired, 0u) << where << ": no spikes to time";
}

}  // namespace

TEST(PartitionTiming, EveryShardMatchesItsKernelOracle) {
  // Shards time their view of one full-width functional pass. Each view
  // must be exactly what the shard would see computing its own
  // sub-problem, so every shard's stats match a per-shard kernel run bit
  // for bit, in every build (both sides use the same arithmetic).
  snn::Network net = test_net();
  net.quantize_weights(k::RunOptions{}.fmt);
  // Ten channels: three channel tiles at FP16, the last one half a SIMD
  // group, for the encode and conv layers (test_net's 10-output FC head
  // already ends in one).
  snn::Network narrow = test_net(10);
  narrow.quantize_weights(k::RunOptions{}.fmt);
  using A = k::ShardAxis;
  using P = k::PartitionStrategy;
  struct Case {
    const snn::Network* net;
    std::size_t layer;  // 0 encode, 1 conv, 2 fc
    P strategy;
    A axis;
  };
  for (const Case c : {Case{&net, 0, P::kOutputChannel, A::kOutputChannel},
                       Case{&net, 1, P::kOutputChannel, A::kOutputChannel},
                       Case{&net, 2, P::kOutputChannel, A::kOutputChannel},
                       Case{&net, 0, P::kIfmapStripe, A::kIfmapStripe},
                       Case{&net, 1, P::kIfmapStripe, A::kIfmapStripe},
                       Case{&net, 2, P::kIfmapStripe, A::kFanIn},
                       Case{&narrow, 0, P::kOutputChannel, A::kOutputChannel},
                       Case{&narrow, 1, P::kOutputChannel, A::kOutputChannel},
                       Case{&narrow, 1, P::kIfmapStripe, A::kIfmapStripe}}) {
    for (const bool pooled : {false, true}) {
      check_shards_against_oracle(*c.net, c.layer, c.strategy, c.axis,
                                  pooled);
    }
  }
}

// ---------------------------------------------------------------------------
// NoC model
// ---------------------------------------------------------------------------

TEST(NocModel, BroadcastTrafficIsRecordedAndCeilingOnlySlowsDown) {
  const snn::Network net = test_net();
  k::RunOptions opt;
  auto cfg = sharded_cfg(k::PartitionStrategy::kOutputChannel, 4);
  const rt::InferenceEngine off(net, opt, cfg);
  cfg.noc.model_contention = true;
  cfg.noc.shared_bytes_per_cycle = 64.0;
  const rt::InferenceEngine wide(net, opt, cfg);
  cfg.noc.shared_bytes_per_cycle = 1.0;
  const rt::InferenceEngine tight(net, opt, cfg);

  const auto img = snn::make_batch(1, 9, 16, 16, 3)[0];
  snn::NetworkState s0 = off.make_state();
  snn::NetworkState s1 = wide.make_state();
  snn::NetworkState s2 = tight.make_state();
  const auto r0 = off.run(img, s0);
  const auto r1 = wide.run(img, s1);
  const auto r2 = tight.run(img, s2);

  double total_noc = 0;
  for (std::size_t l = 0; l < r0.layers.size(); ++l) {
    // Traffic accounting is independent of the contention switch.
    EXPECT_DOUBLE_EQ(r0.layers[l].stats.noc_bytes,
                     r1.layers[l].stats.noc_bytes);
    EXPECT_DOUBLE_EQ(r0.layers[l].stats.noc_bytes,
                     r2.layers[l].stats.noc_bytes);
    total_noc += r0.layers[l].stats.noc_bytes;
    // A ceiling can only slow a layer down, monotonically in bandwidth.
    EXPECT_GE(r1.layers[l].stats.cycles, r0.layers[l].stats.cycles - 1e-9);
    EXPECT_GE(r2.layers[l].stats.cycles, r1.layers[l].stats.cycles - 1e-9);
  }
  EXPECT_GT(total_noc, 0.0);  // the broadcast is no longer free
  EXPECT_GT(r2.total_cycles, r0.total_cycles);
  // Spikes are untouched by the timing ceiling.
  EXPECT_EQ(r0.final_output.v, r2.final_output.v);
  // The energy model prices the traffic.
  double e_noc = 0;
  for (const auto& lm : r0.layers) e_noc += lm.energy.noc_pj;
  EXPECT_GT(e_noc, 0.0);
}

TEST(NocModel, StripesMoveLessInputTrafficThanBroadcast) {
  const snn::Network net = test_net();
  k::RunOptions opt;
  const rt::InferenceEngine oc(
      net, opt, sharded_cfg(k::PartitionStrategy::kOutputChannel, 4));
  const rt::InferenceEngine stripe(
      net, opt, sharded_cfg(k::PartitionStrategy::kIfmapStripe, 4));
  const auto img = snn::make_batch(1, 12, 16, 16, 3)[0];
  snn::NetworkState so = oc.make_state();
  snn::NetworkState ss = stripe.make_state();
  const auto ro = oc.run(img, so);
  const auto rs = stripe.run(img, ss);
  // Conv layers: a halo'd stripe crosses the NoC once per cluster instead of
  // a full broadcast replica.
  for (std::size_t l = 0; l < ro.layers.size(); ++l) {
    if (net.layer(l).kind != snn::LayerKind::kConv) continue;
    EXPECT_LT(rs.layers[l].stats.noc_bytes, ro.layers[l].stats.noc_bytes)
        << "layer " << l;
  }
}

// ---------------------------------------------------------------------------
// Stage-parallel pipeline
// ---------------------------------------------------------------------------

namespace {

snn::Network tower_net() {
  snn::Network net = snn::Network::make_deep_tower();
  sc::Rng rng(42);
  net.init_weights(rng);
  std::vector<snn::Tensor> calib;
  for (int i = 0; i < 4; ++i) {
    snn::Tensor t(6, 6, 3);
    for (auto& v : t.v) v = rng.uniform();
    calib.push_back(t);
  }
  snn::calibrate_thresholds(net, calib, snn::deep_tower_target_rates());
  return net;
}

std::vector<snn::Tensor> tower_inputs(int n) {
  sc::Rng rng(7);
  std::vector<snn::Tensor> imgs;
  for (int i = 0; i < n; ++i) {
    snn::Tensor t(6, 6, 3);
    for (auto& v : t.v) v = rng.uniform();
    imgs.push_back(t);
  }
  return imgs;
}

rt::BackendConfig pipeline_cfg(int clusters, k::ExecMode mode, bool enabled,
                               int fifo_depth = 4096) {
  auto cfg = sharded_cfg(k::PartitionStrategy::kHybrid, clusters, false);
  cfg.noc.topology = spikestream::arch::NocTopology::kRingQuadrant;
  cfg.noc.model_contention = true;
  cfg.pipeline.enabled = enabled;
  cfg.pipeline.mode = mode;
  cfg.pipeline.fifo_depth_spikes = fifo_depth;
  return cfg;
}

std::vector<rt::InferenceResult> run_batch(const rt::InferenceEngine& eng,
                                           std::span<const snn::Tensor> imgs) {
  snn::NetworkState state = eng.make_state();
  std::vector<rt::InferenceResult> batch;
  for (const auto& img : imgs) batch.push_back(eng.run(img, state));
  return batch;
}

}  // namespace

TEST(StagePlan, PlannerPipelinesTheDeepTowerButNotSvgg11) {
  k::RunOptions opt;
  const k::Partitioner part(opt, 8, k::PartitionStrategy::kHybrid);
  spikestream::arch::NocParams noc;
  noc.topology = spikestream::arch::NocTopology::kRingQuadrant;
  noc.model_contention = true;
  k::PipelineConfig cfg;
  cfg.enabled = true;

  // Deep narrow tower: per-layer work is a small multiple of the fixed
  // launch overheads, so splitting layers over cluster groups beats
  // amortizing every layer over all 8 clusters.
  const snn::Network tower = snn::Network::make_deep_tower();
  const k::StagePlan sp = part.plan_pipeline(tower, cfg, noc);
  EXPECT_NE(sp.mode, k::ExecMode::kDataParallel);
  EXPECT_GT(sp.num_stages(), 1);
  EXPECT_LT(sp.est_steady_cycles, sp.est_dp_cycles);

  // Stages tile the layer range contiguously and the clusters disjointly.
  ASSERT_FALSE(sp.stages.empty());
  EXPECT_EQ(sp.stages.front().layer_lo, 0);
  EXPECT_EQ(sp.stages.back().layer_hi, static_cast<int>(tower.num_layers()));
  EXPECT_EQ(sp.stages.front().cluster_lo, 0);
  EXPECT_EQ(sp.stages.back().cluster_hi, 8);
  for (int s = 1; s < sp.num_stages(); ++s) {
    EXPECT_EQ(sp.stages[s].layer_lo, sp.stages[s - 1].layer_hi);
    EXPECT_EQ(sp.stages[s].cluster_lo, sp.stages[s - 1].cluster_hi);
  }
  for (int l = 0; l < static_cast<int>(tower.num_layers()); ++l) {
    EXPECT_GE(sp.stage_of_layer(l), 0) << "layer " << l;
  }
  // Every non-terminal boundary carries a payload estimate.
  for (int s = 0; s + 1 < sp.num_stages(); ++s) {
    EXPECT_GT(sp.stages[s].est_handoff_bytes, 0.0) << "stage " << s;
  }
  EXPECT_DOUBLE_EQ(sp.stages.back().est_handoff_bytes, 0.0);

  // S-VGG11's fat layers keep data-parallel on the same cost query.
  const snn::Network svgg = snn::Network::make_svgg11();
  const k::StagePlan dp = part.plan_pipeline(svgg, cfg, noc);
  EXPECT_EQ(dp.mode, k::ExecMode::kDataParallel);
  EXPECT_EQ(dp.num_stages(), 1);
}

TEST(StagePlan, ForcedModesPinTheStageShape) {
  k::RunOptions opt;
  const k::Partitioner part(opt, 8, k::PartitionStrategy::kHybrid);
  spikestream::arch::NocParams noc;
  k::PipelineConfig cfg;
  cfg.enabled = true;

  const snn::Network tower = snn::Network::make_deep_tower();
  cfg.mode = k::ExecMode::kDataParallel;
  EXPECT_EQ(part.plan_pipeline(tower, cfg, noc).num_stages(), 1);
  cfg.mode = k::ExecMode::kStageParallel;
  const k::StagePlan pure = part.plan_pipeline(tower, cfg, noc);
  // Pure pipeline: one cluster per stage.
  for (const auto& st : pure.stages) {
    EXPECT_EQ(st.cluster_hi - st.cluster_lo, 1);
  }
  EXPECT_EQ(pure.num_stages(), 8);
  cfg.mode = k::ExecMode::kHybrid;
  const k::StagePlan hy = part.plan_pipeline(tower, cfg, noc);
  EXPECT_GT(hy.num_stages(), 1);
  EXPECT_LT(hy.num_stages(), 8);
}

TEST(StagePipeline, SpikesBitExactAcrossModesAndClusterCounts) {
  const snn::Network net = tower_net();
  k::RunOptions opt;
  const auto imgs = tower_inputs(6);

  // Reference: the serial analytical backend.
  rt::BackendConfig ref_cfg;
  ref_cfg.kind = rt::BackendKind::kAnalytical;
  const rt::InferenceEngine ref(net, opt, ref_cfg);
  const auto ref_batch = run_batch(ref, imgs);

  for (int clusters : {1, 4, 8}) {
    for (auto mode : {k::ExecMode::kAuto, k::ExecMode::kDataParallel,
                      k::ExecMode::kStageParallel, k::ExecMode::kHybrid}) {
      for (bool enabled : {false, true}) {
        const rt::InferenceEngine eng(net, opt,
                                      pipeline_cfg(clusters, mode, enabled));
        const auto batch = run_batch(eng, imgs);
        ASSERT_EQ(batch.size(), ref_batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
          EXPECT_EQ(batch[i].final_output.v, ref_batch[i].final_output.v)
              << "clusters=" << clusters << " mode="
              << k::exec_mode_name(mode) << " enabled=" << enabled
              << " sample=" << i;
        }
        if (!enabled) break;  // mode is ignored when the pipeline is off
      }
    }
  }
}

TEST(StagePipeline, TimelineConservesServiceStallAndIdleExactly) {
  // Pure recurrence on synthetic matrices: 3 stages, 6 samples, a slow
  // middle stage and boundary payloads that overflow a tiny FIFO.
  const std::vector<std::vector<double>> services = {
      {100, 100, 100, 100, 100, 100},
      {300, 320, 280, 300, 310, 290},
      {120, 110, 130, 120, 110, 120},
  };
  const std::vector<std::vector<double>> spikes = {
      {60, 60, 60, 60, 60, 60},
      {40, 40, 40, 40, 40, 40},
      {0, 0, 0, 0, 0, 0},
  };

  double prev_makespan = 0.0, prev_stall = 0.0;
  bool saw_stall = false;
  for (int depth : {16, 64, 100, 4096}) {
    const rt::StageTimeline tl =
        rt::simulate_stage_timeline(services, spikes, depth);
    ASSERT_EQ(tl.stages.size(), services.size());
    double svc_expect = 0;
    for (std::size_t s = 0; s < services.size(); ++s) {
      const auto& tr = tl.stages[s];
      // Conservation: the busy window splits exactly into the three bins.
      EXPECT_NEAR(tr.window_cycles(),
                  tr.service_cycles + tr.stall_cycles + tr.idle_cycles,
                  1e-9)
          << "depth=" << depth << " stage=" << s;
      double svc = 0;
      for (double v : services[s]) svc += v;
      EXPECT_DOUBLE_EQ(tr.service_cycles, svc);
      svc_expect += svc;
      EXPECT_LE(tr.last_finish, tl.makespan_cycles + 1e-9);
      EXPECT_GE(tr.stall_cycles, 0.0);
      EXPECT_GE(tr.idle_cycles, 0.0);
      EXPECT_LE(tr.peak_fifo_spikes,
                std::max<double>(depth, spikes[s].empty() ? 0 : spikes[s][0]));
    }
    (void)svc_expect;
    // Fill is sample 0 straight through; steady state is bounded below by
    // the slowest stage's mean service.
    EXPECT_DOUBLE_EQ(tl.fill_cycles, 100.0 + 300.0 + 120.0);
    EXPECT_GE(tl.steady_cycles_per_sample, 280.0 - 1e-9);
    if (tl.total_stall_cycles > 0) saw_stall = true;
    if (prev_makespan > 0) {
      // A deeper FIFO never increases stalls or makespan.
      EXPECT_LE(tl.makespan_cycles, prev_makespan + 1e-9);
      EXPECT_LE(tl.total_stall_cycles, prev_stall + 1e-9);
    }
    prev_makespan = tl.makespan_cycles;
    prev_stall = tl.total_stall_cycles;
  }
  // The tiny FIFO (16 < 60-spike samples -> wait-for-empty) must actually
  // backpressure the fast producer behind the slow middle stage.
  EXPECT_TRUE(saw_stall);
  // At the deepest setting the FIFO is effectively unbounded: zero stalls.
  EXPECT_DOUBLE_EQ(prev_stall, 0.0);
}

TEST(StagePipeline, EngineTimelineBeatsDataParallelOnTheTower) {
  const snn::Network net = tower_net();
  k::RunOptions opt;
  const auto imgs = tower_inputs(8);

  // Data-parallel reference at the same cluster count.
  const rt::InferenceEngine dp_eng(
      net, opt, pipeline_cfg(8, k::ExecMode::kDataParallel, false));
  const auto dp_batch = run_batch(dp_eng, imgs);
  double dp_total = 0;
  for (const auto& r : dp_batch) dp_total += r.total_cycles;
  const double dp_per_sample = dp_total / static_cast<double>(imgs.size());

  // Planner-chosen stage mode.
  const rt::InferenceEngine eng(net, opt,
                                pipeline_cfg(8, k::ExecMode::kAuto, true));
  const auto batch = run_batch(eng, imgs);
  const auto* be = dynamic_cast<const rt::ShardedBackend*>(&eng.backend());
  ASSERT_NE(be, nullptr);
  ASSERT_TRUE(be->stage_parallel_active());
  const k::StagePlan& sp = be->stage_plan();

  const rt::StageTimeline tl = rt::simulate_stage_pipeline(
      sp, net, batch, be->pipeline_config());
  ASSERT_EQ(tl.stages.size(), sp.stages.size());
  for (std::size_t s = 0; s < tl.stages.size(); ++s) {
    const auto& tr = tl.stages[s];
    EXPECT_NEAR(tr.window_cycles(),
                tr.service_cycles + tr.stall_cycles + tr.idle_cycles,
                1e-6 * tr.window_cycles() + 1e-6)
        << "stage " << s;
    // The stage's aggregated stats carry the window and the itemized stall.
    EXPECT_DOUBLE_EQ(tr.stats.cycles, tr.window_cycles());
    EXPECT_DOUBLE_EQ(tr.stats.fifo_stall_cycles, tr.stall_cycles);
    if (s + 1 < tl.stages.size()) {
      EXPECT_GT(tr.handoff_bytes, 0.0) << "stage " << s;
    }
  }
  EXPECT_GE(tl.makespan_cycles, tl.fill_cycles - 1e-9);
  EXPECT_GT(tl.steady_cycles_per_sample, 0.0);

  // The acceptance bar: the planner-chosen pipeline beats pure
  // data-parallel per steady-state sample AND per amortized batch sample.
  EXPECT_LT(tl.steady_cycles_per_sample, dp_per_sample);
  EXPECT_LT(tl.cycles_per_sample(imgs.size()), dp_per_sample);

  // Deeper FIFOs never hurt the measured timeline.
  const rt::StageTimeline shallow = rt::simulate_stage_pipeline(
      sp, net, batch, [] {
        k::PipelineConfig c;
        c.fifo_depth_spikes = 1;
        return c;
      }());
  EXPECT_GE(shallow.makespan_cycles, tl.makespan_cycles - 1e-9);
  EXPECT_GE(shallow.total_stall_cycles, tl.total_stall_cycles - 1e-9);
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnceWithBoundedSlots) {
  rt::WorkerPool pool(3);
  constexpr std::size_t kTasks = 200;
  std::vector<std::atomic<int>> ran(kTasks);
  std::atomic<int> max_slot{0};
  pool.parallel_for(kTasks, 2, [&](std::size_t slot, std::size_t i) {
    ran[i].fetch_add(1);
    int seen = max_slot.load();
    while (slot > static_cast<std::size_t>(seen) &&
           !max_slot.compare_exchange_weak(seen, static_cast<int>(slot))) {
    }
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "task " << i;
  }
  EXPECT_LT(max_slot.load(), 2);
}

TEST(WorkerPoolTest, NestedParallelForMakesProgress) {
  rt::WorkerPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, 4, [&](std::size_t, std::size_t) {
    pool.parallel_for(8, 8, [&](std::size_t, std::size_t) {
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(WorkerPoolTest, PropagatesTaskExceptions) {
  rt::WorkerPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(16, 4,
                        [&](std::size_t, std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(WorkerPoolTest, ClampsToHardwareConcurrency) {
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(rt::WorkerPool::clamp_to_hardware(0), 1);
  EXPECT_EQ(rt::WorkerPool::clamp_to_hardware(1 << 20), hw);
  rt::WorkerPool pool(1 << 20);
  EXPECT_LE(pool.threads(), std::max(0, hw - 1));
}

// ---------------------------------------------------------------------------
// Plans are engine-construction state
// ---------------------------------------------------------------------------

TEST(PartitionPlans, PreparedAtEngineConstructionAndLanesPresized) {
  const snn::Network net = test_net();
  k::RunOptions opt;
  const rt::InferenceEngine engine(
      net, opt, sharded_cfg(k::PartitionStrategy::kHybrid, 8));
  const auto* be = dynamic_cast<const rt::ShardedBackend*>(&engine.backend());
  ASSERT_NE(be, nullptr);
  snn::NetworkState state = engine.make_state();
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const k::LayerPlan& plan = be->plan_for(net.layer(l));
    ASSERT_GE(plan.n(), 1u);
    if (plan.n() > 1) {
      EXPECT_GE(state.scratch(l).lanes.size(), plan.n()) << "layer " << l;
    }
  }
  // The 10-class head must engage every cluster under the hybrid plan.
  const k::LayerPlan& head = be->plan_for(net.layer(net.num_layers() - 1));
  EXPECT_EQ(head.axis, k::ShardAxis::kFanIn);
  EXPECT_EQ(head.n(), 8u);
}

TEST(PartitionPlans, UnusableShardedConfigsThrowAtConstruction) {
  struct Case {
    int clusters;
    int min_work;
    const char* field;  ///< named by the error; null = must construct
  };
  const Case cases[] = {
      {0, 0, "BackendConfig::clusters"},
      {-1, 0, "BackendConfig::clusters"},
      {65, 0, "BackendConfig::clusters"},
      {4, -1, "BackendConfig::shard_min_work"},
      {1, 0, nullptr},
      {64, 0, nullptr},
  };
  const k::RunOptions opt;
  for (const Case& c : cases) {
    rt::BackendConfig cfg =
        sharded_cfg(k::PartitionStrategy::kHybrid, c.clusters, false);
    cfg.shard_min_work = c.min_work;
    const std::string where = "clusters " + std::to_string(c.clusters) +
                              ", min_work " + std::to_string(c.min_work);
    if (c.field == nullptr) {
      EXPECT_EQ(rt::make_backend(opt, cfg)->num_clusters(), c.clusters)
          << where;
      continue;
    }
    try {
      rt::make_backend(opt, cfg);
      ADD_FAILURE() << where << ": constructed";
    } catch (const spikestream::Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << where << ": " << e.what();
    }
  }
}

TEST(PartitionPlans, ShardedStatsDependOnlyOnInputs) {
  // Modeled stats of a sharded BatchRunner are a pure function of the
  // inputs: at workers {1, 2, 4}, twice each, every KernelStats field of
  // every layer and sample must agree bit for bit — on the hybrid test net
  // at 8 clusters and on the stage-mode tower.
  struct Case {
    const char* name;
    snn::Network net;
    rt::BackendConfig cfg;
    std::vector<snn::Tensor> images;
  };
  rt::BackendConfig tower_cfg = pipeline_cfg(8, k::ExecMode::kAuto, true);
  tower_cfg.shard_threads = true;
  const Case cases[] = {
      {"hybrid test_net x8", test_net(),
       sharded_cfg(k::PartitionStrategy::kHybrid, 8),
       snn::make_batch(6, 11, 16, 16, 3)},
      {"stage-mode tower x8", tower_net(), tower_cfg, tower_inputs(6)},
  };
  const k::RunOptions opt;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const Case& c : cases) {
    std::vector<rt::InferenceResult> ref_step;
    std::vector<rt::MultiStepResult> ref_run;
    for (const int workers : {1, 2, 4}) {
      const rt::BatchRunner runner(c.net, opt, c.cfg, {}, workers);
      for (int rep = 0; rep < 2; ++rep) {
        const std::string where = std::string(c.name) + " workers " +
                                  std::to_string(workers) + " rep " +
                                  std::to_string(rep);
        const std::vector<rt::InferenceResult> step =
            runner.run_single_step(c.images);
        const std::vector<rt::MultiStepResult> run = runner.run(c.images, 3);
        if (ref_step.empty()) {
          ref_step = step;
          ref_run = run;
          continue;
        }
        ASSERT_EQ(step.size(), ref_step.size()) << where;
        ASSERT_EQ(run.size(), ref_run.size()) << where;
        for (std::size_t i = 0; i < step.size(); ++i) {
          const std::string at = where + " sample " + std::to_string(i);
          ASSERT_EQ(step[i].layers.size(), ref_step[i].layers.size()) << at;
          for (std::size_t l = 0; l < step[i].layers.size(); ++l) {
            expect_stats_identical(step[i].layers[l].stats,
                                   ref_step[i].layers[l].stats,
                                   at + " layer " + std::to_string(l));
          }
          EXPECT_EQ(step[i].final_output.v, ref_step[i].final_output.v)
              << at;
          EXPECT_EQ(bits(step[i].total_energy_mj),
                    bits(ref_step[i].total_energy_mj))
              << at;
          EXPECT_EQ(run[i].spike_counts, ref_run[i].spike_counts) << at;
          ASSERT_EQ(run[i].cycles_per_step.size(),
                    ref_run[i].cycles_per_step.size())
              << at;
          for (std::size_t t = 0; t < run[i].cycles_per_step.size(); ++t) {
            EXPECT_EQ(bits(run[i].cycles_per_step[t]),
                      bits(ref_run[i].cycles_per_step[t]))
                << at << " t=" << t;
          }
          EXPECT_EQ(bits(run[i].total_energy_mj),
                    bits(ref_run[i].total_energy_mj))
              << at;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Segment-major batched FC execution
// ---------------------------------------------------------------------------

TEST(SegmentMajor, BitExactSpikesAndCyclesAcrossBatchAndBackends) {
  // The lockstep batch executors (BatchRunner waves, PipelinedBatchRunner
  // waves, the backend's run_batch hook) must produce spikes AND modeled
  // stats bit-identical to the serial per-sample path with the same options,
  // for every batch size, backend and cluster count — the segment-major
  // accounting is per-sample deterministic by construction.
  const snn::Network net = test_net();
  k::RunOptions opt;
  for (const std::size_t B : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto images = snn::make_batch(B, 99, 16, 16, 3);
    opt.segment_major_lanes = static_cast<int>(B);
    struct Case {
      const char* label;
      rt::BackendConfig cfg;
    };
    std::vector<Case> cases = {{"analytical", {}}};
    {
      rt::BackendConfig c;
      c.kind = rt::BackendKind::kCycleAccurate;
      cases.push_back({"cycle-accurate", c});
    }
    for (int clusters : {1, 4, 8}) {
      cases.push_back(
          {"sharded", sharded_cfg(k::PartitionStrategy::kHybrid, clusters)});
    }
    for (const Case& c : cases) {
      const rt::InferenceEngine engine(net, opt, c.cfg);
      // Serial per-sample reference (same engine, same options).
      std::vector<rt::InferenceResult> serial(B);
      for (std::size_t i = 0; i < B; ++i) {
        snn::NetworkState st = engine.make_state();
        engine.run(images[i], st, serial[i]);
      }
      const rt::BatchRunner batch(net, opt, c.cfg, {}, /*workers=*/2);
      const rt::PipelinedBatchRunner pipe(net, opt, c.cfg, {},
                                          /*depth=*/static_cast<int>(B));
      const auto rb = batch.run_single_step(images);
      const auto rp = pipe.run_single_step(images);
      for (std::size_t i = 0; i < B; ++i) {
        EXPECT_EQ(serial[i].final_output.v, rb[i].final_output.v)
            << c.label << " B=" << B << " sample " << i;
        EXPECT_EQ(serial[i].final_output.v, rp[i].final_output.v)
            << c.label << " B=" << B << " sample " << i;
        EXPECT_DOUBLE_EQ(serial[i].total_cycles, rb[i].total_cycles)
            << c.label << " B=" << B << " sample " << i;
        EXPECT_DOUBLE_EQ(serial[i].total_cycles, rp[i].total_cycles)
            << c.label << " B=" << B << " sample " << i;
        for (std::size_t l = 0; l < serial[i].layers.size(); ++l) {
          EXPECT_DOUBLE_EQ(serial[i].layers[l].stats.dma_bytes,
                           rb[i].layers[l].stats.dma_bytes)
              << c.label << " B=" << B << " layer " << l;
          EXPECT_DOUBLE_EQ(serial[i].layers[l].stats.dma_saved_bytes,
                           rb[i].layers[l].stats.dma_saved_bytes)
              << c.label << " B=" << B << " layer " << l;
        }
      }
    }
  }
}

TEST(SegmentMajor, MultiTimestepLockstepMatchesSerial) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(5, 31, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 3;  // waves smaller than the batch
  const rt::BatchRunner batch(net, opt, {}, {}, /*workers=*/2);
  const rt::PipelinedBatchRunner pipe(net, opt, {}, {}, /*depth=*/3);
  const auto rb = batch.run(images, /*timesteps=*/3);
  const auto rp = pipe.run(images, /*timesteps=*/3);
  const rt::InferenceEngine engine(net, opt);
  for (std::size_t i = 0; i < images.size(); ++i) {
    snn::NetworkState st = engine.make_state();
    const auto serial = rt::run_timesteps(engine, st, images[i], 3);
    EXPECT_EQ(serial.spike_counts, rb[i].spike_counts) << i;
    EXPECT_EQ(serial.spike_counts, rp[i].spike_counts) << i;
    EXPECT_DOUBLE_EQ(serial.total_cycles, rb[i].total_cycles) << i;
    EXPECT_DOUBLE_EQ(serial.total_cycles, rp[i].total_cycles) << i;
  }
}

TEST(SegmentMajor, ReducesFcDmaAndItemizesSaving) {
  // The tiny net's FC layer (8192 -> 10) is fan-in segmented, so the
  // segment-major schedule applies: per-sample FC DMA must drop and the
  // delta must land in dma_saved_bytes (spill itemized separately, inside
  // dma_bytes).
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 7, 16, 16, 3);
  k::RunOptions off;
  k::RunOptions on = off;
  on.segment_major_lanes = 4;
  const rt::BatchRunner r_off(net, off, {}, {}, /*workers=*/1);
  const rt::BatchRunner r_on(net, on, {}, {}, /*workers=*/1);
  const auto a = r_off.run_single_step(images);
  const auto b = r_on.run_single_step(images);
  const std::size_t fc = net.num_layers() - 1;
  for (std::size_t i = 0; i < images.size(); ++i) {
    const auto& so = a[i].layers[fc].stats;
    const auto& sn = b[i].layers[fc].stats;
    EXPECT_LT(sn.dma_bytes, so.dma_bytes) << i;
    EXPECT_GT(sn.dma_saved_bytes, 0.0) << i;
    EXPECT_NEAR(sn.dma_bytes + sn.dma_saved_bytes, so.dma_bytes, 1e-6) << i;
    EXPECT_GE(sn.dma_bytes_spill, 0.0) << i;
    EXPECT_LE(sn.dma_bytes_spill, sn.dma_bytes) << i;
    // Spikes untouched by the accounting change.
    EXPECT_EQ(a[i].final_output.v, b[i].final_output.v) << i;
  }
}
