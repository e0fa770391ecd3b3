// Fault-injection contract (runtime/faults.hpp + the hardened serving path):
//   * a FaultPlan is pure data, keyed by wave index — builders keep it
//     wave-sorted and chaos() schedules are seed-deterministic;
//   * cluster fail-stop re-plans every layer over the survivors exactly once
//     (no oscillation), raises modeled cycles, and leaves completed spikes
//     bit-identical to the healthy run — the spikes-are-plan-invariant
//     guarantee degraded mode inherits from the partitioner;
//   * fault ids are active cluster slots: fail_cluster accepts an id iff it
//     names a live slot and another cluster survives;
//   * slowdown and link-degrade faults only stretch modeled timing; a factor
//     of 1 restores the healthy cycles bit-exactly;
//   * faults applied while a batch runs publish new plan epochs without
//     disturbing in-flight layers: every result keeps the healthy spikes;
//   * the server applies structural faults at wave boundaries, contains
//     throwing waves (transient faults retry from clean lane state and land
//     bit-identical; exhausted retries fail only that wave's requests with
//     kError), sheds TTL-expired requests with kTimedOut, and accounts for
//     every admitted request: admitted == completed + timed_out + errored.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "arch/noc.hpp"
#include "common/rng.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/batch.hpp"
#include "runtime/faults.hpp"
#include "runtime/multistep.hpp"
#include "runtime/server.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"

namespace {

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace arch = spikestream::arch;
namespace sc = spikestream::common;

snn::Network test_net() {
  snn::Network net = snn::Network::make_tiny(18, 3, 32, 10);
  sc::Rng rng(42);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.20, 0.15, 0.30};
  snn::calibrate_thresholds(net, calib, targets);
  return net;
}

/// The deep narrow tower, the network the planner pipelines into stages.
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

rt::BackendConfig sharded(int clusters) {
  rt::BackendConfig b;
  b.kind = rt::BackendKind::kSharded;
  b.clusters = clusters;
  b.shard_threads = false;  // deterministic serial shards; results identical
  return b;
}

const rt::ShardedBackend* sharded_of(const rt::InferenceEngine& engine) {
  return dynamic_cast<const rt::ShardedBackend*>(&engine.backend());
}

bool events_equal(const rt::FaultEvent& a, const rt::FaultEvent& b) {
  return a.kind == b.kind && a.wave == b.wave && a.cluster == b.cluster &&
         a.factor == b.factor && a.failures == b.failures;
}

}  // namespace

TEST(FaultPlan, BuildersKeepEventsWaveSorted) {
  rt::FaultPlan plan;
  plan.transient_error(7, 2)
      .kill_cluster(3, 2)
      .degrade_link(1, 4.0, 9)
      .slow_cluster(0, 2.0, 2)
      .transient_error(7);
  ASSERT_EQ(plan.size(), 5u);
  const auto& ev = plan.events();
  for (std::size_t i = 1; i < ev.size(); ++i) {
    EXPECT_LE(ev[i - 1].wave, ev[i].wave) << "events must stay wave-sorted";
  }
  // Stable for equal waves: the kill at wave 2 was added before the slowdown.
  EXPECT_EQ(ev[0].kind, rt::FaultKind::kClusterFailStop);
  EXPECT_EQ(ev[1].kind, rt::FaultKind::kClusterSlowdown);
  EXPECT_EQ(plan.transient_failures_at(7), 3);
  EXPECT_EQ(plan.transient_failures_at(2), 0);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ChaosIsSeedDeterministicAndBounded) {
  const rt::FaultPlan a = rt::FaultPlan::chaos(123, 50, 8, 40);
  const rt::FaultPlan b = rt::FaultPlan::chaos(123, 50, 8, 40);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 40u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(events_equal(a.events()[i], b.events()[i]))
        << "chaos plan must replay identically for the same seed";
  }
  int kills = 0;
  for (const auto& e : a.events()) {
    EXPECT_LT(e.wave, 50u);
    if (e.kind == rt::FaultKind::kTransientWaveError) {
      EXPECT_GE(e.failures, 1);
    } else {
      EXPECT_GE(e.cluster, 0);
      EXPECT_LT(e.cluster, 8);
    }
    if (e.kind != rt::FaultKind::kClusterFailStop) {
      EXPECT_GE(e.factor, 1.0);
    } else {
      ++kills;
    }
  }
  EXPECT_LE(kills, 7) << "chaos must never schedule killing the last cluster";

  const rt::FaultPlan c = rt::FaultPlan::chaos(124, 50, 8, 40);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = !events_equal(a.events()[i], c.events()[i]);
  }
  EXPECT_TRUE(differs) << "different seeds should draw different schedules";
}

TEST(FaultPlan, ChaosPropertiesHoldAcrossManySeeds) {
  // Property sweep over 64 seeds: every chaos schedule must stay wave-sorted
  // (stable builders), never draw more than clusters-1 fail-stops, replay
  // identically for the same seed, and differ from its neighbor seed — the
  // invariants the soak tests and benches lean on without checking.
  constexpr std::uint64_t kWaves = 32;
  constexpr int kClusters = 4;
  constexpr int kEvents = 12;
  std::vector<rt::FaultPlan> plans;
  plans.reserve(64);
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    plans.push_back(rt::FaultPlan::chaos(seed, kWaves, kClusters, kEvents));
    const rt::FaultPlan& p = plans.back();
    ASSERT_EQ(p.size(), static_cast<std::size_t>(kEvents)) << "seed " << seed;
    int kills = 0;
    for (std::size_t i = 0; i < p.size(); ++i) {
      const rt::FaultEvent& e = p.events()[i];
      if (i > 0) {
        EXPECT_LE(p.events()[i - 1].wave, e.wave)
            << "seed " << seed << ": events must stay wave-sorted";
      }
      EXPECT_LT(e.wave, kWaves) << "seed " << seed;
      if (e.kind == rt::FaultKind::kClusterFailStop) ++kills;
    }
    EXPECT_LE(kills, kClusters - 1)
        << "seed " << seed << ": the last cluster must stay unkillable";

    const rt::FaultPlan replay =
        rt::FaultPlan::chaos(seed, kWaves, kClusters, kEvents);
    ASSERT_EQ(replay.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_TRUE(events_equal(replay.events()[i], p.events()[i]))
          << "seed " << seed << " must replay identically";
    }
  }
  // Neighbor seeds draw distinct schedules (no accidental seed aliasing).
  for (std::size_t s = 1; s < plans.size(); ++s) {
    bool differs = false;
    for (std::size_t i = 0; !differs && i < plans[s].size(); ++i) {
      differs = !events_equal(plans[s].events()[i], plans[s - 1].events()[i]);
    }
    EXPECT_TRUE(differs) << "seeds " << s - 1 << " and " << s
                         << " drew identical schedules";
  }
}

TEST(FaultPlan, ChaosDataIsDeterministicRangedAndIndependent) {
  constexpr std::uint64_t kWaves = 16;
  constexpr int kLayers = 3;
  constexpr int kLanes = 4;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const rt::FaultPlan p =
        rt::FaultPlan::chaos_data(seed, kWaves, kLayers, kLanes, 10);
    ASSERT_EQ(p.size(), 10u);
    for (std::size_t i = 0; i < p.size(); ++i) {
      const rt::FaultEvent& e = p.events()[i];
      EXPECT_TRUE(rt::is_data_fault(e.kind)) << "seed " << seed;
      EXPECT_LT(e.wave, kWaves);
      EXPECT_GE(e.layer, 0);
      EXPECT_LT(e.layer, kLayers);
      EXPECT_GE(e.lane, 0);
      EXPECT_LT(e.lane, kLanes);
      EXPECT_GE(e.failures, 1);
      if (i > 0) EXPECT_LE(p.events()[i - 1].wave, e.wave);
    }
    const rt::FaultPlan replay =
        rt::FaultPlan::chaos_data(seed, kWaves, kLayers, kLanes, 10);
    for (std::size_t i = 0; i < p.size(); ++i) {
      const rt::FaultEvent& a = p.events()[i];
      const rt::FaultEvent& b = replay.events()[i];
      EXPECT_TRUE(events_equal(a, b) && a.layer == b.layer && a.bit == b.bit &&
                  a.lane == b.lane)
          << "seed " << seed << " must replay identically";
    }
  }
  // Independent draw streams: the structural and data schedules of the same
  // user seed must not be correlated copies of each other.
  const rt::FaultPlan s = rt::FaultPlan::chaos(5, kWaves, kLanes, 10);
  const rt::FaultPlan d = rt::FaultPlan::chaos_data(5, kWaves, kLayers,
                                                    kLanes, 10);
  bool differs = false;
  for (std::size_t i = 0; !differs && i < s.size(); ++i) {
    differs = s.events()[i].wave != d.events()[i].wave;
  }
  EXPECT_TRUE(differs) << "chaos and chaos_data must use distinct streams";
}

TEST(NocModel, LinkDerateStretchesCyclesAndUnityIsExact) {
  arch::NocParams p;
  p.topology = arch::NocTopology::kCrossbar;
  p.model_contention = true;

  const auto cycles_with = [&](double derate) {
    arch::NocModel m(p, 4);
    m.set_link_derate(0, derate);
    m.multicast(0, 0, 4, 4096.0);  // cluster 0's injection link is busiest
    m.unicast(1, 0, 512.0);
    return m.cycles();
  };
  const double healthy = cycles_with(1.0);
  {
    arch::NocModel m(p, 4);  // never touched: all-ones is the default
    m.multicast(0, 0, 4, 4096.0);
    m.unicast(1, 0, 512.0);
    EXPECT_EQ(m.cycles(), healthy) << "default derates must be bit-exact";
  }
  EXPECT_GT(cycles_with(3.0), healthy)
      << "a derated bottleneck link must serialize slower";
  EXPECT_EQ(cycles_with(1.0), healthy);
  // Derating an idle cluster's links must not move the bottleneck.
  arch::NocModel m(p, 4);
  m.set_link_derate(3, 100.0);
  m.unicast(0, 1, 1024.0);
  arch::NocModel ref(p, 4);
  ref.unicast(0, 1, 1024.0);
  EXPECT_EQ(m.cycles(), ref.cycles());
}

TEST(DegradedMode, FailStopKeepsSpikesBitIdenticalAndReplansOnce) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(3, 13, 16, 16, 3);
  k::RunOptions opt;

  rt::InferenceEngine healthy(net, opt, sharded(4));
  rt::InferenceEngine degraded(net, opt, sharded(4));
  const rt::ShardedBackend* sb = sharded_of(degraded);
  ASSERT_NE(sb, nullptr);

  EXPECT_EQ(sb->active_clusters(), 4);
  EXPECT_FALSE(sb->fail_cluster(-1));
  EXPECT_FALSE(sb->fail_cluster(4));
  ASSERT_TRUE(sb->fail_cluster(3));
  EXPECT_EQ(sb->active_clusters(), 3);
  EXPECT_EQ(sb->failed_clusters(), 1);
  EXPECT_EQ(sb->degrade_replans(), 1) << "exactly one re-plan per fault";
  EXPECT_FALSE(sb->fail_cluster(3)) << "slot ids are dense over survivors";
  EXPECT_EQ(sb->degrade_replans(), 1) << "a rejected fault must not re-plan";

  snn::NetworkState hs = healthy.make_state();
  snn::NetworkState ds = degraded.make_state();
  for (const auto& img : images) {
    const rt::MultiStepResult h = rt::run_timesteps(healthy, hs, img, 3);
    const rt::MultiStepResult d = rt::run_timesteps(degraded, ds, img, 3);
    EXPECT_EQ(h.spike_counts, d.spike_counts)
        << "degraded spikes must stay bit-identical to healthy";
    EXPECT_GE(d.total_cycles, h.total_cycles)
        << "losing a cluster must not speed the model up";
    EXPECT_GT(d.total_cycles, 0.0);
  }

  // Kill down to one survivor; the last cluster is unkillable.
  ASSERT_TRUE(sb->fail_cluster(2));
  ASSERT_TRUE(sb->fail_cluster(1));
  EXPECT_EQ(sb->active_clusters(), 1);
  EXPECT_FALSE(sb->fail_cluster(0)) << "the last survivor must be refused";
  EXPECT_EQ(sb->degrade_replans(), 3);
  const rt::MultiStepResult solo =
      rt::run_timesteps(degraded, ds, images[0], 3);
  snn::NetworkState hs2 = healthy.make_state();
  const rt::MultiStepResult ref =
      rt::run_timesteps(healthy, hs2, images[0], 3);
  EXPECT_EQ(solo.spike_counts, ref.spike_counts);
  EXPECT_GE(solo.total_cycles, ref.total_cycles);
}

TEST(DegradedMode, FailStopIdsAreActiveSlots) {
  // Ids name active slots, renumbered densely over the survivors after each
  // fail-stop: an id is accepted iff 0 <= id < active_clusters() and
  // another cluster survives.
  struct Call {
    int id;
    bool accepted;
  };
  struct Case {
    const char* name;
    std::vector<Call> calls;
    int active_after;
  };
  const Case cases[] = {
      {"out of range", {{-1, false}, {4, false}, {64, false}}, 4},
      {"slot 3 is gone after one fail-stop", {{0, true}, {3, false}}, 3},
      {"slot 1 names a survivor after its first fail-stop",
       {{1, true}, {1, true}},
       2},
      {"down to the last survivor",
       {{3, true}, {2, true}, {1, true}, {0, false}},
       1},
  };
  const k::RunOptions opt;
  for (const Case& c : cases) {
    const rt::ShardedBackend sb(opt, 4, /*use_threads=*/false);
    for (std::size_t i = 0; i < c.calls.size(); ++i) {
      const int before = sb.active_clusters();
      EXPECT_EQ(sb.fail_cluster(c.calls[i].id), c.calls[i].accepted)
          << c.name << ": call " << i << " (slot " << c.calls[i].id << ")";
      EXPECT_EQ(sb.active_clusters(), before - (c.calls[i].accepted ? 1 : 0))
          << c.name << ": call " << i;
      EXPECT_EQ(sb.degrade_replans(), sb.failed_clusters()) << c.name;
    }
    EXPECT_EQ(sb.active_clusters(), c.active_after) << c.name;
    // A layer outside the prepared network plans at the active width.
    snn::LayerSpec fc;
    fc.kind = snn::LayerKind::kFc;
    fc.name = "unprepared";
    fc.in_c = 1024;
    fc.out_c = 64;
    EXPECT_EQ(sb.plan_for(fc).n(), static_cast<std::size_t>(c.active_after))
        << c.name;
  }
}

TEST(DegradedMode, ConcurrentFaultsKeepEveryBatchResult) {
  // Batches keep running on the stage-mode tower while a second thread
  // fails clusters, slows them and derates their links. Each fault
  // publishes a new plan epoch; layer calls in flight finish on the epoch
  // they loaded, so every result keeps the healthy spike counts.
  const snn::Network net = tower_net();
  std::vector<snn::Tensor> images;
  sc::Rng rng(7);
  for (int i = 0; i < 8; ++i) {
    snn::Tensor t(6, 6, 3);
    for (auto& v : t.v) v = rng.uniform();
    images.push_back(t);
  }
  k::RunOptions opt;
  rt::BackendConfig cfg = sharded(8);
  cfg.shard_threads = true;
  cfg.partition = k::PartitionStrategy::kHybrid;
  cfg.noc.topology = arch::NocTopology::kRingQuadrant;
  cfg.noc.model_contention = true;
  cfg.pipeline.enabled = true;
  const rt::BatchRunner runner(net, opt, cfg, {}, /*workers=*/4);
  const rt::ShardedBackend* sb = sharded_of(runner.engine());
  ASSERT_NE(sb, nullptr);
  ASSERT_TRUE(sb->stage_parallel_active());
  constexpr int kSteps = 2;
  const std::vector<rt::MultiStepResult> healthy = runner.run(images, kSteps);

  std::atomic<bool> started{false}, faults_done{false};
  int accepted = 0;
  std::thread faults([&] {
    while (!started.load()) std::this_thread::yield();
    for (int i = 0; i < 5; ++i) {
      sb->set_cluster_slowdown(i, 2.0 + i);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      sb->set_link_degrade(7 - i, 4.0);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      accepted += sb->fail_cluster(sb->active_clusters() - 1) ? 1 : 0;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    faults_done.store(true);
  });
  int batches = 0;
  started.store(true);
  do {
    const std::vector<rt::MultiStepResult> got = runner.run(images, kSteps);
    ++batches;
    ASSERT_EQ(got.size(), healthy.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].spike_counts, healthy[i].spike_counts)
          << "batch " << batches << " sample " << i;
      EXPECT_GT(got[i].total_cycles, 0.0);
    }
  } while (!faults_done.load() || batches < 2);
  faults.join();

  EXPECT_EQ(accepted, 5);
  EXPECT_EQ(sb->active_clusters(), 3);
  EXPECT_EQ(sb->degrade_replans(), sb->failed_clusters());
  EXPECT_EQ(sb->degrade_replans(), accepted);
}

TEST(DegradedMode, SlowdownAndLinkDegradeOnlyStretchTiming) {
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 17, 16, 16, 3)[0];
  k::RunOptions opt;

  rt::BackendConfig cfg = sharded(4);
  cfg.noc.model_contention = true;  // link derates gate timing via the NoC
  rt::InferenceEngine engine(net, opt, cfg);
  const rt::ShardedBackend* sb = sharded_of(engine);
  ASSERT_NE(sb, nullptr);

  snn::NetworkState st = engine.make_state();
  const rt::MultiStepResult healthy = rt::run_timesteps(engine, st, img, 2);

  sb->set_cluster_slowdown(1, 4.0);
  const rt::MultiStepResult slow = rt::run_timesteps(engine, st, img, 2);
  EXPECT_EQ(slow.spike_counts, healthy.spike_counts);
  EXPECT_GT(slow.total_cycles, healthy.total_cycles)
      << "a straggler cluster must gate the lockstep wave";

  sb->set_cluster_slowdown(1, 1.0);
  const rt::MultiStepResult restored = rt::run_timesteps(engine, st, img, 2);
  EXPECT_EQ(restored.total_cycles, healthy.total_cycles)
      << "factor 1 must restore the healthy cycles bit-exactly";

  // The factor must be large enough that the derated fabric gate overtakes
  // the tiny net's compute cycles — the gate is a max, not a sum.
  sb->set_link_degrade(0, 512.0);
  const rt::MultiStepResult derated = rt::run_timesteps(engine, st, img, 2);
  EXPECT_EQ(derated.spike_counts, healthy.spike_counts);
  EXPECT_GT(derated.total_cycles, healthy.total_cycles)
      << "a degraded link must stretch the NoC gate";
  sb->set_link_degrade(0, 1.0);
  const rt::MultiStepResult relinked = rt::run_timesteps(engine, st, img, 2);
  EXPECT_EQ(relinked.total_cycles, healthy.total_cycles);
}

TEST(FaultServer, MidRunKillLosesNoRequestAndKeepsSpikes) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 21, 16, 16, 3);
  constexpr int kSteps = 2;
  constexpr int kWaves = 4;
  k::RunOptions opt;
  opt.segment_major_lanes = 4;

  // Healthy per-image baselines from the offline path.
  std::vector<rt::MultiStepResult> offline;
  {
    rt::InferenceEngine ref(net, opt, sharded(4));
    snn::NetworkState st = ref.make_state();
    for (const auto& img : images) {
      offline.push_back(rt::run_timesteps(ref, st, img, kSteps));
    }
  }

  rt::ServerConfig scfg;
  scfg.timesteps = kSteps;
  scfg.adaptive_wave = false;  // burst of 4 == exactly one full wave
  scfg.faults.kill_cluster(1, /*wave=*/2);  // mid-load fail-stop
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  std::vector<rt::ServeRequest> reqs(images.size());
  for (int w = 0; w < kWaves; ++w) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      reqs[i].image = &images[i];
      ASSERT_TRUE(server.submit(reqs[i]));
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      ASSERT_TRUE(reqs[i].wait()) << "wave " << w << " lane " << i;
      EXPECT_EQ(reqs[i].result.spike_counts, offline[i].spike_counts)
          << "served spikes must stay bit-identical across the fail-stop";
    }
  }
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.admitted, static_cast<std::uint64_t>(kWaves) * images.size());
  EXPECT_EQ(st.admitted, st.completed + st.timed_out + st.errored)
      << "every admitted request must reach exactly one terminal state";
  EXPECT_EQ(st.timed_out, 0u);
  EXPECT_EQ(st.errored, 0u);
  EXPECT_EQ(st.cluster_failures, 1u);
  EXPECT_EQ(st.faults_applied, 1u);
  EXPECT_EQ(st.degrade_replans, 1) << "the re-plan must flip exactly once";
  EXPECT_EQ(st.active_clusters, 3);
}

TEST(FaultServer, TransientFaultRetriesToBitIdenticalCompletion) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 23, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 2;

  std::vector<rt::MultiStepResult> offline;
  {
    rt::InferenceEngine ref(net, opt, sharded(4));
    snn::NetworkState st = ref.make_state();
    for (const auto& img : images) {
      offline.push_back(rt::run_timesteps(ref, st, img, 1));
    }
  }

  rt::ServerConfig scfg;
  scfg.adaptive_wave = false;
  scfg.max_queue_delay_us = 200000;  // bursts always form full waves
  scfg.max_wave_retries = 2;
  scfg.retry_backoff_us = 10;
  scfg.faults.transient_error(/*wave=*/0, /*failures=*/1);
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  std::vector<rt::ServeRequest> reqs(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    reqs[i].image = &images[i];
    ASSERT_TRUE(server.submit(reqs[i]));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_TRUE(reqs[i].wait()) << "a retried wave must still complete";
    EXPECT_EQ(reqs[i].state.load(), rt::ServeRequest::kDone);
    EXPECT_EQ(reqs[i].result.spike_counts, offline[i].spike_counts)
        << "the retry resets lane state: results must match a clean run";
    EXPECT_EQ(reqs[i].result.total_cycles, offline[i].total_cycles);
  }
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.errored, 0u);
  EXPECT_EQ(st.wave_errors, 0u);
  EXPECT_EQ(st.wave_retries, 1u);
  EXPECT_EQ(st.transient_faults, 1u);
}

TEST(FaultServer, ExhaustedRetriesFailOnlyThatWave) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 29, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 2;

  rt::ServerConfig scfg;
  scfg.adaptive_wave = false;
  scfg.max_queue_delay_us = 200000;  // bursts always form full waves
  scfg.max_wave_retries = 1;  // 2 attempts total, 5 scheduled failures
  scfg.retry_backoff_us = 10;
  scfg.faults.transient_error(/*wave=*/0, /*failures=*/5);
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  std::vector<rt::ServeRequest> doomed(2);
  for (std::size_t i = 0; i < 2; ++i) {
    doomed[i].image = &images[i];
    ASSERT_TRUE(server.submit(doomed[i]));
  }
  for (auto& r : doomed) {
    EXPECT_FALSE(r.wait());
    EXPECT_EQ(r.state.load(), rt::ServeRequest::kError)
        << "exhausted retries must fail the wave's requests with kError";
    EXPECT_GE(r.complete_ns, r.enqueue_ns);
  }

  // Containment: the dispatcher survived and the next wave serves normally.
  std::vector<rt::ServeRequest> healthy(2);
  for (std::size_t i = 0; i < 2; ++i) {
    healthy[i].image = &images[i];
    ASSERT_TRUE(server.submit(healthy[i]));
  }
  for (auto& r : healthy) {
    EXPECT_TRUE(r.wait()) << "waves after a failed one must serve normally";
  }
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.admitted, 4u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.errored, 2u);
  EXPECT_EQ(st.admitted, st.completed + st.timed_out + st.errored);
  EXPECT_EQ(st.wave_errors, 1u);
  EXPECT_EQ(st.wave_retries, 1u);
  EXPECT_EQ(st.transient_faults, 2u);  // both attempts threw
}

TEST(FaultServer, TtlShedsExpiredRequestsToTimedOut) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 31, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 2;

  // Wave 0 throws once and backs off 50 ms before its retry, so the TTL'd
  // burst submitted behind it is guaranteed to expire in the queue and be
  // shed at pop time when wave 1 forms.
  rt::ServerConfig scfg;
  scfg.adaptive_wave = false;
  scfg.max_wave_retries = 2;
  scfg.retry_backoff_us = 50000;
  scfg.faults.transient_error(/*wave=*/0, /*failures=*/1);
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  std::vector<rt::ServeRequest> slow(2);
  for (std::size_t i = 0; i < 2; ++i) {
    slow[i].image = &images[i];
    ASSERT_TRUE(server.submit(slow[i]));
  }
  std::vector<rt::ServeRequest> ttl(2);
  for (std::size_t i = 0; i < 2; ++i) {
    ttl[i].image = &images[i + 2];
    ttl[i].ttl_us = 1000;  // 1 ms deadline vs a >= 50 ms queue wait
    ASSERT_TRUE(server.submit(ttl[i]));
  }

  // Timed wait on a queued request reports kQueued without blocking forever;
  // the server still owns the slot afterwards.
  const int observed = ttl[0].wait_for(1000);
  EXPECT_TRUE(observed == rt::ServeRequest::kQueued ||
              observed == rt::ServeRequest::kTimedOut);

  for (auto& r : slow) EXPECT_TRUE(r.wait());
  for (auto& r : ttl) {
    EXPECT_FALSE(r.wait());
    EXPECT_EQ(r.state.load(), rt::ServeRequest::kTimedOut);
    // Terminal states come back from wait_for immediately.
    EXPECT_EQ(r.wait_for(0), rt::ServeRequest::kTimedOut);
  }
  EXPECT_EQ(slow[0].wait_for(0), rt::ServeRequest::kDone);
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.admitted, 4u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.timed_out, 2u);
  EXPECT_EQ(st.admitted, st.completed + st.timed_out + st.errored);
  EXPECT_GE(st.wave_retries, 1u);
}

TEST(FaultServer, ChaosSoakAccountsForEveryRequest) {
  // Chaos-monkey soak: a seeded random schedule of kills, slowdowns, link
  // derates and transients over a sustained load. The invariant under any
  // schedule: every admitted request reaches a terminal state and the
  // accounting reconciles exactly.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 37, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 4;

  rt::ServerConfig scfg;
  scfg.adaptive_wave = false;
  scfg.retry_backoff_us = 10;
  scfg.faults = rt::FaultPlan::chaos(/*seed=*/99, /*waves=*/8, /*clusters=*/4,
                                     /*events=*/10);
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  constexpr int kWaves = 10;
  std::uint64_t done = 0, failed = 0;
  std::vector<rt::ServeRequest> reqs(images.size());
  for (int w = 0; w < kWaves; ++w) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      reqs[i].image = &images[i];
      ASSERT_TRUE(server.submit(reqs[i]));
    }
    for (auto& r : reqs) {
      if (r.wait()) {
        ++done;
      } else {
        ++failed;
        EXPECT_EQ(r.state.load(), rt::ServeRequest::kError);
      }
    }
  }
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.admitted, static_cast<std::uint64_t>(kWaves) * images.size());
  EXPECT_EQ(st.admitted, st.completed + st.timed_out + st.errored);
  EXPECT_EQ(st.completed, done);
  EXPECT_EQ(st.errored, failed);
  EXPECT_EQ(static_cast<std::uint64_t>(st.degrade_replans),
            st.cluster_failures)
      << "one re-plan per accepted fail-stop, never more";
  EXPECT_GE(st.active_clusters, 1);
}

TEST(FaultServer, CombinedStructuralAndDataFaultSoak) {
  // Worst-case soak: structural chaos (kills, slowdowns, link derates,
  // transients) and data chaos (weight / spike / membrane bit flips) merged
  // into one schedule, served with every defense armed — weight and spike
  // checksums plus redundant lanes. Two invariants must survive anything the
  // combined schedule throws: (1) every request that completes carries spike
  // counts bit-identical to the healthy offline baseline (corruption is never
  // silently served), and (2) the accounting reconciles exactly, including
  // the kCorrupted terminal state.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 37, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 4;

  std::vector<rt::MultiStepResult> offline;
  {
    rt::InferenceEngine ref(net, opt, sharded(4));
    snn::NetworkState st = ref.make_state();
    for (const auto& img : images) {
      offline.push_back(rt::run_timesteps(ref, st, img, 1));
    }
  }

  rt::ServerConfig scfg;
  scfg.adaptive_wave = false;
  scfg.retry_backoff_us = 10;
  scfg.faults = rt::FaultPlan::chaos(/*seed=*/7, /*waves=*/8, /*clusters=*/4,
                                     /*events=*/8);
  const rt::FaultPlan data = rt::FaultPlan::chaos_data(
      /*seed=*/7, /*waves=*/8, /*layers=*/3, /*lanes=*/4, /*events=*/8);
  for (const auto& e : data.events()) scfg.faults.add(e);
  scfg.integrity.checksum_weights = true;
  scfg.integrity.checksum_spikes = true;
  scfg.integrity.redundant_lanes = true;
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  constexpr int kWaves = 10;
  std::uint64_t done = 0, failed = 0;
  std::vector<rt::ServeRequest> reqs(images.size());
  for (int w = 0; w < kWaves; ++w) {
    for (std::size_t i = 0; i < images.size(); ++i) {
      reqs[i].image = &images[i];
      ASSERT_TRUE(server.submit(reqs[i]));
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].wait()) {
        ++done;
        EXPECT_EQ(reqs[i].result.spike_counts, offline[i].spike_counts)
            << "wave " << w << " lane " << i
            << ": completed requests must never carry corrupted spikes";
      } else {
        ++failed;
        const int s = reqs[i].state.load();
        EXPECT_TRUE(s == rt::ServeRequest::kError ||
                    s == rt::ServeRequest::kCorrupted)
            << "wave " << w << " lane " << i << " ended in state " << s;
      }
    }
  }
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.admitted, static_cast<std::uint64_t>(kWaves) * images.size());
  EXPECT_EQ(st.admitted,
            st.completed + st.timed_out + st.errored + st.corrupted);
  EXPECT_EQ(st.completed, done);
  EXPECT_EQ(st.errored + st.corrupted, failed);
  EXPECT_GT(st.data_faults_injected, 0u)
      << "the data half of the schedule must actually fire";
  EXPECT_GT(st.integrity_checks, 0u);
  // Waves whose every attempt throws before the primary pass finishes never
  // reach the shadow pass, so only a lower bound of one holds in general.
  EXPECT_GT(st.redundant_waves, 0u);
  EXPECT_EQ(static_cast<std::uint64_t>(st.degrade_replans),
            st.cluster_failures);
}
