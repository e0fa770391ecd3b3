// Inference-as-a-service runtime contract:
//   * the MPSC admission ring keeps per-producer FIFO order, never loses or
//     duplicates a request, and rejects (never blocks) when full;
//   * stop() closes admission, drains every admitted request through normal
//     waves, and joins cleanly — nothing is ever stranded in kQueued;
//   * a partial wave fires on the max_queue_delay_us deadline instead of
//     waiting for lanes it cannot fill;
//   * served outputs — spike counts AND modeled cycles — are bit-identical
//     to offline BatchRunner lockstep execution of the same inputs, whatever
//     wave boundaries the arrival timing produced (the PR-5 segment-major
//     guarantee: per-sample charges are batch means, independent of lane
//     assignment and wave width);
//   * the SLO wave-size controller shrinks under sustained light load and
//     grows back under backlog, with hysteresis — no oscillation;
//   * idle threads (worker pool and server dispatcher) block, not spin —
//     pinned by a CPU-time budget over a wall-clock idle window;
//   * a malformed ServerConfig fails at construction, naming the field.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "runtime/batch.hpp"
#include "runtime/server.hpp"
#include "runtime/worker_pool.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"

namespace {

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
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

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

}  // namespace

TEST(MpscQueue, PerProducerFifoNoLossNoDuplication) {
  // 4 producers x 2000 items through a ring much smaller than the total:
  // producers spin on try_push (full ring is a normal transient here), the
  // consumer drains concurrently. Every item is (producer << 32 | seq), so
  // the consumer can check per-producer order and exact coverage.
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 2000;
  rt::BoundedMpscQueue<std::uint64_t> q(64);
  std::vector<std::uint64_t> got;
  got.reserve(kProducers * kPerProducer);
  std::atomic<int> live{kProducers};

  std::thread consumer([&] {
    std::uint64_t v = 0;
    while (live.load(std::memory_order_acquire) > 0 || q.size_approx() > 0) {
      while (q.try_pop(v)) got.push_back(v);
      std::this_thread::yield();
    }
    while (q.try_pop(v)) got.push_back(v);
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | i;
        while (!q.try_push(v)) std::this_thread::yield();
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();

  ASSERT_EQ(got.size(), kProducers * kPerProducer);
  std::uint64_t next_seq[kProducers] = {};
  for (const std::uint64_t v : got) {
    const auto p = static_cast<std::size_t>(v >> 32);
    ASSERT_LT(p, static_cast<std::size_t>(kProducers));
    EXPECT_EQ(v & 0xffffffffu, next_seq[p]) << "producer " << p
                                            << " order broken";
    ++next_seq[p];
  }
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

TEST(MpscQueue, StressManyProducersTinyRingStallingConsumer) {
  // Harsher multi-producer stress: 8 producers hammer a 16-cell ring while
  // the consumer periodically stalls, so the ring oscillates between full
  // (every producer spinning on rejects) and drained. Same invariants as the
  // FIFO test — per-producer order, no loss, no duplication — but under far
  // more CAS contention and wraparound pressure.
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 2000;
  rt::BoundedMpscQueue<std::uint64_t> q(16);
  std::vector<std::uint64_t> got;
  got.reserve(kProducers * kPerProducer);
  std::atomic<int> live{kProducers};

  std::thread consumer([&] {
    std::uint64_t v = 0;
    std::size_t pops = 0;
    while (live.load(std::memory_order_acquire) > 0 || q.size_approx() > 0) {
      while (q.try_pop(v)) {
        got.push_back(v);
        if ((++pops & 1023u) == 0) {
          // Stall with the ring under pressure: producers must keep
          // rejecting (never block, never corrupt a cell) until we resume.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      std::this_thread::yield();
    }
    while (q.try_pop(v)) got.push_back(v);
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = (static_cast<std::uint64_t>(p) << 32) | i;
        while (!q.try_push(v)) std::this_thread::yield();
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();

  ASSERT_EQ(got.size(), kProducers * kPerProducer);
  std::uint64_t next_seq[kProducers] = {};
  for (const std::uint64_t v : got) {
    const auto p = static_cast<std::size_t>(v >> 32);
    ASSERT_LT(p, static_cast<std::size_t>(kProducers));
    ASSERT_EQ(v & 0xffffffffu, next_seq[p]) << "producer " << p
                                            << " order broken";
    ++next_seq[p];
  }
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next_seq[p], kPerProducer);
}

TEST(MpscQueue, FullRingRejectsAndRecovers) {
  rt::BoundedMpscQueue<int> q(8);
  EXPECT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(8)) << "full ring must reject, not block";
  int v = -1;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(q.try_push(8)) << "freed cell must be reusable";
  for (int i = 1; i <= 8; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
}

TEST(Server, RejectsMalformedConfig) {
  // Every out-of-range ServerConfig value must fail at construction, naming
  // its field, instead of being clamped or reinterpreted on every wave
  // (timesteps < 1 used to run one step, a negative delay or backoff acted
  // as 0, a negative max_wave_lanes fell back to segment_major_lanes,
  // queue_capacity 0 built a 2-slot ring).
  const snn::Network net = test_net();
  struct Case {
    const char* field;
    void (*set)(rt::ServerConfig&);
  };
  const Case cases[] = {
      {"queue_capacity", [](rt::ServerConfig& c) { c.queue_capacity = 0; }},
      {"timesteps", [](rt::ServerConfig& c) { c.timesteps = 0; }},
      {"timesteps", [](rt::ServerConfig& c) { c.timesteps = -3; }},
      {"max_queue_delay_us",
       [](rt::ServerConfig& c) { c.max_queue_delay_us = -1; }},
      {"max_wave_lanes", [](rt::ServerConfig& c) { c.max_wave_lanes = -1; }},
      {"controller_streak",
       [](rt::ServerConfig& c) { c.controller_streak = 0; }},
      {"max_wave_retries",
       [](rt::ServerConfig& c) { c.max_wave_retries = -1; }},
      {"retry_backoff_us",
       [](rt::ServerConfig& c) { c.retry_backoff_us = -5; }},
  };
  for (const Case& c : cases) {
    rt::ServerConfig cfg;
    c.set(cfg);
    try {
      rt::InferenceServer server(net, k::RunOptions{}, {}, cfg);
      ADD_FAILURE() << c.field << " out of range was accepted";
    } catch (const spikestream::Error& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("ServerConfig::") +
                                           c.field),
                std::string::npos)
          << e.what();
    }
  }
  // The boundary values are well-formed.
  rt::ServerConfig edge;
  edge.queue_capacity = 1;
  edge.max_queue_delay_us = 0;
  edge.controller_streak = 1;
  edge.max_wave_retries = 0;
  edge.retry_backoff_us = 0;
  EXPECT_NO_THROW(rt::InferenceServer(net, k::RunOptions{}, {}, edge));
}

TEST(InferenceServer, SubmitAfterStopRejects) {
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 5, 16, 16, 3)[0];
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  rt::InferenceServer server(net, opt);
  server.stop();
  rt::ServeRequest req;
  req.image = &img;
  EXPECT_FALSE(server.submit(req));
  EXPECT_FALSE(req.wait());
  EXPECT_EQ(req.state.load(), rt::ServeRequest::kRejected);
  EXPECT_GE(server.stats().rejected, 1u);
}

TEST(InferenceServer, StopDrainsEveryAdmittedRequest) {
  // Submit a burst and stop() immediately: shutdown must drain all admitted
  // requests through normal (or drain) waves — none stranded in kQueued.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 9, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  rt::ServerConfig scfg;
  scfg.max_queue_delay_us = 50000;  // long: drain must not wait for it
  rt::InferenceServer server(net, opt, {}, scfg);

  constexpr int kN = 20;
  std::vector<rt::ServeRequest> reqs(kN);
  int admitted = 0;
  for (int i = 0; i < kN; ++i) {
    reqs[static_cast<std::size_t>(i)].image =
        &images[static_cast<std::size_t>(i) % images.size()];
    if (server.submit(reqs[static_cast<std::size_t>(i)])) ++admitted;
  }
  server.stop();
  ASSERT_GT(admitted, 0);
  for (int i = 0; i < kN; ++i) {
    auto& r = reqs[static_cast<std::size_t>(i)];
    const int s = r.state.load();
    ASSERT_NE(s, rt::ServeRequest::kQueued) << "request stranded by stop()";
    if (s == rt::ServeRequest::kDone) {
      EXPECT_FALSE(r.result.spike_counts.empty());
      EXPECT_GE(r.complete_ns, r.enqueue_ns);
    }
  }
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(admitted));
  EXPECT_EQ(st.admitted, static_cast<std::uint64_t>(admitted));
}

TEST(InferenceServer, StopDuringThrowingWavesDrainsAllToTerminal) {
  // Shutdown ordering under failure: stop() called while an in-flight wave
  // is throwing (and sleeping in retry backoff) must still drain every
  // admitted request to a terminal state — kDone or kError, never a strand
  // in kQueued — and must skip the remaining backoff sleeps so drain is
  // prompt. Every scheduled wave throws until its retries are exhausted.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 41, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 4;

  rt::ServerConfig scfg;
  scfg.adaptive_wave = false;
  scfg.max_queue_delay_us = 100000;  // long: drain must not wait for it
  scfg.max_wave_retries = 2;
  scfg.retry_backoff_us = 100000;  // 100 ms per retry if NOT skipped
  for (std::uint64_t w = 0; w < 4; ++w) {
    scfg.faults.transient_error(w, /*failures=*/100);
  }
  rt::InferenceServer server(net, opt, {}, scfg);

  constexpr int kN = 12;
  std::vector<rt::ServeRequest> reqs(kN);
  int admitted = 0;
  for (int i = 0; i < kN; ++i) {
    reqs[static_cast<std::size_t>(i)].image =
        &images[static_cast<std::size_t>(i) % images.size()];
    if (server.submit(reqs[static_cast<std::size_t>(i)])) ++admitted;
  }
  const auto t0 = std::chrono::steady_clock::now();
  server.stop();
  const double stop_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_GT(admitted, 0);

  for (int i = 0; i < kN; ++i) {
    const int s = reqs[static_cast<std::size_t>(i)].state.load();
    ASSERT_NE(s, rt::ServeRequest::kQueued)
        << "request stranded by stop() under a throwing wave";
    EXPECT_TRUE(s == rt::ServeRequest::kDone ||
                s == rt::ServeRequest::kError ||
                s == rt::ServeRequest::kRejected);
  }
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.admitted, static_cast<std::uint64_t>(admitted));
  EXPECT_EQ(st.admitted, st.completed + st.timed_out + st.errored)
      << "drain must reconcile exactly even when waves throw";
  EXPECT_GE(st.wave_errors, 1u);
  // 3 throwing waves x 2 retries x >= 100 ms would exceed 600 ms without the
  // stopping-skip; at most the first wave's backoffs can land pre-stop.
  EXPECT_LT(stop_ms, 550.0) << "retry backoff must be skipped while stopping";
}

TEST(InferenceServer, MalformedRequestErrorsAndServerKeepsServing) {
  // An image two rows taller than the encode layer's padded input (16x16
  // images pad to 18x18) fails its wave with kError instead of corrupting
  // memory; the dispatcher survives and serves the next request.
  const snn::Network net = test_net();
  const auto good = snn::make_batch(1, 5, 16, 16, 3)[0];
  const snn::Tensor bad(20, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  rt::ServerConfig scfg;
  scfg.max_queue_delay_us = 200;
  rt::InferenceServer server(net, opt, {}, scfg);

  rt::ServeRequest req;
  req.image = &bad;
  ASSERT_TRUE(server.submit(req));
  EXPECT_FALSE(req.wait());
  EXPECT_EQ(req.state.load(), rt::ServeRequest::kError);

  rt::ServeRequest ok;
  ok.image = &good;
  ASSERT_TRUE(server.submit(ok));
  EXPECT_TRUE(ok.wait());
  EXPECT_FALSE(ok.result.spike_counts.empty());
  server.stop();
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.errored, 1u);
  EXPECT_EQ(st.completed, 1u);
}

TEST(InferenceServer, DeadlineFiresPartialWave) {
  // 3 requests into an 8-lane server: the wave can never fill, so it must
  // fire on the max_queue_delay_us deadline with exactly the queued lanes.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(3, 11, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 8;
  rt::ServerConfig scfg;
  scfg.max_queue_delay_us = 1000;
  scfg.adaptive_wave = false;  // hold 8 lanes: partial waves stay partial
  rt::InferenceServer server(net, opt, {}, scfg);

  std::vector<rt::ServeRequest> reqs(3);
  for (int i = 0; i < 3; ++i) {
    reqs[static_cast<std::size_t>(i)].image =
        &images[static_cast<std::size_t>(i)];
    ASSERT_TRUE(server.submit(reqs[static_cast<std::size_t>(i)]));
  }
  for (auto& r : reqs) ASSERT_TRUE(r.wait());
  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 3u);
  EXPECT_GE(st.deadline_waves, 1u)
      << "partial wave must fire on the deadline, not wait for lanes";
  EXPECT_EQ(st.full_waves, 0u);
  EXPECT_LE(st.wave_lanes.mean(), 3.0);
  for (auto& r : reqs) {
    EXPECT_GE(r.dispatch_ns, r.enqueue_ns);
    EXPECT_GE(r.complete_ns, r.dispatch_ns);
  }
}

TEST(InferenceServer, ServedBitIdenticalToOfflineBatchRunner) {
  // Spikes AND modeled cycles must match the offline lockstep path exactly,
  // whatever wave boundaries arrival timing produced. batch_weight_reuse
  // stays off so per-sample cycles are reuse-history-free and comparable
  // sample by sample.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(6, 21, 16, 16, 3);
  constexpr int kSteps = 3;
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  opt.batch_weight_reuse = false;

  const rt::BatchRunner runner(net, opt, {}, {}, /*workers=*/1);
  const auto offline = runner.run(images, kSteps);

  rt::ServerConfig scfg;
  scfg.timesteps = kSteps;
  scfg.max_queue_delay_us = 500;
  rt::InferenceServer server(net, opt, {}, scfg);
  std::vector<rt::ServeRequest> reqs(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    reqs[i].image = &images[i];
    ASSERT_TRUE(server.submit(reqs[i]));
  }
  for (auto& r : reqs) ASSERT_TRUE(r.wait());
  server.stop();

  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_EQ(reqs[i].result.timesteps, offline[i].timesteps);
    EXPECT_EQ(reqs[i].result.spike_counts, offline[i].spike_counts)
        << "sample " << i << ": served spikes differ from offline";
    EXPECT_EQ(reqs[i].result.total_cycles, offline[i].total_cycles)
        << "sample " << i << ": served modeled cycles differ from offline";
    ASSERT_EQ(reqs[i].result.cycles_per_step.size(),
              offline[i].cycles_per_step.size());
    for (std::size_t t = 0; t < offline[i].cycles_per_step.size(); ++t) {
      EXPECT_EQ(reqs[i].result.cycles_per_step[t],
                offline[i].cycles_per_step[t]);
    }
  }

  // Resubmission through recycled slots stays bit-identical too.
  rt::InferenceServer server2(net, opt, {}, scfg);
  rt::ServeRequest slot;
  for (std::size_t i = 0; i < images.size(); ++i) {
    slot.image = &images[i];
    ASSERT_TRUE(server2.submit(slot));
    ASSERT_TRUE(slot.wait());
    EXPECT_EQ(slot.result.spike_counts, offline[i].spike_counts);
    EXPECT_EQ(slot.result.total_cycles, offline[i].total_cycles);
  }
}

TEST(InferenceServer, ControllerShrinksThenRegrowsWithoutOscillation) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 33, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 8;
  rt::ServerConfig scfg;
  scfg.max_queue_delay_us = 500;
  scfg.controller_streak = 2;
  rt::InferenceServer server(net, opt, {}, scfg);
  ASSERT_EQ(server.target_lanes(), 8);

  // Sustained light load: strictly sequential submit->wait means every wave
  // is a deadline-fired single lane. The target must halve on each streak —
  // 8 -> 4 -> 2 -> 1, exactly three shrinks — and then hold at the floor.
  rt::ServeRequest slot;
  for (int i = 0; i < 14; ++i) {
    slot.image = &images[static_cast<std::size_t>(i) % images.size()];
    ASSERT_TRUE(server.submit(slot));
    ASSERT_TRUE(slot.wait());
  }
  {
    const rt::ServerStats st = server.stats();
    EXPECT_EQ(st.wave_shrinks, 3);
    EXPECT_EQ(st.wave_grows, 0);
    EXPECT_EQ(server.target_lanes(), 1) << "light load must reach the floor";
  }

  // Heavy burst: backlog behind full waves must grow the target back up.
  constexpr int kBurst = 24;
  std::vector<rt::ServeRequest> burst(kBurst);
  for (int i = 0; i < kBurst; ++i) {
    burst[static_cast<std::size_t>(i)].image =
        &images[static_cast<std::size_t>(i) % images.size()];
    ASSERT_TRUE(server.submit(burst[static_cast<std::size_t>(i)]));
  }
  for (auto& r : burst) ASSERT_TRUE(r.wait());
  const rt::ServerStats st = server.stats();
  EXPECT_GE(st.wave_grows, 1) << "backlog must grow the wave target";
  EXPECT_GE(server.target_lanes(), 2);
  // Hysteresis bound: every move needs a fresh streak of evidence, so the
  // whole run can only have flipped a handful of times — never thrash.
  EXPECT_LE(st.wave_grows + st.wave_shrinks, 8);
}

TEST(IdleBehavior, WorkerPoolIdleBurnsNoCpu) {
  // Idle workers must block on the pool's condition variable, not spin: over
  // a 400 ms wall-clock idle window the whole process must accumulate far
  // less CPU than one spinning core would (~400 ms). On a single-core host
  // the pool clamps to zero threads and the bound holds trivially — the
  // assertion is about what the threads do when they do exist.
  rt::WorkerPool pool(4);
  std::atomic<int> ran{0};
  pool.parallel_for(8, 4, [&](std::size_t, std::size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });  // workers exist and have gone back to idle
  EXPECT_EQ(ran.load(), 8);

  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const double cpu = process_cpu_seconds() - cpu0;
  EXPECT_LT(cpu, 0.2) << "idle worker pool must not busy-wait";
}

TEST(IdleBehavior, ServerDispatcherIdleBurnsNoCpu) {
  // Same contract for the dispatcher: with an empty queue it sleeps on its
  // wake condition variable (producers nudge it awake), so an idle server
  // costs no CPU between requests.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 3, 16, 16, 3)[0];
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  rt::InferenceServer server(net, opt);
  rt::ServeRequest warm;
  warm.image = &img;
  ASSERT_TRUE(server.submit(warm));
  ASSERT_TRUE(warm.wait());  // one wave: the dispatcher is demonstrably live

  const double cpu0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const double cpu = process_cpu_seconds() - cpu0;
  EXPECT_LT(cpu, 0.2) << "idle dispatcher must block, not poll";

  // And it still wakes up afterwards.
  rt::ServeRequest again;
  again.image = &img;
  ASSERT_TRUE(server.submit(again));
  EXPECT_TRUE(again.wait());
}
