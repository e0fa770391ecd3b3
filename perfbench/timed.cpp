// Timed (untraced) runs: the end-to-end metrics. Set-up is repeated and
// timed, a canonical pass fixes the expected outputs and the modeled totals,
// then the workload runs closed loop (BatchRunner) or open loop
// (InferenceServer) for the requested seconds with every output checked.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {

bool same_result(const rt::MultiStepResult& a, const rt::MultiStepResult& b) {
  return a.spike_counts == b.spike_counts &&
         a.cycles_per_step == b.cycles_per_step &&
         a.total_cycles == b.total_cycles &&
         a.total_energy_mj == b.total_energy_mj;
}

bool more_setups(const std::vector<double>& setup_s) {
  double total = 0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < 5 || (total < 1.0 && setup_s.size() < 500);
}

int runner_pool_threads(const rt::BatchRunner& runner) {
  // BatchRunner shares the backend's pool, else brings workers - 1 threads.
  if (const auto& pool = runner.engine().worker_pool()) return pool->threads();
  return runner.workers() > 1 ? runner.workers() - 1 : 0;
}

int server_pool_threads() {
  // InferenceServer brings hardware_concurrency - 1 threads (analytical).
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency())) - 1;
}

std::string topology_json(const Workload& w, const rt::InferenceEngine& engine,
                          int workers, int pool_threads) {
  Json j;
  j.str("backend", engine.backend().name())
      .num("clusters", engine.backend().num_clusters())
      .num("workers", workers)
      .num("pool_threads", pool_threads)
      .num("segment_major_lanes", w.opt.segment_major_lanes)
      .num("timesteps", w.timesteps)
      .num("images", w.images)
      .num("batch", w.batch)
      .num("slo_ms", w.slo_ms);
  if (w.serve) {
    j.num("rate_rps", w.rate_rps)
        .num("max_queue_delay_us",
             static_cast<double>(w.server.max_queue_delay_us));
  }
  return j.done();
}

OpenLoop open_loop(rt::InferenceServer& server,
                   const std::vector<snn::Tensor>& inputs, const Workload& w,
                   double seconds, std::uint64_t seed, SlotPool& pool,
                   const std::vector<rt::MultiStepResult>* expect,
                   SpanLog* log) {
  const auto n = std::max(kMinOps, static_cast<std::size_t>(
                                       std::round(w.rate_rps * seconds)));
  // The send times come from a fixed seed, so every seed offers the same
  // bursts and the latency tail differs by host speed and images only.
  spikestream::common::Rng schedule(kScheduleSeed);
  std::vector<std::uint64_t> due(n);
  for (auto& d : due) d = static_cast<std::uint64_t>(schedule.uniform() * seconds * 1e9);
  std::sort(due.begin(), due.end());
  spikestream::common::Rng rng(seed);
  std::vector<std::size_t> image(n);
  for (auto& i : image) i = rng.next_u64() % inputs.size();

  OpenLoop r;
  r.attempted = n;
  r.latency_ms.reserve(n);
  r.late_ms.reserve(n);
  r.queue_ms.reserve(n);
  r.service_ms.reserve(n);
  const int names[3] = {log ? log->intern("server.request") : 0,
                        log ? log->intern("server.queue") : 0,
                        log ? log->intern("server.service") : 0};
  const std::uint64_t t0 = now_ns() + 1'000'000;
  std::uint64_t last = t0;

  const auto finish = [&](std::size_t slot, std::size_t i) {
    rt::ServeRequest& req = pool.slots[slot];
    const int state = req.state.load(std::memory_order_acquire);
    if (state == rt::ServeRequest::kDone) {
      ++r.completed;
      const double lat =
          static_cast<double>(req.complete_ns - (t0 + due[i])) * 1e-6;
      r.latency_ms.push_back(lat);
      r.queue_ms.push_back(
          static_cast<double>(req.dispatch_ns - req.enqueue_ns) * 1e-6);
      r.service_ms.push_back(
          static_cast<double>(req.complete_ns - req.dispatch_ns) * 1e-6);
      if (lat <= w.slo_ms) ++r.within_slo;
      if (log != nullptr) {
        const auto id = static_cast<std::int64_t>(i);
        const std::int64_t span = log->open();
        log->close(span, {t0 + due[i], req.complete_ns, id, names[0], -1});
        const auto parent = static_cast<std::int32_t>(span);
        log->close(log->open(),
                   {req.enqueue_ns, req.dispatch_ns, id, names[1], parent});
        log->close(log->open(),
                   {req.dispatch_ns, req.complete_ns, id, names[2], parent});
      }
      if (expect != nullptr && !same_result(req.result, (*expect)[image[i]])) {
        ++r.mismatched;
      }
      last = std::max(last, req.complete_ns);
    } else {
      ++r.unfinished;
    }
    pool.free.push_back(slot);
  };
  const auto reap = [&](bool block) {
    for (std::size_t j = 0; j < pool.busy.size();) {
      const auto [slot, i] = pool.busy[j];
      rt::ServeRequest& req = pool.slots[slot];
      if (req.state.load(std::memory_order_acquire) ==
          rt::ServeRequest::kQueued) {
        if (!block) {
          ++j;
          continue;
        }
        req.wait();
      }
      finish(slot, i);
      pool.busy[j] = pool.busy.back();
      pool.busy.pop_back();
    }
  };

  const std::size_t allocs0 = heap_allocs();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t at = t0 + due[i];
    reap(false);
    for (std::uint64_t now = now_ns(); now < at; now = now_ns()) {
      if (at - now > 300'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(at - now - 200'000));
      } else {
        std::this_thread::yield();
      }
    }
    r.late_ms.push_back(static_cast<double>(now_ns() - at) * 1e-6);
    if (pool.free.empty()) {
      ++r.dropped;
      continue;
    }
    const std::size_t slot = pool.free.back();
    pool.free.pop_back();
    rt::ServeRequest& req = pool.slots[slot];
    req.image = &inputs[image[i]];
    if (server.submit(req)) {
      pool.busy.emplace_back(slot, i);
    } else {
      ++r.rejected;
      pool.free.push_back(slot);
    }
  }
  reap(true);
  r.allocs = heap_allocs() - allocs0;
  r.wall_s = static_cast<double>(last - t0) * 1e-9;
  return r;
}

std::size_t reference_mismatches(const Workload& w, std::uint64_t seed,
                                 const rt::InferenceEngine& engine,
                                 const std::vector<snn::Tensor>& inputs,
                                 const std::vector<rt::MultiStepResult>& canon,
                                 std::size_t& attempted) {
  std::size_t bad = 0;
  for (const std::size_t i : reference_subset(w, seed)) {
    ++attempted;
    if (reference_counts(engine.network(), inputs[i], w.timesteps) !=
        canon[i].spike_counts) {
      ++bad;
    }
  }
  return bad;
}

Canonical canonical_pass(const Workload& w, const rt::InferenceEngine& engine,
                         const std::vector<snn::Tensor>& inputs,
                         bool warm_lanes) {
  Canonical c;
  Mirror mirror(engine, w.workers);
  const auto B = static_cast<std::size_t>(w.batch);
  const auto T = static_cast<std::size_t>(w.timesteps);
  std::vector<rt::MultiStepResult> part;
  std::vector<rt::InferenceResult> steps;
  if (warm_lanes) mirror.run(inputs, 0, B, w.timesteps, /*fresh=*/true, part);
  c.out.resize(inputs.size());
  c.steps.resize(inputs.size() * T);
  for (std::size_t b0 = 0; b0 < inputs.size(); b0 += B) {
    mirror.run(inputs, b0, B, w.timesteps, /*fresh=*/!warm_lanes, part, &steps,
               &c.times);
    std::copy(part.begin(), part.end(), c.out.begin() + static_cast<long>(b0));
    std::copy(steps.begin(), steps.end(),
              c.steps.begin() + static_cast<long>(b0 * T));
  }
  for (const auto& s : c.steps) c.model.add(s);
  c.model.samples = static_cast<double>(inputs.size());
  return c;
}

std::unique_ptr<rt::BatchRunner> make_runner(const Workload& w,
                                             const snn::Network& net) {
  return std::make_unique<rt::BatchRunner>(
      net, w.opt, w.backend, spikestream::arch::EnergyParams{}, w.workers);
}

namespace {

std::string failures_json(std::size_t reference, std::size_t output,
                          const OpenLoop* ol) {
  Json j;
  j.num("reference_mismatch", static_cast<double>(reference))
      .num("output_mismatch", static_cast<double>(output));
  if (ol != nullptr) {
    j.num("client_drops", static_cast<double>(ol->dropped))
        .num("rejected", static_cast<double>(ol->rejected))
        .num("unfinished", static_cast<double>(ol->unfinished));
  }
  return j.done();
}

void emit_modeled(Json& rec, const Modeled& m) {
  rec.num("modeled_ms_per_sample", m.ms_per_sample())
      .num("modeled_fpu_util", m.fpu_util())
      .num("modeled_mj_per_sample", m.mj_per_sample());
}

int batch_timed(const Args& a, const Workload& w, Json& rec) {
  const auto inputs = make_inputs(w, a.seed);
  std::vector<double> setup;
  const auto runner = repeated_setup(
      w, setup, nullptr,
      [&](const snn::Network& net) { return make_runner(w, net); });
  const rt::InferenceEngine& engine = runner->engine();
  const auto B = static_cast<std::size_t>(w.batch);

  const Canonical canon = canonical_pass(w, engine, inputs, /*warm_lanes=*/false);
  std::size_t attempted = 0;
  const std::size_t ref_bad =
      reference_mismatches(w, a.seed, engine, inputs, canon.out, attempted);

  std::vector<std::vector<snn::Tensor>> batches;
  for (std::size_t b0 = 0; b0 < inputs.size(); b0 += B) {
    batches.emplace_back(inputs.begin() + static_cast<long>(b0),
                         inputs.begin() + static_cast<long>(b0 + B));
  }
  const auto pass = [&](std::vector<double>* batch_ms, std::size_t& bad) {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const std::uint64_t t0 = now_ns();
      const auto res = runner->run(batches[b], w.timesteps);
      const std::uint64_t t1 = now_ns();
      if (batch_ms != nullptr) batch_ms->push_back(static_cast<double>(t1 - t0) * 1e-6);
      for (std::size_t i = 0; i < res.size(); ++i) {
        bad += !same_result(res[i], canon.out[b * B + i]);
      }
    }
  };

  // Warm-up: BatchRunner::run builds fresh lane states per call, so its
  // allocation count never reaches zero (the per-layer hot path's does; the
  // traced run checks that). Warm for a fixed wall time instead: idle host
  // cores were seen to need up to ~1 s before throughput is steady.
  std::size_t out_bad = 0;
  int warm = 0;
  const std::uint64_t warm_t0 = now_ns();
  while (warm < 3 || seconds_since(warm_t0) < kWarmupSeconds) {
    pass(nullptr, out_bad);
    ++warm;
  }

  std::vector<double> batch_ms;
  const std::uint64_t start = now_ns();
  const auto budget = static_cast<std::uint64_t>(a.seconds * 1e9);
  while (batch_ms.size() < kMinOps || now_ns() - start < budget) {
    pass(&batch_ms, out_bad);
  }
  const double timed_s = seconds_since(start);
  attempted += batch_ms.size();

  rec.raw("topology", topology_json(w, engine, runner->workers(),
                                    runner_pool_threads(*runner)))
      .arr("setup_s", setup)
      .arr("batch_ms", batch_ms)
      .num("timed_s", timed_s)
      .num("warmup_passes", warm);
  emit_modeled(rec, canon.model);
  const std::size_t failed = ref_bad + out_bad;
  rec.num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .raw("failures", failures_json(ref_bad, out_bad, nullptr));
  return failed == 0 ? 0 : 1;
}

}  // namespace

/// Server set-up plus the offline warm reference every served output is
/// checked against (lanes warmed by one full wave, as the server's are).
ServeFixture::ServeFixture(const Workload& w, const Args& a,
                           SetupSplit* split)
    : inputs(make_inputs(w, a.seed)) {
  server = repeated_setup(w, setup_s, split, [&](const snn::Network& net) {
    return std::make_unique<rt::InferenceServer>(net, w.opt, w.backend,
                                                 w.server);
  });
  canon = canonical_pass(w, server->engine(), inputs, /*warm_lanes=*/true);
  ref_bad = reference_mismatches(w, a.seed, server->engine(), inputs,
                                 canon.out, ref_checks);
}

std::size_t ServeFixture::warm_up(const Workload& w, SlotPool& pool) {
  // Two full bursts put every lane through a wave, then short open-loop
  // windows at the workload rate until one runs without a heap allocation.
  for (int burst = 0; burst < 2; ++burst) {
    const auto lanes = static_cast<std::size_t>(server->max_wave_lanes());
    for (std::size_t i = 0; i < lanes; ++i) {
      pool.slots[i].image = &inputs[i % inputs.size()];
      server->submit(pool.slots[i]);
    }
    for (std::size_t i = 0; i < lanes; ++i) pool.slots[i].wait();
  }
  std::size_t windows = 0;
  while (windows < 6) {
    const OpenLoop ol = open_loop(*server, inputs, w, 0.5, 0xa11ce + windows,
                                  pool, nullptr);
    ++windows;
    if (ol.allocs == 0) break;
  }
  return windows;
}

int run_timed(const Args& a, const Workload& w) {
  Json rec;
  rec.str("workload", w.name)
      .num("seed", static_cast<double>(a.seed))
      .num("trace", 0)
      .raw("host", host_json());
  int rc = 0;
  if (!w.serve) {
    rc = batch_timed(a, w, rec);
  } else {
    ServeFixture fx(w, a);
    SlotPool pool(256);
    const std::size_t windows = fx.warm_up(w, pool);
    const OpenLoop ol =
        open_loop(*fx.server, fx.inputs, w, a.seconds, a.seed, pool,
                  &fx.canon.out);
    const rt::ServerStats st = fx.server->stats();
    fx.server->stop();
    rec.raw("topology", topology_json(w, fx.server->engine(), w.workers,
                                      server_pool_threads()))
        .arr("setup_s", fx.setup_s)
        .arr("latency_ms", ol.latency_ms)
        .arr("late_ms", ol.late_ms)
        .num("requests", static_cast<double>(ol.attempted))
        .num("completed", static_cast<double>(ol.completed))
        .num("within_slo", static_cast<double>(ol.within_slo))
        .num("served_wall_s", ol.wall_s)
        .num("warmup_windows", static_cast<double>(windows))
        .num("mean_wave_lanes", st.wave_lanes.mean());
    emit_modeled(rec, fx.canon.model);
    const std::size_t failed = fx.ref_bad + ol.mismatched + ol.dropped +
                               ol.rejected + ol.unfinished;
    rec.num("attempted", static_cast<double>(ol.attempted + fx.ref_checks))
        .num("failed", static_cast<double>(failed))
        .raw("failures", failures_json(fx.ref_bad, ol.mismatched, &ol));
    rc = failed == 0 ? 0 : 1;
  }
  rec.num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", rec.done().c_str());
  return rc;
}

}  // namespace perfbench
