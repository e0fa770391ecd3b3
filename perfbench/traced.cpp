// Traced run: the per-layer metrics. It is separate from the timed run and
// times each layer from outside the library:
//  * set-up split into calibration, weight quantization and engine build;
//  * the batch executor replayed through the engine's public per-layer API
//    (Mirror) with a span around every call, against an untraced window of
//    the same work for the trace overhead;
//  * each layer's children (CSR encode, functional pass, timing pass, and
//    the sharded backend against the analytical one) replayed on captured
//    layer inputs, so self time = layer call - children;
//  * modeled per-layer counters from the canonical pass, and the serving
//    layer's queue/service split from request timestamps.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <span>
#include <tuple>

#include "bench.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/layer_kernels.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/stage_pipeline.hpp"
#include "snn/reference.hpp"
#include "snn/state.hpp"

namespace perfbench {

namespace {

/// Replays per captured input; the median of each capture is kept.
constexpr int kReplays = 9;
/// Captured samples per layer (every timestep of each).
constexpr std::size_t kCaptureSamples = 2;
/// Largest share by which a layer's replayed children may exceed its span,
/// or by which a wave may exceed the time its child spans cover.
constexpr double kConsistencyShare = 0.10;
/// Span log capacity (spans past it are counted, not stored).
constexpr std::size_t kSpanCapacity = 1 << 16;

/// One layer input as the engine saw it: the spike carry (or raw image for
/// the encode layer) and the membrane before the call.
struct Capture {
  snn::SpikeMap carry;
  const snn::Tensor* image = nullptr;
  snn::Tensor membrane;
};

/// Steps `image` through the engine one layer at a time on a fresh state,
/// recording every layer's input at every timestep.
void capture_sample(const rt::InferenceEngine& e, const snn::Tensor& image,
                    int timesteps, std::vector<std::vector<Capture>>& caps) {
  const snn::Network& net = e.network();
  snn::NetworkState st = e.make_state();
  rt::InferenceResult out;
  for (int t = 0; t < timesteps; ++t) {
    e.begin_sample(out);
    const snn::SpikeMap* carry = nullptr;
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      Capture c;
      c.membrane = st.membrane(l);
      c.image = &image;
      if (carry != nullptr) c.carry = *carry;
      caps[l].push_back(std::move(c));
      carry = e.run_layer(l, &image, carry, st, out);
    }
  }
}

template <class F>
double median_ns(F&& f) {
  std::vector<double> v;
  for (int r = 0; r < kReplays; ++r) v.push_back(f());
  return median(std::move(v));
}

/// Per-call means (ns) of one layer's children, replayed on its captures.
struct Children {
  double encode = 0, functional = 0, timing = 0, backend_overhead = 0;
};

Children replay_layer(const rt::InferenceEngine& e, std::size_t l,
                      const std::vector<Capture>& caps, bool batched_fc,
                      const rt::ExecutionBackend* analytical) {
  const snn::LayerSpec& spec = e.network().layer(l);
  const snn::LayerWeights& w = e.network().weights(l);
  const k::RunOptions& opt = e.options();
  const bool encode = spec.kind == snn::LayerKind::kEncodeConv;
  const bool fc = spec.kind == snn::LayerKind::kFc;
  const auto n = static_cast<double>(caps.size());
  Children c;

  std::vector<spikestream::compress::CsrIfmap> csr(caps.size());
  std::vector<snn::Tensor> padded(caps.size());
  for (std::size_t i = 0; i < caps.size(); ++i) {
    if (encode) {
      snn::Reference::pad_dense_into(*caps[i].image,
                                     (spec.in_h - caps[i].image->h) / 2,
                                     padded[i]);
    } else {
      spikestream::compress::CsrIfmap::encode_into(caps[i].carry, csr[i]);
      c.encode += median_ns([&] {
        const std::uint64_t t0 = now_ns();
        spikestream::compress::CsrIfmap::encode_into(caps[i].carry, csr[i]);
        return static_cast<double>(now_ns() - t0);
      }) / n;
    }
  }

  std::vector<snn::Tensor> mem(caps.size());
  std::vector<k::LayerScratch> scratch(caps.size());
  const auto restore = [&] {
    for (std::size_t i = 0; i < caps.size(); ++i) mem[i] = caps[i].membrane;
  };
  if (fc && batched_fc) {
    // The segment-major wave runs FC layers as one batch-scope call.
    std::vector<k::FcBatchLane> lanes(caps.size());
    for (std::size_t i = 0; i < caps.size(); ++i) {
      lanes[i] = {&csr[i], &mem[i], &scratch[i]};
    }
    std::vector<double> fn, tm;
    for (int r = 0; r < kReplays; ++r) {
      restore();
      const std::uint64_t t0 = now_ns();
      k::fc_functional_batch(spec, w, lanes);
      const std::uint64_t t1 = now_ns();
      for (std::size_t i = 0; i < caps.size(); ++i) {
        k::fc_timing(spec, csr[i], opt, scratch[i].main);
      }
      fn.push_back(static_cast<double>(t1 - t0) / n);
      tm.push_back(static_cast<double>(now_ns() - t1) / n);
    }
    c.functional = median(fn);
    c.timing = median(tm);
  } else {
    for (std::size_t i = 0; i < caps.size(); ++i) {
      k::KernelScratch& ks = scratch[i].main;
      std::vector<double> fn, tm;
      for (int r = 0; r < kReplays; ++r) {
        mem[i] = caps[i].membrane;
        const std::uint64_t t0 = now_ns();
        if (encode) {
          k::encode_functional(spec, w, padded[i], mem[i], ks);
        } else if (fc) {
          k::fc_functional(spec, w, csr[i], mem[i], ks);
        } else {
          k::conv_functional(spec, w, csr[i], mem[i], ks);
        }
        const std::uint64_t t1 = now_ns();
        if (encode) {
          k::encode_timing(spec, opt, ks);
        } else if (fc) {
          k::fc_timing(spec, csr[i], opt, ks);
        } else {
          k::conv_timing(spec, csr[i], opt, ks);
        }
        fn.push_back(static_cast<double>(t1 - t0));
        tm.push_back(static_cast<double>(now_ns() - t1));
      }
      c.functional += median(fn) / n;
      c.timing += median(tm) / n;
    }
  }

  if (analytical != nullptr) {
    // Sharded backend minus the analytical backend on the same inputs:
    // shard fan-out, merge, NoC replay and stage handoff.
    snn::NetworkState sharded_state = e.make_state();
    snn::NetworkState plain_state(e.network());
    analytical->presize_state(plain_state, e.network());
    const auto call = [&](const rt::ExecutionBackend& b, k::LayerScratch& ls,
                          std::size_t i) {
      mem[i] = caps[i].membrane;
      const std::uint64_t t0 = now_ns();
      if (encode) {
        b.run_encode(spec, w, padded[i], mem[i], ls);
      } else if (fc) {
        b.run_fc(spec, w, csr[i], mem[i], ls);
      } else {
        b.run_conv(spec, w, csr[i], mem[i], ls);
      }
      return static_cast<double>(now_ns() - t0);
    };
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const double s = median_ns([&] {
        return call(e.backend(), sharded_state.scratch(l), i);
      });
      const double a = median_ns([&] {
        return call(*analytical, plain_state.scratch(l), i);
      });
      c.backend_overhead += (s - a) / n;
    }
  }
  return c;
}

/// Metric sink: per-layer values plus raw samples run.py summarizes.
struct Metrics {
  Json values;
  Json samples;
  void set(const std::string& name, double v) { values.num(name, v); }
};

/// Everything the batch executor layers report, for S-VGG11 per layer and
/// always as `.all` aggregates (the tower reports aggregates only).
void layer_metrics(Metrics& m, const rt::InferenceEngine& e, const Workload& w,
                   const StepTimes& traced, const Canonical& canon,
                   const std::vector<Children>& kids) {
  const snn::Network& net = e.network();
  const std::size_t L = net.num_layers();
  const auto steps = static_cast<double>(canon.steps.size());
  std::map<std::string, double> all;
  for (std::size_t l = 0; l < L; ++l) {
    double cycles = 0, fpu = 0, core_cycles = 0, dma = 0;
    for (const rt::InferenceResult& r : canon.steps) {
      const auto& st = r.layers[l].stats;
      cycles += st.cycles;
      fpu += st.fpu_ops;
      core_cycles += st.cycles * st.active_cores;
      dma += st.dma_bytes;
    }
    const double layer_ns =
        traced.layer_calls[l] > 0 ? traced.layer_ns[l] / traced.layer_calls[l]
                                  : 0.0;
    const Children& c = kids[l];
    const std::map<std::string, double> row = {
        {"runtime.engine.layer_ns", layer_ns},
        {"runtime.engine.self_ns",
         layer_ns - c.encode - c.functional - c.timing},
        {"compress.encode_ns", c.encode},
        {"kernels.functional_ns", c.functional},
        {"kernels.timing_ns", c.timing},
        {"kernels.in_nnz", canon.times.in_nnz[l]},
        {"kernels.out_nnz", canon.times.out_nnz[l]},
        {"arch.cycles", cycles / steps},
        {"arch.dma_bytes", dma / steps},
    };
    for (const auto& [name, v] : row) {
      all[name] += v;
      if (!w.tower) m.set(name + "." + net.layer(l).name, v);
    }
    if (!w.tower) {
      m.set("arch.fpu_util." + net.layer(l).name,
            core_cycles > 0 ? fpu / core_cycles : 0.0);
    }
  }
  for (const auto& [name, v] : all) m.set(name + ".all", v);
  m.set("arch.fpu_util.all", canon.model.fpu_util());
  m.set("kernels.functional_share",
        all["runtime.engine.layer_ns"] > 0
            ? all["kernels.functional_ns"] / all["runtime.engine.layer_ns"]
            : 0.0);
  double overhead = 0;
  for (const Children& c : kids) overhead += c.backend_overhead;
  m.set("runtime.backend_sharded.overhead_ns", overhead);
}

/// Modeled multi-cluster aggregates (zero on the single-cluster backend).
void arch_aggregates(Metrics& m, const rt::InferenceEngine& e,
                     const Workload& w, const Canonical& canon) {
  double noc = 0, contention = 0;
  for (const rt::InferenceResult& r : canon.steps) {
    for (const auto& lm : r.layers) {
      noc += lm.stats.noc_bytes;
      contention += lm.stats.noc_contention_cycles;
    }
  }
  const auto steps = static_cast<double>(canon.steps.size());
  m.set("arch.noc_bytes", noc / steps);
  m.set("arch.noc_contention_cycles", contention / steps);
  double stall = 0, stages = 1;
  if (const auto* sb = dynamic_cast<const rt::ShardedBackend*>(&e.backend());
      sb != nullptr && sb->stage_parallel_active()) {
    // The stage timeline over the first timestep of every pooled sample.
    std::vector<rt::InferenceResult> first;
    const auto T = static_cast<std::size_t>(w.timesteps);
    for (std::size_t i = 0; i < canon.out.size(); ++i) {
      first.push_back(canon.steps[i * T]);
    }
    const rt::StageTimeline tl = rt::simulate_stage_pipeline(
        sb->stage_plan(), e.network(), first, sb->pipeline_config());
    stall = tl.total_stall_cycles / static_cast<double>(first.size());
    stages = sb->stage_plan().num_stages();
  }
  m.set("arch.fifo_stall_cycles", stall);
  m.set("arch.stages", stages);
}

/// Executor-level measurements on `mirror`: traced passes over the input
/// pool (spans on) alternating with `untraced_pass` (the same work, spans
/// off) for the trace overhead, the steady-state allocation count, and
/// whole-network waves by width. Returns {traced, untraced} samples/s, the
/// medians over passes.
std::pair<double, double> executor_metrics(
    Metrics& m, Mirror& mirror, const Workload& w,
    const std::vector<snn::Tensor>& inputs, const Canonical& canon,
    double seconds, bool fresh, std::size_t lanes,
    const std::function<std::size_t()>& untraced_pass, SpanLog& log,
    StepTimes& traced, std::size_t& attempted, std::size_t& failed) {
  std::vector<rt::MultiStepResult> out;
  const auto B = std::max<std::size_t>(1, lanes);
  const auto traced_pass = [&](StepTimes* times, SpanLog* spans) {
    for (std::size_t b0 = 0; b0 < inputs.size(); b0 += B) {
      const std::size_t n = std::min(B, inputs.size() - b0);
      mirror.run(inputs, b0, n, w.timesteps, fresh, out, nullptr, times,
                 spans);
      ++attempted;
      for (std::size_t i = 0; i < n; ++i) {
        if (out[i].spike_counts != canon.out[b0 + i].spike_counts) ++failed;
      }
    }
    return inputs.size();
  };
  const auto sps = [](auto&& pass) {
    const std::uint64_t t0 = now_ns();
    const std::size_t n = pass();
    return static_cast<double>(n) / seconds_since(t0);
  };
  untraced_pass();
  traced_pass(nullptr, nullptr);
  std::vector<double> traced_sps, untraced_sps;
  const std::uint64_t t0 = now_ns();
  while (traced_sps.empty() || seconds_since(t0) < seconds) {
    untraced_sps.push_back(sps(untraced_pass));
    traced_sps.push_back(sps([&] { return traced_pass(&traced, &log); }));
  }
  m.set("runtime.batch.pool_wait_ns",
        traced.waves > 0 ? traced.pool_wait_ns / traced.waves : 0.0);
  m.set("trace.unaccounted_share",
        traced.wave_ns > 0 ? 1.0 - traced.covered_ns / traced.wave_ns : 0.0);

  // Steady-state allocations per layer call on warm lanes, after warming
  // until a whole pass allocates nothing (arena capacity has settled).
  StepTimes steady;
  steady.resize(canon.times.layer_ns.size());
  std::size_t allocs = 0;
  for (int pass = 0; pass < 10; ++pass) {
    steady.resize(canon.times.layer_ns.size());  // zeroes, keeps capacity
    const std::size_t a0 = heap_allocs();
    for (std::size_t b0 = 0; b0 < inputs.size(); b0 += B) {
      mirror.run(inputs, b0, std::min(B, inputs.size() - b0), w.timesteps,
                 /*fresh=*/false, out, nullptr, &steady);
    }
    allocs = heap_allocs() - a0;
    if (allocs == 0) break;
  }
  double calls = 0;
  for (const double c : steady.layer_calls) calls += c;
  // Reported, not failed: an allocating hot path is slow, not wrong.
  m.set("runtime.allocs_per_layer",
        calls > 0 ? static_cast<double>(allocs) / calls : 0.0);

  // One timestep of a whole-network wave, by width.
  for (const std::size_t n : {1, 2, 4, 8}) {
    std::vector<double> ms;
    mirror.run(inputs, 0, n, 1, /*fresh=*/false, out);
    for (int r = 0; r < 7; ++r) {
      const std::uint64_t s0 = now_ns();
      mirror.run(inputs, 0, n, 1, /*fresh=*/false, out);
      ms.push_back(static_cast<double>(now_ns() - s0) * 1e-6);
    }
    m.set("runtime.batch.wave_ms.lanes" + std::to_string(n), median(ms));
  }
  return {median(traced_sps), median(untraced_sps)};
}

/// Layer children replayed on inputs captured from the reference subset.
std::vector<Children> replay_children(const rt::InferenceEngine& e,
                                      const Workload& w,
                                      const std::vector<snn::Tensor>& inputs,
                                      std::uint64_t seed, bool batched_fc) {
  const std::size_t L = e.network().num_layers();
  std::vector<std::vector<Capture>> caps(L);
  const auto subset = reference_subset(w, seed);
  for (std::size_t s = 0; s < std::min(kCaptureSamples, subset.size()); ++s) {
    capture_sample(e, inputs[subset[s]], w.timesteps, caps);
  }
  std::unique_ptr<rt::ExecutionBackend> analytical;
  if (w.backend.kind == rt::BackendKind::kSharded) {
    analytical = rt::make_backend(e.options());
  }
  std::vector<Children> kids;
  for (std::size_t l = 0; l < L; ++l) {
    kids.push_back(replay_layer(e, l, caps[l], batched_fc, analytical.get()));
  }
  return kids;
}

/// Children that do not fit inside their layer's span, and waves their
/// child spans do not cover, beyond the stated share.
std::size_t inconsistent_layers(const StepTimes& traced,
                                const std::vector<Children>& kids) {
  std::size_t bad = 0;
  for (std::size_t l = 0; l < kids.size(); ++l) {
    const double span = traced.layer_calls[l] > 0
                            ? traced.layer_ns[l] / traced.layer_calls[l]
                            : 0.0;
    const double children =
        kids[l].encode + kids[l].functional + kids[l].timing;
    if (children > (1.0 + kConsistencyShare) * span) ++bad;
  }
  if (traced.wave_ns > 0 &&
      traced.covered_ns < (1.0 - kConsistencyShare) * traced.wave_ns) {
    ++bad;
  }
  return bad;
}

void setup_metrics(Metrics& m, const SetupSplit& split) {
  std::vector<double> self;
  for (std::size_t i = 0; i < split.build_s.size(); ++i) {
    self.push_back(split.build_s[i] - split.quantize_s[i]);
  }
  m.set("snn.calibrate_s", median(split.calibrate_s));
  m.set("snn.quantize_s", median(split.quantize_s));
  m.set("runtime.engine.build_s", median(split.build_s));
  m.set("runtime.engine.build_self_s", median(std::move(self)));
}

}  // namespace

int run_traced(const Args& a, const Workload& w) {
  Metrics m;
  SetupSplit split;
  SpanLog log(kSpanCapacity);
  StepTimes traced;
  std::size_t attempted = 0, failed = 0, inconsistent = 0;
  double untraced_sps = 0, traced_sps = 0;
  std::string topology;
  const double window = a.seconds * (w.serve ? 0.3 : 0.6);

  if (!w.serve) {
    const auto inputs = make_inputs(w, a.seed);
    std::vector<double> setup;
    const auto runner = repeated_setup(
        w, setup, &split,
        [&](const snn::Network& net) { return make_runner(w, net); });
    const rt::InferenceEngine& e = runner->engine();
    topology = topology_json(w, e, runner->workers(), runner_pool_threads(*runner));
    const Canonical canon = canonical_pass(w, e, inputs, /*warm_lanes=*/false);
    failed += reference_mismatches(w, a.seed, e, inputs, canon.out, attempted);

    // The untraced side of the overhead: BatchRunner::run, as timed.
    std::vector<std::vector<snn::Tensor>> batches;
    for (std::size_t b0 = 0; b0 < inputs.size(); b0 += w.batch) {
      batches.emplace_back(inputs.begin() + static_cast<long>(b0),
                           inputs.begin() + static_cast<long>(b0 + w.batch));
    }
    const auto runner_pass = [&] {
      for (const auto& b : batches) runner->run(b, w.timesteps);
      return inputs.size();
    };
    const std::uint64_t warm = now_ns();
    while (seconds_since(warm) < kWarmupSeconds) runner_pass();
    Mirror mirror(e, w.workers);
    std::tie(traced_sps, untraced_sps) = executor_metrics(
        m, mirror, w, inputs, canon, window, /*fresh=*/true, w.batch,
        runner_pass, log, traced, attempted, failed);
    const auto kids = replay_children(e, w, inputs, a.seed,
                                      mirror.lockstep());
    layer_metrics(m, e, w, traced, canon, kids);
    arch_aggregates(m, e, w, canon);
    inconsistent = inconsistent_layers(traced, kids);
  } else {
    ServeFixture fx(w, a, &split);
    topology = topology_json(w, fx.server->engine(), w.workers,
                             server_pool_threads());
    failed += fx.ref_bad;
    attempted += fx.ref_checks;
    SlotPool pool(256);
    fx.warm_up(w, pool);
    const rt::ServerStats s0 = fx.server->stats();
    const OpenLoop ol = open_loop(*fx.server, fx.inputs, w, a.seconds * 0.4,
                                  a.seed, pool, &fx.canon.out, &log);
    const rt::ServerStats s1 = fx.server->stats();
    attempted += ol.attempted;
    failed += ol.mismatched + ol.dropped + ol.rejected + ol.unfinished;
    const auto delta_mean = [](const spikestream::common::RunningStats& x1,
                               const spikestream::common::RunningStats& x0) {
      const double n = static_cast<double>(x1.count() - x0.count());
      return n > 0 ? (x1.mean() * static_cast<double>(x1.count()) -
                      x0.mean() * static_cast<double>(x0.count())) /
                         n
                   : 0.0;
    };
    const double lanes = delta_mean(s1.wave_lanes, s0.wave_lanes);
    const double waves = static_cast<double>(s1.waves - s0.waves);
    m.samples.arr("runtime.server.queue_ms", ol.queue_ms)
        .arr("runtime.server.service_ms", ol.service_ms)
        .arr("loadgen.late_ms", ol.late_ms);
    m.set("runtime.server.wave_lanes_mean", lanes);
    m.set("runtime.server.wave_occupancy",
          delta_mean(s1.wave_occupancy, s0.wave_occupancy));
    m.set("runtime.server.deadline_wave_fraction",
          waves > 0 ? static_cast<double>(s1.deadline_waves - s0.deadline_waves) /
                          waves
                    : 0.0);
    m.set("runtime.server.rejected",
          static_cast<double>(s1.rejected - s0.rejected));
    m.set("runtime.server.timed_out",
          static_cast<double>(s1.timed_out - s0.timed_out));
    fx.server->stop();

    // The engine layers at the wave width the server actually formed.
    const rt::InferenceEngine& e = fx.server->engine();
    const auto width = static_cast<std::size_t>(
        std::clamp(std::lround(lanes), 1L,
                   static_cast<long>(w.opt.segment_major_lanes)));
    Mirror mirror(e, w.workers);
    std::vector<rt::MultiStepResult> out;
    mirror.run(fx.inputs, 0, w.batch, w.timesteps, /*fresh=*/true, out);
    const auto mirror_pass = [&] {
      for (std::size_t b0 = 0; b0 < fx.inputs.size(); b0 += width) {
        mirror.run(fx.inputs, b0, std::min(width, fx.inputs.size() - b0),
                   w.timesteps, /*fresh=*/false, out);
      }
      return fx.inputs.size();
    };
    std::tie(traced_sps, untraced_sps) = executor_metrics(
        m, mirror, w, fx.inputs, fx.canon, window, /*fresh=*/false, width,
        mirror_pass, log, traced, attempted, failed);
    const auto kids = replay_children(e, w, fx.inputs, a.seed, width > 1);
    layer_metrics(m, e, w, traced, fx.canon, kids);
    arch_aggregates(m, e, w, fx.canon);
    inconsistent = inconsistent_layers(traced, kids);
  }
  setup_metrics(m, split);
  m.set("trace.overhead_share",
        untraced_sps > 0 ? 1.0 - traced_sps / untraced_sps : 0.0);
  // Self-consistency compares wall times measured at different moments, so
  // a busy host can break it on correct code: it is reported, not failed.
  if (inconsistent != 0) {
    std::fprintf(stderr, "spikebench: %zu timing self-consistency checks missed\n",
                 inconsistent);
  }

  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  const std::string trace_path = a.out_dir + "/trace_" + w.name + "_seed" +
                                 std::to_string(a.seed) + ".json";
  const bool wrote = log.write(trace_path);

  Json rec;
  rec.str("workload", w.name)
      .num("seed", static_cast<double>(a.seed))
      .num("trace", 1)
      .raw("host", host_json())
      .raw("topology", topology)
      .raw("per_layer", m.values.done())
      .raw("per_layer_samples", m.samples.done())
      .num("traced_sps", traced_sps)
      .num("untraced_sps", untraced_sps)
      .num("inconsistent_layers", static_cast<double>(inconsistent))
      .str("trace_file", wrote ? trace_path : "")
      .num("spans", static_cast<double>(log.size()))
      .num("dropped_spans", static_cast<double>(log.dropped()))
      .num("attempted", static_cast<double>(attempted))
      .num("failed", static_cast<double>(failed))
      .num("peak_rss_mb", peak_rss_mb());
  std::printf("%s\n", rec.done().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench
