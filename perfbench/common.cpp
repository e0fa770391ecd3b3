#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <span>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/rng.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"
#include "snn/reference.hpp"
#include "snn/state.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t kWeightSeed = 1;
constexpr std::uint64_t kCalibrationSeed = kWeightSeed * 17 + 3;
constexpr int kCalibrationImages = 4;
/// Pool images per run whose spikes are checked against snn::Reference.
constexpr std::size_t kReferenceSamples = 2;

int image_hw(const Workload& w) { return w.tower ? 6 : 32; }

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

Workload workload_by_name(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "svgg11_batch" || name == "svgg11_serve") {
    // The paper's network on the fastest offline path: batch-level weight
    // reuse plus 8-lane segment-major lockstep waves.
    w.opt.batch_weight_reuse = true;
    w.opt.segment_major_lanes = 8;
    w.timesteps = 4;
    w.slo_ms = 1000;  // per BatchRunner::run call (~0.5 s on 4 cores)
    if (name == "svgg11_serve") {
      w.serve = true;
      w.timesteps = 1;
      w.server.timesteps = 1;
      w.server.max_queue_delay_us = 2000;
      w.server.controller_streak = 3;
      // Well under saturation: near it, queueing amplifies host-speed drift.
      w.rate_rps = 25;
      w.slo_ms = 100;  // per request
    }
    return w;
  }
  if (name == "tower_sharded") {
    // 14 tiny convs: per-layer fixed costs (timing pass, shard merge, NoC
    // replay, stage timeline) dominate the host time.
    w.tower = true;
    w.timesteps = 8;
    w.slo_ms = 60;  // per BatchRunner::run call (~20 ms on 4 cores)
    w.backend.kind = rt::BackendKind::kSharded;
    w.backend.clusters = 8;
    w.backend.partition = k::PartitionStrategy::kHybrid;
    w.backend.noc.topology = spikestream::arch::NocTopology::kRingQuadrant;
    w.backend.noc.model_contention = true;
    w.backend.pipeline.enabled = true;
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::vector<snn::Tensor> make_inputs(const Workload& w, std::uint64_t seed) {
  return snn::make_batch(static_cast<std::size_t>(w.images), seed,
                         image_hw(w), image_hw(w), 3);
}

snn::Network build_network(const Workload& w, double* calibrate_s) {
  snn::Network net = w.tower ? snn::Network::make_deep_tower()
                             : snn::Network::make_svgg11();
  spikestream::common::Rng rng(kWeightSeed);
  net.init_weights(rng);
  const auto calib = snn::make_batch(kCalibrationImages, kCalibrationSeed,
                                     image_hw(w), image_hw(w), 3);
  const std::vector<double> rates = w.tower ? snn::deep_tower_target_rates()
                                            : snn::svgg11_target_rates();
  const std::uint64_t t0 = now_ns();
  snn::calibrate_thresholds(net, calib, rates);
  if (calibrate_s != nullptr) *calibrate_s = seconds_since(t0);
  return net;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  Json j;
  j.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)))
      .num("hardware_concurrency",
           static_cast<double>(std::thread::hardware_concurrency()))
      .str("cpu_model", cpu)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("march", PERFBENCH_MARCH)
      .str("compiler", __VERSION__);
  return j.done();
}

// --- reference check ----------------------------------------------------------

std::vector<std::uint32_t> reference_counts(const snn::Network& quantized,
                                            const snn::Tensor& image,
                                            int timesteps) {
  snn::Reference ref(quantized);
  std::vector<std::uint32_t> counts;
  for (int t = 0; t < timesteps; ++t) {
    const snn::SpikeMap& out = ref.step(image).back().output;
    counts.resize(out.v.size(), 0);
    for (std::size_t i = 0; i < out.v.size(); ++i) counts[i] += out.v[i];
  }
  return counts;
}

std::vector<std::size_t> reference_subset(const Workload& w,
                                          std::uint64_t seed) {
  spikestream::common::Rng rng(seed ^ 0x5eedf00dull);
  std::vector<std::size_t> all(static_cast<std::size_t>(w.images));
  std::iota(all.begin(), all.end(), std::size_t{0});
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.next_u64() % i]);
  }
  all.resize(std::min(all.size(), kReferenceSamples));
  return all;
}

void Modeled::add(const rt::InferenceResult& r) {
  cycles += r.total_cycles;
  energy_mj += r.total_energy_mj;
  for (const rt::LayerMetrics& m : r.layers) {
    fpu_ops += m.stats.fpu_ops;
    core_cycles += m.stats.cycles * m.stats.active_cores;
  }
}

// --- span log -----------------------------------------------------------------

int SpanLog::intern(const std::string& name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<int>(it - names_.begin());
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  const std::size_t n = size();
  std::uint64_t base = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) base = std::min(base, spans_[i].t0);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%lld}}",
                 i ? ",\n" : "\n",
                 escape(names_[static_cast<std::size_t>(s.name)]).c_str(),
                 static_cast<double>(s.t0 - base) * 1e-3,
                 static_cast<double>(s.t1 - s.t0) * 1e-3, i, s.parent,
                 static_cast<long long>(s.id));
  }
  std::fprintf(f, "\n],\"dropped_spans\":%zu}\n", dropped());
  return std::fclose(f) == 0;
}

// --- mirror executor ----------------------------------------------------------

Mirror::Mirror(const rt::InferenceEngine& engine, int workers)
    : engine_(engine),
      workers_(rt::WorkerPool::clamp_to_hardware(workers)),
      lockstep_(engine.options().segment_major_lanes > 1),
      pool_(engine.worker_pool()) {
  // Same pool rule as BatchRunner: share the backend's pool, else own one.
  if (pool_ == nullptr && workers_ > 1) {
    pool_ = std::make_shared<rt::WorkerPool>(workers_ - 1);
  }
}

void Mirror::ensure_lanes(std::size_t n, bool fresh) {
  if (states_.size() < n) states_.resize(n);
  steps_.resize(std::max(steps_.size(), n));
  lanes_.resize(std::max(lanes_.size(), n));
  for (std::size_t i = 0; i < n; ++i) {
    if (fresh || states_[i].num_layers() == 0) states_[i] = engine_.make_state();
  }
}

void Mirror::run(const std::vector<snn::Tensor>& images, std::size_t first,
                 std::size_t n, int timesteps, bool fresh,
                 std::vector<rt::MultiStepResult>& out,
                 std::vector<rt::InferenceResult>* layers, StepTimes* times,
                 SpanLog* log) {
  const snn::Network& net = engine_.network();
  const std::size_t L = net.num_layers();
  const auto T = static_cast<std::size_t>(timesteps);
  out.resize(n);
  for (rt::MultiStepResult& r : out) {
    r.timesteps = timesteps;
    r.spike_counts.clear();
    r.cycles_per_step.clear();
    r.total_cycles = 0;
    r.total_energy_mj = 0;
  }
  if (layers != nullptr) layers->resize(n * T);
  if (n == 0 || T == 0) return;

  const std::size_t slots = std::max<std::size_t>(
      {std::size_t{1}, pool_ ? static_cast<std::size_t>(pool_->slots()) : 0,
       static_cast<std::size_t>(engine_.options().segment_major_lanes)});
  acc_.assign(slots * L * 4, 0.0);
  slot_busy_.assign(slots, 0.0);
  if (log != nullptr && span_names_.empty()) {
    for (std::size_t l = 0; l < L; ++l) {
      span_names_.push_back(log->intern("engine.run_layer:" + net.layer(l).name));
    }
    for (std::size_t l = 0; l < L; ++l) {
      span_names_.push_back(log->intern("batch.step:" + net.layer(l).name));
    }
    span_names_.push_back(log->intern("batch.wave"));
    span_names_.push_back(log->intern("batch.sample"));
  }
  const auto image = [&](std::size_t i) -> const snn::Tensor& {
    return images[(first + i) % images.size()];
  };
  const auto count = [&](std::size_t slot, std::size_t l,
                         snn::NetworkState& st, double ns, double calls) {
    double* a = &acc_[(slot * L + l) * 4];
    a[0] += ns;
    a[1] += calls;
    if (net.layer(l).kind != snn::LayerKind::kEncodeConv) {
      a[2] += static_cast<double>(st.scratch(l).csr.nnz());
    }
    a[3] += static_cast<double>(st.scratch(l).main.run.out_nnz);
  };
  // One lane through one layer: the timed public call, its span, counters.
  const auto lane_call = [&](std::size_t slot, std::size_t l,
                             rt::InferenceEngine::BatchLane& lane,
                             std::int64_t parent, std::int64_t id) {
    const std::int64_t span = log ? log->open() : -1;
    const std::uint64_t t0 = now_ns();
    engine_.run_layer_batch(l, std::span(&lane, 1), nullptr);
    const std::uint64_t t1 = now_ns();
    if (log) {
      log->close(span, {t0, t1, id, span_names_[l],
                        static_cast<std::int32_t>(parent)});
    }
    const auto dt = static_cast<double>(t1 - t0);
    count(slot, l, *lane.state, dt, 1);
    return dt;
  };
  const auto keep = [&](std::size_t i, std::size_t t,
                        const rt::InferenceResult& step) {
    out[i].accumulate_step(step);
    if (layers != nullptr) (*layers)[i * T + t] = step;
  };

  double wave_ns = 0, covered_ns = 0, pool_wait_ns = 0, waves = 0;
  if (lockstep_) {
    // BatchRunner::run_lockstep: waves of segment_major_lanes samples, every
    // lane through layer l before any lane enters layer l + 1.
    const std::size_t W = std::min<std::size_t>(
        n, static_cast<std::size_t>(engine_.options().segment_major_lanes));
    ensure_lanes(W, fresh);
    for (std::size_t w0 = 0; w0 < n; w0 += W) {
      const std::size_t wn = std::min(W, n - w0);
      const std::int64_t wave_id = wave_seq_++;
      const std::int64_t wave_span = log ? log->open() : -1;
      const std::uint64_t wave_t0 = now_ns();
      for (std::size_t i = 0; i < wn; ++i) states_[i].clear();
      for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t i = 0; i < wn; ++i) {
          engine_.begin_sample(steps_[i]);
          lanes_[i] = {&image(w0 + i), nullptr, &states_[i], &steps_[i]};
        }
        for (std::size_t l = 0; l < L; ++l) {
          const std::int64_t step_span = log ? log->open() : -1;
          const std::uint64_t s0 = now_ns();
          double critical = 0;
          if (net.layer(l).kind == snn::LayerKind::kFc && wn > 1) {
            // Segment-major FC: one batch-scope call serves every lane.
            engine_.run_layer_batch(l, std::span(lanes_.data(), wn),
                                    pool_.get());
            critical = static_cast<double>(now_ns() - s0);
            for (std::size_t i = 0; i < wn; ++i) {
              count(0, l, states_[i], critical / static_cast<double>(wn), 1);
            }
          } else if (pool_ != nullptr && wn > 1) {
            std::fill(slot_busy_.begin(), slot_busy_.end(), 0.0);
            pool_->parallel_for(wn, wn, [&](std::size_t slot, std::size_t i) {
              slot_busy_[slot] += lane_call(
                  slot, l, lanes_[i], step_span,
                  seq_ + static_cast<std::int64_t>(w0 + i));
            });
            critical = *std::max_element(slot_busy_.begin(), slot_busy_.end());
          } else {
            for (std::size_t i = 0; i < wn; ++i) {
              critical += lane_call(0, l, lanes_[i], step_span,
                                    seq_ + static_cast<std::int64_t>(w0 + i));
            }
          }
          const std::uint64_t s1 = now_ns();
          if (log) {
            log->close(step_span,
                       {s0, s1, wave_id, span_names_[L + l],
                        static_cast<std::int32_t>(wave_span)});
          }
          covered_ns += static_cast<double>(s1 - s0);
          pool_wait_ns += static_cast<double>(s1 - s0) - critical;
        }
        for (std::size_t i = 0; i < wn; ++i) keep(w0 + i, t, steps_[i]);
      }
      const std::uint64_t wave_t1 = now_ns();
      if (log) {
        log->close(wave_span, {wave_t0, wave_t1, wave_id, span_names_[2 * L],
                               -1});
      }
      wave_ns += static_cast<double>(wave_t1 - wave_t0);
      waves += 1;
    }
  } else {
    // BatchRunner::for_samples: samples fan out over min(workers, n) slots,
    // each slot stepping its own state through every layer.
    const std::size_t S = std::min<std::size_t>(
        static_cast<std::size_t>(workers_), n);
    ensure_lanes(S, fresh);
    const std::int64_t wave_id = wave_seq_++;
    const std::int64_t wave_span = log ? log->open() : -1;
    const std::uint64_t wave_t0 = now_ns();
    const auto sample = [&](std::size_t slot, std::size_t i) {
      const std::int64_t id = seq_ + static_cast<std::int64_t>(i);
      const std::int64_t span = log ? log->open() : -1;
      const std::uint64_t s0 = now_ns();
      snn::NetworkState& st = states_[slot];
      rt::InferenceResult& step = steps_[slot];
      rt::InferenceEngine::BatchLane& lane = lanes_[slot];
      st.clear();
      for (std::size_t t = 0; t < T; ++t) {
        engine_.begin_sample(step);
        lane = {&image(i), nullptr, &st, &step};
        for (std::size_t l = 0; l < L; ++l) lane_call(slot, l, lane, span, id);
        keep(i, t, step);
      }
      const std::uint64_t s1 = now_ns();
      if (log) {
        log->close(span, {s0, s1, id, span_names_[2 * L + 1],
                          static_cast<std::int32_t>(wave_span)});
      }
      slot_busy_[slot] += static_cast<double>(s1 - s0);
    };
    if (pool_ != nullptr && S > 1) {
      pool_->parallel_for(n, S, sample);
    } else {
      for (std::size_t i = 0; i < n; ++i) sample(0, i);
    }
    const std::uint64_t wave_t1 = now_ns();
    if (log) {
      log->close(wave_span, {wave_t0, wave_t1, wave_id, span_names_[2 * L],
                             -1});
    }
    const double critical =
        *std::max_element(slot_busy_.begin(), slot_busy_.end());
    wave_ns = static_cast<double>(wave_t1 - wave_t0);
    covered_ns = critical;
    pool_wait_ns = wave_ns - critical;
    waves = 1;
  }
  seq_ += static_cast<std::int64_t>(n);

  if (times != nullptr) {
    if (times->layer_ns.size() != L) times->resize(L);
    for (std::size_t s = 0; s < slots; ++s) {
      for (std::size_t l = 0; l < L; ++l) {
        const double* a = &acc_[(s * L + l) * 4];
        times->layer_ns[l] += a[0];
        times->layer_calls[l] += a[1];
        times->in_nnz[l] += a[2];
        times->out_nnz[l] += a[3];
      }
    }
    times->wave_ns += wave_ns;
    times->covered_ns += covered_ns;
    times->pool_wait_ns += pool_wait_ns;
    times->waves += waves;
  }
}

// --- raw record emitter -------------------------------------------------------

namespace {

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

Json& Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += '"' + escape(k) + "\":";
  return *this;
}
Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += fmt_num(v);
  return *this;
}
Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += '"' + escape(v) + '"';
  return *this;
}
Json& Json::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}
Json& Json::arr(const std::string& k, const std::vector<double>& v) {
  key(k);
  body_ += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) body_ += ',';
    body_ += fmt_num(v[i]);
  }
  body_ += ']';
  return *this;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace perfbench
