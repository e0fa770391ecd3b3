// Shared pieces of the spikebench binary: workload definitions, the seeded
// inputs, the set-up path that setup_s times, a mirror of the batch
// executor built on the engine's public per-layer API, and a minimal JSON
// emitter for the raw record run.py turns into metrics.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/backend.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/multistep.hpp"
#include "runtime/server.hpp"
#include "runtime/worker_pool.hpp"
#include "snn/network.hpp"
#include "snn/tensor.hpp"

namespace perfbench {

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace snn = spikestream::snn;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double seconds_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

/// Minimum warm-up wall time before any timed window.
constexpr double kWarmupSeconds = 1.5;
/// Fewest timed operations per run: the tail percentile (ten samples beyond
/// it) then sits above the median.
constexpr std::size_t kMinOps = 21;
/// Seed of the open loop's send times (the workload seed picks the images).
constexpr std::uint64_t kScheduleSeed = 0x5c4ed;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out_dir = ".bench_out";
};

/// One benchmark workload: which network, how it executes, how it is fed.
struct Workload {
  std::string name;
  bool tower = false;   ///< deep conv tower instead of S-VGG11
  bool serve = false;   ///< open-loop InferenceServer instead of BatchRunner
  int timesteps = 1;
  int images = 32;      ///< seeded input pool
  int batch = 32;       ///< images per BatchRunner::run call (one op)
  int workers = 4;      ///< BatchRunner workers / server pool executors
  k::RunOptions opt;
  rt::BackendConfig backend;
  rt::ServerConfig server;
  double rate_rps = 0;  ///< serve: fixed absolute Poisson arrival rate
  double slo_ms = 0;    ///< latency limit within_slo_ratio counts against
};

/// Throws on an unknown name.
Workload workload_by_name(const std::string& name);

/// The workload's input pool, generated from the workload seed.
std::vector<snn::Tensor> make_inputs(const Workload& w, std::uint64_t seed);

/// Network build + threshold calibration (fixed weight seed: only the inputs
/// depend on the workload seed). `calibrate_s`, when given, receives the
/// time spent inside snn::calibrate_thresholds.
snn::Network build_network(const Workload& w, double* calibrate_s = nullptr);

/// Repetitions of the set-up path: at least five, and cheap set-ups repeat
/// until a second of set-up has been timed (at most 500).
bool more_setups(const std::vector<double>& setup_s);

/// The parts of set-up the traced run reports separately.
struct SetupSplit {
  std::vector<double> calibrate_s;  ///< snn::calibrate_thresholds
  std::vector<double> quantize_s;   ///< Network::quantize_weights on a copy
  std::vector<double> build_s;      ///< runner / server constructor
};

/// Repeats set-up (network build, calibration, `construct(net)`), appending
/// each total to `setup_s`, and returns the last object built. With `split`
/// it also times the parts; the extra quantization of a network copy that
/// snn.quantize_s needs happens outside the set-up total.
template <class Construct>
auto repeated_setup(const Workload& w, std::vector<double>& setup_s,
                    SetupSplit* split, Construct construct) {
  decltype(construct(std::declval<const snn::Network&>())) built;
  while (more_setups(setup_s)) {
    built.reset();
    const std::uint64_t t0 = now_ns();
    double calibrate_s = 0;
    const snn::Network net = build_network(w, &calibrate_s);
    const std::uint64_t b0 = now_ns();
    built = construct(net);
    const std::uint64_t b1 = now_ns();
    setup_s.push_back(static_cast<double>(b1 - t0) * 1e-9);
    if (split != nullptr) {
      split->calibrate_s.push_back(calibrate_s);
      split->build_s.push_back(static_cast<double>(b1 - b0) * 1e-9);
      snn::Network copy = net;
      const std::uint64_t q0 = now_ns();
      copy.quantize_weights(w.opt.fmt);
      split->quantize_s.push_back(seconds_since(q0));
    }
  }
  return built;
}

/// Global heap allocations so far (the shared operator-new counting hook).
std::size_t heap_allocs();

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// nproc, CPU model, build type and -march flavour, as a JSON object.
std::string host_json();

// --- mirror of the batch executor -------------------------------------------
// BatchRunner::run drives lockstep waves (segment_major_lanes >= 2) or
// per-sample fan-out over the worker pool; this replays the same schedule
// through InferenceEngine::begin_sample / run_layer_batch so the benchmark
// can time each layer call from outside the library. Outputs and modeled
// stats are the library's own, so they must match BatchRunner bit for bit.

/// What Mirror::run adds up: per-layer sums over every lane call (sized on
/// first use) and wave-level wall times.
struct StepTimes {
  std::vector<double> layer_ns;     ///< per layer: lane-call time, summed
  std::vector<double> layer_calls;  ///< per layer: lane calls (lane-steps)
  std::vector<double> in_nnz;       ///< per layer: input spikes, summed
  std::vector<double> out_nnz;      ///< per layer: output spikes, summed
  double wave_ns = 0;               ///< wall time of all waves
  double covered_ns = 0;            ///< wave time covered by child spans
  double pool_wait_ns = 0;          ///< wave wall minus slot critical path
  double waves = 0;
  void resize(std::size_t layers) {
    layer_ns.assign(layers, 0);
    layer_calls.assign(layers, 0);
    in_nnz.assign(layers, 0);
    out_nnz.assign(layers, 0);
  }
};

/// One recorded span (steady-clock ns). Parent is a span index, -1 = root;
/// `id` is the sample (or wave) the span belongs to.
struct Span {
  std::uint64_t t0 = 0, t1 = 0;
  std::int64_t id = -1;
  std::int32_t name = 0;
  std::int32_t parent = -1;
};

/// Fixed-capacity in-memory span log; spans past capacity are counted and
/// dropped so recording never allocates.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}
  int intern(const std::string& name);  ///< set-up time only
  std::int64_t open() {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    return i < spans_.size() ? static_cast<std::int64_t>(i) : -1;
  }
  void close(std::int64_t slot, const Span& s) {
    if (slot >= 0) spans_[static_cast<std::size_t>(slot)] = s;
  }
  std::size_t size() const {
    return std::min(next_.load(std::memory_order_relaxed), spans_.size());
  }
  std::size_t dropped() const {
    const std::size_t n = next_.load(std::memory_order_relaxed);
    return n > spans_.size() ? n - spans_.size() : 0;
  }
  /// Chrome trace-event JSON (one "X" event per span).
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::vector<std::string> names_;
};

class Mirror {
 public:
  Mirror(const rt::InferenceEngine& engine, int workers);

  /// Run `n` images for `timesteps` steps from `images[first..]` (wrapping
  /// around the pool). `fresh` rebuilds lane states first, as each
  /// BatchRunner::run call does; otherwise lanes keep their history, as the
  /// server's do. Writes one MultiStepResult per image into `out` and, when
  /// `layers` is non-null, the per-layer InferenceResult of every step.
  void run(const std::vector<snn::Tensor>& images, std::size_t first,
           std::size_t n, int timesteps, bool fresh,
           std::vector<rt::MultiStepResult>& out,
           std::vector<rt::InferenceResult>* layers = nullptr,
           StepTimes* times = nullptr, SpanLog* log = nullptr);

  bool lockstep() const { return lockstep_; }

 private:
  void ensure_lanes(std::size_t n, bool fresh);

  const rt::InferenceEngine& engine_;
  int workers_;
  bool lockstep_;
  std::shared_ptr<rt::WorkerPool> pool_;
  std::vector<snn::NetworkState> states_;
  std::vector<rt::InferenceResult> steps_;
  std::vector<rt::InferenceEngine::BatchLane> lanes_;
  std::vector<double> slot_busy_;
  std::vector<double> acc_;  ///< [slot][layer] x {ns, calls, in_nnz, out_nnz}
  std::vector<int> span_names_;  ///< lane calls, layer steps, wave, sample
  std::int64_t seq_ = 0;         ///< running sample id for spans
  std::int64_t wave_seq_ = 0;
};

/// Spike counts of `image` over `timesteps` steps through the golden dense
/// reference on `quantized` (the engine's own network copy).
std::vector<std::uint32_t> reference_counts(const snn::Network& quantized,
                                            const snn::Tensor& image,
                                            int timesteps);

/// Seeded subset of the input pool the reference check covers.
std::vector<std::size_t> reference_subset(const Workload& w,
                                          std::uint64_t seed);

/// Modeled totals over a set of per-step layer results.
struct Modeled {
  double cycles = 0, energy_mj = 0, fpu_ops = 0, core_cycles = 0;
  double samples = 0;
  void add(const rt::InferenceResult& r);
  double ms_per_sample() const { return cycles / samples * 1e-6; }
  double fpu_util() const { return core_cycles > 0 ? fpu_ops / core_cycles : 0; }
  double mj_per_sample() const { return energy_mj / samples; }
};

// --- open-loop load generator -------------------------------------------------

/// Caller-owned request slots, reused across open-loop windows so a warm
/// generator allocates nothing.
struct SlotPool {
  explicit SlotPool(std::size_t n) : slots(n) {
    free.reserve(n);
    busy.reserve(n);
    for (std::size_t i = n; i-- > 0;) free.push_back(i);
  }
  std::vector<rt::ServeRequest> slots;
  std::vector<std::size_t> free;
  std::vector<std::pair<std::size_t, std::size_t>> busy;  ///< (slot, request)
};

struct OpenLoop {
  std::size_t attempted = 0, completed = 0, within_slo = 0;
  std::size_t dropped = 0;     ///< no free client slot at the send time
  std::size_t rejected = 0;    ///< submit() refused
  std::size_t unfinished = 0;  ///< timed out, errored or corrupted
  std::size_t mismatched = 0;  ///< served output differs from offline
  std::size_t allocs = 0;      ///< heap allocations between first send and drain
  double wall_s = 0;           ///< first due time -> last completion
  std::vector<double> latency_ms;  ///< scheduled send -> completion
  std::vector<double> late_ms;     ///< actual send - scheduled send
  std::vector<double> queue_ms;    ///< enqueue -> dispatch
  std::vector<double> service_ms;  ///< dispatch -> completion
};

/// Poisson arrivals at w.rate_rps for `seconds`: the arrival count is fixed
/// (rate x seconds) and the send times are uniform order statistics, i.e. a
/// Poisson process conditioned on its count, drawn from kScheduleSeed so the
/// offered load is the same for every seed; `seed` picks the image of each
/// request. Latency is timed from each request's scheduled send time.
/// `expect`, when given, is the offline result per input-pool image; `log`,
/// when given, receives a request span (scheduled send -> completion) with
/// its queue and service children for every completed request.
OpenLoop open_loop(rt::InferenceServer& server,
                   const std::vector<snn::Tensor>& inputs, const Workload& w,
                   double seconds, std::uint64_t seed, SlotPool& pool,
                   const std::vector<rt::MultiStepResult>* expect,
                   SpanLog* log = nullptr);

bool same_result(const rt::MultiStepResult& a, const rt::MultiStepResult& b);

/// Spike-count mismatches of the seeded reference subset; adds the checks
/// made to `attempted`.
std::size_t reference_mismatches(const Workload& w, std::uint64_t seed,
                                 const rt::InferenceEngine& engine,
                                 const std::vector<snn::Tensor>& inputs,
                                 const std::vector<rt::MultiStepResult>& canon,
                                 std::size_t& attempted);

std::unique_ptr<rt::BatchRunner> make_runner(const Workload& w,
                                             const snn::Network& net);

/// Expected outputs and modeled totals of the input pool, run through the
/// mirror in batches of w.batch: fresh lanes per batch, as each
/// BatchRunner::run call has, or (`warm_lanes`) lanes that one full wave
/// has already used, as a running server's are.
struct Canonical {
  std::vector<rt::MultiStepResult> out;   ///< per input-pool image
  std::vector<rt::InferenceResult> steps; ///< [image * timesteps + t]
  Modeled model;
  StepTimes times;                        ///< spike counts per layer
};
Canonical canonical_pass(const Workload& w, const rt::InferenceEngine& engine,
                         const std::vector<snn::Tensor>& inputs,
                         bool warm_lanes);

/// The serving workload's set-up (timed, repeated; the last server is kept)
/// and the offline results every served request is checked against: the
/// same engine configuration driven through the mirror with warm lanes, as
/// a server's lanes are after their first wave.
struct ServeFixture {
  ServeFixture(const Workload& w, const Args& a, SetupSplit* split = nullptr);
  /// Bring every lane and arena to steady state; returns open-loop windows
  /// run until one allocated nothing.
  std::size_t warm_up(const Workload& w, SlotPool& pool);

  std::vector<snn::Tensor> inputs;
  std::vector<double> setup_s;
  std::unique_ptr<rt::InferenceServer> server;
  Canonical canon;
  std::size_t ref_checks = 0, ref_bad = 0;
};

/// Threads beside the caller that a BatchRunner / InferenceServer fans out
/// on (the library does not expose them, so this mirrors its rule).
int runner_pool_threads(const rt::BatchRunner& runner);
int server_pool_threads();

/// Backend, cluster, worker and pool-thread counts as a JSON object.
std::string topology_json(const Workload& w, const rt::InferenceEngine& engine,
                          int workers, int pool_threads);

// --- raw record emitter -------------------------------------------------------

/// Builds one flat JSON object; numbers keep all 17 significant digits.
class Json {
 public:
  Json& num(const std::string& k, double v);
  Json& str(const std::string& k, const std::string& v);
  Json& raw(const std::string& k, const std::string& json);
  Json& arr(const std::string& k, const std::vector<double>& v);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  Json& key(const std::string& k);
  std::string body_;
};

double median(std::vector<double> v);

int run_timed(const Args& args, const Workload& w);
int run_traced(const Args& args, const Workload& w);

}  // namespace perfbench
