// Host-performance profile of the simulator itself: how fast does the
// functional + cost pipeline execute on the machine running it? Times
// end-to-end batch inference on the calibrated S-VGG11 for every backend
// (after a warm-up of each row's runner) and reports samples/sec, ns per
// layer execution, and steady-state heap allocations per layer (counted by
// a global operator-new hook), then emits everything as BENCH_host.json so
// CI can archive a perf trajectory per PR.
//
//   SPIKESTREAM_BATCH  batch size (default 8)
//   SPIKESTREAM_REPS   timed repetitions of the batch (default 5)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "arch/dram/dram.hpp"
#include "bench/alloc_hook.hpp"
#include "bench/bench_common.hpp"
#include "bench/json_writer.hpp"
#include "runtime/backend.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/pipeline.hpp"

namespace {

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace bench = spikestream::bench;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds of untimed batches each row runs before its timed reps, the
/// warm-up perfbench's timed runs use. A fresh runner's pool workers can
/// start out time-sliced on the submitting thread's CPU and spread over the
/// others only about a second later: on a 4-vCPU host, jobs of 1 ms of work
/// in 16 tasks on a new 3-thread pool took about 1.02 ms for their first
/// 1.1 s and 0.27 ms after, and the first (analytical) row read 126.1
/// samples/s timed at once against 353.8 after the warm-up.
constexpr double kWarmupSeconds = 1.5;

struct BackendProfile {
  std::string name;
  double samples_per_sec = 0;
  double ns_per_layer = 0;
  double steady_allocs_per_layer = 0;
  /// Modeled whole-network DMA per sample at steady state (batch mean).
  double dma_mb_per_sample = 0;
  /// Batch-DMA savings (weight-tile reuse + segment-major), split by lane
  /// temperature — this is the resolution of the historical
  /// analytical+batchreuse (2.046) vs pipelined+batchreuse (2.338)
  /// discrepancy: pipelined lanes stay warm across run() calls, so its
  /// steady-state batches skip one more cold sample per lane than the very
  /// first batch does, while BatchRunner rebuilds its states every call and
  /// therefore reports cold-start numbers forever. `cold` is the first
  /// batch on freshly built lanes; `steady` is a batch after the lanes have
  /// history (tests/test_pipeline.cpp pins cold*B == steady*(B-1) for a
  /// depth-1 pipeline).
  double dma_saved_mb_cold = 0;
  double dma_saved_mb_steady = 0;
  /// Which workload this row ran (svgg11 or widefc).
  std::string network = "svgg11";
  /// Banked-DRAM row-buffer outcomes, whole network (0 in flat-legacy mode).
  double row_hit_rate = 0;
  /// Spill/fill cycles hidden under the band weight stream by the
  /// double-buffered segment-major schedule, per sample (Mcycles).
  double hidden_mcycles_per_sample = 0;
  /// Modeled whole-network cycles per sample at steady state (Mcycles) —
  /// what the memory model actually prices, so DRAM-timing regressions are
  /// visible even when host throughput is unchanged.
  double modeled_mcycles_per_sample = 0;
};

/// Shared profiling body over any runner with run_single_step() + engine():
/// BatchRunner (sample fan-out, or fresh lockstep waves under segment-major)
/// and PipelinedBatchRunner (lockstep waves of `depth` warm lanes).
template <typename Runner>
BackendProfile profile_runner(const std::string& label, const Runner& runner,
                              const std::vector<snn::Tensor>& images,
                              int reps) {
  BackendProfile prof;
  prof.name = label;
  const std::size_t layers = runner.engine().network().num_layers();
  const double n = static_cast<double>(images.size());

  auto batch_saved = [](const std::vector<rt::InferenceResult>& results) {
    double saved = 0;
    for (const rt::InferenceResult& res : results) {
      for (const auto& m : res.layers) saved += m.stats.dma_saved_bytes;
    }
    return saved;
  };

  // Cold-start savings: the very first batch this runner executes, before
  // any lane has weight-residency history.
  prof.dma_saved_mb_cold = batch_saved(runner.run_single_step(images)) /
                           (1e6 * n);

  // Throughput: timed batch repetitions, after the warm-up.
  for (const double w0 = now_s(); now_s() - w0 < kWarmupSeconds;) {
    runner.run_single_step(images);
  }
  const double t0 = now_s();
  for (int r = 0; r < reps; ++r) runner.run_single_step(images);
  const double dt = now_s() - t0;
  const double sample_runs = static_cast<double>(reps) * images.size();
  prof.samples_per_sec = sample_runs / dt;
  prof.ns_per_layer = dt * 1e9 / (sample_runs * static_cast<double>(layers));

  // Steady-state savings + whole-network modeled DMA per sample.
  {
    const auto results = runner.run_single_step(images);
    prof.dma_saved_mb_steady = batch_saved(results) / (1e6 * n);
    double dma = 0, hits = 0, misses = 0, hidden = 0, cycles = 0;
    for (const rt::InferenceResult& res : results) {
      for (const auto& m : res.layers) {
        dma += m.stats.dma_bytes;
        hits += m.stats.dma_row_hits;
        misses += m.stats.dma_row_misses;
        hidden += m.stats.dma_cycles_hidden;
        cycles += m.stats.cycles;
      }
    }
    prof.dma_mb_per_sample = dma / (1e6 * n);
    prof.row_hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    prof.hidden_mcycles_per_sample = hidden / (1e6 * n);
    prof.modeled_mcycles_per_sample = cycles / (1e6 * n);
  }

  // Steady-state allocations: one engine, one state, one reused result —
  // this measures the shared per-layer hot path (backend + kernels +
  // scratch arenas), which is identical for every runner wrapping the same
  // engine. Runner-level orchestration (batch fan-out, wave lanes) is
  // excluded here because the by-value result marshalling both runners
  // return would drown the signal; its steady-state behavior is pinned by
  // tests/test_scratch_reuse.cpp instead.
  {
    const rt::InferenceEngine& engine = runner.engine();
    snn::NetworkState state = engine.make_state();
    rt::InferenceResult out;
    // Warm until occupancy (and with it every arena capacity) settles:
    // membranes keep integrating the constant input for a few timesteps.
    for (int r = 0; r < 6; ++r) engine.run(images[0], state, out);
    const std::size_t before = spikestream::alloc_hook::allocs();
    const int alloc_runs = 10;
    for (int r = 0; r < alloc_runs; ++r) engine.run(images[0], state, out);
    const std::size_t after = spikestream::alloc_hook::allocs();
    prof.steady_allocs_per_layer =
        static_cast<double>(after - before) /
        (static_cast<double>(alloc_runs) * static_cast<double>(layers));
  }
  return prof;
}

BackendProfile profile_backend(const std::string& label,
                               const snn::Network& net,
                               const k::RunOptions& opt,
                               const rt::BackendConfig& cfg,
                               const std::vector<snn::Tensor>& images,
                               int reps, int workers = 0) {
  const rt::BatchRunner runner(net, opt, cfg, {}, workers);
  return profile_runner(label, runner, images, reps);
}

BackendProfile profile_pipelined(const std::string& label,
                                 const snn::Network& net,
                                 const k::RunOptions& opt,
                                 const rt::BackendConfig& cfg, int depth,
                                 const std::vector<snn::Tensor>& images,
                                 int reps) {
  const rt::PipelinedBatchRunner runner(net, opt, cfg, {}, depth);
  return profile_runner(label, runner, images, reps);
}

}  // namespace

int main() {
  const int batch = bench::batch_size_from_env(8);
  int reps = 5;
  if (const char* e = std::getenv("SPIKESTREAM_REPS")) {
    if (std::atoi(e) > 0) reps = std::atoi(e);
  }

  const snn::Network net = bench::make_calibrated_svgg11();
  const k::RunOptions opt;
  const auto images =
      snn::make_batch(static_cast<std::size_t>(batch), 77);

  std::vector<BackendProfile> profiles;
  {
    rt::BackendConfig cfg;  // analytical, exact timing
    profiles.push_back(
        profile_backend("analytical", net, opt, cfg, images, reps));
  }
  {
    rt::BackendConfig cfg;
    cfg.kind = rt::BackendKind::kCycleAccurate;
    profiles.push_back(
        profile_backend("cycle-accurate", net, opt, cfg, images, reps));
  }
  {
    rt::BackendConfig cfg;
    cfg.kind = rt::BackendKind::kSharded;
    cfg.clusters = 4;
    profiles.push_back(
        profile_backend("sharded-4", net, opt, cfg, images, reps));
  }
  {
    // Warm-lane pipelined runner: lockstep waves of 4 lanes, sample i on
    // lane i mod 4, lanes kept across calls.
    rt::BackendConfig cfg;
    profiles.push_back(profile_pipelined("analytical+pipelined", net, opt,
                                         cfg, /*depth=*/4, images, reps));
  }
  {
    // Batch-level weight-tile reuse: SPM-resident weight tiles survive
    // between samples, skipping the weight DMA on warm samples. The
    // BatchRunner row runs single-worker so which samples are cold is
    // deterministic (multithreaded slots are assigned by a racing claim
    // order — see RunOptions::batch_weight_reuse); the pipelined row's
    // lane rotation is deterministic at any width.
    k::RunOptions reuse_opt = opt;
    reuse_opt.batch_weight_reuse = true;
    rt::BackendConfig cfg;
    profiles.push_back(profile_backend("analytical+batchreuse", net,
                                       reuse_opt, cfg, images, reps,
                                       /*workers=*/1));
    profiles.push_back(profile_pipelined("pipelined+batchreuse", net,
                                         reuse_opt, cfg, /*depth=*/4, images,
                                         reps));
  }
  {
    // Segment-major batched FC execution: the batch loop inverts for
    // segmented FC layers (fc7 holds 73% of the cold whole-batch DMA), so
    // each fan-in weight band streams once per lockstep wave. Stacked on
    // batch_weight_reuse so convs keep their pinned tiles too.
    k::RunOptions sm_opt = opt;
    sm_opt.batch_weight_reuse = true;
    sm_opt.segment_major_lanes = batch;
    rt::BackendConfig cfg;
    profiles.push_back(profile_backend("analytical+segmajor", net, sm_opt,
                                       cfg, images, reps, /*workers=*/1));
    profiles.push_back(profile_pipelined("pipelined+segmajor", net, sm_opt,
                                         cfg, /*depth=*/batch, images, reps));
  }

  {
    // Banked-DRAM row on the segment-major schedule: same workload, the
    // row-buffer timing model priced in. Spikes are bit-identical to the
    // flat rows (tests/test_dram.cpp); what changes is the modeled
    // cycle/row-hit profile below.
    k::RunOptions banked_opt = opt;
    banked_opt.batch_weight_reuse = true;
    banked_opt.segment_major_lanes = batch;
    banked_opt.cost.dram = spikestream::arch::DramConfig::banked();
    rt::BackendConfig cfg;
    profiles.push_back(profile_backend("analytical+banked+segmajor", net,
                                       banked_opt, cfg, images, reps,
                                       /*workers=*/1));
  }

  // Wide-FC spill vehicle: S-VGG11 at batch 8 spills zero partial-sum
  // bytes, so the double-buffered spill/fill needs its own workload — an
  // FC-heavy net whose wide layer parks batch lanes (see
  // snn::Network::make_wide_fc). Three rows: flat pricing, banked with the
  // double-buffered spill/fill, banked with serial spills — the last two
  // isolate the modeled-cycle reduction from spill hiding. The rows run
  // single-buffered (cycles = dma + compute) so the memory timeline is
  // exposed 1:1 in wall-clock — with compute/DMA overlap on, fc2's wave
  // compute would swallow the DMA delta — and at batch >= 32 so lanes still
  // park next to the (smaller) single-buffered streaming set.
  const int wide_batch = std::max(batch, 32);
  const snn::Network wide_net = bench::make_calibrated_wide_fc();
  const auto wide_images =
      snn::make_batch(static_cast<std::size_t>(wide_batch), 78);
  {
    k::RunOptions wopt = opt;
    wopt.batch_weight_reuse = true;
    wopt.segment_major_lanes = wide_batch;
    wopt.double_buffer = false;
    rt::BackendConfig cfg;
    profiles.push_back(profile_backend("widefc+segmajor", wide_net, wopt, cfg,
                                       wide_images, reps, /*workers=*/1));
    wopt.cost.dram = spikestream::arch::DramConfig::banked();
    wopt.cost.dram.spill_double_buffer = false;
    profiles.push_back(profile_backend("widefc+banked+serialspill", wide_net,
                                       wopt, cfg, wide_images, reps,
                                       /*workers=*/1));
    wopt.cost.dram.spill_double_buffer = true;
    profiles.push_back(profile_backend("widefc+banked+segmajor", wide_net,
                                       wopt, cfg, wide_images, reps,
                                       /*workers=*/1));
    for (std::size_t i = profiles.size() - 3; i < profiles.size(); ++i) {
      profiles[i].network = "widefc";
    }
  }

  std::printf("host profile: S-VGG11 batch %d + wide-FC batch %d, %d reps, "
              "%u hw threads\n",
              batch, wide_batch, reps,
              std::max(1u, std::thread::hardware_concurrency()));
  std::printf("%-26s %11s %11s %13s %11s %11s %11s %8s %8s\n", "backend",
              "samples/s", "ns/layer", "allocs/layer", "dma MB/s.",
              "saved stdy", "Mcyc/s.", "rowhit", "hidden");
  for (const auto& p : profiles) {
    std::printf(
        "%-26s %11.1f %11.0f %13.3f %11.3f %11.3f %11.3f %8.3f %8.3f\n",
        p.name.c_str(), p.samples_per_sec, p.ns_per_layer,
        p.steady_allocs_per_layer, p.dma_mb_per_sample, p.dma_saved_mb_steady,
        p.modeled_mcycles_per_sample, p.row_hit_rate,
        p.hidden_mcycles_per_sample);
  }

  // BENCH_host.json: one flat record per backend, easy to diff across PRs.
  // dma_saved_mb_per_sample stays as an alias of the steady-state column so
  // older regression baselines keep comparing.
  // Host identity: throughput numbers are only comparable between runs on
  // similar machines, so the regression script refuses the samples/sec
  // compare when the recorded concurrency differs (modeled-cycle and
  // allocation columns stay comparable regardless — they are host-invariant).
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  std::string host_os = "unknown", host_machine = "unknown";
#if defined(__linux__) || defined(__APPLE__)
  {
    utsname uts{};
    if (uname(&uts) == 0) {
      host_os = uts.sysname;
      host_machine = uts.machine;
    }
  }
#endif

  if (std::FILE* f = std::fopen("BENCH_host.json", "w")) {
    spikestream::bench::JsonWriter w(f, /*compact_depth=*/2);
    w.begin_object();
    w.field("bench", "host_profile");
    w.field("network", "svgg11");
    w.field("batch", batch);
    w.field("host_concurrency", hw_threads);
    w.field("host_os", host_os);
    w.field("host_machine", host_machine);
    w.field("reps", reps);
    w.key("backends");
    w.begin_array();
    for (const auto& p : profiles) {
      w.begin_object();
      w.field("name", p.name);
      w.field("network", p.network);
      w.field("samples_per_sec", p.samples_per_sec, 2);
      w.field("ns_per_layer", p.ns_per_layer, 1);
      w.field("steady_allocs_per_layer", p.steady_allocs_per_layer, 4);
      w.field("dma_mb_per_sample", p.dma_mb_per_sample, 4);
      w.field("dma_saved_mb_cold", p.dma_saved_mb_cold, 4);
      w.field("dma_saved_mb_steady", p.dma_saved_mb_steady, 4);
      // Alias of the steady column so older regression baselines compare.
      w.field("dma_saved_mb_per_sample", p.dma_saved_mb_steady, 4);
      w.field("modeled_mcycles_per_sample", p.modeled_mcycles_per_sample, 4);
      w.field("row_hit_rate", p.row_hit_rate, 4);
      w.field("hidden_mcycles_per_sample", p.hidden_mcycles_per_sample, 4);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote BENCH_host.json\n");
  }
  return 0;
}
