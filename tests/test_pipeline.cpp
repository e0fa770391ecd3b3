// Pipelined batch executor (runtime/pipeline.hpp): spike outputs and modeled
// cycles must be bit-identical to the serial BatchRunner for every pipeline
// depth, backend and cluster count — its lockstep waves and worker count may
// only change host wall-clock. Plus a scratch-aliasing stress test (more
// samples than lanes, repeated runs on one runner), the batch-level
// weight-tile reuse semantics that ride on the per-lane scratch, and
// row-tiled lockstep waves (InferenceEngine::run_layer_batch on a worker
// pool) against the serial per-sample path, and the per-lane tails a wave
// layer runs inside its backend job, checked at every after_layer hook.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernel_stats.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/multistep.hpp"
#include "runtime/pipeline.hpp"
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

void expect_equal_runs(const std::vector<rt::MultiStepResult>& a,
                       const std::vector<rt::MultiStepResult>& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spike_counts, b[i].spike_counts) << what << " sample " << i;
    EXPECT_DOUBLE_EQ(a[i].total_cycles, b[i].total_cycles)
        << what << " sample " << i;
    EXPECT_EQ(a[i].cycles_per_step, b[i].cycles_per_step)
        << what << " sample " << i;
  }
}

/// Every KernelStats field, bit for bit.
void expect_same_stats(const k::KernelStats& a, const k::KernelStats& b,
                       const std::string& where) {
#define SPK_EXPECT_SAME(field, rule) \
  EXPECT_EQ(a.field, b.field) << where << " " #field;
  SPIKESTREAM_KERNEL_COUNTERS(SPK_EXPECT_SAME)
#undef SPK_EXPECT_SAME
  EXPECT_EQ(a.active_cores, b.active_cores) << where;
  EXPECT_EQ(a.core_cycles, b.core_cycles) << where;
}

/// Conv layers with enough spikes to split into several row tiles per lane,
/// on 13 output rows: no block count other than 1 and 13 divides them
/// evenly. 64 output channels stream binary16 weight rows after FP16
/// quantization (on hosts with that fast path) and float rows under FP32.
snn::Network tile_net() {
  snn::Network net;
  snn::LayerSpec enc;
  enc.kind = snn::LayerKind::kEncodeConv;
  enc.name = "enc";
  enc.in_h = enc.in_w = 15;
  enc.in_c = 3;
  enc.k = 3;
  enc.out_c = 64;
  enc.pad_next = 1;
  net.add_layer(enc);
  snn::LayerSpec conv = enc;
  conv.kind = snn::LayerKind::kConv;
  conv.name = "conv";
  conv.in_c = 64;
  net.add_layer(conv);
  snn::LayerSpec fc;
  fc.kind = snn::LayerKind::kFc;
  fc.name = "fc";
  fc.in_c = 13 * 13 * 64;
  fc.out_c = 16;
  net.add_layer(fc);
  sc::Rng rng(7);
  net.init_weights(rng);
  const std::vector<double> targets = {0.3, 0.3, 0.3};
  snn::calibrate_thresholds(net, snn::make_batch(3, 8, 13, 13, 3), targets);
  return net;
}

}  // namespace

TEST(Pipeline, RowTiledWavesMatchSerialPerSamplePath) {
  // run_layer_batch on a pool splits conv and encode layers into (lane x
  // output-row-block) tiles: spikes, per-step cycles and every modeled stat
  // must equal the serial per-sample path whatever the lane count, thread
  // count, backend or weight-row format — including warm-weight accounting
  // (batch_weight_reuse) across timesteps and the segment-major FC sweep.
  const snn::Network net = tile_net();
  constexpr std::size_t kMaxLanes = 8;
  constexpr int kSteps = 3;
  const auto images = snn::make_batch(kMaxLanes, 19, 13, 13, 3);
  for (const auto fmt : {sc::FpFormat::FP16, sc::FpFormat::FP32}) {
    for (const auto kind :
         {rt::BackendKind::kAnalytical, rt::BackendKind::kCycleAccurate}) {
      k::RunOptions opt;
      opt.fmt = fmt;
      opt.batch_weight_reuse = true;
      opt.segment_major_lanes = static_cast<int>(kMaxLanes);
      rt::BackendConfig cfg;
      cfg.kind = kind;
      const rt::InferenceEngine engine(net, opt, cfg);
      std::vector<std::vector<rt::InferenceResult>> want(kMaxLanes);
      for (std::size_t i = 0; i < kMaxLanes; ++i) {
        snn::NetworkState st = engine.make_state();
        for (int t = 0; t < kSteps; ++t) {
          want[i].push_back(engine.run(images[i], st));
        }
      }
      for (const int threads : {0, 1, 3}) {
        rt::WorkerPool pool(threads);
        for (const std::size_t lanes : {1, 2, 3, 8}) {
          std::vector<snn::NetworkState> states;
          for (std::size_t i = 0; i < lanes; ++i) {
            states.push_back(engine.make_state());
          }
          std::vector<rt::InferenceResult> steps(lanes);
          std::vector<rt::InferenceEngine::BatchLane> wave(lanes);
          for (int t = 0; t < kSteps; ++t) {
            for (std::size_t i = 0; i < lanes; ++i) {
              engine.begin_sample(steps[i]);
              wave[i] = {&images[i], nullptr, &states[i], &steps[i]};
            }
            for (std::size_t l = 0; l < net.num_layers(); ++l) {
              engine.run_layer_batch(l, wave, &pool);
            }
            for (std::size_t i = 0; i < lanes; ++i) {
              const std::string where =
                  std::string(sc::fp_name(fmt)) + " " +
                  rt::backend_name(kind) + " threads=" +
                  std::to_string(threads) + " lanes=" +
                  std::to_string(lanes) + " lane " + std::to_string(i) +
                  " t=" + std::to_string(t);
              const rt::InferenceResult& w = want[i][static_cast<std::size_t>(t)];
              EXPECT_EQ(steps[i].final_output.v, w.final_output.v) << where;
              EXPECT_EQ(steps[i].total_cycles, w.total_cycles) << where;
              for (std::size_t l = 0; l < net.num_layers(); ++l) {
                const std::string at = where + " " + net.layer(l).name;
                EXPECT_EQ(steps[i].layers[l].out_firing_rate,
                          w.layers[l].out_firing_rate)
                    << at;
                expect_same_stats(steps[i].layers[l].stats, w.layers[l].stats,
                                  at);
              }
            }
          }
        }
      }
    }
  }
}

TEST(Pipeline, LaneTailsFinishBeforeAfterLayerHooks) {
  // A wave layer runs each lane's metrics-and-routing tail inside the
  // backend's pool job, on whichever executor finished the lane's last row
  // tile or its FC lane group. Every tail must be done by the time the
  // wave's after_layer hook fires: there, each lane's layer-l metrics must
  // already equal a per-lane run_layer oracle bit for bit and its carry
  // must be set. Lanes {1, 3, 5, 8} on 1, 2 and 4 slots give uneven FC lane
  // groups (1 + 1 + 1 + 2 lanes for 5 lanes on 4 slots).
  using BatchLane = rt::InferenceEngine::BatchLane;
  const snn::Network net = tile_net();
  const std::size_t layers = net.num_layers();
  constexpr std::size_t kMaxLanes = 8;
  constexpr int kSteps = 3;
  const auto images = snn::make_batch(kMaxLanes, 19, 13, 13, 3);

  struct Check final : rt::InferenceEngine::WaveHooks {
    // want[lane][t]: the oracle's result of timestep t.
    const std::vector<std::vector<rt::InferenceResult>>* want = nullptr;
    std::string label;
    std::size_t checked = 0;
    void after_layer(int t, std::size_t l,
                     std::span<BatchLane> wave) override {
      for (std::size_t i = 0; i < wave.size(); ++i) {
        const rt::InferenceResult& w =
            (*want)[i][static_cast<std::size_t>(t)];
        const rt::LayerMetrics& a = wave[i].out->layers[l];
        const rt::LayerMetrics& b = w.layers[l];
        const std::string at = label + " lane " + std::to_string(i) +
                               " t=" + std::to_string(t) + " " + b.name;
        EXPECT_EQ(a.name, b.name) << at;
        expect_same_stats(a.stats, b.stats, at);
        EXPECT_EQ(a.in_firing_rate, b.in_firing_rate) << at;
        EXPECT_EQ(a.out_firing_rate, b.out_firing_rate) << at;
        EXPECT_EQ(a.csr_bytes, b.csr_bytes) << at;
        EXPECT_EQ(a.aer_bytes, b.aer_bytes) << at;
        EXPECT_EQ(a.power_w, b.power_w) << at;
#define SPK_EXPECT_SAME_PJ(field) \
  EXPECT_EQ(a.energy.field, b.energy.field) << at << " energy." #field
        SPK_EXPECT_SAME_PJ(int_pj);
        SPK_EXPECT_SAME_PJ(icache_pj);
        SPK_EXPECT_SAME_PJ(fpu_pj);
        SPK_EXPECT_SAME_PJ(tcdm_pj);
        SPK_EXPECT_SAME_PJ(ssr_pj);
        SPK_EXPECT_SAME_PJ(dma_pj);
        SPK_EXPECT_SAME_PJ(noc_pj);
        SPK_EXPECT_SAME_PJ(static_pj);
#undef SPK_EXPECT_SAME_PJ
        if (l + 1 < w.layers.size()) {
          EXPECT_NE(wave[i].carry, nullptr) << at;
        } else {
          EXPECT_EQ(wave[i].out->final_output.v, w.final_output.v) << at;
        }
        ++checked;
      }
    }
  };

  for (const auto fmt : {sc::FpFormat::FP16, sc::FpFormat::FP32}) {
    k::RunOptions opt;
    opt.fmt = fmt;
    opt.batch_weight_reuse = true;
    opt.segment_major_lanes = static_cast<int>(kMaxLanes);
    const rt::InferenceEngine engine(net, opt);
    std::vector<std::vector<rt::InferenceResult>> want(kMaxLanes);
    for (std::size_t i = 0; i < kMaxLanes; ++i) {
      snn::NetworkState st = engine.make_state();
      for (int t = 0; t < kSteps; ++t) {
        rt::InferenceResult& out = want[i].emplace_back();
        engine.begin_sample(out);
        const snn::SpikeMap* carry = nullptr;
        for (std::size_t l = 0; l < layers; ++l) {
          carry = engine.run_layer(l, &images[i], carry, st, out);
        }
      }
    }
    for (const int threads : {0, 1, 3}) {
      rt::WorkerPool pool(threads);
      for (const std::size_t lanes : {1, 3, 5, 8}) {
        std::vector<snn::NetworkState> states;
        for (std::size_t i = 0; i < lanes; ++i) {
          states.push_back(engine.make_state());
        }
        std::vector<rt::InferenceResult> steps(lanes);
        std::vector<BatchLane> wave(lanes);
        for (std::size_t i = 0; i < lanes; ++i) {
          wave[i] = {&images[i], nullptr, &states[i], &steps[i]};
        }
        Check check;
        check.want = &want;
        check.label = std::string(sc::fp_name(fmt)) +
                      " threads=" + std::to_string(threads) +
                      " lanes=" + std::to_string(lanes);
        engine.run_wave(wave, kSteps, &pool, &check);
        EXPECT_EQ(check.checked, lanes * layers * kSteps) << check.label;
      }
    }
  }
}

TEST(Pipeline, ParityAcrossDepthsBackendsAndClusters) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(5, 99, 16, 16, 3);
  k::RunOptions opt;

  struct Case {
    rt::BackendKind kind;
    int clusters;
    const char* label;
  };
  const Case cases[] = {
      {rt::BackendKind::kAnalytical, 1, "analytical"},
      {rt::BackendKind::kCycleAccurate, 1, "cycle-accurate"},
      {rt::BackendKind::kSharded, 1, "sharded-1"},
      {rt::BackendKind::kSharded, 4, "sharded-4"},
      {rt::BackendKind::kSharded, 8, "sharded-8"},
  };
  for (const Case& c : cases) {
    rt::BackendConfig cfg;
    cfg.kind = c.kind;
    cfg.clusters = c.clusters;
    const rt::BatchRunner serial(net, opt, cfg, {}, /*workers=*/1);
    const auto want = serial.run(images, /*timesteps=*/3);
    for (const int depth : {1, 2, 4}) {
      const rt::PipelinedBatchRunner pipe(net, opt, cfg, {}, depth);
      const auto got = pipe.run(images, /*timesteps=*/3);
      expect_equal_runs(want, got, c.label);
    }
  }
}

TEST(Pipeline, SingleStepKeepsFullPerLayerMetrics) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 17, 16, 16, 3);
  k::RunOptions opt;
  const rt::BatchRunner serial(net, opt, {}, {}, /*workers=*/1);
  const auto want = serial.run_single_step(images);
  const rt::PipelinedBatchRunner pipe(net, opt, {}, {}, /*depth=*/2);
  const auto got = pipe.run_single_step(images);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].final_output.v, got[i].final_output.v) << i;
    ASSERT_EQ(want[i].layers.size(), got[i].layers.size()) << i;
    for (std::size_t l = 0; l < want[i].layers.size(); ++l) {
      EXPECT_DOUBLE_EQ(want[i].layers[l].stats.cycles,
                       got[i].layers[l].stats.cycles)
          << "sample " << i << " layer " << l;
      EXPECT_DOUBLE_EQ(want[i].layers[l].stats.fpu_ops,
                       got[i].layers[l].stats.fpu_ops)
          << "sample " << i << " layer " << l;
    }
  }
}

TEST(Pipeline, ScratchAliasingStress) {
  // More samples than lanes, repeated runs on one runner (lane states and
  // scratch arenas reused), odd depth vs sample-count combinations: every
  // run must reproduce the serial outputs exactly.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(7, 5, 16, 16, 3);
  k::RunOptions opt;
  const rt::BatchRunner serial(net, opt, {}, {}, /*workers=*/1);
  const auto want = serial.run(images, /*timesteps=*/2);
  for (const int depth : {2, 3, 5, 16}) {
    const rt::PipelinedBatchRunner pipe(net, opt, {}, {}, depth);
    for (int rep = 0; rep < 3; ++rep) {
      const auto got = pipe.run(images, /*timesteps=*/2);
      expect_equal_runs(want, got, "stress");
    }
  }
}

TEST(Pipeline, DegenerateInputs) {
  const snn::Network net = test_net();
  k::RunOptions opt;
  const rt::PipelinedBatchRunner pipe(net, opt, {}, {}, /*depth=*/2);
  EXPECT_TRUE(pipe.run({}, 2).empty());
  const auto images = snn::make_batch(2, 3, 16, 16, 3);
  const auto zero_steps = pipe.run(images, 0);
  ASSERT_EQ(zero_steps.size(), 2u);
  EXPECT_EQ(zero_steps[0].argmax(), -1);
  const auto one = pipe.run({images[0]}, 3);
  rt::InferenceEngine eng(net, opt);
  const auto want = rt::run_timesteps(eng, images[0], 3);
  EXPECT_EQ(want.spike_counts, one[0].spike_counts);
}

TEST(Pipeline, BatchWeightReuseSavesDmaWithoutChangingSpikes) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(3, 77, 16, 16, 3);
  k::RunOptions opt;
  k::RunOptions reuse_opt = opt;
  reuse_opt.batch_weight_reuse = true;

  const rt::PipelinedBatchRunner cold(net, opt, {}, {}, /*depth=*/1);
  const rt::PipelinedBatchRunner warm(net, reuse_opt, {}, {}, /*depth=*/1);
  const auto cold_res = cold.run_single_step(images);
  const auto warm_res = warm.run_single_step(images);
  ASSERT_EQ(cold_res.size(), warm_res.size());

  double saved = 0;
  for (std::size_t i = 0; i < cold_res.size(); ++i) {
    // Functional results are never affected by the DMA model.
    EXPECT_EQ(cold_res[i].final_output.v, warm_res[i].final_output.v) << i;
    for (std::size_t l = 0; l < cold_res[i].layers.size(); ++l) {
      const auto& cs = cold_res[i].layers[l].stats;
      const auto& ws = warm_res[i].layers[l].stats;
      EXPECT_EQ(cs.dma_saved_bytes, 0.0) << "reuse off must not save";
      saved += ws.dma_saved_bytes;
      // Saved bytes are really gone from the transfer volume.
      EXPECT_LE(ws.dma_bytes + ws.dma_saved_bytes, cs.dma_bytes + 1e-6)
          << "sample " << i << " layer " << l;
      EXPECT_LE(ws.cycles, cs.cycles + 1e-6) << "warm may only be faster";
    }
    if (i == 0) {
      // Depth 1 runs samples in order: the very first sample is all cold.
      EXPECT_EQ(saved, 0.0) << "first sample has no resident tiles";
    }
  }
  EXPECT_GT(saved, 0.0) << "later samples must reuse resident weight tiles";
  // Energy follows the reduced DMA traffic.
  EXPECT_LT(warm_res[2].total_energy_mj, cold_res[2].total_energy_mj);
}

TEST(Pipeline, BatchReuseColdStartVsSteadyStateSavings) {
  // Pins the cold-start vs steady-state split behind the historical
  // BENCH_host.json discrepancy (analytical+batchreuse 2.046 vs
  // pipelined+batchreuse 2.338 dma_saved MB/sample): pipelined lanes stay
  // warm across run() calls, so the first batch on fresh lanes has one cold
  // sample per lane while every later batch is fully warm. With a depth-1
  // pipeline and B samples that is (B-1) warm samples cold-start vs B warm
  // at steady state — the per-batch savings must satisfy
  //   saved_cold * B == saved_steady * (B - 1).
  const snn::Network net = test_net();
  const std::size_t B = 4;
  const auto images = snn::make_batch(B, 77, 16, 16, 3);
  k::RunOptions opt;
  opt.batch_weight_reuse = true;
  const rt::PipelinedBatchRunner runner(net, opt, {}, {}, /*depth=*/1);
  auto batch_saved = [&](const std::vector<rt::InferenceResult>& res) {
    double saved = 0;
    for (const auto& r : res) {
      for (const auto& m : r.layers) saved += m.stats.dma_saved_bytes;
    }
    return saved;
  };
  const double cold = batch_saved(runner.run_single_step(images));
  const double steady = batch_saved(runner.run_single_step(images));
  ASSERT_GT(cold, 0.0);
  EXPECT_GT(steady, cold);
  EXPECT_NEAR(cold * static_cast<double>(B),
              steady * static_cast<double>(B - 1), 1e-6);
  // And steady state is stable from then on.
  EXPECT_NEAR(batch_saved(runner.run_single_step(images)), steady, 1e-6);
}

TEST(Pipeline, LockstepLaneLifetimeUnderWeightReuse) {
  // A lane's weight residency (KernelScratch::weights_warm) survives the
  // NetworkState clear between waves, so under batch_weight_reuse the lane
  // lifetime is part of the modeled DMA. BatchRunner builds fresh lanes per
  // call: back-to-back calls report the same cycles. The pipelined runner
  // keeps its lanes warm across calls: the second call saves more than the
  // first, and every later call exactly as much as the second. 5 samples on
  // 3 lanes run two waves per call.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(5, 77, 16, 16, 3);
  k::RunOptions opt;
  opt.batch_weight_reuse = true;
  opt.segment_major_lanes = 3;
  const auto saved = [](const std::vector<rt::InferenceResult>& res) {
    double bytes = 0;
    for (const auto& r : res) {
      for (const auto& m : r.layers) bytes += m.stats.dma_saved_bytes;
    }
    return bytes;
  };

  const rt::BatchRunner batch(net, opt);
  const auto first = batch.run(images, 2);
  const auto second = batch.run(images, 2);
  expect_equal_runs(first, second, "back-to-back BatchRunner::run");
  const double batch_saved = saved(batch.run_single_step(images));
  EXPECT_GT(batch_saved, 0.0) << "weight reuse must be active";
  EXPECT_EQ(saved(batch.run_single_step(images)), batch_saved);

  const rt::PipelinedBatchRunner pipe(net, opt, {}, {}, /*depth=*/3);
  const double cold = saved(pipe.run_single_step(images));
  const double warm = saved(pipe.run_single_step(images));
  EXPECT_GT(warm, cold) << "warm lanes must carry over between calls";
  EXPECT_EQ(saved(pipe.run_single_step(images)), warm);
}

TEST(Pipeline, ShortCallKeepsWarmLanes) {
  // A call with fewer images than `depth` runs on the first lanes only and
  // keeps the others warm: were they dropped, the next full batch would pay
  // cold weight DMA again under batch_weight_reuse on the rebuilt lanes.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(6, 77, 16, 16, 3);
  const std::vector<snn::Tensor> one(images.begin(), images.begin() + 1);
  k::RunOptions opt;
  opt.batch_weight_reuse = true;
  const rt::PipelinedBatchRunner pipe(net, opt, {}, {}, /*depth=*/3,
                                      /*workers=*/1);
  const auto saved = [](const std::vector<rt::InferenceResult>& res) {
    double bytes = 0;
    for (const auto& r : res) {
      for (const auto& m : r.layers) bytes += m.stats.dma_saved_bytes;
    }
    return bytes;
  };
  const double cold = saved(pipe.run_single_step(images));
  const double warm = saved(pipe.run_single_step(images));
  EXPECT_GT(warm, cold) << "warm lanes must carry over between calls";
  EXPECT_GT(saved(pipe.run_single_step(one)), 0.0) << "lane 0 is warm";
  EXPECT_EQ(saved(pipe.run_single_step(images)), warm);
}

TEST(Pipeline, WeightReuseAccountingIndependentOfWorkerCount) {
  // Per-sample (not segment-major) weight reuse on the pipelined runner:
  // sample i runs on lane i mod depth, and the lanes keep their weight
  // residency across calls. Every modeled stat must equal an explicit
  // engine-level replay of that lane assignment, whatever the worker count.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(7, 41, 16, 16, 3);
  k::RunOptions opt;
  opt.batch_weight_reuse = true;
  opt.segment_major_lanes = 1;
  for (const int depth : {2, 3}) {
    for (const int workers : {1, 2, 4}) {
      const rt::PipelinedBatchRunner pipe(net, opt, {}, {}, depth, workers);
      const rt::InferenceEngine& engine = pipe.engine();
      std::vector<snn::NetworkState> states;
      for (int i = 0; i < depth; ++i) states.push_back(engine.make_state());
      double saved = 0;
      for (int call = 0; call < 2; ++call) {
        const auto got = pipe.run_single_step(images);
        ASSERT_EQ(got.size(), images.size());
        for (std::size_t i = 0; i < images.size(); ++i) {
          snn::NetworkState& st = states[i % static_cast<std::size_t>(depth)];
          st.clear();
          const rt::InferenceResult want = engine.run(images[i], st);
          const std::string where =
              "depth=" + std::to_string(depth) + " workers=" +
              std::to_string(workers) + " call " + std::to_string(call) +
              " sample " + std::to_string(i);
          EXPECT_EQ(got[i].final_output.v, want.final_output.v) << where;
          EXPECT_EQ(got[i].total_cycles, want.total_cycles) << where;
          ASSERT_EQ(got[i].layers.size(), want.layers.size()) << where;
          for (std::size_t l = 0; l < want.layers.size(); ++l) {
            expect_same_stats(got[i].layers[l].stats, want.layers[l].stats,
                              where + " " + net.layer(l).name);
            saved += want.layers[l].stats.dma_saved_bytes;
          }
        }
      }
      EXPECT_GT(saved, 0.0) << "weight reuse must be active";
    }
  }
}
