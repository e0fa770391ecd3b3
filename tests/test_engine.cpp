// End-to-end inference engine: spike outputs must match the golden reference
// on the quantized network, and the aggregate metrics must show the paper's
// qualitative results (speedup, utilization jump, energy ordering).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "runtime/engine.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"
#include "snn/reference.hpp"

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;

namespace {

snn::Network calibrated_tiny(std::uint64_t seed) {
  snn::Network net = snn::Network::make_tiny(12, 3, 16, 6);
  sc::Rng rng(seed);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, seed + 1, 10, 10, 3);
  const std::vector<double> targets = {0.25, 0.2, 0.3};
  snn::calibrate_thresholds(net, calib, targets);
  return net;
}

}  // namespace

TEST(Engine, MatchesReferenceOnQuantizedNetwork) {
  const snn::Network net = calibrated_tiny(31);
  for (auto fmt : {sc::FpFormat::FP32, sc::FpFormat::FP16, sc::FpFormat::FP8}) {
    for (auto variant : {k::Variant::kBaseline, k::Variant::kSpikeStream}) {
      k::RunOptions opt;
      opt.variant = variant;
      opt.fmt = fmt;
      rt::InferenceEngine eng(net, opt);
      // The reference must see the same quantized weights.
      snn::Network qnet = net;
      qnet.quantize_weights(fmt);
      snn::Reference ref(qnet);

      const auto images = snn::make_batch(2, 77, 10, 10, 3);
      for (const auto& img : images) {
        eng.reset();
        ref.reset();
        const auto res = eng.run(img);
        const auto& io = ref.step(img);
        ASSERT_EQ(res.layers.size(), io.size());
        EXPECT_EQ(res.final_output.v, io.back().output.v)
            << sc::fp_name(fmt) << "/" << k::variant_name(variant);
      }
    }
  }
}

TEST(Engine, PerLayerMetricsPopulated) {
  const snn::Network net = calibrated_tiny(32);
  k::RunOptions opt;
  rt::InferenceEngine eng(net, opt);
  const auto img = snn::make_batch(1, 5, 10, 10, 3)[0];
  const auto res = eng.run(img);
  ASSERT_EQ(res.layers.size(), 3u);
  for (const auto& m : res.layers) {
    EXPECT_GT(m.stats.cycles, 0.0) << m.name;
    EXPECT_GT(m.energy.total_mj(), 0.0) << m.name;
    EXPECT_GT(m.power_w, 0.01) << m.name;
    EXPECT_LT(m.power_w, 2.0) << m.name;
  }
  // Conv/FC layers carry compression footprints.
  EXPECT_GT(res.layers[1].csr_bytes, 0.0);
  EXPECT_GT(res.layers[1].aer_bytes, 0.0);
  EXPECT_GT(res.total_cycles, 0.0);
  EXPECT_GT(res.total_energy_mj, 0.0);
}

TEST(Engine, SpikeStreamBeatsBaselineEndToEnd) {
  const snn::Network net = calibrated_tiny(33);
  k::RunOptions base, ss;
  base.variant = k::Variant::kBaseline;
  ss.variant = k::Variant::kSpikeStream;
  rt::InferenceEngine eb(net, base), es(net, ss);
  const auto img = snn::make_batch(1, 6, 10, 10, 3)[0];
  const auto rb = eb.run(img);
  const auto rs = es.run(img);
  EXPECT_GT(rb.total_cycles / rs.total_cycles, 1.5);
  EXPECT_LT(rs.total_energy_mj, rb.total_energy_mj);
}

TEST(Engine, MembranePersistsAcrossTimestepsUntilReset) {
  const snn::Network net = calibrated_tiny(34);
  k::RunOptions opt;
  rt::InferenceEngine eng(net, opt);
  snn::Network qnet = net;
  qnet.quantize_weights(opt.fmt);
  snn::Reference ref(qnet);
  const auto img = snn::make_batch(1, 7, 10, 10, 3)[0];
  // Two consecutive timesteps without reset must track the reference's two
  // timesteps (membrane carry-over included).
  const auto r1 = eng.run(img);
  const auto& io1 = ref.step(img);
  EXPECT_EQ(r1.final_output.v, io1.back().output.v);
  const auto r2 = eng.run(img);
  const auto& io2 = ref.step(img);
  EXPECT_EQ(r2.final_output.v, io2.back().output.v);
}

TEST(Engine, RejectsImagesThatDoNotFitTheEncodeLayer) {
  // The encode layer's input is 12x12x3 (10x10 images padded by 1). Every
  // other image shape must fail loudly in the engine and in the reference —
  // an image two or more rows too tall used to reach the padding copy with a
  // negative pad and write out of bounds.
  const snn::Network net = calibrated_tiny(36);
  k::RunOptions opt;
  const rt::InferenceEngine eng(net, opt);
  snn::Network qnet = net;
  qnet.quantize_weights(opt.fmt);
  struct Case {
    const char* what;
    int h, w, c;
  };
  const Case cases[] = {
      {"too tall", 14, 10, 3},
      {"odd size difference", 11, 11, 3},
      {"wrong width", 10, 12, 3},
      {"wrong channels", 10, 10, 4},
  };
  for (const Case& c : cases) {
    const snn::Tensor img(c.h, c.w, c.c);
    snn::NetworkState state = eng.make_state();
    EXPECT_THROW(eng.run(img, state), spikestream::Error) << c.what;
    snn::Reference ref(qnet);
    EXPECT_THROW(ref.step(img), spikestream::Error) << c.what;
  }
  // The engine is unharmed: a well-formed image still matches the reference.
  const auto img = snn::make_batch(1, 8, 10, 10, 3)[0];
  snn::NetworkState state = eng.make_state();
  snn::Reference ref(qnet);
  EXPECT_EQ(eng.run(img, state).final_output.v, ref.step(img).back().output.v);
}

TEST(Engine, RejectsMalformedRunOptions) {
  // A core or lane count below one must fail when the engine is built, not
  // on the first run: cores = 0 used to build an engine whose first run
  // crashed, cores < 0 threw std::length_error from inside the timing pass,
  // and segment_major_lanes < 0 made BatchRunner run the whole batch as one
  // wave while the planner and the server treated it as off.
  const snn::Network net = calibrated_tiny(37);
  struct Case {
    const char* what;
    int cores, lanes;
  };
  const Case cases[] = {
      {"cores = 0", 0, 1},
      {"cores = -2", -2, 1},
      {"segment_major_lanes = 0", 8, 0},
      {"segment_major_lanes = -1", 8, -1},
  };
  for (const Case& c : cases) {
    k::RunOptions opt;
    opt.cores = c.cores;
    opt.segment_major_lanes = c.lanes;
    EXPECT_THROW(rt::InferenceEngine(net, opt), spikestream::Error) << c.what;
  }
  EXPECT_NO_THROW(rt::InferenceEngine(net, k::RunOptions{}));
}

TEST(Engine, Svgg11SingleImageAllLayersConsistent) {
  // One full S-VGG11 image through both variants: spikes must agree layer by
  // layer (same math, different timing models).
  snn::Network net = snn::Network::make_svgg11();
  sc::Rng rng(35);
  net.init_weights(rng);
  const auto calib = snn::make_batch(2, 99);
  snn::calibrate_thresholds(net, calib, snn::svgg11_target_rates());

  k::RunOptions base, ss;
  base.variant = k::Variant::kBaseline;
  base.fmt = sc::FpFormat::FP16;
  ss.variant = k::Variant::kSpikeStream;
  ss.fmt = sc::FpFormat::FP16;
  rt::InferenceEngine eb(net, base), es(net, ss);
  const auto img = snn::make_batch(1, 123)[0];
  const auto rb = eb.run(img);
  const auto rs = es.run(img);
  ASSERT_EQ(rb.layers.size(), 8u);
  for (std::size_t l = 0; l < 8; ++l) {
    EXPECT_DOUBLE_EQ(rb.layers[l].out_firing_rate, rs.layers[l].out_firing_rate)
        << "layer " << l;
    EXPECT_GT(rb.layers[l].stats.cycles, rs.layers[l].stats.cycles)
        << "layer " << l;
  }
  EXPECT_EQ(rb.final_output.v, rs.final_output.v);
  // End-to-end speedup in the paper's ballpark (4.39x e2e reported).
  const double speedup = rb.total_cycles / rs.total_cycles;
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 7.5);
}
