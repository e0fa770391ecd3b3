// Cold start stays bit-identical end to end: the raw FP32 He weights of
// S-VGG11, its weight image after FP16 and FP8 quantization, and the
// thresholds calibrated on the benchmark's calibration set, must match
// constants recorded with the serial He init, the scalar conversions
// (common::quantize, then a float -> half -> float check per weight) and a
// full sort for each threshold's order statistic. Rounding hides low-bit
// drift in the init itself, so the raw image is pinned on its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"
#include "snn/network.hpp"
#include "snn/reference.hpp"

namespace snn = spikestream::snn;
namespace sc = spikestream::common;

namespace {

struct LayerCrc {
  std::uint32_t v;
  std::uint32_t half;
};

/// S-VGG11 with He weights from seed 1 (the benchmark's weight seed).
snn::Network svgg11_seed1() {
  snn::Network net = snn::Network::make_svgg11();
  sc::Rng rng(1);
  net.init_weights(rng);
  return net;
}

void expect_crcs(const snn::Network& net, const std::vector<LayerCrc>& want) {
  ASSERT_EQ(want.size(), net.num_layers());
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const snn::LayerWeights& w = net.weights(l);
    EXPECT_TRUE(w.half_exact) << net.layer(l).name;
    EXPECT_EQ(w.v.size(), w.half.size()) << net.layer(l).name;
    EXPECT_EQ(want[l].v,
              sc::simd::crc32c(w.v.data(), w.v.size() * sizeof(float)))
        << net.layer(l).name;
    EXPECT_EQ(want[l].half,
              sc::simd::crc32c(w.half.data(),
                               w.half.size() * sizeof(std::uint16_t)))
        << net.layer(l).name;
  }
}

/// Whether this build fuses the dense encode conv's `acc += x * w` into one
/// FMA (the compiler may contract it where the target has FMA and the
/// optimizer runs). The probe's second product, (1 + 2^-12)^2, is not a
/// float: fused, the exact product lands on acc = -1 and leaves 2^-11 +
/// 2^-24; unfused, it is rounded first and 2^-11 remains.
bool encode_multiply_add_fused() {
  constexpr int kOut = 64;  // the vector body S-VGG11's conv1 runs
  snn::LayerWeights w;
  w.k = 1;
  w.in_c = 2;
  w.out_c = kOut;
  w.v.assign(2 * kOut, -1.0f);
  std::fill(w.v.begin() + kOut, w.v.end(), 1.0f + 0x1p-12f);
  snn::Tensor in(1, 1, 2);
  in.v = {1.0f, 1.0f + 0x1p-12f};
  const snn::Tensor out = snn::Reference::conv_currents_dense(in, w);
  return out.v[0] != 0x1p-11f;
}

}  // namespace

TEST(ColdStart, Svgg11RawHeWeightImageMatchesRecorded) {
  // S-VGG11 is above the set-up gate, so these weights come from the
  // chunked, threaded init; the constants were recorded with the serial
  // loop.
  const snn::Network net = svgg11_seed1();
  EXPECT_TRUE(net.threaded_setup());
  const std::uint32_t want[] = {0xA3BFB0D4u, 0x3CE87B0Fu, 0xC09C25D7u,
                                0xF91AB832u, 0xCA10BC3Fu, 0xC4545D53u,
                                0x6FF6BE57u, 0xB9492400u};
  ASSERT_EQ(std::size(want), net.num_layers());
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const std::vector<float>& v = net.weights(l).v;
    EXPECT_EQ(want[l], sc::simd::crc32c(v.data(), v.size() * sizeof(float)))
        << net.layer(l).name;
  }
}

TEST(ColdStart, Svgg11Fp16WeightImageMatchesRecorded) {
  snn::Network net = svgg11_seed1();
  net.quantize_weights(sc::FpFormat::FP16);
  expect_crcs(net, {{0x7D49A2B4u, 0x93771224u},
                    {0xB3C1A496u, 0x47780F1Au},
                    {0x8DC34CC8u, 0x06B9422Du},
                    {0x12FAAAC5u, 0xFBDAF6E9u},
                    {0x08F77145u, 0xAA8A3875u},
                    {0xEE0488C2u, 0x1E380F3Eu},
                    {0xD0307A7Du, 0xAFE47F63u},
                    {0xDEF0308Cu, 0x78F9F626u}});
}

TEST(ColdStart, Svgg11Fp8WeightImageMatchesRecorded) {
  snn::Network net = svgg11_seed1();
  net.quantize_weights(sc::FpFormat::FP8);
  expect_crcs(net, {{0x69D400A6u, 0xB6570688u},
                    {0xB67EC23Bu, 0x79EFD834u},
                    {0x3FC3448Au, 0x0DA0F3CFu},
                    {0x092CD877u, 0x6A11D04Cu},
                    {0xF805D656u, 0x6E591E48u},
                    {0x2D9AE4A0u, 0xDA162785u},
                    {0xC1F6EF0Bu, 0x1AE40A61u},
                    {0x39272B73u, 0x23C3F04Au}});
}

TEST(ColdStart, Svgg11CalibratedThresholdsMatchRecorded) {
  // The benchmark's calibration set: 4 images of 32x32x3 from seed 20, on
  // the unquantized seed-1 weights. Fusing the encode multiply-add moves
  // conv1's currents, and its threshold by one ulp; every later layer is the
  // same either way.
  snn::Network net = svgg11_seed1();
  const auto calib = snn::make_batch(4, 20, 32, 32, 3);
  snn::calibrate_thresholds(net, calib, snn::svgg11_target_rates());
  const std::uint32_t want[] = {
      encode_multiply_add_fused() ? 0x3F609359u : 0x3F609358u,
      0x3E8D2275u, 0x3F2AACB0u, 0x3F19437Cu, 0x3F8619ADu, 0x3F251149u,
      0x3F7CF39Du, 0x3F04BE6Eu};
  ASSERT_EQ(std::size(want), net.num_layers());
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    EXPECT_EQ(want[l], std::bit_cast<std::uint32_t>(net.layer(l).lif.v_th))
        << net.layer(l).name;
    EXPECT_EQ(net.layer(l).lif.v_th, net.layer(l).lif.v_rst)
        << net.layer(l).name;
  }
}
