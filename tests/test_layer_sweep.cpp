// Property sweep: functional equivalence of every kernel variant with the
// golden reference across layer geometries, firing rates and FP formats.
// One behaviour per combination: "the optimized kernel never changes the
// math" — the invariant everything else in the repo rests on.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/layer_kernels.hpp"
#include "snn/lif.hpp"
#include "snn/reference.hpp"

namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;
namespace cp = spikestream::compress;

namespace {

snn::SpikeMap bernoulli_map(int h, int w, int c, double rate,
                            std::uint64_t seed) {
  sc::Rng rng(seed);
  snn::SpikeMap s(h, w, c);
  for (int y = 1; y < h - 1; ++y) {
    for (int x = 1; x < w - 1; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        s.at(y, x, ch) = rng.bernoulli(rate) ? 1 : 0;
      }
    }
  }
  return s;
}

snn::LayerWeights random_weights(int kk, int in_c, int out_c,
                                 std::uint64_t seed, sc::FpFormat fmt) {
  sc::Rng rng(seed);
  snn::LayerWeights w;
  w.k = kk;
  w.in_c = in_c;
  w.out_c = out_c;
  w.v.resize(static_cast<std::size_t>(kk) * kk * in_c * out_c);
  for (auto& x : w.v) {
    x = sc::quantize(static_cast<float>(rng.normal(0.0, 0.1)), fmt);
  }
  return w;
}

/// Bit-for-bit equality of two float planes (== would equate -0 and +0).
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

}  // namespace

/// `half` additionally packs the weights as binary16 (LayerWeights::half),
/// the rows FP16 layers stream on hosts with AVX-512 + F16C.
using SweepParam = std::tuple<int /*in_c*/, int /*out_c*/, double /*rate*/,
                              sc::FpFormat, k::Variant, bool /*half*/>;

class ConvSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConvSweep, KernelEqualsReference) {
  const auto [in_c, out_c, rate, fmt, variant, half] = GetParam();
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kConv;
  spec.name = "sweep";
  spec.in_h = spec.in_w = 11;
  spec.in_c = in_c;
  spec.k = 3;
  spec.out_c = out_c;
  spec.lif.v_th = 0.5f;
  spec.lif.v_rst = 0.5f;
  auto w = random_weights(3, in_c, out_c, 1234, fmt);
  if (half) {
    w.build_half();
    ASSERT_TRUE(w.half_exact);
  }
  const auto in = bernoulli_map(11, 11, in_c,
                                rate, 99 + static_cast<std::uint64_t>(in_c));
  const auto csr = cp::CsrIfmap::encode(in);

  const snn::Tensor ref_currents = snn::Reference::conv_currents(in, w);
  snn::Tensor ref_mem(spec.out_h(), spec.out_w(), out_c);
  const snn::SpikeMap expect = snn::lif_step(spec.lif, ref_currents, ref_mem);

  k::RunOptions opt;
  opt.variant = variant;
  opt.fmt = fmt;
  snn::Tensor mem(spec.out_h(), spec.out_w(), out_c);
  const auto run = k::run_conv_layer(spec, w, csr, mem, opt);
  EXPECT_EQ(run.out_spikes.v, expect.v);
  EXPECT_GE(run.stats.cycles, run.stats.compute_cycles * 0.5);
  if (snn::spike_count(in) > 0) {
    EXPECT_GT(run.stats.fpu_ops, 0.0);
  }

  // The same layer as three unequal output-row tiles, run out of order.
  k::KernelScratch tiles;
  snn::Tensor tile_mem(spec.out_h(), spec.out_w(), out_c);
  k::begin_row_tiles(spec, tile_mem, tiles);
  const std::pair<int, int> blocks[] = {{6, 9}, {0, 2}, {2, 6}};
  std::size_t fired = 0;
  for (const auto& [oy0, oy1] : blocks) {
    fired += k::conv_functional_rows(spec, w, csr, tile_mem, tiles, oy0, oy1);
  }
  EXPECT_TRUE(same_bits(tiles.currents.v, ref_currents.v));
  EXPECT_TRUE(same_bits(tile_mem.v, ref_mem.v));
  EXPECT_EQ(tiles.run.out_spikes.v, expect.v);
  EXPECT_EQ(fired, snn::spike_count(expect));
}

// out_c 1, 8 and 10 (and 4 and 16) take the one-register narrow accumulate
// in AVX-512 builds; 10 ends in a partial SIMD group.
INSTANTIATE_TEST_SUITE_P(
    Geometry, ConvSweep,
    ::testing::Combine(::testing::Values(8, 24, 64),
                       ::testing::Values(1, 4, 8, 10, 16, 40),
                       ::testing::Values(0.0, 0.05, 0.3, 0.9),
                       ::testing::Values(sc::FpFormat::FP16),
                       ::testing::Values(k::Variant::kBaseline,
                                         k::Variant::kSpikeStream,
                                         k::Variant::kDenseNoTc),
                       ::testing::Values(false)));

INSTANTIATE_TEST_SUITE_P(
    Formats, ConvSweep,
    ::testing::Combine(::testing::Values(16),
                       ::testing::Values(24),
                       ::testing::Values(0.2),
                       ::testing::Values(sc::FpFormat::FP64, sc::FpFormat::FP32,
                                         sc::FpFormat::FP16, sc::FpFormat::FP8),
                       ::testing::Values(k::Variant::kBaseline,
                                         k::Variant::kSpikeStream,
                                         k::Variant::kDenseNoTc),
                       ::testing::Values(false)));

// Binary16 weight rows: output widths that are whole 16-lane vectors, so
// the half-row path runs wherever the host supports it.
INSTANTIATE_TEST_SUITE_P(
    HalfRows, ConvSweep,
    ::testing::Combine(::testing::Values(8, 24, 64),
                       ::testing::Values(16, 48),
                       ::testing::Values(0.05, 0.3, 0.9),
                       ::testing::Values(sc::FpFormat::FP16),
                       ::testing::Values(k::Variant::kSpikeStream),
                       ::testing::Values(true)));

using FcParam = std::tuple<int /*in_c*/, int /*out_c*/, double /*rate*/,
                           k::Variant>;

class FcSweep : public ::testing::TestWithParam<FcParam> {};

TEST_P(FcSweep, KernelEqualsReference) {
  const auto [in_c, out_c, rate, variant] = GetParam();
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kFc;
  spec.name = "fc_sweep";
  spec.in_c = in_c;
  spec.out_c = out_c;
  spec.lif.v_th = 0.4f;
  spec.lif.v_rst = 0.4f;
  const auto w = random_weights(1, in_c, out_c, 77, sc::FpFormat::FP16);
  sc::Rng rng(5 + static_cast<std::uint64_t>(in_c));
  snn::SpikeMap in(1, 1, in_c);
  for (auto& b : in.v) b = rng.bernoulli(rate) ? 1 : 0;
  const auto csr = cp::CsrIfmap::encode(in);

  snn::Tensor ref_mem(1, 1, out_c);
  const snn::SpikeMap expect =
      snn::lif_step(spec.lif, snn::Reference::fc_currents(in, w), ref_mem);

  k::RunOptions opt;
  opt.variant = variant;
  snn::Tensor mem(1, 1, out_c);
  const auto run = k::run_fc_layer(spec, w, csr, mem, opt);
  EXPECT_EQ(run.out_spikes.v, expect.v);
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, FcSweep,
    ::testing::Combine(::testing::Values(64, 300, 2048),
                       ::testing::Values(3, 10, 64),
                       ::testing::Values(0.0, 0.1, 0.5),
                       ::testing::Values(k::Variant::kBaseline,
                                         k::Variant::kSpikeStream,
                                         k::Variant::kDenseNoTc)));

TEST(DenseVariant, RateIndependentTiming) {
  // Dense-no-TC compute time must not depend on the firing rate (it walks
  // every synapse), while SpikeStream's must grow with it.
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kConv;
  spec.name = "d";
  spec.in_h = spec.in_w = 12;
  spec.in_c = 64;
  spec.k = 3;
  spec.out_c = 32;
  const auto w = random_weights(3, 64, 32, 3, sc::FpFormat::FP16);
  auto cycles_at = [&](double rate, k::Variant v) {
    const auto in = bernoulli_map(12, 12, 64, rate, 11);
    const auto csr = cp::CsrIfmap::encode(in);
    k::RunOptions opt;
    opt.variant = v;
    snn::Tensor m(spec.out_h(), spec.out_w(), spec.out_c);
    return k::run_conv_layer(spec, w, csr, m, opt).stats.compute_cycles;
  };
  const double d_lo = cycles_at(0.05, k::Variant::kDenseNoTc);
  const double d_hi = cycles_at(0.6, k::Variant::kDenseNoTc);
  EXPECT_NEAR(d_hi / d_lo, 1.0, 0.15);  // only activation cost varies
  const double s_lo = cycles_at(0.05, k::Variant::kSpikeStream);
  const double s_hi = cycles_at(0.6, k::Variant::kSpikeStream);
  EXPECT_GT(s_hi / s_lo, 2.5);
  // And at 5% activity, compression wins big.
  EXPECT_GT(d_lo / s_lo, 2.0);
}
