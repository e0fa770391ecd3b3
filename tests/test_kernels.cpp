// Layer kernels: functional equivalence with the dense golden reference
// (bit-exact spikes) and the timing properties the paper reports.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/layer_kernels.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"
#include "snn/network.hpp"
#include "snn/reference.hpp"

namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;

namespace {

snn::SpikeMap random_spikes(int h, int w, int c, double rate,
                            std::uint64_t seed) {
  sc::Rng rng(seed);
  snn::SpikeMap s(h, w, c);
  // Interior only: borders are padding.
  for (int y = 1; y < h - 1; ++y) {
    for (int x = 1; x < w - 1; ++x) {
      for (int ch = 0; ch < c; ++ch) {
        s.at(y, x, ch) = rng.bernoulli(rate) ? 1 : 0;
      }
    }
  }
  return s;
}

snn::LayerSpec conv_spec(int hw, int in_c, int out_c) {
  snn::LayerSpec s;
  s.kind = snn::LayerKind::kConv;
  s.name = "conv_t";
  s.in_h = s.in_w = hw;
  s.in_c = in_c;
  s.k = 3;
  s.out_c = out_c;
  s.lif.v_th = 0.6f;
  s.lif.v_rst = 0.6f;
  return s;
}

snn::LayerWeights make_weights(const snn::LayerSpec& s, std::uint64_t seed) {
  sc::Rng rng(seed);
  snn::LayerWeights w;
  w.k = s.kind == snn::LayerKind::kFc ? 1 : s.k;
  w.in_c = s.in_c;
  w.out_c = s.out_c;
  w.v.resize(static_cast<std::size_t>(w.k) * w.k * w.in_c * w.out_c);
  const double sd = std::sqrt(2.0 / static_cast<double>(s.fan_in()));
  for (auto& x : w.v) x = static_cast<float>(rng.normal(0.0, sd));
  return w;
}

}  // namespace

class ConvKernelMatchesReference
    : public ::testing::TestWithParam<std::tuple<k::Variant, sc::FpFormat>> {};

TEST_P(ConvKernelMatchesReference, BitExactSpikes) {
  const auto [variant, fmt] = GetParam();
  const auto spec = conv_spec(12, 16, 24);
  const auto w = make_weights(spec, 7);
  const auto in = random_spikes(12, 12, 16, 0.25, 8);
  const auto csr = spikestream::compress::CsrIfmap::encode(in);

  // Reference path.
  snn::Tensor ref_mem(spec.out_h(), spec.out_w(), spec.out_c);
  const snn::Tensor cur = snn::Reference::conv_currents(in, w);
  snn::Tensor ref_mem2 = ref_mem;
  const snn::SpikeMap expect = snn::lif_step(spec.lif, cur, ref_mem2);

  // Kernel path.
  k::RunOptions opt;
  opt.variant = variant;
  opt.fmt = fmt;
  snn::Tensor mem(spec.out_h(), spec.out_w(), spec.out_c);
  const auto run = k::run_conv_layer(spec, w, csr, mem, opt);
  EXPECT_EQ(run.out_spikes.v, expect.v);
  EXPECT_EQ(mem.v, ref_mem2.v);  // membranes advance identically
  EXPECT_GT(run.stats.cycles, 0.0);
  EXPECT_GT(run.stats.fpu_ops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsFormats, ConvKernelMatchesReference,
    ::testing::Combine(::testing::Values(k::Variant::kBaseline,
                                         k::Variant::kSpikeStream),
                       ::testing::Values(sc::FpFormat::FP16,
                                         sc::FpFormat::FP8,
                                         sc::FpFormat::FP32)));

TEST(ConvKernel, SpikeStreamFasterThanBaseline) {
  const auto spec = conv_spec(18, 128, 128);
  const auto w = make_weights(spec, 9);
  const auto in = random_spikes(18, 18, 128, 0.3, 10);
  const auto csr = spikestream::compress::CsrIfmap::encode(in);

  k::RunOptions base, ss;
  base.variant = k::Variant::kBaseline;
  ss.variant = k::Variant::kSpikeStream;
  snn::Tensor m1(spec.out_h(), spec.out_w(), spec.out_c);
  snn::Tensor m2 = m1;
  const auto rb = k::run_conv_layer(spec, w, csr, m1, base);
  const auto rs = k::run_conv_layer(spec, w, csr, m2, ss);
  const double speedup = rb.stats.cycles / rs.stats.cycles;
  EXPECT_GT(speedup, 3.5);
  EXPECT_LT(speedup, 7.0);
  // Utilization moves from ~9% into the ~50% regime (paper Fig. 3b).
  EXPECT_LT(rb.stats.fpu_utilization(), 0.12);
  EXPECT_GT(rs.stats.fpu_utilization(), 0.35);
  // IPC inverts: the baseline integer pipe is busy, SpikeStream's is not.
  EXPECT_GT(rb.stats.ipc(), rs.stats.ipc());
}

TEST(ConvKernel, ShortStreamsDepressUtilization) {
  // The paper's layer-2 effect: few channels + sparsity -> util well below
  // the ~50% ceiling.
  const auto thin = conv_spec(16, 24, 64);
  const auto w = make_weights(thin, 11);
  const auto in = random_spikes(16, 16, 24, 0.12, 12);  // s_len ~ 2.9
  const auto csr = spikestream::compress::CsrIfmap::encode(in);
  k::RunOptions opt;
  opt.variant = k::Variant::kSpikeStream;
  snn::Tensor m(thin.out_h(), thin.out_w(), thin.out_c);
  const auto r = k::run_conv_layer(thin, w, csr, m, opt);
  EXPECT_LT(r.stats.fpu_utilization(), 0.35);
}

TEST(ConvKernel, Fp8FasterThanFp16ButBelowIdeal) {
  const auto spec = conv_spec(14, 256, 128);
  const auto w = make_weights(spec, 13);
  const auto in = random_spikes(14, 14, 256, 0.2, 14);
  const auto csr = spikestream::compress::CsrIfmap::encode(in);
  k::RunOptions o16, o8;
  o16.variant = o8.variant = k::Variant::kSpikeStream;
  o16.fmt = sc::FpFormat::FP16;
  o8.fmt = sc::FpFormat::FP8;
  snn::Tensor m1(spec.out_h(), spec.out_w(), spec.out_c);
  snn::Tensor m2 = m1;
  const auto r16 = k::run_conv_layer(spec, w, csr, m1, o16);
  const auto r8 = k::run_conv_layer(spec, w, csr, m2, o8);
  const double speedup = r16.stats.compute_cycles / r8.stats.compute_cycles;
  EXPECT_GT(speedup, 1.4);
  EXPECT_LT(speedup, 2.0);  // below the ideal 2x (paper: 1.71x)
}

TEST(FcKernel, MatchesReference) {
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kFc;
  spec.name = "fc_t";
  spec.in_c = 256;
  spec.out_c = 32;
  spec.lif.v_th = 0.4f;
  spec.lif.v_rst = 0.4f;
  const auto w = make_weights(spec, 15);
  sc::Rng rng(16);
  snn::SpikeMap in(1, 1, 256);
  for (auto& b : in.v) b = rng.bernoulli(0.1) ? 1 : 0;
  const auto csr = spikestream::compress::CsrIfmap::encode(in);

  snn::Tensor ref_mem(1, 1, 32);
  const snn::Tensor cur = snn::Reference::fc_currents(in, w);
  const snn::SpikeMap expect = snn::lif_step(spec.lif, cur, ref_mem);

  for (auto variant : {k::Variant::kBaseline, k::Variant::kSpikeStream}) {
    k::RunOptions opt;
    opt.variant = variant;
    snn::Tensor mem(1, 1, 32);
    const auto run = k::run_fc_layer(spec, w, csr, mem, opt);
    EXPECT_EQ(run.out_spikes.v, expect.v) << k::variant_name(variant);
  }
}

TEST(FcKernel, BatchMatchesPerLaneAtWidestFanIn) {
  // 65536 inputs is the widest fan-in the 16-bit CSR channel index admits
  // (a flattened 16x16x256 map). The segment-major sweep's last band then
  // ends one past the index range; its spikes must still reach every lane.
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kFc;
  spec.name = "fc_wide";
  spec.in_c = 65536;
  spec.out_c = 16;
  spec.lif.v_th = 0.4f;
  spec.lif.v_rst = 0.4f;
  const auto w = make_weights(spec, 21);
  const std::vector<std::vector<int>> fired = {{3, 65100, 65535},
                                               {40000, 65530}};
  std::vector<spikestream::compress::CsrIfmap> csr;
  for (const auto& channels : fired) {
    snn::SpikeMap in(1, 1, spec.in_c);
    for (int c : channels) in.v[static_cast<std::size_t>(c)] = 1;
    csr.push_back(spikestream::compress::CsrIfmap::encode(in));
  }

  std::vector<k::LayerScratch> scratch(fired.size());
  std::vector<snn::Tensor> mem(fired.size(), snn::Tensor(1, 1, spec.out_c));
  std::vector<k::LayerLane> lanes(fired.size());
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    lanes[i] = {&csr[i], &mem[i], &scratch[i]};
  }
  k::fc_functional_batch(spec, w, lanes);

  for (std::size_t i = 0; i < lanes.size(); ++i) {
    k::KernelScratch serial;
    snn::Tensor serial_mem(1, 1, spec.out_c);
    k::fc_functional(spec, w, csr[i], serial_mem, serial);
    EXPECT_EQ(scratch[i].main.currents.v, serial.currents.v) << "lane " << i;
    EXPECT_EQ(mem[i].v, serial_mem.v) << "lane " << i;
    EXPECT_EQ(scratch[i].main.run.out_spikes.v, serial.run.out_spikes.v)
        << "lane " << i;
  }
}

TEST(FcKernel, FanInShardsConserveAtWidestFanIn) {
  // Two fan-in shards of a 65536-input layer: the second one's upper bound,
  // 65536, does not fit the 16-bit CSR index type. Each shard must charge
  // only its own spikes, and together exactly the unsharded pass's
  // accumulation work (ARCHITECTURE.md invariant 3).
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kFc;
  spec.name = "fc_wide";
  spec.in_c = 65536;
  spec.out_c = 16;
  spec.lif.v_th = 0.4f;
  spec.lif.v_rst = 0.4f;
  const auto w = make_weights(spec, 22);
  snn::SpikeMap in(1, 1, spec.in_c);
  for (int c : {3, 40000, 65100, 65535}) in.v[static_cast<std::size_t>(c)] = 1;
  const auto csr = spikestream::compress::CsrIfmap::encode(in);
  const k::RunOptions opt;

  k::KernelScratch whole;
  snn::Tensor mem(1, 1, spec.out_c);
  k::run_fc_layer(spec, w, csr, mem, opt, whole);
  double fpu_ops = 0, ssr_elems = 0;
  for (const auto& [lo, hi] : {std::pair{0, 32768}, std::pair{32768, 65536}}) {
    k::KernelScratch shard;
    k::fc_fanin_shard_timing(spec, csr, lo, hi, opt, shard);
    const k::KernelStats& st = shard.run.stats;
    const std::string at = "shard [" + std::to_string(lo) + ", " +
                           std::to_string(hi) + ")";
    for (const double v : {st.fpu_ops, st.ssr_elems, st.int_instrs,
                           st.tcdm_words, st.compute_cycles, st.dma_bytes,
                           st.dma_cycles, st.cycles}) {
      EXPECT_GE(v, 0.0) << at;
    }
    fpu_ops += st.fpu_ops;
    ssr_elems += st.ssr_elems;
  }
  EXPECT_GT(whole.run.stats.fpu_ops, 0.0);
  EXPECT_DOUBLE_EQ(fpu_ops, whole.run.stats.fpu_ops);
  EXPECT_DOUBLE_EQ(ssr_elems, whole.run.stats.ssr_elems);
}

TEST(FcKernel, PrescalePenalizesSpikeStreamIntPipe) {
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kFc;
  spec.name = "fc_t";
  spec.in_c = 2048;
  spec.out_c = 64;
  const auto w = make_weights(spec, 17);
  sc::Rng rng(18);
  snn::SpikeMap in(1, 1, 2048);
  for (auto& b : in.v) b = rng.bernoulli(0.3) ? 1 : 0;
  const auto csr = spikestream::compress::CsrIfmap::encode(in);
  k::RunOptions opt;
  opt.variant = k::Variant::kSpikeStream;
  snn::Tensor mem(1, 1, 64);
  const auto run = k::run_fc_layer(spec, w, csr, mem, opt);
  // Index pre-scaling shows up as extra integer instructions.
  EXPECT_GT(run.stats.int_instrs,
            static_cast<double>(spikestream::compress::CsrIfmap::encode(in).nnz()) * 3.0);
}

TEST(EncodeKernel, MatchesReferenceAllFormats) {
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kEncodeConv;
  spec.name = "enc_t";
  spec.in_h = spec.in_w = 12;
  spec.in_c = 3;
  spec.k = 3;
  spec.out_c = 16;
  spec.lif.v_th = 0.5f;
  spec.lif.v_rst = 0.5f;
  const auto w = make_weights(spec, 19);
  sc::Rng rng(20);
  const snn::Tensor img = snn::make_image(rng, 10, 10, 3);
  const snn::Tensor padded = snn::Reference::pad_dense(img, 1);

  snn::Tensor ref_mem(spec.out_h(), spec.out_w(), spec.out_c);
  const snn::Tensor cur = snn::Reference::conv_currents_dense(padded, w);
  const snn::SpikeMap expect = snn::lif_step(spec.lif, cur, ref_mem);

  for (auto variant : {k::Variant::kBaseline, k::Variant::kSpikeStream}) {
    k::RunOptions opt;
    opt.variant = variant;
    snn::Tensor mem(spec.out_h(), spec.out_w(), spec.out_c);
    const auto run = k::run_encode_layer(spec, w, padded, mem, opt);
    EXPECT_EQ(run.out_spikes.v, expect.v) << k::variant_name(variant);
    EXPECT_GT(run.stats.fpu_mac_ops, 0.0);
  }
}

TEST(EncodeKernel, UtilizationBandsMatchPaperLayer1) {
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kEncodeConv;
  spec.name = "enc_t";
  spec.in_h = spec.in_w = 34;
  spec.in_c = 3;
  spec.k = 3;
  spec.out_c = 64;
  spec.lif.v_th = 0.5f;
  spec.lif.v_rst = 0.5f;
  const auto w = make_weights(spec, 21);
  sc::Rng rng(22);
  const snn::Tensor img = snn::make_image(rng, 32, 32, 3);
  const snn::Tensor padded = snn::Reference::pad_dense(img, 1);

  k::RunOptions base, ss;
  base.variant = k::Variant::kBaseline;
  ss.variant = k::Variant::kSpikeStream;
  snn::Tensor m1(spec.out_h(), spec.out_w(), spec.out_c);
  snn::Tensor m2 = m1;
  const auto rb = k::run_encode_layer(spec, w, padded, m1, base);
  const auto rs = k::run_encode_layer(spec, w, padded, m2, ss);
  // Paper Fig. 3b layer 1: baseline 24.8% -> SpikeStream 53.1%.
  EXPECT_NEAR(rb.stats.fpu_utilization(), 0.25, 0.06);
  EXPECT_NEAR(rs.stats.fpu_utilization(), 0.53, 0.12);
}

TEST(Kernels, StealingBeatsStaticUnderSparsitySkew) {
  // Spikes concentrated in one image corner: static RF partition starves.
  const auto spec = conv_spec(18, 64, 64);
  const auto w = make_weights(spec, 23);
  snn::SpikeMap in(18, 18, 64);
  sc::Rng rng(24);
  for (int y = 1; y < 9; ++y) {
    for (int x = 1; x < 9; ++x) {
      for (int c = 0; c < 64; ++c) in.at(y, x, c) = rng.bernoulli(0.5);
    }
  }
  const auto csr = spikestream::compress::CsrIfmap::encode(in);
  k::RunOptions dyn, sta;
  dyn.variant = sta.variant = k::Variant::kSpikeStream;
  sta.workload_stealing = false;
  snn::Tensor m1(spec.out_h(), spec.out_w(), spec.out_c);
  snn::Tensor m2 = m1;
  const auto rd = k::run_conv_layer(spec, w, csr, m1, dyn);
  const auto rs = k::run_conv_layer(spec, w, csr, m2, sta);
  EXPECT_EQ(rd.out_spikes.v, rs.out_spikes.v);  // scheduling never changes math
  EXPECT_LT(rd.stats.compute_cycles, rs.stats.compute_cycles);
}

TEST(Kernels, EmptyIfmapStillWellFormed) {
  const auto spec = conv_spec(10, 8, 16);
  const auto w = make_weights(spec, 25);
  snn::SpikeMap in(10, 10, 8);  // all zeros
  const auto csr = spikestream::compress::CsrIfmap::encode(in);
  k::RunOptions opt;
  snn::Tensor mem(spec.out_h(), spec.out_w(), spec.out_c);
  const auto run = k::run_conv_layer(spec, w, csr, mem, opt);
  EXPECT_EQ(spikestream::snn::spike_count(run.out_spikes), 0u);
  EXPECT_EQ(run.stats.fpu_ops, 0.0);
  EXPECT_GT(run.stats.cycles, 0.0);  // setup/activation still takes time
}
