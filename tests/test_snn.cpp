// LIF dynamics, network construction, and the dense golden reference.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "snn/input_gen.hpp"
#include "snn/lif.hpp"
#include "snn/network.hpp"
#include "snn/reference.hpp"

namespace snn = spikestream::snn;
namespace sc = spikestream::common;

// A Reference keeps a reference to its network: building one from a
// temporary would leave every later step() reading a destroyed network.
static_assert(!std::is_constructible_v<snn::Reference, snn::Network>);
static_assert(std::is_constructible_v<snn::Reference, const snn::Network&>);

TEST(Lif, FiresAboveThresholdAndSoftResets) {
  snn::LifParams p;
  p.v_th = 1.0f;
  p.v_rst = 1.0f;
  p.alpha = 0.5f;
  snn::Tensor i(1, 1, 3);
  i.v = {1.5f, 0.4f, 0.0f};
  snn::Tensor v(1, 1, 3);
  const snn::SpikeMap out = snn::lif_step(p, i, v);
  EXPECT_EQ(out.v[0], 1);
  EXPECT_EQ(out.v[1], 0);
  EXPECT_EQ(out.v[2], 0);
  EXPECT_FLOAT_EQ(v.v[0], 0.5f);  // 1.5 - v_rst
  EXPECT_FLOAT_EQ(v.v[1], 0.4f);
}

TEST(Lif, LeakAccumulatesOverTimesteps) {
  snn::LifParams p;
  p.v_th = 1.0f;
  p.v_rst = 1.0f;
  p.alpha = 0.8f;
  snn::Tensor i(1, 1, 1);
  i.v = {0.5f};
  snn::Tensor v(1, 1, 1);
  // 0.5, 0.9, then 0.8*0.9+0.5 = 1.22 -> fire at t=2.
  EXPECT_EQ(snn::lif_step(p, i, v).v[0], 0);
  EXPECT_EQ(snn::lif_step(p, i, v).v[0], 0);
  EXPECT_EQ(snn::lif_step(p, i, v).v[0], 1);
  EXPECT_NEAR(v.v[0], 0.22f, 1e-5);
}

TEST(Lif, EquationMatchesPaperForm) {
  // v(t) = v(t-1)*alpha + r*i(t) - v_rst*s(t), checked symbolically.
  snn::LifParams p;
  p.v_th = 2.0f;
  p.v_rst = 2.0f;
  p.alpha = 0.9f;
  p.r = 1.0f;
  snn::Tensor i(1, 1, 1);
  snn::Tensor v(1, 1, 1);
  v.v[0] = 1.0f;
  i.v[0] = 1.5f;
  const auto s = snn::lif_step(p, i, v);
  // v = 1*0.9 + 1.5 = 2.4 >= 2 -> spike, v = 0.4
  EXPECT_EQ(s.v[0], 1);
  EXPECT_NEAR(v.v[0], 0.4f, 1e-6);
}

TEST(Network, Svgg11ShapesMatchFig3a) {
  const snn::Network net = snn::Network::make_svgg11();
  ASSERT_EQ(net.num_layers(), 8u);
  const int hs[] = {34, 34, 18, 18, 10, 10};
  const int cs[] = {3, 64, 128, 256, 256, 512};
  for (int l = 0; l < 6; ++l) {
    EXPECT_EQ(net.layer(static_cast<std::size_t>(l)).in_h, hs[l]) << l;
    EXPECT_EQ(net.layer(static_cast<std::size_t>(l)).in_c, cs[l]) << l;
  }
  EXPECT_EQ(net.layer(6).in_c, 8192);
  EXPECT_EQ(net.layer(6).out_c, 1024);
  EXPECT_EQ(net.layer(7).out_c, 10);
  // Geometry chains: each conv output (after pool/pad) matches the next
  // layer's ifmap.
  for (int l = 0; l < 5; ++l) {
    const auto& cur = net.layer(static_cast<std::size_t>(l));
    const auto& next = net.layer(static_cast<std::size_t>(l) + 1);
    int h = cur.out_h();
    if (cur.pool_after) h /= 2;
    EXPECT_EQ(h + 2 * cur.pad_next, next.in_h) << "layer " << l;
    EXPECT_EQ(cur.out_c, next.in_c) << "layer " << l;
  }
}

TEST(Network, WeightInitIsDeterministicAndScaled) {
  snn::Network a = snn::Network::make_tiny();
  snn::Network b = snn::Network::make_tiny();
  sc::Rng r1(5), r2(5);
  a.init_weights(r1);
  b.init_weights(r2);
  EXPECT_EQ(a.weights(0).v, b.weights(0).v);
  // He scaling: stddev ~ sqrt(2/fan_in).
  sc::RunningStats st;
  for (float w : a.weights(1).v) st.add(w);
  const double expect = std::sqrt(2.0 / static_cast<double>(a.layer(1).fan_in()));
  EXPECT_NEAR(st.stddev(), expect, 0.2 * expect);
  EXPECT_NEAR(st.mean(), 0.0, 0.05);
}

TEST(Network, RejectsMalformedLayerSpecs) {
  // Caught at add_layer, each names the layer and the field. Unchecked, a
  // conv of zero out_c or k runs and reports modeled cycles for no work, a
  // conv smaller than its kernel fails in the tile planner on its first run,
  // in_c = -4 throws std::length_error from std::vector, and in_c = 0 fails
  // only at run time as an ifmap shape mismatch.
  using K = snn::LayerKind;
  struct Case {
    const char* what;
    const char* field;
    K kind;
    int in_h, in_w, in_c, k, out_c, pad_next;
  };
  const Case cases[] = {
      {"conv out_c = 0", "out_c", K::kConv, 10, 10, 8, 3, 0, 1},
      {"conv k = 0", "k", K::kConv, 10, 10, 8, 0, 8, 1},
      {"conv in_h < k", "in_h", K::kConv, 2, 10, 8, 3, 8, 1},
      {"conv in_w < k", "in_w", K::kConv, 10, 2, 8, 3, 8, 1},
      {"conv in_c = -4", "in_c", K::kConv, 10, 10, -4, 3, 8, 1},
      {"conv in_c = 0", "in_c", K::kConv, 10, 10, 0, 3, 8, 1},
      {"conv pad_next = -1", "pad_next", K::kConv, 10, 10, 8, 3, 8, -1},
      {"encode k = -1", "k", K::kEncodeConv, 10, 10, 3, -1, 8, 1},
      {"encode in_w < k", "in_w", K::kEncodeConv, 10, 4, 3, 5, 8, 1},
      {"fc out_c = 0", "out_c", K::kFc, 1, 1, 64, 3, 0, 1},
      {"fc in_c = 0", "in_c", K::kFc, 1, 1, 0, 3, 10, 1},
  };
  for (const Case& c : cases) {
    snn::LayerSpec s;
    s.kind = c.kind;
    s.name = "probe";
    s.in_h = c.in_h;
    s.in_w = c.in_w;
    s.in_c = c.in_c;
    s.k = c.k;
    s.out_c = c.out_c;
    s.pad_next = c.pad_next;
    snn::Network net;
    try {
      net.add_layer(s);
      ADD_FAILURE() << c.what << ": accepted";
    } catch (const spikestream::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'probe'"), std::string::npos) << c.what << ": " << what;
      EXPECT_NE(what.find(c.field), std::string::npos) << c.what << ": " << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << c.what << ": threw '" << e.what()
                    << "', not spikestream::Error";
    }
    EXPECT_EQ(net.num_layers(), 0u) << c.what;
  }
  // The smallest valid shapes: a conv exactly its kernel's size without
  // padding, and an FC layer, whose k and spatial dims are unused.
  snn::Network net;
  snn::LayerSpec conv;
  conv.in_h = conv.in_w = conv.k = 3;
  conv.pad_next = 0;
  EXPECT_NO_THROW(net.add_layer(conv));
  snn::LayerSpec fc;
  fc.kind = K::kFc;
  fc.k = 0;
  EXPECT_NO_THROW(net.add_layer(fc));
}

TEST(Network, RejectsDisconnectedShapeChains) {
  // Caught at add_layer, naming both layers and the field. Unchecked, a conv
  // whose input differs from what the previous layer routes to it builds an
  // engine whose first run throws an ifmap shape mismatch.
  using K = snn::LayerKind;
  const auto conv = [](const char* name, K kind, int in_hw, int in_c,
                       int out_c, bool pool, int pad) {
    snn::LayerSpec s;
    s.kind = kind;
    s.name = name;
    s.in_h = s.in_w = in_hw;
    s.in_c = in_c;
    s.k = 3;
    s.out_c = out_c;
    s.pool_after = pool;
    s.pad_next = pad;
    return s;
  };
  const auto fc = [](const char* name, int in_c, int out_c) {
    snn::LayerSpec s;
    s.kind = K::kFc;
    s.name = name;
    s.in_c = in_c;
    s.out_c = out_c;
    return s;
  };
  // 10x10x8 -> 8x8x16 spikes; 4x4x16 after the OR-pool.
  const snn::LayerSpec c1 = conv("first", K::kConv, 10, 8, 16, false, 1);
  const snn::LayerSpec c1_pool = conv("first", K::kConv, 10, 8, 16, true, 1);
  const snn::LayerSpec c1_pad2 = conv("first", K::kConv, 10, 8, 16, false, 2);
  const snn::LayerSpec f1 = fc("first", 64, 12);
  struct Case {
    const char* what;
    snn::LayerSpec prev, next;
    const char* field;
  };
  const Case cases[] = {
      {"conv in_c", c1, conv("second", K::kConv, 10, 8, 8, false, 1), "in_c"},
      {"conv in_h after pool", c1_pool,
       conv("second", K::kConv, 10, 16, 8, false, 1), "in_h"},
      {"conv in_w after pad 2", c1_pad2,
       [&] {
         snn::LayerSpec s = conv("second", K::kConv, 12, 16, 8, false, 1);
         s.in_w = 10;
         return s;
       }(),
       "in_w"},
      {"fc in_c", c1, fc("second", 1000, 10), "in_c"},
      {"fc in_c after pool", c1_pool, fc("second", 1024, 10), "in_c"},
      {"fc in_c after fc", f1, fc("second", 10, 4), "in_c"},
      {"conv after fc", f1, conv("second", K::kConv, 3, 12, 8, false, 1),
       "kind"},
      {"encode after conv", c1,
       conv("second", K::kEncodeConv, 10, 16, 8, false, 1), "kind"},
  };
  for (const Case& c : cases) {
    snn::Network net;
    net.add_layer(c.prev);
    try {
      net.add_layer(c.next);
      ADD_FAILURE() << c.what << ": accepted";
    } catch (const spikestream::Error& e) {
      const std::string what = e.what();
      for (const char* part : {"'first'", "'second'", c.field}) {
        EXPECT_NE(what.find(part), std::string::npos)
            << c.what << ": " << what;
      }
    }
    EXPECT_EQ(net.num_layers(), 1u) << c.what;
  }
  // What each of those layers does connect to.
  const std::pair<snn::LayerSpec, snn::LayerSpec> ok[] = {
      {c1, conv("second", K::kConv, 10, 16, 8, false, 1)},
      {c1_pool, conv("second", K::kConv, 6, 16, 8, false, 1)},
      {c1_pad2, conv("second", K::kConv, 12, 16, 8, false, 1)},
      {c1, fc("second", 1024, 10)},
      {c1_pool, fc("second", 256, 10)},
      {f1, fc("second", 12, 4)},
  };
  for (const auto& [prev, next] : ok) {
    snn::Network net;
    net.add_layer(prev);
    EXPECT_NO_THROW(net.add_layer(next)) << next.in_h << "x" << next.in_c;
  }
}

TEST(Network, ChunkedInitMatchesSerialDraws) {
  // Five init chunks over three FC layers of 65536, 128000 and 100000
  // weights: one chunk boundary falls exactly between fc1 and fc2, three
  // fall inside fc2 and fc3, and the last chunk is partial. The threaded
  // init must equal a serial rng.normal(0, stddev) loop bit for bit and
  // leave the caller's Rng where that loop does.
  snn::Network net;
  const int dims[] = {512, 128, 1000, 100};
  for (int l = 0; l < 3; ++l) {
    snn::LayerSpec s;
    s.kind = snn::LayerKind::kFc;
    s.name = "fc" + std::to_string(l + 1);
    s.in_c = dims[l];
    s.out_c = dims[l + 1];
    net.add_layer(s);
  }
  ASSERT_EQ(net.num_weights(), 293536u);
  ASSERT_EQ(net.num_weights() / snn::Network::kInitChunk, 4u);
  ASSERT_TRUE(net.threaded_setup());
  sc::Rng rng(17), serial(17);
  net.init_weights(rng);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const double fan_in = static_cast<double>(net.layer(l).fan_in());
    const double stddev = std::sqrt(2.0 / fan_in);
    std::vector<float> want(net.weights(l).v.size());
    for (float& x : want) x = static_cast<float>(serial.normal(0.0, stddev));
    EXPECT_EQ(0, std::memcmp(want.data(), net.weights(l).v.data(),
                             want.size() * sizeof(float)))
        << net.layer(l).name;
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(serial.next_u64(), rng.next_u64());

  // Below the gate: the tiny net and the tower run serially.
  EXPECT_FALSE(snn::Network::make_tiny().threaded_setup());
  EXPECT_FALSE(snn::Network::make_deep_tower().threaded_setup());
}

TEST(Network, QuantizeIsIdempotent) {
  snn::Network net = snn::Network::make_tiny();
  sc::Rng rng(9);
  net.init_weights(rng);
  net.quantize_weights(sc::FpFormat::FP8);
  const auto once = net.weights(1).v;
  net.quantize_weights(sc::FpFormat::FP8);
  EXPECT_EQ(once, net.weights(1).v);
}

TEST(Network, Fp16QuantizeEqualsScalarQuantizeThenHalf) {
  // The one-pass FP16 quantize must leave v, half and half_exact exactly as
  // common::quantize on every weight followed by build_half() does,
  // non-finite and float-subnormal weights included.
  snn::Network net = snn::Network::make_tiny();
  sc::Rng rng(10);
  net.init_weights(rng);
  std::vector<float>& v = net.weights(1).v;
  const float specials[] = {std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::bit_cast<float>(0xFFC00123u),  // -NaN
                            std::bit_cast<float>(0x7F800001u),  // sNaN
                            std::bit_cast<float>(0x00000001u),
                            -0.0f,
                            1e6f,
                            65519.0f};
  for (std::size_t i = 0; i < std::size(specials); ++i) {
    v[i * 37 + 3] = specials[i];
  }
  snn::Network expect = net;
  for (std::size_t l = 0; l < expect.num_layers(); ++l) {
    snn::LayerWeights& w = expect.weights(l);
    for (float& x : w.v) x = sc::quantize(x, sc::FpFormat::FP16);
    w.half.clear();
    for (const float x : w.v) w.half.push_back(sc::fp32_to_fp16_bits(x));
  }
  net.quantize_weights(sc::FpFormat::FP16);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const snn::LayerWeights& got = net.weights(l);
    const snn::LayerWeights& want = expect.weights(l);
    ASSERT_EQ(want.v.size(), got.v.size());
    EXPECT_EQ(0, std::memcmp(want.v.data(), got.v.data(),
                             want.v.size() * sizeof(float)))
        << "layer " << l;
    EXPECT_EQ(want.half, got.half) << "layer " << l;
    EXPECT_TRUE(got.half_exact) << "layer " << l;
  }
  // build_half() on the rounded weights reproduces the same image.
  snn::LayerWeights again = net.weights(1);
  again.build_half();
  EXPECT_TRUE(again.half_exact);
  EXPECT_EQ(net.weights(1).half, again.half);
}

TEST(Network, BuildHalfFreesInexactWeights) {
  snn::Network net = snn::Network::make_tiny();
  sc::Rng rng(11);
  net.init_weights(rng);
  net.quantize_weights(sc::FpFormat::FP32);  // He weights need float32
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    EXPECT_FALSE(net.weights(l).half_exact) << "layer " << l;
    EXPECT_EQ(0u, net.weights(l).half.capacity()) << "layer " << l;
  }
}

TEST(Reference, ConvCurrentsManualExample) {
  // 3x3 ifmap, 1 channel, k=3, 1 filter of all ones: current = spike count.
  snn::LayerWeights w;
  w.k = 3;
  w.in_c = 1;
  w.out_c = 1;
  w.v.assign(9, 1.0f);
  snn::SpikeMap in(3, 3, 1);
  in.at(0, 0, 0) = 1;
  in.at(1, 1, 0) = 1;
  in.at(2, 2, 0) = 1;
  const snn::Tensor out = snn::Reference::conv_currents(in, w);
  EXPECT_EQ(out.h, 1);
  EXPECT_EQ(out.w, 1);
  EXPECT_FLOAT_EQ(out.v[0], 3.0f);
}

TEST(Reference, SparseConvEqualsDenseConvOnBinaryInput) {
  sc::Rng rng(21);
  snn::LayerWeights w;
  w.k = 3;
  w.in_c = 8;
  w.out_c = 6;
  w.v.resize(9 * 8 * 6);
  for (auto& x : w.v) x = static_cast<float>(rng.normal());
  snn::SpikeMap in(7, 7, 8);
  for (auto& b : in.v) b = rng.bernoulli(0.3) ? 1 : 0;
  snn::Tensor dense_in(7, 7, 8);
  for (std::size_t i = 0; i < in.v.size(); ++i) {
    dense_in.v[i] = static_cast<float>(in.v[i]);
  }
  const snn::Tensor a = snn::Reference::conv_currents(in, w);
  const snn::Tensor b = snn::Reference::conv_currents_dense(dense_in, w);
  ASSERT_TRUE(a.same_shape(b));
  for (std::size_t i = 0; i < a.v.size(); ++i) {
    EXPECT_NEAR(a.v[i], b.v[i], 1e-4f) << i;
  }
}

TEST(Reference, FullTinyForwardProducesSaneRates) {
  snn::Network net = snn::Network::make_tiny(12, 4, 8, 5);
  sc::Rng rng(33);
  net.init_weights(rng);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    net.layer(l).lif.v_th = 0.5f;
    net.layer(l).lif.v_rst = 0.5f;
  }
  snn::Reference ref(net);
  const snn::Tensor img = snn::make_image(rng, 10, 10, 4);
  const auto& io = ref.step(img);
  ASSERT_EQ(io.size(), 3u);
  for (const auto& layer : io) {
    const double rate = snn::firing_rate(layer.output);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
  }
  // Encode layer consumed the padded image.
  EXPECT_EQ(io[0].dense_input.h, 12);
}

TEST(Reference, MembranePersistsAcrossTimesteps) {
  snn::Network net = snn::Network::make_tiny(8, 2, 4, 3);
  sc::Rng rng(44);
  net.init_weights(rng);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    net.layer(l).lif.v_th = 5.0f;  // high threshold: integrate, rarely fire
    net.layer(l).lif.v_rst = 5.0f;
  }
  snn::Reference ref(net);
  const snn::Tensor img = snn::make_image(rng, 6, 6, 2);
  ref.step(img);
  const float v1 = ref.membrane(0).v[0];
  ref.step(img);
  const float v2 = ref.membrane(0).v[0];
  EXPECT_NE(v1, 0.0f);
  // Same input, leaky accumulation: |v2| should exceed |v1| when positive.
  if (v1 > 0) {
    EXPECT_GT(v2, v1);
  }
  ref.reset();
  EXPECT_EQ(ref.membrane(0).v[0], 0.0f);
}

TEST(InputGen, ImagesInRangeAndDiverse) {
  auto batch = snn::make_batch(4, 123, 16, 16, 3);
  ASSERT_EQ(batch.size(), 4u);
  for (const auto& img : batch) {
    for (float v : img.v) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
    }
  }
  // Different images differ.
  EXPECT_NE(batch[0].v, batch[1].v);
  // Same seed reproduces.
  auto again = snn::make_batch(4, 123, 16, 16, 3);
  EXPECT_EQ(batch[0].v, again[0].v);
}
