// Threshold calibration: targets should be hit on the calibration batch and
// generalize to held-out images.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"
#include "snn/network.hpp"
#include "snn/reference.hpp"

namespace snn = spikestream::snn;
namespace sc = spikestream::common;

TEST(Calibrate, HitsTargetRatesOnCalibrationBatch) {
  snn::Network net = snn::Network::make_tiny(12, 3, 8, 6);
  sc::Rng rng(1);
  net.init_weights(rng);
  const auto images = snn::make_batch(6, 55, 10, 10, 3);
  const std::vector<double> targets = {0.2, 0.15, 0.3};
  const auto achieved = snn::calibrate_thresholds(net, images, targets);
  ASSERT_EQ(achieved.size(), 3u);
  for (std::size_t l = 0; l < 3; ++l) {
    EXPECT_NEAR(achieved[l], targets[l], 0.05) << "layer " << l;
    EXPECT_GT(net.layer(l).lif.v_th, 0.0f);
  }
}

TEST(Calibrate, GeneralizesToHeldOutImages) {
  snn::Network net = snn::Network::make_tiny(12, 3, 8, 6);
  sc::Rng rng(2);
  net.init_weights(rng);
  const auto calib = snn::make_batch(8, 10, 10, 10, 3);
  const std::vector<double> targets = {0.25, 0.2, 0.3};
  snn::calibrate_thresholds(net, calib, targets);

  const auto held_out = snn::make_batch(8, 999, 10, 10, 3);
  snn::Reference ref(net);
  sc::RunningStats rate_l0;
  for (const auto& img : held_out) {
    ref.reset();
    const auto& io = ref.step(img);
    rate_l0.add(snn::firing_rate(io[0].output));
  }
  EXPECT_NEAR(rate_l0.mean(), 0.25, 0.10);
}

TEST(Calibrate, MonotoneRateInThreshold) {
  // Property: raising v_th after calibration can only reduce the rate.
  snn::Network net = snn::Network::make_tiny(10, 3, 6, 4);
  sc::Rng rng(3);
  net.init_weights(rng);
  const auto images = snn::make_batch(4, 77, 8, 8, 3);
  const std::vector<double> mono_targets = {0.3, 0.2, 0.2};
  snn::calibrate_thresholds(net, images, mono_targets);

  auto rate_at = [&](float scale) {
    snn::Network n2 = net;
    n2.layer(0).lif.v_th *= scale;
    n2.layer(0).lif.v_rst = n2.layer(0).lif.v_th;
    snn::Reference ref(n2);
    double acc = 0;
    for (const auto& img : images) {
      ref.reset();
      acc += snn::firing_rate(ref.step(img)[0].output);
    }
    return acc / static_cast<double>(images.size());
  };
  EXPECT_GE(rate_at(0.5f), rate_at(1.0f) - 1e-9);
  EXPECT_GE(rate_at(1.0f), rate_at(2.0f) - 1e-9);
}

TEST(Calibrate, ThreadedSetupMatchesSerialReplay) {
  // Three init chunks of weights put this net above the set-up gate, so its
  // per-image passes run on a worker pool. A serial replay through the
  // reference must find every threshold bit for bit, as the same order
  // statistic of the currents its calibrated prefix produces, and every
  // achieved rate exactly.
  snn::Network net = snn::Network::make_tiny(18, 3, 32, 16);
  ASSERT_TRUE(net.threaded_setup());
  sc::Rng rng(4);
  net.init_weights(rng);
  const auto images = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.2, 0.15, 0.3};
  const auto achieved = snn::calibrate_thresholds(net, images, targets);

  const std::size_t n_layers = net.num_layers();
  std::vector<std::vector<float>> pooled(n_layers);
  std::vector<std::size_t> spikes(n_layers), total(n_layers);
  snn::Reference ref(net);
  for (const auto& img : images) {
    ref.reset();
    const auto& io = ref.step(img);
    for (std::size_t l = 0; l < n_layers; ++l) {
      const snn::LayerWeights& w = net.weights(l);
      const snn::LayerKind kind = net.layer(l).kind;
      const snn::Tensor cur =
          kind == snn::LayerKind::kEncodeConv
              ? snn::Reference::conv_currents_dense(io[l].dense_input, w)
          : kind == snn::LayerKind::kConv
              ? snn::Reference::conv_currents(io[l].spike_input, w)
              : snn::Reference::fc_currents(io[l].spike_input, w);
      pooled[l].insert(pooled[l].end(), cur.v.begin(), cur.v.end());
      spikes[l] += snn::spike_count(io[l].output);
      total[l] += io[l].output.size();
    }
  }
  for (std::size_t l = 0; l < n_layers; ++l) {
    std::vector<float>& p = pooled[l];
    const auto qi = static_cast<std::size_t>(
        std::clamp((1.0 - targets[l]) * static_cast<double>(p.size()), 0.0,
                   static_cast<double>(p.size() - 1)));
    std::nth_element(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(qi),
                     p.end());
    const float want = p[qi] > 0.0f ? p[qi] : 1e-3f;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(want),
              std::bit_cast<std::uint32_t>(net.layer(l).lif.v_th))
        << "layer " << l;
    EXPECT_EQ(achieved[l], static_cast<double>(spikes[l]) /
                               static_cast<double>(total[l]))
        << "layer " << l;
  }
}

TEST(Calibrate, Svgg11ProfileDecreasingWithDepth) {
  const auto targets = snn::svgg11_target_rates();
  ASSERT_EQ(targets.size(), 8u);
  // Mid-network rates decrease with depth (the paper's sparsity trend),
  // and FC layers are extremely sparse.
  for (std::size_t l = 2; l + 2 < targets.size(); ++l) {
    EXPECT_GE(targets[l], targets[l + 1]) << l;
  }
  EXPECT_LE(targets[6], 0.06);
}
