#include "snn/calibrate.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>

#include "common/check.hpp"
#include "runtime/worker_pool.hpp"
#include "snn/reference.hpp"

namespace spikestream::snn {

std::vector<double> svgg11_target_rates() {
  // Output rates chosen so the resulting ifmap firing-activity profile
  // follows the paper's Fig. 3a: moderate activity after encoding, a peak in
  // the mid layers, increasing sparsity with depth, extreme sparsity in FC.
  return {0.15,   // conv1 output = conv2 ifmap activity
          0.30,   // conv2 -> conv3
          0.22,   // conv3 -> conv4
          0.18,   // conv4 -> conv5
          0.10,   // conv5 -> conv6
          0.06,   // conv6 -> fc7
          0.04,   // fc7 -> fc8
          0.10};  // fc8 output (10 classes; ~1 winner)
}

std::vector<double> wide_fc_target_rates() {
  // Same flavour as the S-VGG11 profile, on the 4-layer spill vehicle:
  // active encode output, increasingly sparse FC stack.
  return {0.25,   // enc output = fc1 ifmap activity
          0.08,   // fc1 -> fc2
          0.05,   // fc2 -> fc3
          0.10};  // fc3 output (10 classes)
}

std::vector<double> deep_tower_target_rates(int depth) {
  std::vector<double> rates;
  rates.reserve(static_cast<std::size_t>(depth) + 2);
  rates.push_back(0.25);  // enc output = conv1 ifmap activity
  for (int d = 0; d < depth; ++d) {
    // Flat mid-tower profile: identical geometry + identical rates keep the
    // per-layer service times even, so balanced stage splits exist.
    rates.push_back(0.18);
  }
  rates.push_back(0.10);  // head (10 classes; ~1 winner)
  return rates;
}

std::vector<double> calibrate_thresholds(Network& net,
                                         std::span<const Tensor> images,
                                         std::span<const double> target_rates) {
  SPK_CHECK(target_rates.size() >= net.num_layers(),
            "need one target rate per layer");
  SPK_CHECK(!images.empty(), "need at least one calibration image");

  const std::size_t n_img = images.size();
  const std::size_t n_layers = net.num_layers();
  std::vector<double> achieved(n_layers, 0.0);

  // Per-image spike map flowing into the current layer.
  std::vector<SpikeMap> carry(n_img);
  std::vector<Tensor> padded_imgs(n_img);

  // The per-image passes fan out on a transient pool above the set-up gate;
  // every image writes only its own slots, so the result is the serial one.
  std::optional<runtime::WorkerPool> setup;
  if (net.threaded_setup()) setup.emplace(static_cast<int>(n_img) - 1);
  runtime::WorkerPool* const workers = setup ? &*setup : nullptr;

  for (std::size_t l = 0; l < n_layers; ++l) {
    LayerSpec& spec = net.layer(l);
    const LayerWeights& w = net.weights(l);

    // 1) Input currents for every calibration image (threshold-independent).
    std::vector<Tensor> currents(n_img);
    runtime::for_each_index(workers, n_img, [&](std::size_t i) {
      if (spec.kind == LayerKind::kEncodeConv) {
        padded_imgs[i] = Reference::pad_dense(
            images[i], Reference::encode_padding(spec, images[i]));
        currents[i] = Reference::conv_currents_dense(padded_imgs[i], w);
      } else if (spec.kind == LayerKind::kConv) {
        currents[i] = Reference::conv_currents(carry[i], w);
      } else {
        currents[i] = Reference::fc_currents(carry[i], w);
      }
    });

    // 2) v_th = (1 - target)-quantile of the pooled current distribution:
    // the qi-th smallest current, selected in linear time (the element a
    // full sort would put at qi). Serial, in image order.
    std::vector<float> pool;
    for (const auto& t : currents) pool.insert(pool.end(), t.v.begin(), t.v.end());
    const double target = target_rates[l];
    auto qi = static_cast<std::size_t>(
        std::clamp((1.0 - target) * static_cast<double>(pool.size()),
                   0.0, static_cast<double>(pool.size() - 1)));
    const auto nth = pool.begin() + static_cast<std::ptrdiff_t>(qi);
    std::nth_element(pool.begin(), nth, pool.end());
    float vth = *nth;
    if (vth <= 0.0f) vth = 1e-3f;  // keep thresholds positive
    spec.lif.v_th = vth;
    spec.lif.v_rst = vth;

    // 3) Fire with the chosen threshold and prepare the next layer's inputs.
    std::vector<std::size_t> fired(n_img), seen(n_img);
    runtime::for_each_index(workers, n_img, [&](std::size_t i) {
      Tensor membrane(currents[i].h, currents[i].w, currents[i].c);
      SpikeMap out = lif_step(spec.lif, currents[i], membrane);
      fired[i] = spike_count(out);
      seen[i] = out.size();
      if (spec.pool_after) out = or_pool2(out);
      if (l + 1 < n_layers) {
        if (net.layer(l + 1).kind == LayerKind::kFc) {
          out = Reference::flatten(out);
        } else {
          out = pad(out, spec.pad_next);
        }
      }
      carry[i] = std::move(out);
    });
    const std::size_t spikes =
        std::accumulate(fired.begin(), fired.end(), std::size_t{0});
    const std::size_t total =
        std::accumulate(seen.begin(), seen.end(), std::size_t{0});
    achieved[l] = total ? static_cast<double>(spikes) / static_cast<double>(total)
                        : 0.0;
  }
  return achieved;
}

}  // namespace spikestream::snn
