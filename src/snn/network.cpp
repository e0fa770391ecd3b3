#include "snn/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "runtime/worker_pool.hpp"

namespace spikestream::snn {

namespace {

/// Throws unless `next` takes exactly what `prev` routes to it: its output
/// OR-pooled (H and W halved) when pool_after, then flattened for an FC
/// layer or zero-padded by pad_next on every border for a conv.
void require_connected(const LayerSpec& prev, const LayerSpec& next) {
  SPK_CHECK(next.kind != LayerKind::kEncodeConv,
            "layer '" << next.name << "': kind is encode, which reads the "
                      << "image, so it cannot follow layer '" << prev.name
                      << "'");
  SPK_CHECK(prev.kind != LayerKind::kFc || next.kind == LayerKind::kFc,
            "layer '" << next.name << "': kind is conv, but only an FC "
                      << "layer may follow FC layer '" << prev.name << "'");
  int h = prev.out_h(), w = prev.out_w();
  if (prev.pool_after) {
    h /= 2;
    w /= 2;
  }
  const auto routed = [&](const char* field, int got, long long want) {
    SPK_CHECK(got == want, "layer '" << next.name << "': " << field << " = "
                                     << got << ", but layer '" << prev.name
                                     << "' routes " << want);
  };
  if (next.kind == LayerKind::kFc) {
    routed("in_c", next.in_c, static_cast<long long>(h) * w * prev.out_c);
    return;
  }
  routed("in_h", next.in_h, h + 2LL * prev.pad_next);
  routed("in_w", next.in_w, w + 2LL * prev.pad_next);
  routed("in_c", next.in_c, prev.out_c);
}

}  // namespace

void Network::add_layer(const LayerSpec& spec) {
  const auto require = [&](const char* field, int value, int min) {
    SPK_CHECK(value >= min, "layer '" << spec.name << "': " << field << " = "
                                      << value << ", must be >= " << min);
  };
  require("in_c", spec.in_c, 1);
  require("out_c", spec.out_c, 1);
  require("pad_next", spec.pad_next, 0);
  if (spec.kind != LayerKind::kFc) {
    require("k", spec.k, 1);
    require("in_h", spec.in_h, spec.k);
    require("in_w", spec.in_w, spec.k);
  }
  if (!layers_.empty()) require_connected(layers_.back(), spec);
  LayerWeights w;
  w.k = spec.kind == LayerKind::kFc ? 1 : spec.k;
  w.in_c = spec.in_c;
  w.out_c = spec.out_c;
  w.v.assign(static_cast<std::size_t>(w.k) * w.k *
                 static_cast<std::size_t>(w.in_c) *
                 static_cast<std::size_t>(w.out_c),
             0.0f);
  layers_.push_back(spec);
  weights_.push_back(std::move(w));
}

std::size_t Network::num_weights() const {
  std::size_t n = 0;
  for (const LayerWeights& w : weights_) n += w.v.size();
  return n;
}

void Network::init_weights(common::Rng& rng) {
  std::vector<std::size_t> first{0};  // flat index of each layer's weight 0
  for (const LayerWeights& w : weights_) {
    first.push_back(first.back() + w.v.size());
  }
  // Flat weights [g, end) from `r`: two draws each (Rng::normal has no
  // rejection step), in the scalar libm expression the weight image pins.
  const auto fill = [&](common::Rng& r, std::size_t g, std::size_t end) {
    auto l = static_cast<std::size_t>(
        std::upper_bound(first.begin(), first.end(), g) - first.begin() - 1);
    for (; g < end; ++l) {
      const double fan_in = static_cast<double>(layers_[l].fan_in());
      const double stddev = std::sqrt(2.0 / fan_in);
      std::vector<float>& v = weights_[l].v;
      for (const std::size_t stop = std::min(end, first[l + 1]); g < stop; ++g) {
        v[g - first[l]] = static_cast<float>(r.normal(0.0, stddev));
      }
    }
  };
  const std::size_t n = first.back();
  if (!threaded_setup()) {
    fill(rng, 0, n);
    return;
  }
  // Chunk c starts 2 * c * kInitChunk draws after `rng`.
  const std::size_t chunks = (n + kInitChunk - 1) / kInitChunk;
  std::vector<common::Rng> streams(chunks, rng);
  const common::Rng::Jump to_next_chunk(2 * kInitChunk);
  for (std::size_t c = 1; c < chunks; ++c) {
    streams[c] = streams[c - 1];
    to_next_chunk.apply(streams[c]);
  }
  runtime::WorkerPool pool(static_cast<int>(chunks) - 1);
  runtime::for_each_index(&pool, chunks, [&](std::size_t c) {
    fill(streams[c], c * kInitChunk, std::min(n, (c + 1) * kInitChunk));
  });
  rng = streams.back();  // the last chunk ends where the serial loop does
}

void LayerWeights::build_half() {
  half.resize(v.size());
  half_exact = common::simd::fp16_pack_exact(v.data(), half.data(),
                                             v.size()) == v.size();
  if (!half_exact) std::vector<std::uint16_t>().swap(half);
}

void Network::quantize_weights(common::FpFormat fmt) {
  for (auto& w : weights_) {
    if (fmt == common::FpFormat::FP16) {
      // One pass rounds `v` and writes its binary16 image, which is exact by
      // construction — the same result as quantize() + build_half().
      w.half.resize(w.v.size());
      common::simd::fp16_quantize(w.v.data(), w.half.data(), w.v.size());
      w.half_exact = true;
      continue;
    }
    for (float& x : w.v) x = common::quantize(x, fmt);
    w.build_half();
  }
}

Network Network::make_svgg11() {
  Network net;
  auto conv = [&](const char* name, LayerKind kind, int in_hw, int in_c,
                  int out_c, bool pool) {
    LayerSpec s;
    s.kind = kind;
    s.name = name;
    s.in_h = s.in_w = in_hw;
    s.in_c = in_c;
    s.k = 3;
    s.out_c = out_c;
    s.pool_after = pool;
    s.pad_next = 1;
    net.add_layer(s);
  };
  // Padded ifmap shapes follow Fig. 3a exactly:
  conv("conv1", LayerKind::kEncodeConv, 34, 3, 64, false);   // 34x34x3
  conv("conv2", LayerKind::kConv, 34, 64, 128, true);        // 34x34x64
  conv("conv3", LayerKind::kConv, 18, 128, 256, false);      // 18x18x128
  conv("conv4", LayerKind::kConv, 18, 256, 256, true);       // 18x18x256
  conv("conv5", LayerKind::kConv, 10, 256, 512, false);      // 10x10x256
  conv("conv6", LayerKind::kConv, 10, 512, 512, true);       // 10x10x512
  // After conv6: 8x8 -> pool -> 4x4x512 = 8192 inputs to the classifier.
  LayerSpec fc7;
  fc7.kind = LayerKind::kFc;
  fc7.name = "fc7";
  fc7.in_c = 4 * 4 * 512;
  fc7.out_c = 1024;
  net.add_layer(fc7);
  LayerSpec fc8;
  fc8.kind = LayerKind::kFc;
  fc8.name = "fc8";
  fc8.in_c = 1024;
  fc8.out_c = 10;
  net.add_layer(fc8);
  return net;
}

Network Network::make_wide_fc() {
  Network net;
  // Thin encode conv: 34x34x3 (padded CIFAR frame) -> 32x32x16, OR-pooled to
  // 16x16x16 = 4096 flattened classifier inputs.
  LayerSpec enc;
  enc.kind = LayerKind::kEncodeConv;
  enc.name = "enc";
  enc.in_h = enc.in_w = 34;
  enc.in_c = 3;
  enc.k = 3;
  enc.out_c = 16;
  enc.pool_after = true;
  net.add_layer(enc);
  auto fc = [&](const char* name, int in_c, int out_c) {
    LayerSpec s;
    s.kind = LayerKind::kFc;
    s.name = name;
    s.in_c = in_c;
    s.out_c = out_c;
    net.add_layer(s);
  };
  fc("fc1", 16 * 16 * 16, 512);  // squeeze
  // The spill vehicle: moderate fan-in keeps the co-tile wide (the planner
  // holds co_per_tile = 2048 at FP16 / 128 KiB SPM), so each batch lane's
  // partial-sum slice is co_per_tile * fb = 4 KiB and only ~14 lanes stay
  // resident — batches of 16-32 must spill through DRAM.
  fc("fc2", 512, 4096);
  fc("fc3", 4096, 10);  // head
  return net;
}

Network Network::make_deep_tower(int depth, int in_hw, int channels) {
  SPK_CHECK(in_hw >= 5, "deep tower needs at least 5x5 inputs");
  SPK_CHECK(depth >= 1, "deep tower needs at least one conv layer");
  Network net;
  LayerSpec enc;
  enc.kind = LayerKind::kEncodeConv;
  enc.name = "enc";
  enc.in_h = enc.in_w = in_hw;
  enc.in_c = 3;
  enc.k = 3;
  enc.out_c = channels;
  enc.pad_next = 1;
  net.add_layer(enc);
  // Identical tiny convs: output re-padded to the same spatial size, so every
  // tower layer presents the same ifmap geometry — the balanced shape the
  // stage planner splits into near-equal pipeline stages.
  for (int d = 1; d <= depth; ++d) {
    LayerSpec s;
    s.kind = LayerKind::kConv;
    s.name = "conv" + std::to_string(d);
    s.in_h = s.in_w = in_hw;
    s.in_c = channels;
    s.k = 3;
    s.out_c = channels;
    s.pad_next = 1;
    net.add_layer(s);
  }
  LayerSpec head;
  head.kind = LayerKind::kFc;
  head.name = "fc";
  head.in_c = (in_hw - 2) * (in_hw - 2) * channels;
  head.out_c = 10;
  net.add_layer(head);
  return net;
}

Network Network::make_tiny(int in_hw, int in_c, int mid_c, int out_n) {
  SPK_CHECK(in_hw >= 5, "tiny network needs at least 5x5 inputs");
  Network net;
  LayerSpec l1;
  l1.kind = LayerKind::kEncodeConv;
  l1.name = "enc";
  l1.in_h = l1.in_w = in_hw;
  l1.in_c = in_c;
  l1.k = 3;
  l1.out_c = mid_c;
  net.add_layer(l1);

  LayerSpec l2;
  l2.kind = LayerKind::kConv;
  l2.name = "conv";
  l2.in_h = l2.in_w = in_hw;  // output re-padded to the same spatial size
  l2.in_c = mid_c;
  l2.k = 3;
  l2.out_c = mid_c;
  net.add_layer(l2);

  LayerSpec l3;
  l3.kind = LayerKind::kFc;
  l3.name = "fc";
  l3.in_c = (in_hw - 2) * (in_hw - 2) * mid_c;
  l3.out_c = out_n;
  net.add_layer(l3);
  return net;
}

}  // namespace spikestream::snn
