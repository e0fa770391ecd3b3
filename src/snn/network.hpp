// Network description: a sequence of layer specs plus their weights.
// Includes the S-VGG11 factory matching the ifmap shapes in the paper's
// Fig. 3a (see DESIGN.md §5) and weight quantization for FP16/FP8 runs.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/float_formats.hpp"
#include "common/rng.hpp"
#include "snn/lif.hpp"
#include "snn/tensor.hpp"

namespace spikestream::snn {

enum class LayerKind {
  kEncodeConv,  ///< first layer: dense RGB input, conv-as-matmul (III-F)
  kConv,        ///< spiking conv on compressed ifmaps
  kFc,          ///< spiking fully-connected
};

struct LayerSpec {
  LayerKind kind = LayerKind::kConv;
  std::string name;
  // Spatial geometry. For convs, in_h/in_w are the padded ifmap dims; the
  // valid conv output is (in_h - k + 1) x (in_w - k + 1). FC layers use
  // in_c/out_c only (in_h = in_w = 1).
  int in_h = 1, in_w = 1, in_c = 1;
  int k = 3;
  int out_c = 1;
  bool pool_after = false;  ///< 2x2 OR-pool on the output spikes
  int pad_next = 1;         ///< zero padding applied before the next layer
  LifParams lif;

  int out_h() const { return kind == LayerKind::kFc ? 1 : in_h - k + 1; }
  int out_w() const { return kind == LayerKind::kFc ? 1 : in_w - k + 1; }
  /// Synaptic fan-in per output neuron.
  std::size_t fan_in() const {
    return kind == LayerKind::kFc
               ? static_cast<std::size_t>(in_c)
               : static_cast<std::size_t>(k) * k * static_cast<std::size_t>(in_c);
  }
};

/// Flat weight tensor for one layer, logically (kh, kw, c_in, c_out) for
/// convs and (c_in, c_out) for FC — the batched-HWC layout of Section III-C
/// (output channel innermost so SIMD lanes read contiguous words).
struct LayerWeights {
  int k = 1, in_c = 1, out_c = 1;
  std::vector<float> v;

  /// IEEE binary16 bit pattern of every element of `v`, valid iff
  /// `half_exact`. Written by the FP16 quantize pass itself, and by
  /// `build_half()` after FP8 quantization (every FP8 value is a binary16
  /// value); He-initialized FP32 weights do not round-trip. The conv/FC
  /// functional kernels then stream weight rows at half the memory traffic
  /// and convert on the fly, with results bit-identical to the float32 path.
  std::vector<std::uint16_t> half;
  bool half_exact = false;

  /// (Re)build `half` from `v`; frees it when any value does not round-trip
  /// float -> half -> float bit-exactly.
  void build_half();

  std::size_t index(int kh, int kw, int ci, int co) const {
    return ((static_cast<std::size_t>(kh) * static_cast<std::size_t>(k) + kw) *
                static_cast<std::size_t>(in_c) +
            static_cast<std::size_t>(ci)) *
               static_cast<std::size_t>(out_c) +
           static_cast<std::size_t>(co);
  }
  float at(int kh, int kw, int ci, int co) const {
    return v[index(kh, kw, ci, co)];
  }
};

class Network {
 public:
  /// Appends a layer with zeroed weights. Throws Error, naming the layer and
  /// the field, unless in_c, out_c >= 1 and pad_next >= 0, and for conv and
  /// encode layers k >= 1 and in_h, in_w >= k. A layer after the first must
  /// take exactly the previous layer's routed output — its spikes, OR-pooled
  /// to half H and W when pool_after, then flattened (FC: in_c = H*W*C) or
  /// padded by pad_next (conv: in_h = H + 2*pad_next, in_w likewise, in_c =
  /// C) — and only an FC layer may follow an FC layer; an encode layer,
  /// which reads the image, must come first. That Error names both layers.
  void add_layer(const LayerSpec& spec);

  std::size_t num_layers() const { return layers_.size(); }
  std::span<const LayerSpec> layers() const { return layers_; }
  const LayerSpec& layer(std::size_t i) const { return layers_[i]; }
  LayerSpec& layer(std::size_t i) { return layers_[i]; }
  const LayerWeights& weights(std::size_t i) const { return weights_[i]; }
  LayerWeights& weights(std::size_t i) { return weights_[i]; }

  /// He-initialize all weights (deterministic given the seed). Weight g of
  /// the flattened layers takes draws 2g and 2g + 1 of `rng`'s stream, which
  /// is left where that serial loop leaves it. Above the set-up gate the
  /// weights fill in chunks of kInitChunk on a transient worker pool, each
  /// chunk from its own jumped-ahead copy of `rng`: same bits, more cores.
  void init_weights(common::Rng& rng);

  /// Weights per He-init chunk.
  static constexpr std::size_t kInitChunk = std::size_t{1} << 16;
  /// All layers' weights.
  std::size_t num_weights() const;
  /// The set-up gate: init_weights and calibrate_thresholds fan out over a
  /// transient worker pool only for networks of at least two init chunks;
  /// smaller ones run serially and start no thread.
  bool threaded_setup() const { return num_weights() >= 2 * kInitChunk; }

  /// Round every weight to the given storage format (Section III-C batches
  /// them in SIMD words of this format).
  void quantize_weights(common::FpFormat fmt);

  /// The paper's S-VGG11 adapted to CIFAR10 (Fig. 3a shapes; DESIGN.md §5).
  static Network make_svgg11();

  /// A small 3-layer network for tests and the quickstart example.
  static Network make_tiny(int in_hw = 10, int in_c = 8, int mid_c = 16,
                           int out_n = 4);

  /// FC-heavy classifier used as the DMA spill test vehicle: a thin encode
  /// conv feeding a squeeze -> very wide -> head FC stack. The wide layer
  /// (512 -> 4096) plans large per-lane accumulator slices
  /// (co_per_tile * fb), so at batch 16-32 the segment-major schedule must
  /// park lanes and spill their partial sums through DRAM — S-VGG11 at
  /// batch 8 spills zero bytes, which is exactly what this net exists to
  /// exercise (banked-DRAM row pricing + double-buffered spill/fill).
  static Network make_wide_fc();

  /// Deep narrow conv tower used as the stage-pipeline bench vehicle: an
  /// encode layer feeding `depth` identical tiny convs (8x8 spatial, few
  /// SIMD channel groups) and a small FC head. Each layer's work is a small
  /// multiple of the fixed per-layer launch overheads (I$ warmup,
  /// activation setup), which do not shrink with cluster count — so
  /// data-parallel sharding scales poorly and the pipeline planner assigns
  /// layer ranges to cluster groups instead (S-VGG11's fat layers keep
  /// choosing data-parallel on the same cost query).
  static Network make_deep_tower(int depth = 14, int in_hw = 8,
                                 int channels = 8);

 private:
  std::vector<LayerSpec> layers_;
  std::vector<LayerWeights> weights_;
};

}  // namespace spikestream::snn
