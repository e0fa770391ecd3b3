// Golden dense reference for SNN inference. Deliberately naive (dense loops,
// no compression, no timing): the optimized kernels in src/kernels must match
// its spike outputs bit-exactly, which the integration tests verify.
#pragma once

#include <vector>

#include "snn/network.hpp"
#include "snn/tensor.hpp"

namespace spikestream::snn {

/// Per-layer tensors produced while running one timestep.
struct LayerIo {
  Tensor dense_input;    ///< encode layer only: padded HWC image
  SpikeMap spike_input;  ///< conv/FC layers: padded input spikes
  SpikeMap output;       ///< raw output spikes (before pool / pad)
  SpikeMap next_input;   ///< after pool_after + pad_next: next layer's ifmap
};

class Reference {
 public:
  /// Keeps a reference to `net`, which must outlive this object.
  explicit Reference(const Network& net);
  Reference(const Network&&) = delete;  ///< would dangle on a temporary

  /// Run one timestep on a raw (unpadded) image; returns per-layer IO.
  /// Membrane state persists across calls for multi-timestep runs.
  const std::vector<LayerIo>& step(const Tensor& image);

  /// Clear membrane potentials (start of a new input sample).
  void reset();

  const Tensor& membrane(std::size_t layer) const { return membranes_[layer]; }

  // --- stateless building blocks (also used by calibration) ---------------
  static Tensor conv_currents(const SpikeMap& in_padded, const LayerWeights& w);
  static Tensor conv_currents_dense(const Tensor& in_padded,
                                    const LayerWeights& w);
  /// Scratch-buffer variant of conv_currents_dense: `out` is reshaped and
  /// overwritten (no allocation once its capacity is warm). This is the one
  /// implementation of the dense encode matmul; the encode kernel calls it
  /// too, so kernel and reference stay bit-identical by construction.
  static void conv_currents_dense_into(const Tensor& in_padded,
                                       const LayerWeights& w, Tensor& out);
  /// conv_currents_dense_into for output rows [oy0, oy1) only, into an `out`
  /// already shaped for the whole layer (the encode kernel's row tiles).
  static void conv_currents_dense_rows(const Tensor& in_padded,
                                       const LayerWeights& w, Tensor& out,
                                       int oy0, int oy1);
  static Tensor fc_currents(const SpikeMap& in_flat, const LayerWeights& w);
  /// Border padding that turns a raw `image` into encode layer `spec`'s
  /// padded input. Throws Error unless the image fits exactly: same
  /// channels and equal, even, non-negative margins in both dimensions.
  static int encode_padding(const LayerSpec& spec, const Tensor& image);
  static Tensor pad_dense(const Tensor& t, int p);
  /// Scratch-buffer variant of pad_dense (engine hot path).
  static void pad_dense_into(const Tensor& t, int p, Tensor& out);
  /// Flatten an HWC spike map into a 1x1xN map (FC input).
  static SpikeMap flatten(const SpikeMap& s);

 private:
  const Network& net_;
  std::vector<Tensor> membranes_;
  std::vector<LayerIo> io_;
};

}  // namespace spikestream::snn
