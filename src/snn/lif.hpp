// Leaky Integrate-and-Fire neuron dynamics (Eq. 1 of the paper):
//   i_m(t)  = sum_n s_{i,n}(t) * w_n
//   v_m(t)  = v_m(t-1) * alpha + r * i_m(t) - v_rst * s_{o,m}(t)
//   s_o(t)  = 1 if v_m(t) >= v_th else 0
// With v_rst = v_th this is the usual "soft reset by subtraction".
#pragma once

#include "common/simd.hpp"
#include "snn/tensor.hpp"

namespace spikestream::snn {

struct LifParams {
  float v_th = 1.0f;    ///< membrane threshold (calibrated per layer)
  float alpha = 0.9f;   ///< leak / decay factor
  float r = 1.0f;       ///< membrane resistance
  float v_rst = 1.0f;   ///< reset subtraction (kept equal to v_th)
};

/// lif_step_into restricted to rows [y0, y1), for a layer split into row
/// tiles: `membrane` and `out` must already have `current`'s shape. Every
/// neuron updates independently, so tiles covering all rows compose to
/// exactly one lif_step_into.
inline std::size_t lif_step_rows(const LifParams& p, const Tensor& current,
                                 Tensor& membrane, SpikeMap& out, int y0,
                                 int y1) {
  const std::size_t row = static_cast<std::size_t>(current.w) * current.c;
  const std::size_t off = static_cast<std::size_t>(y0) * row;
  return common::simd::lif_step(current.v.data() + off,
                                membrane.v.data() + off, out.v.data() + off,
                                static_cast<std::size_t>(y1 - y0) * row,
                                p.alpha, p.r, p.v_th, p.v_rst);
}

/// One LIF timestep over a whole layer into a caller-owned spike buffer
/// (scratch-arena reuse, zero allocations in steady state): integrates
/// `current` into `membrane` (updated in place), writes the output spikes and
/// returns how many neurons fired. Dispatches to the widest host SIMD tier
/// available (common/simd.hpp); every tier computes v with a fused
/// mem * alpha + (r * cur), so results are bit-identical across tiers.
inline std::size_t lif_step_into(const LifParams& p, const Tensor& current,
                                 Tensor& membrane, SpikeMap& out) {
  SPK_CHECK(current.same_shape(membrane), "LIF shape mismatch");
  out.reshape(current.h, current.w, current.c);
  return lif_step_rows(p, current, membrane, out, 0, current.h);
}

/// One LIF timestep over a whole layer: integrates `current` into `membrane`
/// (updated in place) and writes the output spikes. Shapes must match.
inline SpikeMap lif_step(const LifParams& p, const Tensor& current,
                         Tensor& membrane) {
  SpikeMap out;
  lif_step_into(p, current, membrane, out);
  return out;
}

}  // namespace spikestream::snn
