// The paper's CSR-derived fiber-tree compression for binary ifmaps
// (Section III-A). Spike values are implicitly "1", so only positions are
// stored: `c_idcs` holds the channel indices of active neurons, grouped by
// spatial position in row-major order; `s_ptr` aggregates the spiking-neuron
// count per spatial position (stored as 16-bit counts, prefix-summed on the
// fly). FC layers degenerate to a single index array plus a count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "snn/tensor.hpp"

namespace spikestream::compress {

class CsrIfmap {
 public:
  CsrIfmap() = default;

  /// Compress a binary HWC spike map.
  static CsrIfmap encode(const snn::SpikeMap& dense);

  /// Compress into a caller-owned CsrIfmap, reusing its `s_ptr`/`c_idcs`
  /// buffers (capacity is retained across calls, so a warmed-up buffer
  /// encodes with zero heap allocations).
  static void encode_into(const snn::SpikeMap& dense, CsrIfmap& out);

  /// Pre-reserve for maps of up to `positions` spatial positions and
  /// `nnz_cap` spikes. With the zero-sparsity worst case of a layer's input
  /// shape, every later encode_into() on this object is heap-allocation-free
  /// whatever occupancy the workload reaches.
  void reserve(std::size_t positions, std::size_t nnz_cap) {
    s_ptr_.reserve(positions + 1);
    c_idcs_.reserve(nnz_cap);
  }

  /// Footprint a map with `nnz` spikes over h*w positions would compress to,
  /// without materializing the encoding (the hot path only needs the size).
  static std::size_t footprint_from_count(std::size_t nnz, int h, int w,
                                          int idx_bytes = 2) {
    return nnz * static_cast<std::size_t>(idx_bytes) +
           static_cast<std::size_t>(h) * static_cast<std::size_t>(w) *
               static_cast<std::size_t>(idx_bytes);
  }

  /// Reconstruct the dense binary map (for tests / golden comparisons).
  snn::SpikeMap decode() const;

  /// Copy spatial rows [y_lo, y_hi) into a caller-owned CsrIfmap whose
  /// buffers are reused (capacity retained, zero allocations once warm).
  /// Prefix sums and channel indices are rebased so `out` is a standalone
  /// (y_hi - y_lo, w, c) map — the halo'd input a sharded stripe owns, which
  /// the sharded backend reads in place (rows_footprint_bytes) and tests
  /// time as the stripe's own sub-problem.
  void slice_rows_into(int y_lo, int y_hi, CsrIfmap& out) const {
    SPK_CHECK(0 <= y_lo && y_lo <= y_hi && y_hi <= h_,
              "CsrIfmap: bad row slice [" << y_lo << ", " << y_hi << ")");
    out.h_ = y_hi - y_lo;
    out.w_ = w_;
    out.c_ = c_;
    const std::size_t p_lo =
        static_cast<std::size_t>(y_lo) * static_cast<std::size_t>(w_);
    const std::size_t p_hi =
        static_cast<std::size_t>(y_hi) * static_cast<std::size_t>(w_);
    const std::uint32_t base = s_ptr_[p_lo];
    out.s_ptr_.resize(p_hi - p_lo + 1);
    for (std::size_t p = p_lo; p <= p_hi; ++p) {
      out.s_ptr_[p - p_lo] = s_ptr_[p] - base;
    }
    out.c_idcs_.assign(
        c_idcs_.begin() + static_cast<std::ptrdiff_t>(s_ptr_[p_lo]),
        c_idcs_.begin() + static_cast<std::ptrdiff_t>(s_ptr_[p_hi]));
  }

  int h() const { return h_; }
  int w() const { return w_; }
  int c() const { return c_; }
  std::size_t nnz() const { return c_idcs_.size(); }
  double density() const {
    const auto total = static_cast<double>(h_) * w_ * c_;
    return total > 0 ? static_cast<double>(nnz()) / total : 0.0;
  }

  /// Channel indices of the spikes at spatial position (y, x).
  std::span<const std::uint16_t> at(int y, int x) const {
    const std::size_t p = static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(w_) +
                          static_cast<std::size_t>(x);
    return {c_idcs_.data() + s_ptr_[p],
            static_cast<std::size_t>(s_ptr_[p + 1] - s_ptr_[p])};
  }

  /// Number of spikes at spatial position (y, x) — the SpVA stream length.
  std::uint32_t stream_len(int y, int x) const {
    const std::size_t p = static_cast<std::size_t>(y) *
                              static_cast<std::size_t>(w_) +
                          static_cast<std::size_t>(x);
    return s_ptr_[p + 1] - s_ptr_[p];
  }

  const std::vector<std::uint32_t>& s_ptr() const { return s_ptr_; }
  const std::vector<std::uint16_t>& c_idcs() const { return c_idcs_; }

  /// Storage footprint in bytes with `idx_bytes`-wide indices and counts
  /// (the paper assumes 2). `s_ptr` is stored as one count per position.
  std::size_t footprint_bytes(int idx_bytes = 2) const {
    const std::size_t positions = static_cast<std::size_t>(h_) * w_;
    return nnz() * static_cast<std::size_t>(idx_bytes) +
           positions * static_cast<std::size_t>(idx_bytes);
  }

  /// Footprint of spatial rows [y_lo, y_hi) alone — what slice_rows_into
  /// would copy them to — read off the prefix sums without copying.
  std::size_t rows_footprint_bytes(int y_lo, int y_hi,
                                   int idx_bytes = 2) const {
    const std::size_t w = static_cast<std::size_t>(w_);
    return footprint_from_count(
        s_ptr_[static_cast<std::size_t>(y_hi) * w] -
            s_ptr_[static_cast<std::size_t>(y_lo) * w],
        y_hi - y_lo, w_, idx_bytes);
  }

 private:
  int h_ = 0, w_ = 0, c_ = 0;
  std::vector<std::uint32_t> s_ptr_;   ///< h*w+1 prefix sums
  std::vector<std::uint16_t> c_idcs_;  ///< channel index per spike
};

}  // namespace spikestream::compress
