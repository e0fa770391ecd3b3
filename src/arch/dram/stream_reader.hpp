// StreamReader: converts access sequences into row-hit/row-miss counts and
// busy cycles against a DramConfig, analytically — per contiguous run (or
// per touched row for the address-tracking variant), never per beat. All
// state is inline fixed-size storage, so steady-state accounting allocates
// nothing (pinned by tests/test_scratch_reuse.cpp).
//
// Two accounting surfaces:
//  * stream()/write(): stateless amortized runs — what the tile planner's
//    cost queries use (run counts may be fractional per-sample batch means).
//  * touch(): address-tracked accesses against per-bank open-row state —
//    consecutive touches to the same row hit regardless of run boundaries,
//    which is what makes re-reads of a resident row cheap and interleaved
//    streams (spill slices between weight bands) pay real activations.
#pragma once

#include <array>
#include <cstdint>

#include "arch/dram/dram.hpp"

namespace spikestream::arch {

class StreamReader {
 public:
  static constexpr int kMaxBanks = 32;

  explicit StreamReader(const DramConfig& cfg) : cfg_(cfg) { reset(); }

  const DramConfig& config() const { return cfg_; }
  const DramCost& cost() const { return cost_; }

  void reset() {
    cost_ = DramCost{};
    open_row_.fill(-1);
  }

  /// Account one read sequence: `total_bytes` over `n_runs` contiguous runs
  /// (closed-form, stateless — see DramConfig::stream).
  void stream(double total_bytes, double n_runs) {
    cost_.accumulate(cfg_.stream(total_bytes, n_runs));
  }
  /// Writes share the channel and the row buffers; timing is symmetric.
  void write(double total_bytes, double n_runs) { stream(total_bytes, n_runs); }

  /// Address-tracked access: walk the rows [addr, addr + bytes) touches and
  /// charge each against the owning bank's open-row register. Rows map to
  /// banks round-robin (row-interleaved), so a sequential run activates all
  /// banks in turn and later activations overlap the other banks' transfers.
  void touch(std::uint64_t addr, std::uint64_t bytes) {
    if (bytes == 0) return;
    const auto row_bytes = static_cast<std::uint64_t>(cfg_.row_bytes);
    const int banks = std::min(std::max(cfg_.banks, 1), kMaxBanks);
    const double exposed_extra =
        std::max(0.0, cfg_.row_miss_cost() - cfg_.hidden_activation_window());
    cost_.bytes += static_cast<double>(bytes);
    cost_.cycles += static_cast<double>(bytes) / cfg_.bytes_per_cycle +
                    cfg_.request_latency;
    const std::uint64_t first_row = addr / row_bytes;
    const std::uint64_t last_row = (addr + bytes - 1) / row_bytes;
    bool first = true;
    for (std::uint64_t r = first_row; r <= last_row; ++r) {
      const auto bank = static_cast<std::size_t>(r % banks);
      const std::uint64_t lo = std::max(addr, r * row_bytes);
      const std::uint64_t hi = std::min(addr + bytes, (r + 1) * row_bytes);
      const double beats =
          std::ceil(static_cast<double>(hi - lo) / cfg_.bytes_per_cycle);
      if (open_row_[bank] == static_cast<std::int64_t>(r)) {
        cost_.row_hits += beats;
      } else {
        open_row_[bank] = static_cast<std::int64_t>(r);
        cost_.row_misses += 1;
        cost_.row_hits += std::max(0.0, beats - 1.0);
        // The first activation of the touch serializes with the request;
        // later ones overlap the other banks' transfers.
        cost_.cycles += first ? cfg_.row_miss_cost() : exposed_extra;
      }
      first = false;
    }
  }

 private:
  DramConfig cfg_;
  DramCost cost_;
  /// Open row per bank, -1 = closed. Fixed array: no per-access allocation.
  std::array<std::int64_t, kMaxBanks> open_row_{};
};

}  // namespace spikestream::arch
