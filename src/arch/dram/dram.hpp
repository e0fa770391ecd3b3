// Banked-DRAM timing model (ROADMAP "High-fidelity memory system").
//
// The planner's cost queries used to price every DMA byte at one flat
// bandwidth plus one flat per-transfer latency, so a sequential weight-band
// stream and a strided partial-sum spill cost the same per byte. This header
// is the single source of truth for the external-memory timing instead:
//
//  * `DramConfig` — bank count, row-buffer size and tCAS/tRP/tRCD-style
//    row-hit vs row-miss first-beat costs, plus the flat-bandwidth legacy
//    constants (`flat_legacy` reproduces the historical numbers bit-exactly).
//  * `DramConfig::stream()` — closed-form cost of an access sequence of
//    `n_runs` contiguous runs: row activations, row-buffer hits and busy
//    cycles are derived per run, never per beat, so the planner's hot path
//    stays allocation-free and O(1) per stream.
//
// The cycle-level DMA engine (arch/dma.hpp) and the cluster memory map
// (arch/mem.hpp) source their flat first-beat latency and port width from
// the same constants below, so legacy mode and the banked model can never
// drift apart.
#pragma once

#include <algorithm>
#include <cmath>

namespace spikestream::arch {

// Flat-model constants shared by MemConfig (cycle-level DMA), the legacy
// cost-query expressions and the banked model's request overhead. One
// definition; every consumer derives from here.
inline constexpr int kDramBytesPerCycle = 64;   ///< 512-bit port to L2/HBM
inline constexpr int kDramRequestLatency = 100; ///< cycles to first beat

/// SEC-DED ECC model for the external-memory channel and the SPM (PR-10 data
/// integrity). A (72,64) Hamming+parity code: every 64-bit data word carries
/// 8 check bits; single-bit errors are corrected in-line, double-bit errors
/// are detected but uncorrectable (they surface as a machine-check — in the
/// serving stack, a TransientFault retry). Off by default: with
/// `enabled == false` every counter stays zero and no cycle or energy term
/// changes, the same `flat_legacy`-style bit-exactness contract the banked
/// DRAM model honors.
///
/// The model is closed-form over the words a layer actually moved (DRAM
/// beats and TCDM interconnect words — see finish_timing's overlay in
/// kernels/layer_kernels.cpp): expected corrected / uncorrectable counts are
/// binomial expectations at raw bit-error rate `ber` per (72-bit codeword,
/// access), never drawn from a RNG, so modeled numbers replay bit-identically
/// on any host.
struct EccConfig {
  bool enabled = false;  ///< master switch; false = bit-exact legacy numbers

  /// Raw per-bit error probability per access (a DDR4-class figure; scale it
  /// up in benches to make the expected counts visible).
  double ber = 1e-12;

  // --- overhead timing ------------------------------------------------------
  /// Decode/correct pipeline cost per 64 B DRAM beat. The checker runs wide
  /// (8 codewords per beat in parallel) and mostly pipelines under the
  /// transfer, so the exposed cost is a fraction of a cycle per beat.
  double dram_cycles_per_beat = 0.25;
  /// Amortized check cost per 64-bit word through the TCDM interconnect.
  /// SEC-DED on SPM reads adds one pipeline stage whose latency hides under
  /// the issue-limited streams; the exposed cost is the occasional stall when
  /// the checker's result lands on the critical path (~1 word in 200).
  double spm_cycles_per_word = 0.005;
  /// Background scrub: every `scrub_interval_cycles` the controller re-reads
  /// the layer's DRAM-resident footprint to flush accumulating single-bit
  /// errors before they pair up. Amortized into the layer's cycles as
  /// (layer cycles / interval) * (footprint bytes / channel bandwidth).
  /// 10 ms at 1 GHz — aggressive next to real controllers' multi-second
  /// sweeps, but visible in short simulated windows. 0 disables scrub
  /// modeling.
  double scrub_interval_cycles = 1.0e7;

  /// Bits per protected codeword: 64 data + 8 check.
  static constexpr double kCodewordBits = 72.0;

  /// Expected single-bit (corrected) errors over `words` codeword accesses.
  double expected_corrected(double words) const {
    return words * kCodewordBits * ber;
  }
  /// Expected double-bit (detected-uncorrectable) errors over `words`
  /// accesses: C(72,2) * ber^2 per codeword.
  double expected_uncorrectable(double words) const {
    return words * (kCodewordBits * (kCodewordBits - 1.0) / 2.0) * ber * ber;
  }
};

/// Closed-form cost of one or more access sequences. `bytes` are the bytes
/// moved; hits/misses count row-buffer outcomes at 64 B beat granularity, so
/// hit_rate() reads as "fraction of beats served from an open row".
struct DramCost {
  double bytes = 0;
  double cycles = 0;
  double row_hits = 0;
  double row_misses = 0;

  void accumulate(const DramCost& o) {
    bytes += o.bytes;
    cycles += o.cycles;
    row_hits += o.row_hits;
    row_misses += o.row_misses;
  }
  double hit_rate() const {
    const double beats = row_hits + row_misses;
    return beats > 0 ? row_hits / beats : 0.0;
  }
};

struct DramConfig {
  /// Reproduce the historical flat pricing exactly: cost queries keep the
  /// original bytes/bandwidth + transfers*latency expressions (same
  /// floating-point operation order) and report zero row activity. The
  /// banked model below is opt-in via `banked()`.
  bool flat_legacy = true;

  // --- channel (shared by both modes) --------------------------------------
  double bytes_per_cycle = kDramBytesPerCycle;
  double request_latency = kDramRequestLatency;  ///< controller + flight time

  // --- bank/row geometry and timing (banked mode) --------------------------
  int banks = 8;            ///< row activations interleave across banks
  double row_bytes = 2048;  ///< row-buffer (DRAM page) size
  double t_cas = 12;        ///< column access on an open row (row hit)
  double t_rp = 18;         ///< precharge the open row
  double t_rcd = 20;        ///< activate the new row
  /// Allow the segment-major schedule to trade one resident batch lane for a
  /// bounce buffer that overlaps spill/fill with the next band's weight
  /// stream (see kernels/tiling.hpp). Banked mode only.
  bool spill_double_buffer = true;

  // --- error protection ----------------------------------------------------
  /// SEC-DED ECC on the channel and the SPM. Off by default (bit-exact
  /// historical numbers); kernels overlay its cycle/energy cost and expected
  /// corrected/uncorrectable counts in finish_timing when enabled.
  EccConfig ecc;

  /// First-beat penalty on a closed (or wrong) row: tRP + tRCD + tCAS.
  double row_miss_cost() const { return t_rp + t_rcd + t_cas; }
  /// First-beat cost on an open row.
  double row_hit_cost() const { return t_cas; }

  /// Cycles of row-activation latency the bank-level parallelism can hide:
  /// while one bank activates, the other banks' open rows keep the channel
  /// busy for (banks-1) row-transfers in steady state. Activations beyond
  /// the first of a long sequential run are exposed only past this window.
  double hidden_activation_window() const {
    return (static_cast<double>(banks) - 1.0) * row_bytes / bytes_per_cycle;
  }

  /// Closed-form cost of an access sequence: `total_bytes` split into
  /// `n_runs` contiguous runs (a run = one DMA transfer touching consecutive
  /// addresses; distinct runs land on unrelated rows). Fractional `n_runs`
  /// are per-sample amortized batch means — the per-run shape is still
  /// priced from the true run size `total_bytes / n_runs`.
  ///
  /// Per run: the first row always misses (request_latency + row_miss_cost
  /// before the first beat); subsequent rows of the same run activate while
  /// the other banks stream, so only the part of row_miss_cost that exceeds
  /// hidden_activation_window() is exposed. Data beats move at
  /// bytes_per_cycle regardless — the row model only adds first-beat
  /// latencies, which is what makes many-small-run (strided) sequences
  /// expensive and few-large-run (sequential) sequences approach peak
  /// bandwidth.
  DramCost stream(double total_bytes, double n_runs) const {
    DramCost c;
    c.bytes = total_bytes;
    if (total_bytes <= 0 || n_runs <= 0) return c;
    if (flat_legacy) {
      c.cycles = total_bytes / bytes_per_cycle + n_runs * request_latency;
      return c;  // flat mode: no row accounting
    }
    const double run_bytes = total_bytes / n_runs;
    const double beats = std::ceil(run_bytes / bytes_per_cycle);
    const double rows = std::max(1.0, std::ceil(run_bytes / row_bytes));
    const double exposed_extra =
        std::max(0.0, row_miss_cost() - hidden_activation_window());
    c.row_misses = n_runs * rows;
    c.row_hits = std::max(0.0, n_runs * (beats - rows));
    c.cycles = total_bytes / bytes_per_cycle +
               n_runs * (request_latency + row_miss_cost() +
                         (rows - 1.0) * exposed_extra);
    return c;
  }

  /// The historical flat model, spelled explicitly.
  static DramConfig flat() { return DramConfig{}; }

  /// Banked row-buffer timing with default geometry.
  static DramConfig banked() {
    DramConfig d;
    d.flat_legacy = false;
    return d;
  }
};

}  // namespace spikestream::arch
