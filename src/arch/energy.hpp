// Cluster energy model: per-event energies multiplied by activity counts,
// plus static/clock power. Constants are calibrated (see DESIGN.md §2) so the
// modeled cluster reproduces the paper's measured average powers at 1 GHz,
// 0.8 V, GF12LP+ (baseline FP16 0.1319 W, SpikeStream FP16 0.233 W,
// SpikeStream FP8 0.219 W). `Activity` holds exactly the counts the model
// prices; kernels::KernelStats::to_activity() is its one producer (called
// from runtime/engine.cpp and soa/comparison.cpp).
#pragma once

#include "common/float_formats.hpp"

namespace spikestream::arch {

/// Per-event energies in picojoules and static power in pJ/cycle.
struct EnergyParams {
  double int_instr = 4.0;     ///< integer datapath + regfile, per instruction
  double icache_fetch = 1.5;  ///< per issued instruction
  double tcdm_word = 9.0;     ///< per 64-bit TCDM word moved
  double ssr_elem = 1.5;      ///< SSR address generation + FIFO, per element
  /// FPU energy per SIMD op by format. Narrow formats clock-gate the unused
  /// wide slices (the paper's explanation for FP8's 6.7% power saving).
  double fpu_op_fp64 = 48.0;
  double fpu_op_fp32 = 44.0;
  double fpu_op_fp16 = 40.0;
  double fpu_op_fp8 = 36.0;
  double fmadd_factor = 1.35;  ///< multiply-accumulate vs add-only op
  double dma_byte = 0.35;
  /// DRAM row activation (precharge + activate of one row buffer). Only the
  /// banked DRAM model reports activations; flat-legacy runs count zero, so
  /// their energy is unchanged.
  double dram_row_act = 2.0;
  /// SEC-DED syndrome compute + compare per 64-bit codeword checked (DRAM
  /// beats and SPM words). Only ECC-enabled runs report checked words, so
  /// historical energy numbers are unchanged.
  double ecc_word = 0.08;
  /// Inter-cluster NoC traffic: longer wires + wider crossings than a
  /// cluster-local DMA beat (multi-cluster sharded runs only).
  double noc_byte = 0.6;
  double static_core = 6.5;     ///< pJ/cycle/core (clock tree + leakage)
  double static_cluster = 15.0; ///< pJ/cycle shared (TCDM, interconnect, I$)
  double freq_hz = 1.0e9;

  double fpu_op(common::FpFormat f) const {
    switch (f) {
      case common::FpFormat::FP64: return fpu_op_fp64;
      case common::FpFormat::FP32: return fpu_op_fp32;
      case common::FpFormat::FP16: return fpu_op_fp16;
      case common::FpFormat::FP8: return fpu_op_fp8;
    }
    return fpu_op_fp64;
  }
};

/// Activity counts for one kernel execution on the whole cluster: the inputs
/// compute_energy() prices, nothing else.
struct Activity {
  double cycles = 0;        ///< wall-clock cycles of the kernel
  double active_cores = 8;  ///< cores clocked during the kernel
  double int_instrs = 0;
  double fpu_add_ops = 0;   ///< add-only SIMD ops (SpVA accumulation)
  double fpu_mac_ops = 0;   ///< fmadd SIMD ops (dense encode matmul)
  double tcdm_words = 0;    ///< 64-bit words through the interconnect
  double ssr_elems = 0;
  double dma_bytes = 0;
  double noc_bytes = 0;     ///< inter-cluster traffic (sharded runs)
  /// Row activations of the banked DRAM model (0 under flat legacy).
  double dram_row_misses = 0;
  /// SEC-DED codewords checked (DRAM beats + SPM interconnect words). Zero
  /// with ECC off — the off-by-default bit-exactness contract.
  double ecc_words = 0;
};

/// Energy split by component, in picojoules.
struct EnergyBreakdown {
  double int_pj = 0;
  double icache_pj = 0;
  double fpu_pj = 0;
  double tcdm_pj = 0;
  double ssr_pj = 0;
  double dma_pj = 0;
  double noc_pj = 0;
  double static_pj = 0;

  double total_pj() const {
    return int_pj + icache_pj + fpu_pj + tcdm_pj + ssr_pj + dma_pj + noc_pj +
           static_pj;
  }
  double total_mj() const { return total_pj() * 1e-9; }
};

/// Evaluate the model for one kernel run in format `f`.
inline EnergyBreakdown compute_energy(const EnergyParams& p,
                                      const Activity& a,
                                      common::FpFormat f) {
  EnergyBreakdown e;
  e.int_pj = a.int_instrs * p.int_instr;
  e.icache_pj = a.int_instrs * p.icache_fetch;
  e.fpu_pj = a.fpu_add_ops * p.fpu_op(f) +
             a.fpu_mac_ops * p.fpu_op(f) * p.fmadd_factor;
  e.tcdm_pj = a.tcdm_words * p.tcdm_word;
  e.ssr_pj = a.ssr_elems * p.ssr_elem;
  e.dma_pj = a.dma_bytes * p.dma_byte + a.dram_row_misses * p.dram_row_act +
             a.ecc_words * p.ecc_word;
  e.noc_pj = a.noc_bytes * p.noc_byte;
  e.static_pj = a.cycles * (p.static_core * a.active_cores + p.static_cluster);
  return e;
}

/// Average power in watts over the activity window.
inline double average_power_w(const EnergyParams& p, const Activity& a,
                              common::FpFormat f) {
  if (a.cycles <= 0) return 0.0;
  const double seconds = a.cycles / p.freq_hz;
  return compute_energy(p, a, f).total_pj() * 1e-12 / seconds;
}

}  // namespace spikestream::arch
