// Result statistics of one kernel execution (one layer, one image): cycle
// count from the timing model plus the activity counts the energy model
// consumes. Mirrors what the paper extracts from RTL simulation traces.
#pragma once

#include <algorithm>
#include <vector>

#include "arch/energy.hpp"

/// Every modeled counter of KernelStats, declared once: X(name, rule). The
/// rule says how merge_parallel combines the stats of shards that ran
/// concurrently on separate clusters: `activity` counters sum (each cluster
/// does its own work), `timeline` counters take the max (the clusters'
/// timelines overlap). accumulate() sums every counter. A new counter is one
/// line here; the energy model sees it only if to_activity() maps it.
#define SPIKESTREAM_KERNEL_COUNTERS(X)                                       \
  /* Wall-clock cycles (max over cores, incl. DMA). */                       \
  X(cycles, timeline)                                                        \
  X(compute_cycles, timeline) /* compute-only critical path */               \
  X(dma_cycles, timeline)     /* DMA busy cycles */                          \
  X(fpu_ops, activity)        /* SIMD FPU ops issued (adds + macs) */        \
  X(fpu_mac_ops, activity)    /* subset of fpu_ops that are fmadds */        \
  X(int_instrs, activity)                                                    \
  X(tcdm_words, activity) /* 64-bit words moved through the interconnect */  \
  X(ssr_elems, activity)                                                     \
  X(dma_bytes, activity)                                                     \
  /* Weight-fetch DMA bytes skipped because the layer's weight tile was      \
     still SPM-resident from the previous batch sample                       \
     (RunOptions::batch_weight_reuse), or because the segment-major FC       \
     schedule streamed each weight band once for the whole batch             \
     (RunOptions::segment_major_lanes, net of the spill traffic below).      \
     Always excluded from dma_bytes. */                                      \
  X(dma_saved_bytes, activity)                                               \
  /* Partial-sum spill/fill traffic of the segment-major FC schedule.        \
     Included in dma_bytes (real, priced traffic); itemized so the           \
     weight-stream saving can be judged net of its cost. */                  \
  X(dma_bytes_spill, activity)                                               \
  /* Inter-cluster traffic (broadcast ifmap replicas, stripe halos,          \
     gathered ofmap slices, FC partial-sum reductions). 0 on one cluster. */ \
  X(noc_bytes, activity)                                                     \
  /* Row-buffer outcomes of the banked DRAM model (arch/dram/dram.hpp) at    \
     64 B beat granularity; both 0 under flat legacy. Each cluster owns its  \
     DRAM channel, so they sum. Misses are priced as row activations. */     \
  X(dma_row_hits, activity)                                                  \
  X(dma_row_misses, activity)                                                \
  /* Segment-major spill/fill DMA cycles the double-buffered schedule hid    \
     under the concurrent weight-band stream (banked model only). Excluded   \
     from dma_cycles; charged + hidden reconstructs the serial pricing. */   \
  X(dma_cycles_hidden, timeline)                                             \
  /* Cycles NocParams::model_contention added to the wall-clock. Included    \
     in cycles; 0 with contention modeling off. */                           \
  X(noc_contention_cycles, timeline)                                         \
  /* Stage-pipeline backpressure: cycles a stage sat blocked on a full       \
     downstream spike FIFO. Set only on the batch-scope stage timeline's     \
     per-stage summaries (runtime/stage_pipeline.hpp), never on a single     \
     layer run. Included in the stage window's cycles. */                    \
  X(fifo_stall_cycles, timeline)                                             \
  /* SEC-DED ECC overlay (arch::EccConfig, applied by finish_timing when     \
     opt.cost.dram.ecc.enabled): codewords checked across DRAM beats and     \
     TCDM words, expected corrected / detected-uncorrectable counts, and     \
     the check+scrub cycles included in cycles. All 0 with ECC off. */       \
  X(ecc_words, activity)                                                     \
  X(ecc_corrected, activity)                                                 \
  X(ecc_uncorrectable, activity)                                             \
  X(ecc_cycles, timeline)

namespace spikestream::kernels {

struct KernelStats {
#define SPK_DECLARE_COUNTER(name, rule) double name = 0;
  SPIKESTREAM_KERNEL_COUNTERS(SPK_DECLARE_COUNTER)
#undef SPK_DECLARE_COUNTER
  int active_cores = 8;
  std::vector<double> core_cycles;  ///< per-core compute time (imbalance)

  double fpu_utilization() const {
    return cycles > 0 ? fpu_ops / (cycles * active_cores) : 0.0;
  }
  double ipc() const {
    return cycles > 0 ? (int_instrs + fpu_ops) / (cycles * active_cores) : 0.0;
  }

  /// The inputs the energy model prices; the only KernelStats -> Activity
  /// mapping.
  arch::Activity to_activity() const {
    arch::Activity a;
    a.cycles = cycles;
    a.active_cores = active_cores;
    a.int_instrs = int_instrs;
    a.fpu_add_ops = fpu_ops - fpu_mac_ops;
    a.fpu_mac_ops = fpu_mac_ops;
    a.tcdm_words = tcdm_words;
    a.ssr_elems = ssr_elems;
    a.dma_bytes = dma_bytes;
    a.noc_bytes = noc_bytes;
    a.dram_row_misses = dma_row_misses;
    a.ecc_words = ecc_words;
    return a;
  }

  /// Reset to a default-constructed state while keeping the `core_cycles`
  /// capacity (scratch-arena reuse across layer executions).
  void reset() {
#define SPK_RESET_COUNTER(name, rule) name = 0;
    SPIKESTREAM_KERNEL_COUNTERS(SPK_RESET_COUNTER)
#undef SPK_RESET_COUNTER
    active_cores = 8;
    core_cycles.clear();
  }

  void accumulate(const KernelStats& o) {
#define SPK_SUM_COUNTER(name, rule) name += o.name;
    SPIKESTREAM_KERNEL_COUNTERS(SPK_SUM_COUNTER)
#undef SPK_SUM_COUNTER
    active_cores = std::max(active_cores, o.active_cores);
  }

  /// Merge stats of a shard that executed *concurrently* on a separate
  /// cluster: each counter follows its rule in SPIKESTREAM_KERNEL_COUNTERS,
  /// core counts sum, per-core breakdowns concatenate.
  void merge_parallel(const KernelStats& o) {
#define SPK_MERGE_activity(name) name += o.name;
#define SPK_MERGE_timeline(name) name = std::max(name, o.name);
#define SPK_MERGE_COUNTER(name, rule) SPK_MERGE_##rule(name)
    SPIKESTREAM_KERNEL_COUNTERS(SPK_MERGE_COUNTER)
#undef SPK_MERGE_COUNTER
#undef SPK_MERGE_timeline
#undef SPK_MERGE_activity
    active_cores += o.active_cores;
    core_cycles.insert(core_cycles.end(), o.core_cycles.begin(),
                       o.core_cycles.end());
  }
};

}  // namespace spikestream::kernels
