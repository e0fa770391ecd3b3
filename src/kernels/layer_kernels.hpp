// The two code variants the paper compares, executed functionally (spikes are
// bit-exact vs. the dense golden reference) with cycle/energy statistics from
// the mechanistic cost model:
//
//  * Variant::kBaseline    — TC + TP + DP + DB (Sections III-A..D): compressed
//    ifmaps, workload stealing, SIMD over output channels, double-buffered
//    DMA, but the SpVA inner loop is the 8-instruction scalar gather of
//    Listing 1b.
//  * Variant::kSpikeStream — adds SA (Section III-E): indirect-SSR weight
//    streams + FREP decoupling for conv/FC, two affine SSRs for the dense
//    encode matmul.
//
// Each kernel is split into a *functional* pass (accumulate currents, run the
// LIF step — the math that must match the golden reference bit-for-bit) and a
// *timing* pass (the mechanistic cost model). Both write into a caller-owned
// KernelScratch so steady-state execution allocates nothing; backends run the
// passes separately (row-tiled or lane-group band-major functional passes,
// then one timing tail per lane; see runtime/backend.hpp).
#pragma once

#include <span>

#include "common/float_formats.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/cost_model.hpp"
#include "kernels/kernel_stats.hpp"
#include "kernels/scratch.hpp"
#include "kernels/tiling.hpp"
#include "snn/network.hpp"
#include "snn/tensor.hpp"

namespace spikestream::kernels {

enum class Variant {
  kBaseline,     ///< TC+TP+DP+DB, scalar SpVA gather loop (Listing 1b)
  kSpikeStream,  ///< + SA: indirect/affine SSR streams + FREP (Listing 1c)
  kDenseNoTc,    ///< ablation: SSR streams but *uncompressed* ifmaps — every
                 ///< synapse is walked with an affine stream, spikes or not.
};

const char* variant_name(Variant v);

struct RunOptions {
  Variant variant = Variant::kSpikeStream;
  common::FpFormat fmt = common::FpFormat::FP16;
  int cores = 8;
  bool double_buffer = true;
  bool workload_stealing = true;  ///< false = static RF partition (ablation)
  /// Model the paper's proposed Section-VI extension: indirect streams whose
  /// indices are scaled by an arbitrary element stride. Removes the FC index
  /// pre-scaling pass (one index then addresses a whole weight row).
  bool strided_indirect_ext = false;
  /// Batch-level weight-tile reuse: when a layer's batch-aware warm plan
  /// pins weight tiles in SPM (TilePlan::pinned_weight_fraction > 0 — the
  /// whole set when it fits single-buffered, otherwise as many tiles as the
  /// warm tiling search affords), samples after the first on the same
  /// simulated cluster skip the pinned tiles' DMA refetch
  /// (KernelScratch::weights_warm tracks residency; the saving is itemized
  /// in KernelStats::dma_saved_bytes). Off by default, because warm/cold
  /// then depends on which execution lane a sample lands on: under a
  /// multithreaded BatchRunner that assignment is decided by the worker
  /// pool's racing claim order, making per-sample modeled DMA/cycles vary
  /// with thread scheduling. Use PipelinedBatchRunner (deterministic lane
  /// rotation) or a single-worker BatchRunner when reproducible modeled
  /// numbers matter.
  bool batch_weight_reuse = false;
  /// Segment-major batched FC execution: with >= 2 lanes, segmented FC
  /// layers (fan-in weight bands cycling through one SPM tile — pinning is
  /// impossible for them) are planned with the cross-sample segment-major
  /// schedule: each weight band streams into SPM once per batch of
  /// `segment_major_lanes` samples and is applied to every in-flight sample
  /// before advancing; partial sums of parked samples spill/fill through
  /// DRAM when they do not fit next to the streaming buffers (itemized in
  /// KernelStats::dma_bytes_spill). The planner adopts the schedule per
  /// layer only when it wins net of spill (TilePlan::segment_major). All
  /// charges are per-sample batch means, so modeled stats stay independent
  /// of lane assignment and execution order — a batch-scope run
  /// (ExecutionBackend::run_batch) and the serial per-sample path produce
  /// bit-identical spikes *and* cycles. Set it to the steady batch width the
  /// runner actually drives (BatchRunner / PipelinedBatchRunner switch to
  /// lockstep waves of this many samples when it is >= 2).
  int segment_major_lanes = 1;
  CostParams cost;
};

// --- functional passes ------------------------------------------------------
// Accumulate synaptic currents and run one LIF step. Fills
// `scratch.run.out_spikes` / `scratch.run.out_nnz` and updates `membrane` in
// place. Bit-exact vs. snn::Reference (same accumulation order).

void conv_functional(const snn::LayerSpec& spec,
                     const snn::LayerWeights& weights,
                     const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
                     KernelScratch& scratch);
void fc_functional(const snn::LayerSpec& spec, const snn::LayerWeights& weights,
                   const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
                   KernelScratch& scratch);
void encode_functional(const snn::LayerSpec& spec,
                       const snn::LayerWeights& weights,
                       const snn::Tensor& padded_image, snn::Tensor& membrane,
                       KernelScratch& scratch);

// --- row tiles (conv and encode layers) ---------------------------------------
// The same functional passes split by output row, so several threads can
// share one sample's layer: begin_row_tiles() shapes the output buffers once,
// then each *_rows call accumulates and fires output rows [oy0, oy1) only.
// Tiles write disjoint rows, and every output element is still produced by
// one call adding its receptive-field rows in (kh, kw, ci) order — the conv
// call sweeps its tile once per kernel row kh, each sweep continuing every
// element's add chain, or, for layers of at most 16 output channels on
// AVX-512 hosts, adds a position's whole receptive field in one register —
// so any row split is bit-identical to the whole-layer pass. The calls
// return the tile's spike count; the caller sums them into
// scratch.run.out_nnz.

/// Shape `scratch.currents` / `scratch.run.out_spikes` for the layer's output
/// (checks that `membrane` has that shape).
void begin_row_tiles(const snn::LayerSpec& spec, const snn::Tensor& membrane,
                     KernelScratch& scratch);
std::size_t conv_functional_rows(const snn::LayerSpec& spec,
                                 const snn::LayerWeights& weights,
                                 const compress::CsrIfmap& ifmap,
                                 snn::Tensor& membrane, KernelScratch& scratch,
                                 int oy0, int oy1);
std::size_t encode_functional_rows(const snn::LayerSpec& spec,
                                   const snn::LayerWeights& weights,
                                   const snn::Tensor& padded_image,
                                   snn::Tensor& membrane,
                                   KernelScratch& scratch, int oy0, int oy1);

/// One in-flight sample's borrowed buffers for a batch-scope layer call (see
/// ExecutionBackend::run_batch and fc_functional_batch): its layer input —
/// the compressed ifmap, or an encode layer's padded dense image — its
/// persistent membrane, and the per-layer scratch arena its results land in.
struct LayerLane {
  const compress::CsrIfmap* ifmap = nullptr;
  snn::Tensor* membrane = nullptr;
  LayerScratch* scratch = nullptr;
  const snn::Tensor* image = nullptr;
};
/// fc_functional_batch's name for a lane (only the ifmap input is used).
using FcBatchLane = LayerLane;

/// Batch-scope FC functional pass: one call executes the layer for every
/// lane in segment-major order — the fan-in row space is walked in
/// contiguous bands, and within each band every lane's spiking rows are
/// accumulated before advancing, so a weight band is hot in the host caches
/// once per call. A wave calls it once per lane group, concurrently (see
/// runtime::AnalyticalBackend::run_batch); the modeled SPM still streams
/// each band once per batch of segment_major_lanes samples. Per-lane
/// accumulation order is unchanged (bands partition the sorted CSR index
/// space), so spikes are bit-identical to per-lane serial fc_functional
/// calls. Each lane uses its own scratch/membrane and nothing else, so
/// calls on disjoint lanes may run concurrently; fills
/// lane.scratch->main.run.out_spikes / out_nnz.
void fc_functional_batch(const snn::LayerSpec& spec,
                         const snn::LayerWeights& weights,
                         std::span<const LayerLane> lanes);

// --- timing passes ----------------------------------------------------------
// Mechanistic cost model over the spikes produced by the functional pass.
// Fills `scratch.run.stats` and `scratch.run.plan`; must be called after the
// matching functional pass on the same scratch.

void conv_timing(const snn::LayerSpec& spec, const compress::CsrIfmap& ifmap,
                 const RunOptions& opt, KernelScratch& scratch);
void fc_timing(const snn::LayerSpec& spec, const compress::CsrIfmap& ifmap,
               const RunOptions& opt, KernelScratch& scratch);
void encode_timing(const snn::LayerSpec& spec, const RunOptions& opt,
                   KernelScratch& scratch);

// --- timing views (output-channel tiles and row stripes) ---------------------
// The timing passes above, split so that several clusters' shares of one
// layer call are timed in place from its full-width spikes and input: the
// per-layer terms once, then each view's tasks, all views' schedules in one
// interleaved call, and each view's DMA plan. A view's stats are exactly
// what the whole pass gives on the view's own sub-problem (its channel slice
// of the spikes, or its output rows with their halo'd input rows); the full
// view is the whole pass (conv_timing, encode_timing and fc_timing are the
// four phases on it).

/// Output channels [c_lo, c_hi) (c_lo on a SIMD-group boundary) of output
/// rows [oy_lo, oy_hi) of one layer.
struct TimingView {
  int c_lo = 0, c_hi = 0;
  int oy_lo = 0, oy_hi = 0;
};
/// Every channel and row of `spec`.
inline TimingView full_view(const snn::LayerSpec& spec) {
  return {0, spec.out_c, 0, spec.out_h()};
}

/// Per-layer terms every view reads, into `layer`: the full-width
/// per-position SIMD-group spike counts of layer.run.out_spikes and, for a
/// conv layer, each output position's stream elements and FPU time over its
/// k*k SpVAs of `ifmap` (unused by encode layers; may be null there).
void timing_terms(const snn::LayerSpec& spec, const compress::CsrIfmap* ifmap,
                  const RunOptions& opt, KernelScratch& layer);
/// View `v`'s task costs and activity counters, from `layer`'s terms, into
/// ks.tasks and ks.run.stats (an FC view also plans its tiles into
/// ks.run.plan here: its tasks depend on the fan-in segmentation, which
/// needs `out_nnz`). Returns the view's spike count; the caller stores it
/// in ks.run.out_nnz before finish_view. `layer` and `ks` may alias.
std::size_t view_tasks(const snn::LayerSpec& spec,
                       const compress::CsrIfmap* ifmap, const TimingView& v,
                       const KernelScratch& layer, const RunOptions& opt,
                       KernelScratch& ks);
/// Each view's schedule simulation of its ks.tasks into ks.sched; work
/// stealing runs the lists interleaved (common::simd::steal_schedule_lists).
void schedule_views(const RunOptions& opt, std::span<KernelScratch> views);
/// A scheduled view's cycles, DMA plan and DMA timeline into ks.run.
void finish_view(const snn::LayerSpec& spec, const compress::CsrIfmap* ifmap,
                 const TimingView& v, const RunOptions& opt,
                 KernelScratch& ks);

// --- fan-in shard timing (FC partial-sum sharding) ---------------------------
// An FC layer partitioned along its fan-in (kernels/partition.hpp, axis
// kFanIn) keeps its *functional* pass unsharded — partial-sum merges are not
// floating-point associative, and spikes must stay bit-exact across every
// plan — while the timing pass models what each cluster really does: stream
// the ifmap spikes of its input-channel band through all SIMD output groups,
// then ship the partial current vector to a merging cluster that reduces and
// thresholds once.

/// Timing of one fan-in shard owning input channels [c_lo, c_hi): the
/// cluster's accumulation work only, no activation (that runs once, on the
/// merging cluster — see fc_fanin_merge_cost). Fills scratch.run.stats/plan.
void fc_fanin_shard_timing(const snn::LayerSpec& spec,
                           const compress::CsrIfmap& ifmap, int c_lo, int c_hi,
                           const RunOptions& opt, KernelScratch& scratch);

/// Sequential merge tail of a fan-in-sharded FC layer: the merging cluster
/// streams in n_shards - 1 partial ofmap vectors over the NoC, reduces them
/// group-wise, and runs the activation exactly once (same accounting as
/// fc_timing's activation, so activity conservation holds by construction).
struct FcFanInMergeCost {
  double cycles = 0;      ///< serial tail after the slowest shard finishes
  double fpu_ops = 0;     ///< reduction adds (itemized, not hidden)
  double int_instrs = 0;
  double tcdm_words = 0;
  double noc_bytes = 0;   ///< partial vectors crossing the inter-cluster NoC
};
FcFanInMergeCost fc_fanin_merge_cost(const snn::LayerSpec& spec,
                                     const snn::SpikeMap& out_spikes,
                                     int n_shards, const RunOptions& opt);

// --- combined layer execution (functional + timing) -------------------------
// Results live in `scratch.run`; the returned reference aliases it.

/// Spiking convolution on a compressed ifmap (one timestep). `membrane` is
/// the layer's persistent neuron state and must have the output shape.
const LayerRun& run_conv_layer(const snn::LayerSpec& spec,
                               const snn::LayerWeights& weights,
                               const compress::CsrIfmap& ifmap,
                               snn::Tensor& membrane, const RunOptions& opt,
                               KernelScratch& scratch);

/// Spiking fully-connected layer on a flat (1x1xN) compressed input.
const LayerRun& run_fc_layer(const snn::LayerSpec& spec,
                             const snn::LayerWeights& weights,
                             const compress::CsrIfmap& ifmap,
                             snn::Tensor& membrane, const RunOptions& opt,
                             KernelScratch& scratch);

/// Spike-encoding first layer: dense conv-as-matmul on the padded image
/// (Section III-F). Parallelized over output channels, two affine SSRs.
const LayerRun& run_encode_layer(const snn::LayerSpec& spec,
                                 const snn::LayerWeights& weights,
                                 const snn::Tensor& padded_image,
                                 snn::Tensor& membrane, const RunOptions& opt,
                                 KernelScratch& scratch);

// --- allocating conveniences (tests / benches / one-shot callers) -----------

inline LayerRun run_conv_layer(const snn::LayerSpec& spec,
                               const snn::LayerWeights& weights,
                               const compress::CsrIfmap& ifmap,
                               snn::Tensor& membrane, const RunOptions& opt) {
  KernelScratch scratch;
  run_conv_layer(spec, weights, ifmap, membrane, opt, scratch);
  return std::move(scratch.run);
}

inline LayerRun run_fc_layer(const snn::LayerSpec& spec,
                             const snn::LayerWeights& weights,
                             const compress::CsrIfmap& ifmap,
                             snn::Tensor& membrane, const RunOptions& opt) {
  KernelScratch scratch;
  run_fc_layer(spec, weights, ifmap, membrane, opt, scratch);
  return std::move(scratch.run);
}

inline LayerRun run_encode_layer(const snn::LayerSpec& spec,
                                 const snn::LayerWeights& weights,
                                 const snn::Tensor& padded_image,
                                 snn::Tensor& membrane, const RunOptions& opt) {
  KernelScratch scratch;
  run_encode_layer(spec, weights, padded_image, membrane, opt, scratch);
  return std::move(scratch.run);
}

}  // namespace spikestream::kernels
