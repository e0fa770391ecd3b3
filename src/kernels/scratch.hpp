// Scratch arenas for the simulation hot path. Every buffer a layer execution
// needs — accumulator planes, spike maps, CSR index buffers, timing-pass
// task vectors — lives in one of these structs, owned by snn::NetworkState
// (one LayerScratch per layer per state) and *borrowed* by the engine,
// backends and kernels for the duration of a call. Buffers are grown on first
// use and only ever reused after that, so steady-state inference performs
// zero heap allocations per layer (tests/test_scratch_reuse.cpp pins this
// down with an allocation-counting operator-new hook).
//
// Ownership rule: the state owns the memory, execution borrows it. A
// NetworkState must therefore not be used from two threads at once — which
// was already the per-sample contract — while engines/backends stay immutable
// and shareable.
#pragma once

#include <cstddef>
#include <vector>

#include "compress/csr_ifmap.hpp"
#include "kernels/kernel_stats.hpp"
#include "kernels/scheduler.hpp"
#include "kernels/tiling.hpp"
#include "snn/tensor.hpp"

namespace spikestream::kernels {

/// Result of one layer execution. Lives inside a KernelScratch so the spike
/// map, the per-core cycle vector and the plan are reused across calls.
struct LayerRun {
  snn::SpikeMap out_spikes;  ///< raw output spikes (pre-pool, pre-pad)
  std::size_t out_nnz = 0;   ///< spike_count(out_spikes), tracked by LIF
  KernelStats stats;
  TilePlan plan;
};

/// Everything one kernel invocation (conv / FC / encode) allocates: the
/// functional-pass accumulator plane, the timing-pass task costs and group
/// spike counts, and the schedule simulation buffers. Reused verbatim across
/// layers of compatible shape; grown (never shrunk) otherwise.
struct KernelScratch {
  LayerRun run;                    ///< kernel output, reused across calls
  /// Batch-level weight-tile reuse: true once this (state, layer) lane — one
  /// simulated cluster's SPM — has executed its layer, so the next sample's
  /// run may treat the weight tile as resident (RunOptions::
  /// batch_weight_reuse). Deliberately survives NetworkState::clear(): the
  /// membrane reset between samples is exactly when the pin pays off.
  bool weights_warm = false;
  snn::Tensor currents;            ///< synaptic-current accumulator plane
  std::vector<double> tasks;       ///< timing pass: per-RF / per-group costs
  std::vector<double> group_counts;  ///< per-position SIMD-group spike counts
  ScheduleResult sched;            ///< steal/static schedule simulation
  /// fc_functional_batch: this lane's position in its sorted CSR index span
  /// while the band-major sweep walks the fan-in bands.
  std::size_t band_cursor = 0;
};

/// Per-cluster lane of the sharded backend: the scratch one simulated
/// cluster's timing pass runs in. The layer's spikes come from one
/// full-width functional pass; `ks.run.out_spikes` holds this shard's slice
/// of them (channels or output rows). Conv ifmap stripes additionally carry
/// their halo'd CSR input rows, which set the stripe's stream lengths and
/// footprint. All buffers grow on first use and are reused afterwards.
struct ShardLane {
  KernelScratch ks;
  compress::CsrIfmap csr;   ///< conv ifmap stripe: halo'd CSR row slice
};

/// Per-(state, layer) arena: the main execution lane plus the engine-side
/// buffers (input compression, spike routing, image padding) and the sharded
/// backend's per-cluster lanes (created lazily on first sharded run).
struct LayerScratch {
  KernelScratch main;
  compress::CsrIfmap csr;   ///< engine: compressed input ifmap of this layer
  snn::SpikeMap routed;     ///< engine: pooled/padded/flattened output carry
  snn::SpikeMap pooled;     ///< engine: OR-pool intermediate
  snn::Tensor padded;       ///< engine: encode-layer padded image
  std::vector<ShardLane> lanes;  ///< ShardedBackend: one per cluster
  /// runtime::functional_row_tiles: row tiles of this lane still running,
  /// counted down atomically when the lane is split into several.
  std::size_t tiles_left = 0;
};

}  // namespace spikestream::kernels
