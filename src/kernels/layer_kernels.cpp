#include "kernels/layer_kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/check.hpp"
#include "common/simd.hpp"
#include "kernels/scheduler.hpp"
#include "snn/lif.hpp"
#include "snn/reference.hpp"

namespace spikestream::kernels {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kBaseline: return "baseline";
    case Variant::kSpikeStream: return "spikestream";
    case Variant::kDenseNoTc: return "dense-no-tc";
  }
  return "?";
}

namespace {

/// SIMD output-channel groups for a format (last group may be partial).
int n_groups(int out_c, common::FpFormat fmt) {
  const int simd = common::simd_lanes(fmt);
  return (out_c + simd - 1) / simd;
}

/// Average memory-port pressure per core per cycle for the conflict model.
double access_rate(Variant v, const CostParams& p) {
  if (v == Variant::kBaseline) {
    // Baseline: lw + fld per element over ~11 cycles.
    return 2.0 / p.baseline_elem_cycles;
  }
  // Streamed variants: one data word + 1/4 index word (or a second affine
  // stream) per element, one element per II cycles.
  return 1.25 / p.fadd_latency;
}

/// SEC-DED ECC overlay (arch::EccConfig): closed-form check/scrub cycles and
/// expected correction outcomes over the words this layer actually moved —
/// DRAM beats from the final dma_bytes, SPM words from tcdm_words. Applied
/// once per layer at the end of finish_timing so it composes with every DMA
/// schedule (cold/warm/segment-major) without re-threading the tile planner;
/// strictly a no-op when ECC is off, keeping historical numbers bit-exact.
void apply_ecc_overlay(const RunOptions& opt, KernelStats& st) {
  const arch::EccConfig& ecc = opt.cost.dram.ecc;
  if (!ecc.enabled) return;
  const double beats = st.dma_bytes / opt.cost.dram.bytes_per_cycle;
  const double dram_words = st.dma_bytes / 8.0;  // 64-bit codewords
  const double words = dram_words + st.tcdm_words;
  double cyc = beats * ecc.dram_cycles_per_beat +
               st.tcdm_words * ecc.spm_cycles_per_word;
  if (ecc.scrub_interval_cycles > 0) {
    // One re-read of the layer's DRAM-touched footprint per scrub period,
    // amortized over the layer's own window.
    cyc += st.cycles / ecc.scrub_interval_cycles * beats;
  }
  st.ecc_words = words;
  st.ecc_corrected = ecc.expected_corrected(words);
  st.ecc_uncorrectable = ecc.expected_uncorrectable(words);
  st.ecc_cycles = cyc;
  st.cycles += cyc;
}

/// Shared tail of every timing pass: apply the plan's DMA timeline to the
/// stats and derive wall-clock cycles. With batch-level weight-tile reuse on
/// and this scratch's simulated cluster still holding the layer's
/// (single-tile) weight set from the previous sample, the warm DMA timeline
/// is charged instead and the skipped weight traffic is itemized in
/// dma_saved_bytes. Marks the scratch warm for the next sample either way.
void finish_timing(const RunOptions& opt, KernelScratch& scratch) {
  LayerRun& run = scratch.run;
  KernelStats& st = run.stats;
  if (run.plan.segment_major) {
    // Segment-major batched FC schedule: every sample of the batch is
    // charged the same amortized DMA timeline (weight bands / lanes + its
    // own ifmap/ofmap/spill share), so the numbers do not depend on lane
    // history — there is no warm/cold split to track. The saving is the
    // per-sample weight re-stream the batch loop inversion removed, net of
    // the spill traffic (which stays inside dma_bytes and is itemized).
    st.dma_cycles = run.plan.sm_dma_cycles;
    st.dma_bytes = run.plan.sm_dma_bytes;
    st.dma_saved_bytes = run.plan.dma_bytes - run.plan.sm_dma_bytes;
    st.dma_bytes_spill = run.plan.sm_spill_bytes;
    // Banked DRAM itemization: row outcomes of the amortized streams, plus
    // the spill/fill cycles the double-buffered schedule hid under the
    // concurrent band streams (already net in sm_dma_cycles). All zero
    // under flat legacy.
    st.dma_row_hits = run.plan.sm_row_hits;
    st.dma_row_misses = run.plan.sm_row_misses;
    st.dma_cycles_hidden = run.plan.sm_hidden_cycles;
    st.cycles = overlap_cycles(run.plan, st.compute_cycles, opt.double_buffer);
    apply_ecc_overlay(opt, st);
    scratch.weights_warm = true;
    return;
  }
  const bool warm = opt.batch_weight_reuse && scratch.weights_warm &&
                    run.plan.pinned_weight_fraction > 0;
  st.dma_cycles = warm ? run.plan.dma_cycles_warm : run.plan.dma_cycles;
  st.dma_bytes = warm ? run.plan.dma_bytes_warm : run.plan.dma_bytes;
  st.dma_saved_bytes =
      warm ? run.plan.dma_bytes - run.plan.dma_bytes_warm : 0.0;
  st.dma_bytes_spill = 0.0;
  st.dma_row_hits = warm ? run.plan.dma_row_hits_warm : run.plan.dma_row_hits;
  st.dma_row_misses =
      warm ? run.plan.dma_row_misses_warm : run.plan.dma_row_misses;
  st.dma_cycles_hidden = 0.0;
  st.cycles =
      overlap_cycles(run.plan, st.compute_cycles, opt.double_buffer, warm);
  apply_ecc_overlay(opt, st);
  scratch.weights_warm = true;
}

void schedule_into(const RunOptions& opt, std::span<const double> tasks,
                   ScheduleResult& r) {
  if (opt.workload_stealing) {
    steal_schedule_into(tasks, opt.cores, opt.cost.steal_cost, r);
  } else {
    static_schedule_into(tasks, opt.cores, r);
  }
}

/// Shared activity bookkeeping for one sparse SpVA of length `s`.
void count_spva(KernelStats& st, Variant v, double s) {
  st.fpu_ops += s;
  if (v == Variant::kSpikeStream) {
    st.int_instrs += 14;          // setup + frep + loop control
    st.tcdm_words += s + s / 4.0; // data words + packed 16-bit index words
    st.ssr_elems += s;
  } else {
    st.int_instrs += 16 + 8 * s;  // outer bookkeeping + Listing 1b body
    st.tcdm_words += 2.0 * s;     // lw index + fld weight word
  }
}

void count_activation(KernelStats& st, const CostParams& p, int simd,
                      double spikes, bool fp8) {
  const double cyc = activation_cycles(p, simd, spikes, fp8);
  st.int_instrs += cyc;            // thresholding is integer-pipe work
  st.tcdm_words += 1.0 + spikes / 4.0;  // s_ptr update + packed c_idcs
}

/// Accumulate the gathered weight rows into `acc[0..out_c)`. Rows are added
/// strictly in gather order — `acc = (((acc + w0) + w1) + w2) + w3` — so the
/// result is bit-identical to the naive one-row-at-a-time loop (and to the
/// golden reference); processing four rows per sweep just amortizes the
/// accumulator loads/stores over four streamed row reads.
void add_rows(float* __restrict__ acc, const void* const* rows,
              std::size_t n_rows, int out_c) {
  // Walk row pointers up to `end`, not an index up to n_rows: the index
  // form's tail loop trips GCC's -Waggressive-loop-optimizations on
  // portable (-march-less) builds.
  const void* const* const end = rows + n_rows;
  for (; end - rows >= 4; rows += 4) {
    const float* __restrict__ w0 = static_cast<const float*>(rows[0]);
    const float* __restrict__ w1 = static_cast<const float*>(rows[1]);
    const float* __restrict__ w2 = static_cast<const float*>(rows[2]);
    const float* __restrict__ w3 = static_cast<const float*>(rows[3]);
    for (int co = 0; co < out_c; ++co) {
      acc[co] = (((acc[co] + w0[co]) + w1[co]) + w2[co]) + w3[co];
    }
  }
  for (; rows != end; ++rows) {
    const float* __restrict__ w0 = static_cast<const float*>(*rows);
    for (int co = 0; co < out_c; ++co) acc[co] += w0[co];
  }
}

#if defined(__AVX512F__) && defined(__F16C__)
#define SPIKESTREAM_HALF_ROWS 1

/// Sixteen binary16 weights widened to float32 (exact). The maskz form with
/// an all-ones mask is the plain vcvtph2ps; _mm512_cvtph_ps passes an
/// undefined vector through, which GCC flags under -Wmaybe-uninitialized.
inline __m512 load_half16(const std::uint16_t* p) {
  return _mm512_maskz_cvtph_ps(
      0xFFFF, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

/// Half-precision weight streaming: rows hold IEEE binary16 bit patterns
/// (LayerWeights::half), converted to float32 by vcvtph2ps right before the
/// add. Lane-wise the accumulation order and the converted values are
/// exactly those of add_rows() on the float32 rows, so spikes stay
/// bit-identical — only the memory traffic is halved. Requires out_c to be a
/// multiple of 16 (callers fall back to add_rows otherwise).
void add_rows_half(float* acc, const void* const* rows, std::size_t n_rows,
                   int out_c) {
  std::size_t r = 0;
  for (; r + 4 <= n_rows; r += 4) {
    const auto* w0 = static_cast<const std::uint16_t*>(rows[r]);
    const auto* w1 = static_cast<const std::uint16_t*>(rows[r + 1]);
    const auto* w2 = static_cast<const std::uint16_t*>(rows[r + 2]);
    const auto* w3 = static_cast<const std::uint16_t*>(rows[r + 3]);
    for (int co = 0; co + 16 <= out_c; co += 16) {
      __m512 s = _mm512_loadu_ps(acc + co);
      s = _mm512_add_ps(s, load_half16(w0 + co));
      s = _mm512_add_ps(s, load_half16(w1 + co));
      s = _mm512_add_ps(s, load_half16(w2 + co));
      s = _mm512_add_ps(s, load_half16(w3 + co));
      _mm512_storeu_ps(acc + co, s);
    }
  }
  for (; r < n_rows; ++r) {
    const auto* w0 = static_cast<const std::uint16_t*>(rows[r]);
    for (int co = 0; co + 16 <= out_c; co += 16) {
      _mm512_storeu_ps(acc + co, _mm512_add_ps(_mm512_loadu_ps(acc + co),
                                               load_half16(w0 + co)));
    }
  }
}

#endif  // __AVX512F__ && __F16C__

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)
#define SPIKESTREAM_NARROW_ROWS 1

/// Narrow conv accumulate (out_c <= 16, e.g. the deep tower's 8-channel
/// layers): each output position's whole receptive field accumulates in one
/// masked zmm of float32 lanes, row by row in the reference's (kh, kw, ci)
/// order from a zero start — lane-wise add_rows' add chain, so the currents
/// are bit-identical — and is stored once. A position's row offsets are
/// gathered first, sixteen CSR indices per masked load whatever a tap's
/// spike count, so the only data-dependent branches are the accumulate
/// loops' exits (a loop per tap mispredicts its exit on most of the
/// few-spike taps of a narrow layer, each flushing the add chain). Two
/// neighbouring positions accumulate side by side, so one add chain's
/// latency hides the other's.
void conv_rows_narrow(const snn::LayerSpec& spec,
                      const snn::LayerWeights& weights,
                      const compress::CsrIfmap& ifmap, snn::Tensor& currents,
                      int oy0, int oy1) {
  const int k = spec.k;
  const int ow = spec.out_w();
  const auto lanes = static_cast<__mmask16>((1u << spec.out_c) - 1u);
  const std::uint32_t* s_ptr = ifmap.s_ptr().data();
  const std::uint16_t* idx = ifmap.c_idcs().data();
  const auto in_w = static_cast<std::size_t>(ifmap.w());
  const float* w = weights.v.data();
  const __m512i row_floats = _mm512_set1_epi32(spec.out_c);
  const auto row = [&](std::int32_t offset) {
    return _mm512_maskz_loadu_ps(lanes, w + offset);
  };
  // Float offsets into `w` of a position's rows still to add; a masked
  // gather writes sixteen entries, so a list holds kRows + 16.
  constexpr int kRows = 240;
  std::int32_t lists[2][kRows + 16];
  // Gathers position (oy, ox)'s rows into `list` and returns their count,
  // first adding a full list into `acc` whenever one fills.
  const auto gather = [&](int oy, int ox, std::int32_t* list, __m512& acc) {
    int n = 0;
    int tap = 0;
    for (int kh = 0; kh < k; ++kh) {
      const std::size_t p = static_cast<std::size_t>(oy + kh) * in_w +
                            static_cast<std::size_t>(ox);
      for (int kw = 0; kw < k; ++kw, tap += weights.in_c) {
        const __m512i first_row = _mm512_set1_epi32(tap);
        std::uint32_t i = s_ptr[p + kw];
        const std::uint32_t end = s_ptr[p + kw + 1];
        do {
          const std::uint32_t len = std::min<std::uint32_t>(end - i, 16);
          const __m512i ci = _mm512_maskz_cvtepu16_epi32(
              0xFFFF, _mm256_maskz_loadu_epi16(
                          static_cast<__mmask16>((1u << len) - 1u), idx + i));
          _mm512_storeu_si512(
              list + n, _mm512_mullo_epi32(_mm512_add_epi32(ci, first_row),
                                           row_floats));
          n += static_cast<int>(len);
          i += len;
          if (n > kRows) {
            for (int j = 0; j < n; ++j) acc = _mm512_add_ps(acc, row(list[j]));
            n = 0;
          }
        } while (i < end);
      }
    }
    return n;
  };
  for (int oy = oy0; oy < oy1; ++oy) {
    int ox = 0;
    for (; ox + 2 <= ow; ox += 2) {
      __m512 a0 = _mm512_setzero_ps();
      __m512 a1 = _mm512_setzero_ps();
      const int n0 = gather(oy, ox, lists[0], a0);
      const int n1 = gather(oy, ox + 1, lists[1], a1);
      const int both = std::min(n0, n1);
      int j = 0;
      for (; j < both; ++j) {
        a0 = _mm512_add_ps(a0, row(lists[0][j]));
        a1 = _mm512_add_ps(a1, row(lists[1][j]));
      }
      for (int j0 = j; j0 < n0; ++j0) a0 = _mm512_add_ps(a0, row(lists[0][j0]));
      for (int j1 = j; j1 < n1; ++j1) a1 = _mm512_add_ps(a1, row(lists[1][j1]));
      _mm512_mask_storeu_ps(&currents.at(oy, ox, 0), lanes, a0);
      _mm512_mask_storeu_ps(&currents.at(oy, ox + 1, 0), lanes, a1);
    }
    for (; ox < ow; ++ox) {
      __m512 a0 = _mm512_setzero_ps();
      const int n0 = gather(oy, ox, lists[0], a0);
      for (int j = 0; j < n0; ++j) a0 = _mm512_add_ps(a0, row(lists[0][j]));
      _mm512_mask_storeu_ps(&currents.at(oy, ox, 0), lanes, a0);
    }
  }
}

/// Widest conv layer conv_rows_narrow accumulates: one zmm of float lanes.
constexpr int kNarrowRows = 16;
#endif  // __AVX512F__ && __AVX512BW__ && __AVX512VL__

/// True when this layer's rows should stream as binary16.
bool use_half_rows(const snn::LayerWeights& w, int out_c) {
#ifdef SPIKESTREAM_HALF_ROWS
  return w.half_exact && out_c % 16 == 0;
#else
  (void)w;
  (void)out_c;
  return false;
#endif
}

void dispatch_add_rows(bool half, float* __restrict__ acc,
                       const void* const* rows, std::size_t n_rows,
                       int out_c) {
#ifdef SPIKESTREAM_HALF_ROWS
  if (half) {
    add_rows_half(acc, rows, n_rows, out_c);
    return;
  }
#else
  (void)half;
#endif
  add_rows(acc, rows, n_rows, out_c);
}

/// Hoisted weight-row pointers gathered into a fixed on-stack chunk that is
/// added into the accumulator whenever it fills. Each flush continues every
/// element's add chain in gather order, so chunking leaves the currents
/// bit-identical to one add over the whole list — and no kernel needs a
/// shared row arena, which keeps concurrent row tiles of one lane free of
/// shared mutable state.
class RowGather {
 public:
  RowGather(const snn::LayerWeights& weights, int out_c)
      : half_(use_half_rows(weights, out_c)),
        out_c_(out_c),
        base_(half_ ? reinterpret_cast<const char*>(weights.half.data())
                    : reinterpret_cast<const char*>(weights.v.data())),
        row_bytes_(static_cast<std::size_t>(out_c) *
                   (half_ ? sizeof(std::uint16_t) : sizeof(float))) {}

  /// Start gathering into the accumulator row `acc`.
  void begin(float* acc) {
    acc_ = acc;
    n_ = 0;
  }
  /// Queue weight row `r` (a fan-in index).
  void add(std::size_t r) {
    rows_[n_++] = base_ + r * row_bytes_;
    if (n_ == kChunk) flush();
  }
  void flush() {
    if (n_ == 0) return;
    dispatch_add_rows(half_, acc_, rows_.data(), n_, out_c_);
    n_ = 0;
  }
  std::size_t row_bytes() const { return row_bytes_; }

 private:
  /// A multiple of add_rows' four-row sweep, so only the last chunk of a
  /// gathered list (one kernel row of a conv position, one FC band) has a
  /// remainder.
  static constexpr std::size_t kChunk = 128;
  const bool half_;
  const int out_c_;
  const char* const base_;
  const std::size_t row_bytes_;
  float* acc_ = nullptr;
  std::size_t n_ = 0;
  std::array<const void*, kChunk> rows_{};
};

}  // namespace

// ---------------------------------------------------------------------------
// Functional passes
// ---------------------------------------------------------------------------

void begin_row_tiles(const snn::LayerSpec& spec, const snn::Tensor& membrane,
                     KernelScratch& scratch) {
  const int oh = spec.out_h(), ow = spec.out_w();
  SPK_CHECK(membrane.h == oh && membrane.w == ow && membrane.c == spec.out_c,
            spec.name << ": membrane shape mismatch");
  scratch.currents.reshape(oh, ow, spec.out_c);
  scratch.run.out_spikes.reshape(oh, ow, spec.out_c);
}

std::size_t conv_functional_rows(const snn::LayerSpec& spec,
                                 const snn::LayerWeights& weights,
                                 const compress::CsrIfmap& ifmap,
                                 snn::Tensor& membrane, KernelScratch& scratch,
                                 int oy0, int oy1) {
  SPK_CHECK(ifmap.h() == spec.in_h && ifmap.w() == spec.in_w &&
                ifmap.c() == spec.in_c,
            "conv " << spec.name << ": ifmap shape mismatch");
  snn::Tensor& currents = scratch.currents;
#ifdef SPIKESTREAM_NARROW_ROWS
  if (spec.out_c <= kNarrowRows) {
    conv_rows_narrow(spec, weights, ifmap, currents, oy0, oy1);
    return snn::lif_step_rows(spec.lif, currents, membrane,
                              scratch.run.out_spikes, oy0, oy1);
  }
#endif
  const int k = spec.k;
  const int ow = spec.out_w();
  const auto row = static_cast<std::ptrdiff_t>(ow) * spec.out_c;
  std::fill(currents.v.begin() + oy0 * row, currents.v.begin() + oy1 * row,
            0.0f);
  const std::size_t in_c = static_cast<std::size_t>(weights.in_c);
  RowGather rows(weights, spec.out_c);
  // Kernel-row-major: pass kh sweeps every position of the tile but reads
  // only kernel row kh's slab of k * in_c weight rows, which stays in cache
  // across the tile instead of the whole layer tensor streaming through it
  // once per position. Each pass continues every element's add chain where
  // the previous one left it, so the rows still arrive in the (kh, kw, ci)
  // order the reference walks them.
  for (int kh = 0; kh < k; ++kh) {
    const std::size_t slab = static_cast<std::size_t>(kh) * k * in_c;
    for (int oy = oy0; oy < oy1; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        rows.begin(&currents.at(oy, ox, 0));
        for (int kw = 0; kw < k; ++kw) {
          const std::size_t base = slab + static_cast<std::size_t>(kw) * in_c;
          for (std::uint16_t ci : ifmap.at(oy + kh, ox + kw)) {
            rows.add(base + ci);
          }
        }
        rows.flush();
      }
    }
  }
  return snn::lif_step_rows(spec.lif, currents, membrane,
                            scratch.run.out_spikes, oy0, oy1);
}

std::size_t encode_functional_rows(const snn::LayerSpec& spec,
                                   const snn::LayerWeights& weights,
                                   const snn::Tensor& padded_image,
                                   snn::Tensor& membrane,
                                   KernelScratch& scratch, int oy0, int oy1) {
  SPK_CHECK(padded_image.h == spec.in_h && padded_image.w == spec.in_w &&
                padded_image.c == spec.in_c,
            "encode " << spec.name << ": input shape mismatch");
  snn::Reference::conv_currents_dense_rows(padded_image, weights,
                                           scratch.currents, oy0, oy1);
  return snn::lif_step_rows(spec.lif, scratch.currents, membrane,
                            scratch.run.out_spikes, oy0, oy1);
}

void conv_functional(const snn::LayerSpec& spec,
                     const snn::LayerWeights& weights,
                     const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
                     KernelScratch& scratch) {
  begin_row_tiles(spec, membrane, scratch);
  scratch.run.out_nnz = conv_functional_rows(spec, weights, ifmap, membrane,
                                             scratch, 0, spec.out_h());
}

void encode_functional(const snn::LayerSpec& spec,
                       const snn::LayerWeights& weights,
                       const snn::Tensor& padded_image, snn::Tensor& membrane,
                       KernelScratch& scratch) {
  begin_row_tiles(spec, membrane, scratch);
  scratch.run.out_nnz = encode_functional_rows(
      spec, weights, padded_image, membrane, scratch, 0, spec.out_h());
}

void fc_functional(const snn::LayerSpec& spec, const snn::LayerWeights& weights,
                   const compress::CsrIfmap& ifmap, snn::Tensor& membrane,
                   KernelScratch& scratch) {
  SPK_CHECK(ifmap.h() == 1 && ifmap.w() == 1 && ifmap.c() == spec.in_c,
            "fc " << spec.name << ": input shape mismatch");
  snn::Tensor& currents = scratch.currents;
  currents.reshape(1, 1, spec.out_c);
  std::fill(currents.v.begin(), currents.v.end(), 0.0f);
  RowGather rows(weights, spec.out_c);
  rows.begin(currents.v.data());
  for (std::uint16_t ci : ifmap.at(0, 0)) rows.add(ci);
  rows.flush();
  scratch.run.out_nnz =
      snn::lif_step_into(spec.lif, currents, membrane, scratch.run.out_spikes);
}

void fc_functional_batch(const snn::LayerSpec& spec,
                         const snn::LayerWeights& weights,
                         std::span<const LayerLane> lanes) {
  for (const LayerLane& lane : lanes) {
    SPK_CHECK(lane.ifmap->h() == 1 && lane.ifmap->w() == 1 &&
                  lane.ifmap->c() == spec.in_c,
              "fc " << spec.name << ": input shape mismatch");
    snn::Tensor& currents = lane.scratch->main.currents;
    currents.reshape(1, 1, spec.out_c);
    std::fill(currents.v.begin(), currents.v.end(), 0.0f);
  }

  // Band width sized so one band's weight rows stay hot in the host cache
  // while every lane of this call sweeps them (the host-side analogue of
  // streaming the band into SPM once per batch). Bands partition the sorted
  // CSR index space, so each lane's rows are still added in exactly the
  // order its serial fc_functional call would use — bit-identical currents.
  constexpr std::size_t kBandBytes = 32 * 1024;
  RowGather rows(weights, spec.out_c);
  const int band_rows = std::max<int>(
      1, static_cast<int>(kBandBytes /
                          std::max<std::size_t>(rows.row_bytes(), 1)));
  // Every buffer, the per-lane band cursor included, lives in the lanes'
  // own scratch arenas, so concurrent calls on disjoint lane groups share
  // nothing and no thread keeps state of its own.
  for (const LayerLane& lane : lanes) lane.scratch->main.band_cursor = 0;
  for (int c_lo = 0; c_lo < spec.in_c; c_lo += band_rows) {
    // int, not the CSR index type: at in_c == 65536 the last band's bound
    // does not fit in 16 bits.
    const int c_hi = std::min(spec.in_c, c_lo + band_rows);
    for (const LayerLane& lane : lanes) {
      const auto span = lane.ifmap->at(0, 0);
      KernelScratch& ks = lane.scratch->main;
      std::size_t& cur = ks.band_cursor;
      rows.begin(ks.currents.v.data());
      for (; cur < span.size() && span[cur] < c_hi; ++cur) rows.add(span[cur]);
      rows.flush();
    }
  }

  for (const LayerLane& lane : lanes) {
    KernelScratch& ks = lane.scratch->main;
    ks.run.out_nnz = snn::lif_step_into(spec.lif, ks.currents, *lane.membrane,
                                        ks.run.out_spikes);
  }
}

// ---------------------------------------------------------------------------
// Timing passes
// ---------------------------------------------------------------------------

void timing_terms(const snn::LayerSpec& spec, const compress::CsrIfmap* ifmap,
                  const RunOptions& opt, KernelScratch& layer) {
  const int simd = common::simd_lanes(opt.fmt);
  const int groups = n_groups(spec.out_c, opt.fmt);
  const int oh = spec.out_h(), ow = spec.out_w();
  const std::size_t positions = static_cast<std::size_t>(oh) * ow;
  const auto stride = static_cast<std::size_t>(groups);
  layer.group_counts.resize(positions * stride);
  double* counts = layer.group_counts.data();
  const std::uint8_t* spikes = layer.run.out_spikes.v.data();
  if (spec.out_c % simd == 0) {
    // Whole groups tile every position's channels back to back, so the map
    // is one row of positions * groups groups: one dispatched call.
    common::simd::group_spike_counts(
        spikes, static_cast<int>(positions) * spec.out_c, simd,
        static_cast<int>(positions * stride), counts);
  } else {
    for (std::size_t pos = 0; pos < positions; ++pos) {
      common::simd::group_spike_counts(
          spikes + pos * static_cast<std::size_t>(spec.out_c), spec.out_c,
          simd, groups, counts + pos * stride);
    }
  }
  if (spec.kind != snn::LayerKind::kConv) return;

  // Stream lengths of each position's k*k SpVAs. The same streams repeat
  // for every SIMD output-channel group, so every view shares them.
  const CostParams& p = opt.cost;
  const int k = spec.k;
  const double stretch =
      opt.variant == Variant::kBaseline
          ? 1.0
          : p.conflict_stretch(access_rate(opt.variant, p), opt.cores);
  layer.stream_terms.resize(2 * positions);
  double* terms = layer.stream_terms.data();
  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox, terms += 2) {
      double elems = 0;
      double fpu_time = 0;  // FPU sequencer timeline (streams + residues)
      for (int kh = 0; kh < k; ++kh) {
        for (int kw = 0; kw < k; ++kw) {
          const double s = ifmap->stream_len(oy + kh, ox + kw);
          elems += s;
          fpu_time += p.fadd_latency * s * stretch + p.ss_residue;
        }
      }
      terms[0] = elems;
      terms[1] = fpu_time;
    }
  }
}

namespace {

/// The sub-problem a view plans its tiles for: its channels, and its
/// output rows with their halo'd input rows.
snn::LayerSpec view_spec(const snn::LayerSpec& spec, const TimingView& v) {
  snn::LayerSpec sub = spec;
  sub.out_c = v.c_hi - v.c_lo;
  if (spec.kind != snn::LayerKind::kFc) {
    sub.in_h = v.oy_hi - v.oy_lo + spec.k - 1;
  }
  return sub;
}

std::size_t conv_view_tasks(const snn::LayerSpec& spec, const TimingView& v,
                            const KernelScratch& layer, const RunOptions& opt,
                            KernelScratch& ks) {
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;
  const int simd = common::simd_lanes(fmt);
  const bool fp8 = fmt == common::FpFormat::FP8;
  const int k = spec.k;
  const int ow = spec.out_w();
  const auto stride = static_cast<std::size_t>(n_groups(spec.out_c, fmt));
  const int g_lo = v.c_lo / simd;
  const int groups = n_groups(v.c_hi, fmt) - g_lo;
  const double stretch =
      opt.variant == Variant::kBaseline
          ? 1.0
          : p.conflict_stretch(access_rate(opt.variant, p), opt.cores);

  KernelStats& st = ks.run.stats;
  st.reset();
  st.active_cores = opt.cores;
  std::vector<double>& rf_costs = ks.tasks;
  rf_costs.clear();
  rf_costs.reserve(static_cast<std::size_t>(v.oy_hi - v.oy_lo) * ow);
  double spikes = 0;
  for (int oy = v.oy_lo; oy < v.oy_hi; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      const std::size_t pos = static_cast<std::size_t>(oy) * ow + ox;
      const double elems = layer.stream_terms[2 * pos];
      double fpu_time = layer.stream_terms[2 * pos + 1];
      double int_time = 0;   // integer-core timeline (setup + activation)
      st.fpu_ops += elems * groups;
      const double* gcounts = layer.group_counts.data() + pos * stride + g_lo;

      double rf = 0;
      if (opt.variant == Variant::kSpikeStream) {
        fpu_time *= groups;
        int_time = p.steal_cost + p.ss_setup * k * k * groups;
        for (int g = 0; g < groups; ++g) {
          const double gs = gcounts[g];
          spikes += gs;
          int_time += activation_cycles(p, simd, gs, fp8);
          count_activation(st, p, simd, gs, fp8);
        }
        // Pseudo dual-issue: integer work overlaps the FPU streams.
        rf = std::max(fpu_time, int_time);
        st.int_instrs += 14.0 * k * k * groups;
        st.tcdm_words += (elems + elems / 4.0) * groups;
        st.ssr_elems += elems * groups;
      } else if (opt.variant == Variant::kDenseNoTc) {
        // Uncompressed ifmap: one affine weight stream per position walks
        // the *entire* fan-in; the dense activation vector streams alongside
        // (fmadd with the 0/1 spike value). No indices, no s_ptr.
        const double dense_elems = static_cast<double>(k) * k * spec.in_c;
        fpu_time = (p.fadd_latency * dense_elems * stretch +
                    p.ss_residue * k * k) * groups;
        int_time = p.steal_cost + p.dense_setup * k * k * groups;
        for (int g = 0; g < groups; ++g) {
          const double gs = gcounts[g];
          spikes += gs;
          int_time += activation_cycles(p, simd, gs, fp8);
          count_activation(st, p, simd, gs, fp8);
        }
        rf = std::max(fpu_time, int_time);
        st.fpu_ops += (dense_elems - elems) * groups;  // elems already added
        st.int_instrs += 10.0 * k * k * groups;
        st.tcdm_words += 2.0 * dense_elems * groups;
        st.ssr_elems += 2.0 * dense_elems * groups;
      } else {
        // Baseline: everything serializes through the integer pipe.
        rf = (elems * p.baseline_elem_cycles +
              p.baseline_spva_overhead * k * k) *
             groups;
        for (int g = 0; g < groups; ++g) {
          const double gs = gcounts[g];
          spikes += gs;
          rf += activation_cycles(p, simd, gs, fp8);
          count_activation(st, p, simd, gs, fp8);
        }
        st.int_instrs += (16.0 * k * k + 8.0 * elems) * groups;
        st.tcdm_words += 2.0 * elems * groups;
      }
      rf_costs.push_back(rf);
    }
  }
  return static_cast<std::size_t>(spikes);
}

std::size_t fc_view_tasks(const snn::LayerSpec& spec,
                          const compress::CsrIfmap& ifmap, const TimingView& v,
                          const KernelScratch& layer, const RunOptions& opt,
                          KernelScratch& ks) {
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;
  const int simd = common::simd_lanes(fmt);
  const bool fp8 = fmt == common::FpFormat::FP8;
  const int g_lo = v.c_lo / simd;
  const int groups = n_groups(v.c_hi, fmt) - g_lo;
  const double* gcounts = layer.group_counts.data() + g_lo;
  double spikes = 0;
  for (int g = 0; g < groups; ++g) spikes += gcounts[g];
  const auto out_nnz = static_cast<std::size_t>(spikes);

  LayerRun& run = ks.run;
  const snn::LayerSpec sub = view_spec(spec, v);
  run.plan = plan_layer(
      sub, fmt, static_cast<double>(ifmap.footprint_bytes()),
      static_cast<double>(
          compress::CsrIfmap::footprint_from_count(out_nnz, 1, 1)),
      p, 128.0 * 1024, opt.double_buffer, opt.segment_major_lanes);

  const double s_total = static_cast<double>(ifmap.nnz());
  const int segs = run.plan.in_segments;
  const double s_seg = s_total / segs;
  const double stretch =
      opt.variant == Variant::kBaseline
          ? 1.0
          : p.conflict_stretch(access_rate(opt.variant, p), opt.cores);

  KernelStats& st = run.stats;
  st.reset();
  st.active_cores = opt.cores;
  std::vector<double>& tasks = ks.tasks;
  tasks.clear();
  tasks.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    const double gs = gcounts[g];
    double t = 0;
    if (opt.variant == Variant::kSpikeStream) {
      const double fpu_time =
          (p.fadd_latency * s_seg * stretch + p.ss_residue) * segs;
      const double int_time = p.ss_setup * segs +
                              activation_cycles(p, simd, gs, fp8);
      t = std::max(fpu_time, int_time);
    } else if (opt.variant == Variant::kDenseNoTc) {
      const double dense_seg = static_cast<double>(spec.in_c) / segs;
      const double fpu_time =
          (p.fadd_latency * dense_seg * stretch + p.ss_residue) * segs;
      const double int_time = p.dense_setup * segs +
                              activation_cycles(p, simd, gs, fp8);
      t = std::max(fpu_time, int_time);
    } else {
      t = (s_seg * p.baseline_elem_cycles + p.baseline_spva_overhead) * segs +
          activation_cycles(p, simd, gs, fp8);
    }
    if (opt.variant == Variant::kDenseNoTc) {
      // Dense activity: the full fan-in streams through two affine SSRs.
      st.fpu_ops += spec.in_c;
      st.int_instrs += 10.0 * segs;
      st.tcdm_words += 2.0 * spec.in_c;
      st.ssr_elems += 2.0 * spec.in_c;
    } else {
      for (int s = 0; s < segs; ++s) count_spva(st, opt.variant, s_seg);
    }
    count_activation(st, p, simd, gs, fp8);
    tasks.push_back(t);
  }
  return out_nnz;
}

std::size_t encode_view_tasks(const snn::LayerSpec& spec, const TimingView& v,
                              const KernelScratch& layer,
                              const RunOptions& opt, KernelScratch& ks) {
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;
  const int simd = common::simd_lanes(fmt);
  const bool fp8 = fmt == common::FpFormat::FP8;

  // Conv-as-matmul over the im2row stream: each core owns a set of output-
  // channel groups (Section III-F) and walks all output positions.
  const auto stride = static_cast<std::size_t>(n_groups(spec.out_c, fmt));
  const int g_lo = v.c_lo / simd;
  const int g_hi = n_groups(v.c_hi, fmt);
  const double dot_len = static_cast<double>(spec.k) * spec.k * spec.in_c;
  const int ow = spec.out_w();
  const double stretch =
      opt.variant == Variant::kBaseline
          ? 1.0
          : p.conflict_stretch(2.0 / p.dense_ii(), opt.cores);

  KernelStats& st = ks.run.stats;
  st.reset();
  st.active_cores = opt.cores;
  std::vector<double>& tasks = ks.tasks;
  tasks.clear();
  tasks.reserve(static_cast<std::size_t>(g_hi - g_lo));
  double spikes = 0;
  for (int g = g_lo; g < g_hi; ++g) {
    double fpu_time = 0, int_time = 0, t = 0;
    for (int oy = v.oy_lo; oy < v.oy_hi; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const std::size_t pos = static_cast<std::size_t>(oy) * ow + ox;
        const double gs = layer.group_counts[pos * stride + g];
        spikes += gs;
        const double act = activation_cycles(p, simd, gs, fp8);
        count_activation(st, p, simd, gs, fp8);
        st.fpu_ops += dot_len;
        st.fpu_mac_ops += dot_len;
        if (opt.variant != Variant::kBaseline) {
          fpu_time += p.dense_ii() * dot_len * stretch + p.dense_residue;
          int_time += p.dense_setup + act;
          st.int_instrs += 10;               // affine SSR setup per dot
          st.tcdm_words += 2.0 * dot_len;    // input + weight streams
          st.ssr_elems += 2.0 * dot_len;
        } else {
          t += baseline_dense_dot_cycles(p, dot_len) + act;
          st.int_instrs += 12 + 5.0 * dot_len;  // 2x-unrolled scalar loop
          st.tcdm_words += 2.0 * dot_len;
        }
      }
    }
    if (opt.variant != Variant::kBaseline) {
      t = std::max(fpu_time, int_time);  // decoupled pipelines overlap
    }
    tasks.push_back(t);
  }
  return static_cast<std::size_t>(spikes);
}

/// The four timing phases on one whole layer.
void time_layer(const snn::LayerSpec& spec, const compress::CsrIfmap* ifmap,
                const RunOptions& opt, KernelScratch& scratch) {
  timing_terms(spec, ifmap, opt, scratch);
  const TimingView all = full_view(spec);
  view_tasks(spec, ifmap, all, scratch, opt, scratch);
  schedule_into(opt, scratch.tasks, scratch.sched);
  finish_view(spec, ifmap, all, opt, scratch);
}

}  // namespace

std::size_t view_tasks(const snn::LayerSpec& spec,
                       const compress::CsrIfmap* ifmap, const TimingView& v,
                       const KernelScratch& layer, const RunOptions& opt,
                       KernelScratch& ks) {
  switch (spec.kind) {
    case snn::LayerKind::kConv:
      return conv_view_tasks(spec, v, layer, opt, ks);
    case snn::LayerKind::kFc:
      return fc_view_tasks(spec, *ifmap, v, layer, opt, ks);
    case snn::LayerKind::kEncodeConv:
      return encode_view_tasks(spec, v, layer, opt, ks);
  }
  return 0;
}

void schedule_views(const RunOptions& opt, std::span<KernelScratch> views) {
  if (!opt.workload_stealing) {
    for (KernelScratch& ks : views) schedule_into(opt, ks.tasks, ks.sched);
    return;
  }
  constexpr std::size_t kChunk = 8;
  std::array<common::simd::StealList, kChunk> lists;
  const auto cores = static_cast<std::size_t>(opt.cores);
  for (std::size_t i = 0; i < views.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, views.size() - i);
    for (std::size_t j = 0; j < n; ++j) {
      KernelScratch& ks = views[i + j];
      ks.sched.core_cycles.resize(cores);
      lists[j] = {ks.tasks.data(), ks.tasks.size(),
                  ks.sched.core_cycles.data()};
    }
    common::simd::steal_schedule_lists(std::span(lists.data(), n), opt.cores,
                                       opt.cost.steal_cost);
    for (std::size_t j = 0; j < n; ++j) {
      ScheduleResult& r = views[i + j].sched;
      r.makespan = makespan_of(r.core_cycles);
    }
  }
}

void finish_view(const snn::LayerSpec& spec, const compress::CsrIfmap* ifmap,
                 const TimingView& v, const RunOptions& opt,
                 KernelScratch& ks) {
  const CostParams& p = opt.cost;
  LayerRun& run = ks.run;
  KernelStats& st = run.stats;
  ScheduleResult& sched = ks.sched;
  if (spec.kind == snn::LayerKind::kFc) {
    // Index pre-scaling pass (base ISA lacks strided indirect streams,
    // Section VI): performed once, split across cores, before the group
    // streams start. With the proposed extension an index addresses a
    // weight row directly and the pass disappears.
    const double s_total = static_cast<double>(ifmap->nnz());
    double prescale = 0.0;
    if (opt.variant == Variant::kSpikeStream && !opt.strided_indirect_ext) {
      prescale = s_total * p.fc_prescale_per_spike / opt.cores;
      st.int_instrs += s_total * p.fc_prescale_per_spike;
    }
    for (double& c : sched.core_cycles) c += prescale;
    sched.makespan += prescale;
  }
  st.core_cycles = sched.core_cycles;
  st.compute_cycles = sched.makespan + p.icache_layer_warmup;

  if (spec.kind == snn::LayerKind::kConv) {
    const snn::LayerSpec sub = view_spec(spec, v);
    run.plan = plan_layer(
        sub, opt.fmt,
        static_cast<double>(
            ifmap->rows_footprint_bytes(v.oy_lo, v.oy_hi + spec.k - 1)),
        static_cast<double>(compress::CsrIfmap::footprint_from_count(
            run.out_nnz, sub.out_h(), sub.out_w())),
        p, 128.0 * 1024, opt.double_buffer);
  } else if (spec.kind == snn::LayerKind::kEncodeConv) {
    run.plan = plan_encode_layer(view_spec(spec, v), opt.fmt, p, 128.0 * 1024,
                                 opt.double_buffer);
  }
  finish_timing(opt, ks);
}

void conv_timing(const snn::LayerSpec& spec, const compress::CsrIfmap& ifmap,
                 const RunOptions& opt, KernelScratch& scratch) {
  time_layer(spec, &ifmap, opt, scratch);
}

void fc_timing(const snn::LayerSpec& spec, const compress::CsrIfmap& ifmap,
               const RunOptions& opt, KernelScratch& scratch) {
  time_layer(spec, &ifmap, opt, scratch);
}

void encode_timing(const snn::LayerSpec& spec, const RunOptions& opt,
                   KernelScratch& scratch) {
  time_layer(spec, nullptr, opt, scratch);
}

void fc_fanin_shard_timing(const snn::LayerSpec& spec,
                           const compress::CsrIfmap& ifmap, int c_lo, int c_hi,
                           const RunOptions& opt, KernelScratch& scratch) {
  SPK_CHECK(ifmap.h() == 1 && ifmap.w() == 1 && ifmap.c() == spec.in_c,
            "fc fan-in " << spec.name << ": input shape mismatch");
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;

  // CSR channel indices are sorted, so the spikes this cluster owns are one
  // contiguous run of the index array. Compare in int, not the CSR index
  // type: at in_c == 65536 the last shard's bound does not fit in 16 bits.
  const auto span = ifmap.at(0, 0);
  const auto below = [](std::uint16_t ci, int bound) { return ci < bound; };
  const auto lo_it = std::lower_bound(span.begin(), span.end(), c_lo, below);
  const auto hi_it = std::lower_bound(span.begin(), span.end(), c_hi, below);
  const double s_total = static_cast<double>(hi_it - lo_it);

  // This cluster's slice of the layer: its weight-row band plus its ifmap
  // share. Partial currents stay on chip (they cross the NoC, not the DMA),
  // so the ofmap transfer volume is zero.
  snn::LayerSpec sub = spec;
  sub.in_c = c_hi - c_lo;
  LayerRun& run = scratch.run;
  run.plan = plan_layer(
      sub, fmt,
      static_cast<double>(compress::CsrIfmap::footprint_from_count(
          static_cast<std::size_t>(s_total), 1, 1)),
      0.0, p, 128.0 * 1024, opt.double_buffer, opt.segment_major_lanes);

  const int groups = n_groups(spec.out_c, fmt);
  const int segs = run.plan.in_segments;
  const double s_seg = s_total / segs;
  const double stretch =
      opt.variant == Variant::kBaseline
          ? 1.0
          : p.conflict_stretch(access_rate(opt.variant, p), opt.cores);

  KernelStats& st = run.stats;
  st.reset();
  st.active_cores = opt.cores;
  std::vector<double>& tasks = scratch.tasks;
  tasks.clear();
  tasks.reserve(static_cast<std::size_t>(groups));
  for (int g = 0; g < groups; ++g) {
    double t = 0;
    if (opt.variant == Variant::kSpikeStream) {
      const double fpu_time =
          (p.fadd_latency * s_seg * stretch + p.ss_residue) * segs;
      t = std::max(fpu_time, p.ss_setup * segs);
    } else if (opt.variant == Variant::kDenseNoTc) {
      const double dense_seg = static_cast<double>(sub.in_c) / segs;
      const double fpu_time =
          (p.fadd_latency * dense_seg * stretch + p.ss_residue) * segs;
      t = std::max(fpu_time, p.dense_setup * segs);
    } else {
      t = (s_seg * p.baseline_elem_cycles + p.baseline_spva_overhead) * segs;
    }
    if (opt.variant == Variant::kDenseNoTc) {
      st.fpu_ops += sub.in_c;
      st.int_instrs += 10.0 * segs;
      st.tcdm_words += 2.0 * sub.in_c;
      st.ssr_elems += 2.0 * sub.in_c;
    } else {
      for (int s = 0; s < segs; ++s) count_spva(st, opt.variant, s_seg);
    }
    tasks.push_back(t);
  }
  ScheduleResult& sched = scratch.sched;
  schedule_into(opt, tasks, sched);
  // Index pre-scaling covers only this cluster's own spikes (see fc_timing).
  double prescale = 0.0;
  if (opt.variant == Variant::kSpikeStream && !opt.strided_indirect_ext) {
    prescale = s_total * p.fc_prescale_per_spike / opt.cores;
    st.int_instrs += s_total * p.fc_prescale_per_spike;
  }
  for (double& c : sched.core_cycles) c += prescale;
  sched.makespan += prescale;

  st.core_cycles = sched.core_cycles;
  st.compute_cycles = sched.makespan + p.icache_layer_warmup;
  finish_timing(opt, scratch);
}

FcFanInMergeCost fc_fanin_merge_cost(const snn::LayerSpec& spec,
                                     const snn::SpikeMap& out_spikes,
                                     int n_shards, const RunOptions& opt) {
  const CostParams& p = opt.cost;
  const common::FpFormat fmt = opt.fmt;
  const int simd = common::simd_lanes(fmt);
  const bool fp8 = fmt == common::FpFormat::FP8;
  const int groups = n_groups(spec.out_c, fmt);

  FcFanInMergeCost m;
  // Reduction: stream each of the n-1 partial vectors in from the NoC and
  // add it group-wise into the resident accumulator (one affine stream per
  // partial, one SIMD fadd per group).
  const double partials = static_cast<double>(n_shards) - 1.0;
  m.cycles += partials * (p.dense_setup + p.fadd_latency * groups);
  m.fpu_ops += partials * groups;
  m.int_instrs += partials * 10.0;
  m.tcdm_words += 2.0 * partials * groups;  // partial read + accumulator rmw
  m.noc_bytes +=
      partials * spec.out_c * static_cast<double>(common::fp_bytes(fmt));
  // Activation runs exactly once, with the same accounting as fc_timing.
  const std::uint8_t* row = &out_spikes.at(0, 0, 0);
  for (int g = 0; g < groups; ++g) {
    const int lo = g * simd;
    const int hi = std::min(lo + simd, spec.out_c);
    double gs = 0;
    for (int ch = lo; ch < hi; ++ch) gs += row[ch];
    const double cyc = activation_cycles(p, simd, gs, fp8);
    m.cycles += cyc;
    m.int_instrs += cyc;
    m.tcdm_words += 1.0 + gs / 4.0;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Combined layer execution
// ---------------------------------------------------------------------------

const LayerRun& run_conv_layer(const snn::LayerSpec& spec,
                               const snn::LayerWeights& weights,
                               const compress::CsrIfmap& ifmap,
                               snn::Tensor& membrane, const RunOptions& opt,
                               KernelScratch& scratch) {
  conv_functional(spec, weights, ifmap, membrane, scratch);
  conv_timing(spec, ifmap, opt, scratch);
  return scratch.run;
}

const LayerRun& run_fc_layer(const snn::LayerSpec& spec,
                             const snn::LayerWeights& weights,
                             const compress::CsrIfmap& ifmap,
                             snn::Tensor& membrane, const RunOptions& opt,
                             KernelScratch& scratch) {
  fc_functional(spec, weights, ifmap, membrane, scratch);
  fc_timing(spec, ifmap, opt, scratch);
  return scratch.run;
}

const LayerRun& run_encode_layer(const snn::LayerSpec& spec,
                                 const snn::LayerWeights& weights,
                                 const snn::Tensor& padded_image,
                                 snn::Tensor& membrane, const RunOptions& opt,
                                 KernelScratch& scratch) {
  encode_functional(spec, weights, padded_image, membrane, scratch);
  encode_timing(spec, opt, scratch);
  return scratch.run;
}

}  // namespace spikestream::kernels
