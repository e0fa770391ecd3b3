#include "kernels/tiling.hpp"

#include <algorithm>
#include <cmath>

#include "arch/dram/stream_reader.hpp"
#include "common/check.hpp"

namespace spikestream::kernels {

namespace {

constexpr double kIdxBytes = 2.0;  ///< 16-bit indices and counts (Fig. 3a)

/// One priced segment-major configuration (banked mode): a resident-lane
/// count plus whether one resident slot is repurposed as the spill/fill
/// bounce buffer that overlaps parked-lane spills with the band streams.
struct SmPricing {
  int resident = 0;
  bool double_buffered = false;
  double bytes = 0;
  double cycles = 0;        ///< net of hidden_cycles
  double spill_bytes = 0;
  double spill_cycles = 0;  ///< serial cost of the spill/fill streams alone
  double hidden_cycles = 0;
  double row_hits = 0;
  double row_misses = 0;
};

/// Segment-major batched FC schedule (see TilePlan). Evaluated against the
/// per-sample plan already in `plan`; fills the sm_* fields and sets
/// `segment_major` only when the amortized DMA timeline wins on both bytes
/// and cycles — i.e. the batch weight-stream saving is priced against the
/// spill/fill traffic of the partial sums parked between bands. Under the
/// banked DRAM model the query additionally prices a double-buffered
/// spill/fill variant (one resident lane traded for a bounce buffer, spill
/// first-beat overhead hidden under the concurrent band stream) and adopts
/// whichever regime's net timeline is cheaper.
void plan_fc_segment_major(TilePlan& plan, const snn::LayerSpec& spec,
                           common::FpFormat fmt, double ifmap_actual_bytes,
                           double ofmap_actual_bytes, const CostParams& p,
                           int lanes, double spm_bytes, bool double_buffer) {
  plan.sm_dma_bytes = plan.dma_bytes;
  plan.sm_dma_cycles = plan.dma_cycles;
  plan.sm_first_fill_cycles = plan.first_fill_cycles;
  const int bands = plan.weight_tiles * plan.in_segments;
  if (spec.kind != snn::LayerKind::kFc || lanes <= 1 || bands <= 1) return;

  (void)double_buffer;  // band/ifmap buffers keep the per-sample plan's shape
  const arch::DramConfig& d = p.dram;
  const double fb = common::fp_bytes(fmt);
  const double all_weights =
      static_cast<double>(spec.in_c) * spec.out_c * fb;
  const double B = static_cast<double>(lanes);
  const double tiles = static_cast<double>(plan.weight_tiles);
  const double segs = static_cast<double>(plan.in_segments);
  const double acc_bytes = static_cast<double>(plan.co_per_tile) * fb;

  // Resident partial-sum sets: the per-sample plan already reserves the
  // active lane's accumulator slice (its state bytes); SPM slack next to the
  // streaming buffers holds the other lanes' slices. Only the current
  // co-tile's slices are ever live (co-tiles are the outer band loop), so
  // one slice per lane suffices.
  const double slack = spm_bytes - plan.spm_resident_bytes;
  const int resident = std::min(
      lanes, 1 + static_cast<int>(std::max(0.0, slack) / acc_bytes));

  if (d.flat_legacy) {
    // Historical flat pricing, expression-for-expression (bit-exact).
    const double parked = B - static_cast<double>(resident);

    // A non-resident lane's accumulator slice spills to DRAM after each band
    // and refills at the next band of the same co-tile: (segs - 1)
    // transitions per co-tile, a write and a read each. The first band
    // zero-initializes in SPM and the last feeds the activation on-chip,
    // exactly like the per-sample schedule, so those ends carry no extra
    // traffic.
    const double spill_batch =
        2.0 * parked * (segs - 1.0) * tiles * acc_bytes;
    // Weights stream once per batch; each sample re-reads its compressed
    // ifmap segment at every band of every co-tile it participates in.
    const double sm_spill = spill_batch / B;
    const double sm_bytes = all_weights / B + tiles * ifmap_actual_bytes +
                            ofmap_actual_bytes + sm_spill;
    const double spill_transfers = 2.0 * parked * (segs - 1.0) * tiles / B;
    const double n_transfers =
        static_cast<double>(bands) / B  // weight bands, amortized
        + tiles * segs                  // per-sample ifmap segments
        + spill_transfers               // spill/fill, amortized
        + tiles;                        // fragmented ofmap write-back
    const double sm_cycles =
        sm_bytes / d.bytes_per_cycle + n_transfers * d.request_latency;

    // Only adopt the schedule when it beats the best per-sample regime (the
    // warm plan equals the cold one here — segmented weights cannot pin).
    if (sm_bytes <= plan.dma_bytes &&
        sm_cycles < std::min(plan.dma_cycles, plan.dma_cycles_warm)) {
      plan.segment_major = true;
      plan.sm_lanes = lanes;
      plan.sm_bands = bands;
      plan.sm_resident_lanes = resident;
      plan.sm_spill_bytes = sm_spill;
      plan.sm_spill_cycles =
          sm_spill / d.bytes_per_cycle + spill_transfers * d.request_latency;
      plan.sm_dma_bytes = sm_bytes;
      plan.sm_dma_cycles = sm_cycles;
      plan.sm_first_fill_cycles = std::min(
          plan.first_fill_cycles,
          (plan.weight_tile_bytes + plan.if_stripe_bytes) /
                  d.bytes_per_cycle +
              2.0 * d.request_latency);
    }
    return;
  }

  // --- banked mode -----------------------------------------------------------
  // Decompose the amortized per-sample timeline into its four access
  // sequences and price each by run shape: the weight bands are long
  // contiguous runs (near-peak bandwidth), the spill/fill slices are many
  // small runs that each pay a request latency plus a row activation.
  const auto price = [&](int res, bool ddb) {
    SmPricing c;
    c.resident = res;
    c.double_buffered = ddb;
    const double parked = B - static_cast<double>(res);
    c.spill_bytes = 2.0 * parked * (segs - 1.0) * tiles * acc_bytes / B;
    const double spill_runs = 2.0 * parked * (segs - 1.0) * tiles / B;
    const arch::DramCost w =
        d.stream(all_weights / B, static_cast<double>(bands) / B);
    const arch::DramCost ifm =
        d.stream(tiles * ifmap_actual_bytes, tiles * segs);
    const arch::DramCost ofm = d.stream(ofmap_actual_bytes, tiles);
    const arch::DramCost sp = d.stream(c.spill_bytes, spill_runs);
    c.spill_cycles = sp.cycles;
    c.bytes = w.bytes + ifm.bytes + ofm.bytes + sp.bytes;
    c.row_hits = w.row_hits + ifm.row_hits + ofm.row_hits + sp.row_hits;
    c.row_misses =
        w.row_misses + ifm.row_misses + ofm.row_misses + sp.row_misses;
    const double serial = w.cycles + ifm.cycles + ofm.cycles + sp.cycles;
    if (ddb) {
      // Only the spill streams' first-beat overhead (request latencies +
      // row activations) can hide under the concurrent band stream — the
      // data beats share the one channel and stay charged. Bounded by the
      // band stream there is to hide behind.
      const double overhead =
          std::max(0.0, sp.cycles - sp.bytes / d.bytes_per_cycle);
      c.hidden_cycles = std::min(overhead, w.cycles);
    }
    c.cycles = serial - c.hidden_cycles;
    return c;
  };

  SmPricing best = price(resident, false);
  if (d.spill_double_buffer && resident >= 2 && resident < lanes) {
    // SPM slack never holds resident+1 accumulator slices when anything
    // spills (resident is exactly 1 + floor(slack / slice)), so the bounce
    // buffer must be carved out of the resident set: park one more lane and
    // overlap every parked lane's spill/fill with the band streams. Adopt
    // only when the extra spill traffic loses to the hidden overhead.
    const SmPricing ddb = price(resident - 1, true);
    if (ddb.cycles < best.cycles) best = ddb;
  }

  if (best.bytes <= plan.dma_bytes &&
      best.cycles < std::min(plan.dma_cycles, plan.dma_cycles_warm)) {
    plan.segment_major = true;
    plan.sm_lanes = lanes;
    plan.sm_bands = bands;
    plan.sm_resident_lanes = best.resident;
    plan.sm_double_buffered = best.double_buffered;
    plan.sm_spill_bytes = best.spill_bytes;
    plan.sm_spill_cycles = best.spill_cycles;
    plan.sm_hidden_cycles = best.hidden_cycles;
    plan.sm_row_hits = best.row_hits;
    plan.sm_row_misses = best.row_misses;
    plan.sm_dma_bytes = best.bytes;
    plan.sm_dma_cycles = best.cycles;
    plan.sm_first_fill_cycles = std::min(
        plan.first_fill_cycles,
        d.stream(plan.weight_tile_bytes + plan.if_stripe_bytes, 2.0).cycles);
  }
}

}  // namespace

TilePlan plan_layer(const snn::LayerSpec& spec, common::FpFormat fmt,
                    double ifmap_actual_bytes, double ofmap_actual_bytes,
                    const CostParams& p, double spm_bytes, bool double_buffer,
                    int batch_lanes) {
  const int simd = common::simd_lanes(fmt);
  const double fb = common::fp_bytes(fmt);
  const bool is_fc = spec.kind == snn::LayerKind::kFc;
  const int kk = is_fc ? 1 : spec.k * spec.k;
  const int out_rows = is_fc ? 1 : spec.out_h();
  const double buf_mult = double_buffer ? 2.0 : 1.0;
  const arch::DramConfig& d = p.dram;

  TilePlan plan;
  plan.in_segments = 1;

  // Search the largest configuration that fits the scratchpad. Preference
  // order: keep the whole (compressed, small) ifmap resident and shrink the
  // weight co-tile; only stripe the ifmap (convs) or segment the fan-in (FC)
  // if even the smallest co-tile does not fit. Ofmap buffers are sized for
  // the zero-sparsity worst case but only per co-tile — the paper accepts
  // fragmented c_idcs write-backs for exactly this reason.
  for (int co = std::max(spec.out_c, simd); co >= simd && !plan.fits_spm;
       co = co > simd ? std::max(co / 2, simd) : co - 1) {
    const int max_seg = is_fc ? 64 : 1;
    for (int seg = 1; seg <= max_seg && !plan.fits_spm; seg *= 2) {
      const int in_c_tile = (spec.in_c + seg - 1) / seg;
      const double w_bytes =
          static_cast<double>(kk) * in_c_tile * co * fb;
      for (int rows = out_rows; rows >= 1; rows = rows > 1 ? rows / 2 : 0) {
        const int in_rows = is_fc ? 1 : rows + spec.k - 1;
        // Compressed ifmap stripes have a known (measured) size.
        const double if_frac =
            is_fc ? 1.0 / seg
                  : static_cast<double>(in_rows) / std::max(spec.in_h, 1);
        const double if_bytes = std::max(ifmap_actual_bytes * if_frac, 64.0);
        const double positions =
            is_fc ? 1.0 : static_cast<double>(rows) * spec.out_w();
        const double of_bytes =
            positions * co * kIdxBytes + positions * kIdxBytes;
        const double state_bytes = positions * co * fb;
        const double resident = buf_mult * (w_bytes + if_bytes) + of_bytes +
                                state_bytes;
        if (resident <= spm_bytes) {
          plan.co_per_tile = co;
          plan.weight_tiles = (spec.out_c + co - 1) / co;
          plan.in_segments = seg;
          plan.rows_per_stripe = rows;
          plan.if_stripes = (out_rows + rows - 1) / rows;
          plan.weight_tile_bytes = w_bytes;
          plan.if_stripe_bytes = if_bytes;
          plan.ofmap_buf_bytes = of_bytes;
          plan.spm_resident_bytes = resident;
          plan.fits_spm = true;
          break;
        }
        if (rows == 1) break;
      }
    }
  }
  SPK_CHECK(plan.fits_spm, "layer " << spec.name
                                    << " does not fit SPM at any tile size");

  // Transfer volume. Ifmap stripes are the outer buffer, weight tiles cycle
  // inside (Section III-D): weights are re-streamed once per extra stripe.
  const double all_weights =
      static_cast<double>(kk) * spec.in_c * spec.out_c * fb;
  const double w_traffic =
      all_weights * static_cast<double>(plan.if_stripes);
  // The ifmap index list is re-read once per input segment (FC only).
  const double if_traffic =
      ifmap_actual_bytes * static_cast<double>(plan.in_segments);

  if (d.flat_legacy) {
    // Historical flat pricing, expression-for-expression (bit-exact).
    plan.dma_bytes = w_traffic + if_traffic + ofmap_actual_bytes;
    const double n_transfers =
        static_cast<double>(plan.if_stripes) * plan.weight_tiles *
            plan.in_segments +
        static_cast<double>(plan.if_stripes) +
        static_cast<double>(plan.weight_tiles);  // fragmented ofmap write-back
    plan.dma_cycles = plan.dma_bytes / d.bytes_per_cycle +
                      n_transfers * d.request_latency;
    plan.first_fill_cycles = (plan.weight_tile_bytes + plan.if_stripe_bytes) /
                                 d.bytes_per_cycle +
                             2.0 * d.request_latency;
  } else {
    // Banked mode: price each access sequence by its run shape. Weight
    // tiles stream as one contiguous run per fetch (near-sequential);
    // ifmap segments re-read per stripe and segment; the compressed ofmap
    // writes back fragmented, one run per co-tile.
    const double stripes_d = static_cast<double>(plan.if_stripes);
    const double tiles_d = static_cast<double>(plan.weight_tiles);
    const double segs_d = static_cast<double>(plan.in_segments);
    const double w_runs = stripes_d * tiles_d * segs_d;
    const double if_runs = stripes_d * segs_d;
    arch::DramCost c;
    c.accumulate(d.stream(w_traffic, w_runs));
    c.accumulate(d.stream(if_traffic, if_runs));
    c.accumulate(d.stream(ofmap_actual_bytes, tiles_d));
    plan.dma_bytes = c.bytes;
    plan.dma_cycles = c.cycles;
    plan.dma_row_hits = c.row_hits;
    plan.dma_row_misses = c.row_misses;
    plan.first_fill_cycles =
        d.stream(plan.weight_tile_bytes + plan.if_stripe_bytes, 2.0).cycles;
  }

  // --- batch-aware warm plan (batch-level weight-tile reuse) ----------------
  // Re-search the tiling for the *warm* regime: SPM capacity may be spent on
  // permanently pinned weight tiles (single-buffered — pinned tiles are
  // never streamed) instead of the biggest possible streaming buffers the
  // cold plan prefers. A warm batch sample then refetches only the
  // unpinned weight fraction; the pinned tiles survived from the previous
  // sample on the same cluster. The search minimizes warm DMA bytes over
  // (co tile, ifmap stripe rows, pinned tile count). Fan-in segmentation
  // cycles different weight bands through one tile and cannot pin, which
  // excludes the big segmented FC layers. Defaults (warm == cold) stand
  // when nothing beats them.
  plan.dma_bytes_warm = plan.dma_bytes;
  plan.dma_cycles_warm = plan.dma_cycles;
  plan.first_fill_cycles_warm = plan.first_fill_cycles;
  plan.dma_row_hits_warm = plan.dma_row_hits;
  plan.dma_row_misses_warm = plan.dma_row_misses;
  if (plan.in_segments == 1) {
    for (int co = std::max(spec.out_c, simd); co >= simd;
         co = co > simd ? std::max(co / 2, simd) : co - 1) {
      const int tiles = (spec.out_c + co - 1) / co;
      const double tile_bytes = static_cast<double>(kk) * spec.in_c * co * fb;
      for (int rows = out_rows; rows >= 1; rows = rows > 1 ? rows / 2 : 0) {
        const int in_rows = is_fc ? 1 : rows + spec.k - 1;
        const double if_frac =
            is_fc ? 1.0
                  : static_cast<double>(in_rows) / std::max(spec.in_h, 1);
        const double if_bytes = std::max(ifmap_actual_bytes * if_frac, 64.0);
        const double positions =
            is_fc ? 1.0 : static_cast<double>(rows) * spec.out_w();
        const double of_bytes =
            positions * co * kIdxBytes + positions * kIdxBytes;
        const double state_bytes = positions * co * fb;
        // Streaming working set; fully-pinned candidates drop the 2x
        // weight stream buffer entirely.
        double pinned_budget = 0;
        int pinned = 0;
        const double base_full =
            all_weights + buf_mult * if_bytes + of_bytes + state_bytes;
        if (base_full <= spm_bytes && co == spec.out_c) {
          pinned = tiles;  // whole set resident, no stream buffer needed
        } else {
          const double base =
              buf_mult * (tile_bytes + if_bytes) + of_bytes + state_bytes;
          if (base > spm_bytes) {
            if (rows == 1) break;
            continue;
          }
          pinned_budget = spm_bytes - base;
          pinned = std::min<int>(tiles - 1,
                                 static_cast<int>(pinned_budget / tile_bytes));
        }
        if (pinned <= 0) {
          if (rows == 1) break;
          continue;
        }
        const double stripes =
            static_cast<double>((out_rows + rows - 1) / rows);
        const double f =
            static_cast<double>(pinned) / static_cast<double>(tiles);
        const double w_warm = all_weights * stripes * (1.0 - f);
        double bytes_warm = 0;
        double cycles_warm = 0;
        double hits_warm = 0;
        double misses_warm = 0;
        if (d.flat_legacy) {
          bytes_warm = w_warm + ifmap_actual_bytes + ofmap_actual_bytes;
          const double n_warm = stripes * (tiles - pinned) + stripes + tiles;
          cycles_warm =
              bytes_warm / d.bytes_per_cycle + n_warm * d.request_latency;
        } else {
          const double w_runs = stripes * (tiles - pinned);
          arch::DramCost c;
          c.accumulate(d.stream(w_warm, w_runs));
          c.accumulate(d.stream(ifmap_actual_bytes, stripes));
          c.accumulate(
              d.stream(ofmap_actual_bytes, static_cast<double>(tiles)));
          bytes_warm = c.bytes;
          cycles_warm = c.cycles;
          hits_warm = c.row_hits;
          misses_warm = c.row_misses;
        }
        // Minimize warm DMA *cycles*, never exceeding the cold plan on
        // either axis: a byte-minimal candidate with tiny tiles can pay
        // more per-transfer latency than it saves in volume.
        if (cycles_warm < plan.dma_cycles_warm &&
            bytes_warm <= plan.dma_bytes) {
          plan.pinned_weight_fraction = f;
          plan.weights_spm_resident = pinned == tiles;
          plan.dma_bytes_warm = bytes_warm;
          plan.dma_cycles_warm = cycles_warm;
          plan.dma_row_hits_warm = hits_warm;
          plan.dma_row_misses_warm = misses_warm;
          // A warm sample could always fall back to the cold first-fill
          // shape, so never report a worse exposed fill than cold.
          if (d.flat_legacy) {
            plan.first_fill_cycles_warm = std::min(
                plan.first_fill_cycles,
                ((pinned == tiles ? 0.0 : tile_bytes) + if_bytes) /
                        d.bytes_per_cycle +
                    (pinned == tiles ? 1.0 : 2.0) * d.request_latency);
          } else {
            plan.first_fill_cycles_warm = std::min(
                plan.first_fill_cycles,
                d.stream((pinned == tiles ? 0.0 : tile_bytes) + if_bytes,
                         pinned == tiles ? 1.0 : 2.0)
                    .cycles);
          }
        }
        if (rows == 1) break;
      }
    }
  }

  // --- segment-major batched FC schedule ------------------------------------
  plan_fc_segment_major(plan, spec, fmt, ifmap_actual_bytes,
                        ofmap_actual_bytes, p, batch_lanes, spm_bytes,
                        double_buffer);
  return plan;
}

TilePlan plan_encode_layer(const snn::LayerSpec& spec, common::FpFormat fmt,
                           const CostParams& p, double spm_bytes,
                           bool double_buffer) {
  const double fb = common::fp_bytes(fmt);
  const double buf_mult = double_buffer ? 2.0 : 1.0;
  const int kk = spec.k * spec.k;
  const arch::DramConfig& d = p.dram;

  TilePlan plan;
  plan.in_segments = 1;
  // The whole (small) first-layer weight set stays resident; the im2row
  // stream is tiled by output rows through the 2D DMA (Section III-F).
  const double w_bytes = static_cast<double>(kk) * spec.in_c * spec.out_c * fb;
  for (int rows = spec.out_h(); rows >= 1; rows = rows > 1 ? rows / 2 : 0) {
    const double im2row_bytes =
        static_cast<double>(rows) * spec.out_w() * kk * spec.in_c * fb;
    const double positions = static_cast<double>(rows) * spec.out_w();
    const double of_bytes =
        positions * spec.out_c * kIdxBytes + positions * kIdxBytes;
    const double resident = w_bytes + buf_mult * im2row_bytes + of_bytes;
    if (resident <= spm_bytes) {
      plan.co_per_tile = spec.out_c;
      plan.weight_tiles = 1;
      plan.rows_per_stripe = rows;
      plan.if_stripes = (spec.out_h() + rows - 1) / rows;
      plan.weight_tile_bytes = w_bytes;
      plan.if_stripe_bytes = im2row_bytes;
      plan.ofmap_buf_bytes = of_bytes;
      plan.spm_resident_bytes = resident;
      plan.fits_spm = true;
      break;
    }
    if (rows == 1) break;
  }
  SPK_CHECK(plan.fits_spm, "encode layer does not fit SPM");

  // im2row re-reads overlapping input rows: traffic is the expanded volume.
  const double im2row_total = static_cast<double>(spec.out_h()) *
                              spec.out_w() * kk * spec.in_c * fb;
  const double positions = static_cast<double>(spec.out_h()) * spec.out_w();
  const double of_traffic = positions * spec.out_c * kIdxBytes * 0.25;
  const double stripes_d = static_cast<double>(plan.if_stripes);
  if (d.flat_legacy) {
    // Historical flat pricing, expression-for-expression (bit-exact).
    plan.dma_bytes = w_bytes + im2row_total + of_traffic;
    const double n_transfers = 1.0 + 2.0 * plan.if_stripes;
    plan.dma_cycles = plan.dma_bytes / d.bytes_per_cycle +
                      n_transfers * d.request_latency;
    plan.first_fill_cycles =
        (w_bytes + plan.if_stripe_bytes) / d.bytes_per_cycle +
        2.0 * d.request_latency;
    plan.dma_bytes_warm = plan.dma_bytes - w_bytes;
    plan.dma_cycles_warm = plan.dma_bytes_warm / d.bytes_per_cycle +
                           2.0 * plan.if_stripes * d.request_latency;
    plan.first_fill_cycles_warm =
        plan.if_stripe_bytes / d.bytes_per_cycle + d.request_latency;
  } else {
    // Banked mode: the dense weight set loads as one long run; the im2row
    // expansion streams sequentially per stripe; the compressed ofmap
    // writes back once per stripe.
    arch::DramCost c;
    c.accumulate(d.stream(w_bytes, 1.0));
    arch::DramCost warm;
    warm.accumulate(d.stream(im2row_total, stripes_d));
    warm.accumulate(d.stream(of_traffic, stripes_d));
    c.accumulate(warm);
    plan.dma_bytes = c.bytes;
    plan.dma_cycles = c.cycles;
    plan.dma_row_hits = c.row_hits;
    plan.dma_row_misses = c.row_misses;
    plan.first_fill_cycles =
        d.stream(w_bytes + plan.if_stripe_bytes, 2.0).cycles;
    plan.dma_bytes_warm = warm.bytes;
    plan.dma_cycles_warm = warm.cycles;
    plan.dma_row_hits_warm = warm.row_hits;
    plan.dma_row_misses_warm = warm.row_misses;
    plan.first_fill_cycles_warm = d.stream(plan.if_stripe_bytes, 1.0).cycles;
  }

  // The whole first-layer weight set is resident by construction, so every
  // warm batch sample streams only the im2row expansion + ofmap write-back.
  plan.weights_spm_resident = true;
  plan.pinned_weight_fraction = 1.0;
  return plan;
}

double overlap_cycles(const TilePlan& plan, double compute_cycles,
                      bool double_buffer, bool weights_warm) {
  // Segment-major plans charge the same amortized timeline on every sample
  // of the batch, overriding the warm/cold distinction.
  const double dma = plan.segment_major
                         ? plan.sm_dma_cycles
                         : (weights_warm ? plan.dma_cycles_warm
                                         : plan.dma_cycles);
  const double fill = plan.segment_major
                          ? plan.sm_first_fill_cycles
                          : (weights_warm ? plan.first_fill_cycles_warm
                                          : plan.first_fill_cycles);
  if (double_buffer) {
    return fill + std::max(compute_cycles, dma);
  }
  return dma + compute_cycles;
}

}  // namespace spikestream::kernels
