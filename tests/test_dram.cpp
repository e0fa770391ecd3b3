// Banked-DRAM model invariants (arch/dram): flat-legacy pricing is
// bit-identical to the historical expressions, banked streams conserve bytes,
// row-hit rates respond monotonically to run shape, and the double-buffered
// segment-major spill/fill hides at most the spill streams' first-beat
// overhead — with charged + hidden reconstructing the serial timeline
// exactly. Engine-level: the memory model is timing-only, so spikes stay
// bit-identical between flat and banked mode across every backend and
// cluster count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/dram/dram.hpp"
#include "arch/dram/stream_reader.hpp"
#include "common/rng.hpp"
#include "kernels/tiling.hpp"
#include "runtime/backend_cycle.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/batch.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"
#include "snn/network.hpp"

namespace arch = spikestream::arch;
namespace k = spikestream::kernels;
namespace rt = spikestream::runtime;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;

namespace {

double csr_bytes_at_rate(const snn::LayerSpec& s, double rate) {
  const double positions = static_cast<double>(s.in_h) * s.in_w;
  return positions * s.in_c * rate * 2.0 + positions * 2.0;
}

/// The wide FC spill vehicle's middle layer (see snn::Network::make_wide_fc).
snn::LayerSpec wide_fc_spec() {
  snn::LayerSpec fc;
  fc.kind = snn::LayerKind::kFc;
  fc.name = "fc2";
  fc.in_c = 512;
  fc.out_c = 4096;
  return fc;
}

rt::BackendConfig sharded_cfg(int clusters) {
  rt::BackendConfig cfg;
  cfg.kind = rt::BackendKind::kSharded;
  cfg.clusters = clusters;
  return cfg;
}

rt::BackendConfig cycle_cfg() {
  rt::BackendConfig cfg;
  cfg.kind = rt::BackendKind::kCycleAccurate;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// DramConfig::stream — closed-form pricing.
// ---------------------------------------------------------------------------

TEST(Dram, FlatStreamMatchesLegacyExpression) {
  const arch::DramConfig d = arch::DramConfig::flat();
  ASSERT_TRUE(d.flat_legacy);
  for (const double bytes : {64.0, 4096.0, 1.5e6}) {
    for (const double runs : {1.0, 3.0, 17.5}) {
      const arch::DramCost c = d.stream(bytes, runs);
      EXPECT_DOUBLE_EQ(c.bytes, bytes);
      EXPECT_DOUBLE_EQ(c.cycles, bytes / 64.0 + runs * 100.0);
      EXPECT_DOUBLE_EQ(c.row_hits, 0.0);   // flat mode: no row accounting
      EXPECT_DOUBLE_EQ(c.row_misses, 0.0);
    }
  }
}

TEST(Dram, BankedSequentialStreamApproachesPeakBandwidth) {
  const arch::DramConfig d = arch::DramConfig::banked();
  // One 4 MiB contiguous run: a single request latency and row-miss up
  // front, every later activation hidden behind the other banks' transfers.
  const double bytes = 4.0 * 1024 * 1024;
  const arch::DramCost c = d.stream(bytes, 1.0);
  const double peak = bytes / d.bytes_per_cycle;
  EXPECT_LT(c.cycles / peak, 1.01);  // within 1% of peak bandwidth
  EXPECT_GT(c.hit_rate(), 0.9);
  EXPECT_DOUBLE_EQ(c.row_misses, std::ceil(bytes / d.row_bytes));
}

TEST(Dram, BankedStridedStreamPaysPerRunPenalties) {
  const arch::DramConfig d = arch::DramConfig::banked();
  const double bytes = 1.0 * 1024 * 1024;
  // Same bytes, 4 KiB runs: every run pays request latency + row miss.
  const double runs = bytes / 4096.0;
  const arch::DramCost c = d.stream(bytes, runs);
  EXPECT_GE(c.cycles,
            bytes / d.bytes_per_cycle +
                runs * (d.request_latency + d.row_miss_cost()));
  EXPECT_LT(c.hit_rate(), 0.98);
  // Strided costs strictly more than the same bytes streamed sequentially.
  EXPECT_GT(c.cycles, d.stream(bytes, 1.0).cycles);
}

TEST(Dram, RowHitRateMonotonicInRunSize) {
  // Splitting the same total into more (smaller) runs must never raise the
  // hit rate or lower the cycle cost: each extra run boundary converts hits
  // into misses and adds first-beat latency.
  const arch::DramConfig d = arch::DramConfig::banked();
  const double bytes = 2.0 * 1024 * 1024;
  double prev_hit_rate = 1.0, prev_cycles = 0.0;
  for (double runs = 1.0; runs <= 4096.0; runs *= 4.0) {
    const arch::DramCost c = d.stream(bytes, runs);
    if (runs > 1.0) {
      EXPECT_LE(c.hit_rate(), prev_hit_rate + 1e-12) << "runs=" << runs;
      EXPECT_GE(c.cycles, prev_cycles - 1e-9) << "runs=" << runs;
    }
    prev_hit_rate = c.hit_rate();
    prev_cycles = c.cycles;
  }
}

TEST(Dram, StreamConservesBytesInBothModes) {
  const arch::DramConfig flat = arch::DramConfig::flat();
  const arch::DramConfig banked = arch::DramConfig::banked();
  for (const double bytes : {0.0, 100.0, 65536.0, 3.3e7}) {
    for (const double runs : {1.0, 8.0, 1000.0}) {
      EXPECT_DOUBLE_EQ(flat.stream(bytes, runs).bytes, bytes);
      EXPECT_DOUBLE_EQ(banked.stream(bytes, runs).bytes, bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// StreamReader — address-tracked open-row accounting.
// ---------------------------------------------------------------------------

TEST(Dram, StreamReaderReReadOfOpenRowHits) {
  arch::StreamReader rd(arch::DramConfig::banked());
  rd.touch(0, 2048);  // opens row 0 on bank 0
  const double misses_after_first = rd.cost().row_misses;
  EXPECT_DOUBLE_EQ(misses_after_first, 1.0);
  rd.touch(0, 2048);  // same row: every beat hits, no new activation
  EXPECT_DOUBLE_EQ(rd.cost().row_misses, misses_after_first);
  EXPECT_GE(rd.cost().row_hits, 2048.0 / 64.0 * 2.0 - 1.0);
}

TEST(Dram, StreamReaderConflictingRowsMiss) {
  arch::StreamReader rd(arch::DramConfig::banked());
  const auto row_bytes = static_cast<std::uint64_t>(2048);
  const std::uint64_t banks = 8;
  // Rows r and r + banks map to the same bank: ping-ponging between them
  // must activate on every touch.
  for (int i = 0; i < 6; ++i) {
    rd.touch((i % 2 == 0 ? 0 : banks) * row_bytes, 64);
  }
  EXPECT_DOUBLE_EQ(rd.cost().row_misses, 6.0);
  // Whereas alternating rows on *different* banks keep both rows open.
  arch::StreamReader rd2(arch::DramConfig::banked());
  for (int i = 0; i < 6; ++i) {
    rd2.touch((i % 2 == 0 ? 0 : 1) * row_bytes, 64);
  }
  EXPECT_DOUBLE_EQ(rd2.cost().row_misses, 2.0);
}

TEST(Dram, StreamReaderSequentialWalkActivatesEachRowOnce) {
  const arch::DramConfig d = arch::DramConfig::banked();
  arch::StreamReader rd(d);
  const double bytes = 16.0 * d.row_bytes;
  rd.touch(0, static_cast<std::uint64_t>(bytes));
  EXPECT_DOUBLE_EQ(rd.cost().row_misses, 16.0);
  EXPECT_DOUBLE_EQ(rd.cost().bytes, bytes);
  // Matches the closed-form single-run stream() on the same shape.
  const arch::DramCost closed = d.stream(bytes, 1.0);
  EXPECT_DOUBLE_EQ(rd.cost().row_misses, closed.row_misses);
  EXPECT_DOUBLE_EQ(rd.cost().row_hits, closed.row_hits);
  EXPECT_DOUBLE_EQ(rd.cost().cycles, closed.cycles);
  rd.reset();
  EXPECT_DOUBLE_EQ(rd.cost().bytes, 0.0);
}

// ---------------------------------------------------------------------------
// Plan-level invariants (kernels/tiling under CostParams::dram).
// ---------------------------------------------------------------------------

TEST(DramPlan, FlatLegacyMatchesHandComputedExpressions) {
  // The default CostParams must reproduce the historical flat pricing
  // exactly: bytes / bandwidth + transfers * latency, zero row activity.
  const snn::Network net = snn::Network::make_svgg11();
  const k::CostParams p;
  ASSERT_TRUE(p.dram.flat_legacy);
  const auto& fc7 = net.layer(6);
  const double ifb = 1000.0, ofb = 64.0;
  const auto plan = k::plan_layer(fc7, sc::FpFormat::FP16, ifb, ofb, p);
  const double n_transfers =
      static_cast<double>(plan.if_stripes) * plan.weight_tiles *
          plan.in_segments +
      plan.if_stripes + plan.weight_tiles;
  EXPECT_DOUBLE_EQ(plan.dma_cycles,
                   plan.dma_bytes / 64.0 + n_transfers * 100.0);
  EXPECT_DOUBLE_EQ(plan.dma_row_hits, 0.0);
  EXPECT_DOUBLE_EQ(plan.dma_row_misses, 0.0);
  EXPECT_DOUBLE_EQ(plan.dma_row_hits_warm, 0.0);
  EXPECT_DOUBLE_EQ(plan.sm_hidden_cycles, 0.0);
}

TEST(DramPlan, BankedConservesBytesAgainstFlat) {
  // The banked model reprices *time*, never volume: with packed storage the
  // cold DMA bytes of every S-VGG11 layer match flat mode exactly, and the
  // banked plan reports row activity.
  const snn::Network net = snn::Network::make_svgg11();
  k::CostParams flat;
  k::CostParams banked;
  banked.dram = arch::DramConfig::banked();
  const double rates[] = {1.0, 0.10, 0.30, 0.22, 0.18, 0.10, 0.06, 0.04};
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const auto& spec = net.layer(l);
    k::TilePlan pf, pb;
    if (spec.kind == snn::LayerKind::kEncodeConv) {
      pf = k::plan_encode_layer(spec, sc::FpFormat::FP16, flat);
      pb = k::plan_encode_layer(spec, sc::FpFormat::FP16, banked);
    } else {
      const double ifb = csr_bytes_at_rate(spec, rates[l]);
      pf = k::plan_layer(spec, sc::FpFormat::FP16, ifb, 4096.0, flat);
      pb = k::plan_layer(spec, sc::FpFormat::FP16, ifb, 4096.0, banked);
    }
    EXPECT_DOUBLE_EQ(pb.dma_bytes, pf.dma_bytes) << spec.name;
    EXPECT_GT(pb.dma_row_misses, 0.0) << spec.name;
    EXPECT_GE(pb.dma_row_hits, 0.0) << spec.name;
    // Identical tiling geometry: pricing never changes what fits the SPM.
    EXPECT_EQ(pb.weight_tiles, pf.weight_tiles) << spec.name;
    EXPECT_EQ(pb.in_segments, pf.in_segments) << spec.name;
    EXPECT_EQ(pb.if_stripes, pf.if_stripes) << spec.name;
  }
}

TEST(DramPlan, BandStreamsDominateRowHits) {
  // The segmented FC weight bands are long sequential runs: in banked mode
  // the aggregate cold plan must stream near peak (high row-hit rate).
  const snn::Network net = snn::Network::make_svgg11();
  k::CostParams p;
  p.dram = arch::DramConfig::banked();
  const auto plan =
      k::plan_layer(net.layer(6), sc::FpFormat::FP16, 1000.0, 64.0, p);
  const double beats = plan.dma_row_hits + plan.dma_row_misses;
  ASSERT_GT(beats, 0.0);
  EXPECT_GT(plan.dma_row_hits / beats, 0.8);
}

// ---------------------------------------------------------------------------
// Double-buffered segment-major spill/fill.
// ---------------------------------------------------------------------------

TEST(DramPlan, WideFcSpillsAtLargeBatch) {
  const snn::LayerSpec fc = wide_fc_spec();
  k::CostParams p;
  p.dram = arch::DramConfig::banked();
  const double ifb = 400.0, ofb = 128.0, spm = 128.0 * 1024;
  for (const int B : {16, 32}) {
    const auto sm =
        k::plan_layer(fc, sc::FpFormat::FP16, ifb, ofb, p, spm, true, B);
    ASSERT_TRUE(sm.segment_major) << "B=" << B;
    ASSERT_GT(sm.in_segments, 1) << "B=" << B;
    EXPECT_LT(sm.sm_resident_lanes, B) << "B=" << B;
    EXPECT_GT(sm.sm_spill_bytes, 0.0) << "B=" << B;
  }
}

TEST(DramPlan, DoubleBufferHidesSpillOverheadAndConserves) {
  // The ddb variant parks one extra lane for a bounce buffer and hides the
  // spill streams' first-beat overhead under the band weight stream. The
  // hidden cycles must (a) never exceed the serial spill cost, (b) itemize
  // exactly: charged + hidden reconstructs the serial timeline of the same
  // resident configuration, recomputed here from first principles.
  const snn::LayerSpec fc = wide_fc_spec();
  k::CostParams p;
  p.dram = arch::DramConfig::banked();
  const arch::DramConfig& d = p.dram;
  const double ifb = 400.0, ofb = 128.0, spm = 128.0 * 1024;
  const int B = 32;
  const auto sm =
      k::plan_layer(fc, sc::FpFormat::FP16, ifb, ofb, p, spm, true, B);
  ASSERT_TRUE(sm.segment_major);
  ASSERT_GT(sm.sm_spill_bytes, 0.0);
  ASSERT_TRUE(sm.sm_double_buffered)
      << "ddb must win on this geometry: resident=" << sm.sm_resident_lanes;
  EXPECT_GT(sm.sm_hidden_cycles, 0.0);
  EXPECT_LE(sm.sm_hidden_cycles, sm.sm_spill_cycles + 1e-9);

  // Recompute the serial decomposition of the adopted configuration.
  const double tiles = sm.weight_tiles, segs = sm.in_segments;
  const double bands = tiles * segs;
  const double acc = sm.co_per_tile * 2.0;  // FP16
  const double parked = B - sm.sm_resident_lanes;
  const double spill_runs = 2.0 * parked * (segs - 1.0) * tiles / B;
  const double all_weights = 512.0 * 4096.0 * 2.0;
  const arch::DramCost w = d.stream(all_weights / B, bands / B);
  const arch::DramCost ifm = d.stream(tiles * ifb, tiles * segs);
  const arch::DramCost ofm = d.stream(ofb, tiles);
  const arch::DramCost sp = d.stream(sm.sm_spill_bytes, spill_runs);
  const double serial = w.cycles + ifm.cycles + ofm.cycles + sp.cycles;
  const double overhead =
      std::max(0.0, sp.cycles - sp.bytes / d.bytes_per_cycle);
  const double hidden = std::min(overhead, w.cycles);
  EXPECT_NEAR(sm.sm_hidden_cycles, hidden, 1e-6);
  EXPECT_NEAR(sm.sm_dma_cycles + sm.sm_hidden_cycles, serial, 1e-6);
  EXPECT_NEAR(sm.sm_spill_cycles, sp.cycles, 1e-6);
  EXPECT_NEAR(sm.sm_row_hits,
              w.row_hits + ifm.row_hits + ofm.row_hits + sp.row_hits, 1e-6);
  EXPECT_NEAR(sm.sm_row_misses,
              w.row_misses + ifm.row_misses + ofm.row_misses + sp.row_misses,
              1e-6);
}

TEST(DramPlan, DoubleBufferBeatsSerialSpill) {
  // Same geometry with the ddb trade disabled: the serial-spill plan must be
  // strictly slower and report zero hidden cycles.
  const snn::LayerSpec fc = wide_fc_spec();
  k::CostParams ddb, serial;
  ddb.dram = arch::DramConfig::banked();
  serial.dram = arch::DramConfig::banked();
  serial.dram.spill_double_buffer = false;
  const double ifb = 400.0, ofb = 128.0, spm = 128.0 * 1024;
  const int B = 32;
  const auto pd =
      k::plan_layer(fc, sc::FpFormat::FP16, ifb, ofb, ddb, spm, true, B);
  const auto ps =
      k::plan_layer(fc, sc::FpFormat::FP16, ifb, ofb, serial, spm, true, B);
  ASSERT_TRUE(pd.segment_major);
  ASSERT_TRUE(ps.segment_major);
  ASSERT_TRUE(pd.sm_double_buffered);
  EXPECT_FALSE(ps.sm_double_buffered);
  EXPECT_DOUBLE_EQ(ps.sm_hidden_cycles, 0.0);
  EXPECT_LT(pd.sm_dma_cycles, ps.sm_dma_cycles);
}

TEST(DramPlan, HiddenCyclesNeverExceedSpill) {
  const snn::LayerSpec fc = wide_fc_spec();
  k::CostParams p;
  p.dram = arch::DramConfig::banked();
  for (const int B : {2, 4, 8, 16, 32, 64}) {
    for (const double spm : {96.0 * 1024, 128.0 * 1024, 256.0 * 1024}) {
      const auto sm =
          k::plan_layer(fc, sc::FpFormat::FP16, 400.0, 128.0, p, spm, true, B);
      EXPECT_LE(sm.sm_hidden_cycles, sm.sm_spill_cycles + 1e-9)
          << "B=" << B << " spm=" << spm;
      EXPECT_GE(sm.sm_hidden_cycles, 0.0);
      if (!sm.segment_major) {
        EXPECT_DOUBLE_EQ(sm.sm_hidden_cycles, 0.0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Engine-level: the memory model is timing-only.
// ---------------------------------------------------------------------------

TEST(DramParity, SpikesBitIdenticalFlatVsBankedAcrossBackends) {
  snn::Network net = snn::Network::make_tiny(18, 3, 32, 10);
  sc::Rng rng(42);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.20, 0.15, 0.30};
  snn::calibrate_thresholds(net, calib, targets);

  k::RunOptions flat;
  flat.fmt = sc::FpFormat::FP16;
  k::RunOptions banked = flat;
  banked.cost.dram = arch::DramConfig::banked();

  const rt::InferenceEngine ref(net, flat);
  std::vector<rt::InferenceEngine> engines;
  engines.emplace_back(net, banked);
  engines.emplace_back(net, banked, cycle_cfg());
  for (const int clusters : {1, 4, 8}) {
    engines.emplace_back(net, banked, sharded_cfg(clusters));
  }

  const auto images = snn::make_batch(2, 99, 16, 16, 3);
  for (const auto& img : images) {
    snn::NetworkState sr = ref.make_state();
    std::vector<snn::NetworkState> states;
    states.reserve(engines.size());
    for (const auto& e : engines) states.push_back(e.make_state());
    for (int t = 0; t < 3; ++t) {
      const auto rr = ref.run(img, sr);
      for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto rb = engines[i].run(img, states[i]);
        ASSERT_EQ(rr.final_output.v, rb.final_output.v)
            << "engine " << i << " t=" << t;
      }
    }
  }
}

TEST(DramParity, WideFcBatchSpikesBitIdenticalAndHiddenItemized) {
  // The spill vehicle end to end: banked + segment-major batch execution
  // must leave spikes untouched across cluster counts while the wide FC
  // layer's stats itemize row activity (and hidden spill cycles when the
  // ddb regime is adopted at engine SPM geometry).
  snn::Network net = snn::Network::make_wide_fc();
  sc::Rng rng(11);
  net.init_weights(rng);
  const auto calib = snn::make_batch(2, 23);
  snn::calibrate_thresholds(net, calib, snn::wide_fc_target_rates());

  const int B = 16;
  k::RunOptions flat;
  flat.fmt = sc::FpFormat::FP16;
  flat.segment_major_lanes = B;
  flat.batch_weight_reuse = true;
  k::RunOptions banked = flat;
  banked.cost.dram = arch::DramConfig::banked();

  const auto images = snn::make_batch(B, 31);
  const rt::BatchRunner ref(net, flat, {}, {}, 2);
  const auto base = ref.run_single_step(images);

  for (const int clusters : {1, 4, 8}) {
    rt::BackendConfig cfg;
    if (clusters > 1) cfg = sharded_cfg(clusters);
    const rt::BatchRunner runner(net, banked, cfg, {}, 2);
    const auto out = runner.run_single_step(images);
    ASSERT_EQ(out.size(), base.size());
    double row_beats = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].final_output.v, base[i].final_output.v)
          << "clusters=" << clusters << " sample " << i;
      for (const auto& layer : out[i].layers) {
        row_beats += layer.stats.dma_row_hits + layer.stats.dma_row_misses;
        EXPECT_GE(layer.stats.dma_cycles_hidden, 0.0);
      }
    }
    EXPECT_GT(row_beats, 0.0) << "clusters=" << clusters;
  }

  // Flat mode never reports row activity or hidden cycles.
  for (const auto& res : base) {
    for (const auto& layer : res.layers) {
      EXPECT_DOUBLE_EQ(layer.stats.dma_row_hits, 0.0);
      EXPECT_DOUBLE_EQ(layer.stats.dma_row_misses, 0.0);
      EXPECT_DOUBLE_EQ(layer.stats.dma_cycles_hidden, 0.0);
    }
  }
}
