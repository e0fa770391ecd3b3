// Backend comparison micro-benchmark: simulated cycles and host wall-clock
// for the Analytical vs Sharded backends at 1/2/4/8 clusters — under the
// output-channel-only partition, the cost-model-driven hybrid partition, and
// the hybrid partition with the inter-cluster NoC bandwidth ceiling enabled
// (the honest multi-cluster number) — plus a per-layer cluster-utilization
// table at 8 clusters and the batch-inference speedup of BatchRunner over
// the serial one-engine-per-sample path.
//
//   $ ./backend_compare            # batch from SPIKESTREAM_BATCH (default 8)
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "arch/dram/dram.hpp"
#include "bench/bench_common.hpp"
#include "kernels/partition.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/batch.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/stage_pipeline.hpp"

namespace bench = spikestream::bench;
namespace k = spikestream::kernels;
namespace rt = spikestream::runtime;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;

namespace {

double wall_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

rt::BackendConfig sharded_cfg(int clusters, k::PartitionStrategy strategy,
                              bool noc_ceiling = false) {
  rt::BackendConfig cfg;
  cfg.kind = rt::BackendKind::kSharded;
  cfg.clusters = clusters;
  cfg.partition = strategy;
  cfg.noc.model_contention = noc_ceiling;
  return cfg;
}

/// Mean cluster-level utilization of one layer: busy core time over the
/// compute window across every core of every (planned) cluster. Idle
/// clusters (plans with fewer shards than clusters) pull it down.
double layer_utilization(const rt::LayerMetrics& m, int clusters, int cores) {
  if (m.stats.compute_cycles <= 0) return 0.0;
  double busy = 0;
  for (double c : m.stats.core_cycles) busy += c;
  return busy / (m.stats.compute_cycles * clusters * cores);
}

}  // namespace

int main() {
  const int batch = bench::batch_size_from_env(8);
  std::printf("building calibrated S-VGG11...\n");
  const snn::Network net = bench::make_calibrated_svgg11();
  const auto images = snn::make_batch(static_cast<std::size_t>(batch), 77);

  k::RunOptions opt;
  opt.variant = k::Variant::kSpikeStream;
  opt.fmt = sc::FpFormat::FP16;

  // --- per-layer latency: analytical vs sharded partitions -----------------
  sc::Table t("S-VGG11 single frame: simulated latency per backend");
  t.set_header({"backend", "partition", "clusters", "kcycles/frame",
                "speedup"});
  const auto img = images.front();
  double base_cycles = 0;
  {
    const rt::InferenceEngine eng(net, opt);
    snn::NetworkState st = eng.make_state();
    base_cycles = eng.run(img, st).total_cycles;
    t.add_row({"analytical", "-", "1", sc::Table::num(base_cycles / 1e3, 1),
               "1.00x"});
  }
  struct Variant {
    k::PartitionStrategy strategy;
    bool noc;
    const char* label;
  };
  const Variant variants[] = {
      {k::PartitionStrategy::kOutputChannel, false, "out-channel"},
      {k::PartitionStrategy::kHybrid, false, "hybrid"},
      {k::PartitionStrategy::kHybrid, true, "hybrid+noc"},
  };
  for (const auto& v : variants) {
    for (int clusters : {1, 2, 4, 8}) {
      const rt::InferenceEngine eng(net, opt,
                                    sharded_cfg(clusters, v.strategy, v.noc));
      snn::NetworkState st = eng.make_state();
      const double cycles = eng.run(img, st).total_cycles;
      t.add_row({"sharded", v.label, std::to_string(clusters),
                 sc::Table::num(cycles / 1e3, 1),
                 sc::Table::num(base_cycles / cycles, 2) + "x"});
    }
  }
  t.print();

  // --- per-layer plans and cluster utilization at 8 clusters ----------------
  // Measured at the third timestep: membranes have charged up to the
  // steady-state occupancy the partition choice matters for (the very first
  // timestep is nearly empty on the late layers).
  {
    const int clusters = 8;
    const rt::InferenceEngine oc(
        net, opt, sharded_cfg(clusters, k::PartitionStrategy::kOutputChannel));
    const rt::InferenceEngine hy(
        net, opt, sharded_cfg(clusters, k::PartitionStrategy::kHybrid));
    snn::NetworkState so = oc.make_state();
    snn::NetworkState sh = hy.make_state();
    rt::InferenceResult ro, rh;
    for (int t = 0; t < 3; ++t) {
      oc.run(img, so, ro);
      hy.run(img, sh, rh);
    }
    const auto* be = dynamic_cast<const rt::ShardedBackend*>(&hy.backend());

    sc::Table u("per-layer cluster utilization at 8 clusters, 3rd timestep "
                "(out-channel vs hybrid plan)");
    u.set_header({"layer", "hybrid axis", "shards", "kcyc oc", "kcyc hybrid",
                  "util oc", "util hybrid", "noc KB"});
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      const k::LayerPlan plan = be->plan_for(net.layer(l));
      u.add_row({net.layer(l).name, k::shard_axis_name(plan.axis),
                 std::to_string(plan.n()),
                 sc::Table::num(ro.layers[l].stats.cycles / 1e3, 2),
                 sc::Table::num(rh.layers[l].stats.cycles / 1e3, 2),
                 sc::Table::num(layer_utilization(ro.layers[l], clusters,
                                                  opt.cores), 3),
                 sc::Table::num(layer_utilization(rh.layers[l], clusters,
                                                  opt.cores), 3),
                 sc::Table::num(rh.layers[l].stats.noc_bytes / 1024.0, 1)});
    }
    u.print();
  }

  // --- batch-level DMA: weight-tile reuse + segment-major FC schedule -------
  // Three regimes per layer: cold (no reuse), warm (PR4 pinned weight tiles
  // — conv layers only; segmented FC bands cannot pin), and segment-major
  // (fan-in weight bands stream once per batch, partial-sum spill/fill
  // itemized). The breakdown makes both the fc7 win and its spill cost
  // visible, per layer and for the whole batch.
  {
    k::RunOptions reuse_opt = opt;
    reuse_opt.batch_weight_reuse = true;
    k::RunOptions sm_opt = reuse_opt;
    sm_opt.segment_major_lanes = batch;
    // Banked-DRAM column: same segment-major schedule priced by the
    // row-buffer model (spikes bit-identical; the row activity is what the
    // extra columns itemize).
    k::RunOptions smb_opt = sm_opt;
    smb_opt.cost.dram = spikestream::arch::DramConfig::banked();
    const rt::PipelinedBatchRunner cold(net, opt, {}, {}, /*depth=*/1);
    const rt::PipelinedBatchRunner warm(net, reuse_opt, {}, {}, /*depth=*/1);
    const rt::PipelinedBatchRunner segm(net, sm_opt, {}, {},
                                        /*depth=*/batch);
    const rt::PipelinedBatchRunner segb(net, smb_opt, {}, {},
                                        /*depth=*/batch);
    // Steady state: lanes keep their weight-residency history across run()
    // calls, so the second batch is the regime a serving deployment sits in
    // (the first batch pays each lane's cold start — see host_profile's
    // cold/steady split).
    warm.run_single_step(images);
    segm.run_single_step(images);
    segb.run_single_step(images);
    const auto cold_res = cold.run_single_step(images);
    const auto warm_res = warm.run_single_step(images);
    const auto segm_res = segm.run_single_step(images);
    const auto segb_res = segb.run_single_step(images);

    sc::Table w("batch-level DMA per sample (batch " +
                std::to_string(batch) +
                "): cold vs warm tile pinning vs segment-major FC "
                "(weight / spill / saved itemized; row hit% from the "
                "banked-DRAM pricing)");
    w.set_header({"layer", "cold KB", "warm KB", "segmaj KB", "spill KB",
                  "saved KB", "saved %", "row hit%", "row miss"});
    double batch_cold = 0, batch_warm = 0, batch_sm = 0, batch_saved = 0,
           batch_spill = 0;
    double cyc_warm = 0, cyc_sm = 0;
    const std::size_t last = images.size() - 1;
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      const auto& cs = cold_res[last].layers[l].stats;
      const auto& ws = warm_res[last].layers[l].stats;
      const auto& ss = segm_res[last].layers[l].stats;
      const auto& bs = segb_res[last].layers[l].stats;
      const double beats = bs.dma_row_hits + bs.dma_row_misses;
      w.add_row({net.layer(l).name, sc::Table::num(cs.dma_bytes / 1024.0, 1),
                 sc::Table::num(ws.dma_bytes / 1024.0, 1),
                 sc::Table::num(ss.dma_bytes / 1024.0, 1),
                 sc::Table::num(ss.dma_bytes_spill / 1024.0, 1),
                 sc::Table::num(ss.dma_saved_bytes / 1024.0, 1),
                 sc::Table::num(cs.dma_bytes > 0 ? 100.0 * ss.dma_saved_bytes /
                                                       cs.dma_bytes
                                                 : 0.0,
                                1),
                 sc::Table::num(beats > 0 ? 100.0 * bs.dma_row_hits / beats
                                          : 0.0,
                                1),
                 sc::Table::num(bs.dma_row_misses, 0)});
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      for (std::size_t l = 0; l < net.num_layers(); ++l) {
        batch_cold += cold_res[i].layers[l].stats.dma_bytes;
        batch_warm += warm_res[i].layers[l].stats.dma_bytes;
        batch_sm += segm_res[i].layers[l].stats.dma_bytes;
        batch_saved += segm_res[i].layers[l].stats.dma_saved_bytes;
        batch_spill += segm_res[i].layers[l].stats.dma_bytes_spill;
      }
      cyc_warm += warm_res[i].total_cycles;
      cyc_sm += segm_res[i].total_cycles;
    }
    w.print();
    std::printf(
        "  whole batch: %.2f MB cold, %.2f MB warm (PR4 pinning), %.2f MB "
        "segment-major (saved %.2f MB, spill %.3f MB)\n",
        batch_cold / 1e6, batch_warm / 1e6, batch_sm / 1e6, batch_saved / 1e6,
        batch_spill / 1e6);
    std::printf(
        "  segment-major off -> on: whole-batch DMA %.1f%% lower than warm, "
        "modeled cycles %.2fx\n",
        batch_warm > 0 ? 100.0 * (batch_warm - batch_sm) / batch_warm : 0.0,
        cyc_sm > 0 ? cyc_warm / cyc_sm : 0.0);
    bool same = true;
    for (std::size_t i = 0; i < images.size(); ++i) {
      same = same && cold_res[i].final_output.v == warm_res[i].final_output.v &&
             cold_res[i].final_output.v == segm_res[i].final_output.v &&
             cold_res[i].final_output.v == segb_res[i].final_output.v;
    }
    std::printf(
        "  spike outputs identical with reuse + segment-major + banked: %s\n",
        same ? "yes" : "NO (BUG)");
  }

  // --- banked DRAM on the wide-FC spill vehicle ----------------------------
  // S-VGG11 at this batch spills nothing, so the double-buffered spill/fill
  // is exercised on the FC-heavy net whose wide layer parks batch lanes
  // (snn::Network::make_wide_fc). Single-buffered compute/DMA overlap
  // exposes the memory timeline 1:1 in the cycle column; the three regimes
  // isolate what the row model adds (flat -> serial) and what the bounce
  // buffer hides again (serial -> ddb).
  {
    const int wb = std::max(batch, 32);
    const snn::Network wnet = bench::make_calibrated_wide_fc();
    const auto wimages = snn::make_batch(static_cast<std::size_t>(wb), 78);
    k::RunOptions wopt = opt;
    wopt.batch_weight_reuse = true;
    wopt.segment_major_lanes = wb;
    wopt.double_buffer = false;
    k::RunOptions wserial = wopt;
    wserial.cost.dram = spikestream::arch::DramConfig::banked();
    wserial.cost.dram.spill_double_buffer = false;
    k::RunOptions wddb = wserial;
    wddb.cost.dram.spill_double_buffer = true;

    const rt::BatchRunner rflat(wnet, wopt, {}, {}, /*workers=*/1);
    const rt::BatchRunner rser(wnet, wserial, {}, {}, /*workers=*/1);
    const rt::BatchRunner rddb(wnet, wddb, {}, {}, /*workers=*/1);
    const auto f = rflat.run_single_step(wimages);
    const auto s = rser.run_single_step(wimages);
    const auto d = rddb.run_single_step(wimages);

    sc::Table b("wide-FC batch " + std::to_string(wb) +
                ", banked DRAM: per-layer cycles flat vs serial-spill vs "
                "double-buffered spill/fill");
    b.set_header({"layer", "kcyc flat", "kcyc serial", "kcyc ddb",
                  "spill KB", "hidden kcyc", "row hit%", "row miss"});
    double tot_f = 0, tot_s = 0, tot_d = 0, tot_hidden = 0;
    for (std::size_t l = 0; l < wnet.num_layers(); ++l) {
      double cf = 0, cs = 0, cd = 0, spill = 0, hidden = 0, hits = 0,
             misses = 0;
      for (std::size_t i = 0; i < wimages.size(); ++i) {
        cf += f[i].layers[l].stats.cycles;
        cs += s[i].layers[l].stats.cycles;
        cd += d[i].layers[l].stats.cycles;
        spill += d[i].layers[l].stats.dma_bytes_spill;
        hidden += d[i].layers[l].stats.dma_cycles_hidden;
        hits += d[i].layers[l].stats.dma_row_hits;
        misses += d[i].layers[l].stats.dma_row_misses;
      }
      const double n = static_cast<double>(wb);
      const double beats = hits + misses;
      b.add_row({wnet.layer(l).name, sc::Table::num(cf / n / 1e3, 2),
                 sc::Table::num(cs / n / 1e3, 2),
                 sc::Table::num(cd / n / 1e3, 2),
                 sc::Table::num(spill / n / 1024.0, 1),
                 sc::Table::num(hidden / n / 1e3, 2),
                 sc::Table::num(beats > 0 ? 100.0 * hits / beats : 0.0, 1),
                 sc::Table::num(misses / n, 0)});
      tot_f += cf;
      tot_s += cs;
      tot_d += cd;
      tot_hidden += hidden;
    }
    b.print();
    std::printf(
        "  whole batch: %.1f kcyc flat, %.1f kcyc serial-spill, %.1f kcyc "
        "ddb (%.2f kcyc hidden; ddb %.2f%% under serial)\n",
        tot_f / 1e3, tot_s / 1e3, tot_d / 1e3, tot_hidden / 1e3,
        tot_s > 0 ? 100.0 * (tot_s - tot_d) / tot_s : 0.0);
    bool wsame = true;
    for (std::size_t i = 0; i < wimages.size(); ++i) {
      wsame = wsame && f[i].final_output.v == s[i].final_output.v &&
              f[i].final_output.v == d[i].final_output.v;
    }
    std::printf("  spike outputs identical across DRAM modes: %s\n",
                wsame ? "yes" : "NO (BUG)");
  }

  // --- stage-parallel cluster pipeline on the deep tower --------------------
  // Contiguous layer ranges on disjoint cluster groups, coupled by finite
  // spike FIFOs.
  // Per stage: busy window split into service / FIFO stall / idle, peak
  // FIFO occupancy and the boundary payload (all modeled cycles, not host
  // time). S-VGG11 keeps choosing data-parallel on the same cost query, so
  // the vehicle here is the deep narrow tower.
  {
    const snn::Network tower = bench::make_calibrated_deep_tower();
    const auto tower_imgs = snn::make_batch(8, 99, 6, 6, 3);
    rt::BackendConfig cfg = sharded_cfg(8, k::PartitionStrategy::kHybrid);
    cfg.shard_threads = false;
    cfg.noc.topology = spikestream::arch::NocTopology::kRingQuadrant;
    cfg.noc.model_contention = true;
    cfg.pipeline.enabled = true;

    const rt::InferenceEngine eng(tower, opt, cfg);
    snn::NetworkState st = eng.make_state();
    std::vector<rt::InferenceResult> tbatch;
    for (const auto& img : tower_imgs) tbatch.push_back(eng.run(img, st));

    cfg.pipeline.enabled = false;
    const rt::InferenceEngine dp_eng(tower, opt, cfg);
    snn::NetworkState dp_st = dp_eng.make_state();
    double dp_total = 0;
    for (const auto& img : tower_imgs) {
      dp_total += dp_eng.run(img, dp_st).total_cycles;
    }

    const auto* be = dynamic_cast<const rt::ShardedBackend*>(&eng.backend());
    if (be != nullptr && be->stage_parallel_active()) {
      const k::StagePlan sp = be->stage_plan();
      const rt::StageTimeline tl = rt::simulate_stage_pipeline(
          sp, tower, tbatch, be->pipeline_config());
      sc::Table s("deep tower, stage pipeline at 8 clusters (" +
                  std::string(k::exec_mode_name(sp.mode)) +
                  ", batch 8, kcycles)");
      s.set_header({"stage", "layers", "clusters", "service", "fifo stall",
                    "idle", "peak fifo", "handoff B"});
      for (std::size_t i = 0; i < tl.stages.size(); ++i) {
        const auto& plan_st = sp.stages[i];
        const auto& tr = tl.stages[i];
        s.add_row({std::to_string(i),
                   std::to_string(plan_st.layer_lo) + ".." +
                       std::to_string(plan_st.layer_hi - 1),
                   std::to_string(plan_st.cluster_lo) + ".." +
                       std::to_string(plan_st.cluster_hi - 1),
                   sc::Table::num(tr.service_cycles / 1e3, 1),
                   sc::Table::num(tr.stall_cycles / 1e3, 1),
                   sc::Table::num(tr.idle_cycles / 1e3, 1),
                   sc::Table::num(tr.peak_fifo_spikes, 0),
                   sc::Table::num(tr.handoff_bytes, 0)});
      }
      s.print();
      const double n = static_cast<double>(tbatch.size());
      std::printf(
          "  steady state %.0f cyc/sample (fill %.0f), data-parallel %.0f "
          "cyc/sample -> %.2fx\n",
          tl.steady_cycles_per_sample, tl.fill_cycles, dp_total / n,
          (dp_total / n) / tl.steady_cycles_per_sample);
    }
  }

  // --- pipelined batch executor: host wall-clock vs BatchRunner -------------
  {
    std::vector<rt::MultiStepResult> batch_res, pipe_res;
    const rt::BatchRunner runner(net, opt, {}, {}, /*workers=*/4);
    const double batch_ms2 =
        wall_ms([&] { batch_res = runner.run(images, /*timesteps=*/2); });
    const rt::PipelinedBatchRunner pipe(net, opt, {}, {}, /*depth=*/4);
    const double pipe_ms =
        wall_ms([&] { pipe_res = pipe.run(images, /*timesteps=*/2); });
    bool same = true;
    for (std::size_t i = 0; i < images.size(); ++i) {
      same = same && batch_res[i].spike_counts == pipe_res[i].spike_counts;
    }
    std::printf(
        "\npipelined executor (depth 4) vs BatchRunner x4, batch-%d x 2 "
        "steps:\n  BatchRunner %.1f ms, pipelined %.1f ms, outputs "
        "identical: %s\n",
        batch, batch_ms2, pipe_ms, same ? "yes" : "NO (BUG)");
  }

  // --- batch throughput: serial engines vs BatchRunner ----------------------
  // Serial path: the pre-refactor usage — one engine per sample, so the
  // network copy + weight quantization is paid per sample and samples run
  // back to back on one thread.
  std::vector<rt::MultiStepResult> serial_res(images.size());
  const double serial_ms = wall_ms([&] {
    for (std::size_t i = 0; i < images.size(); ++i) {
      rt::InferenceEngine eng(net, opt);
      serial_res[i] = rt::run_timesteps(eng, images[i], /*timesteps=*/2);
    }
  });

  // Batch path: quantize once, run samples concurrently on the worker pool.
  std::vector<rt::MultiStepResult> batch_res;
  double batch_ms = 0;
  {
    const rt::BatchRunner runner(net, opt, {}, {}, /*workers=*/4);
    batch_ms = wall_ms([&] { batch_res = runner.run(images, /*timesteps=*/2); });
  }

  bool identical = true;
  for (std::size_t i = 0; i < images.size(); ++i) {
    identical = identical && serial_res[i].spike_counts == batch_res[i].spike_counts;
  }

  std::printf("\nbatch-%d inference (2 timesteps, host wall-clock):\n", batch);
  std::printf("  serial engines     : %8.1f ms  (quantize per sample, 1 thread)\n",
              serial_ms);
  std::printf("  BatchRunner x4     : %8.1f ms  (quantize once, pooled workers)\n",
              batch_ms);
  std::printf("  wall-clock speedup : %.2fx   outputs identical: %s\n",
              serial_ms / batch_ms, identical ? "yes" : "NO (BUG)");
  return 0;
}
