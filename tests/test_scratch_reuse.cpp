// Scratch-arena contract: (1) runs through a reused NetworkState + reused
// InferenceResult are bit-identical to fresh-allocation runs, across
// backends, batch sizes and repeated reset() cycles; (2) once warmed up, the
// analytical and cycle-accurate hot paths execute a whole timestep with ZERO
// heap allocations (counted by a global operator-new hook in this binary).
#include <gtest/gtest.h>

#include <vector>

#include "arch/dram/stream_reader.hpp"
#include "bench/alloc_hook.hpp"
#include "common/rng.hpp"
#include "compress/csr_ifmap.hpp"
#include "runtime/batch.hpp"
#include "runtime/engine.hpp"
#include "runtime/multistep.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/server.hpp"
#include "runtime/worker_pool.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"

namespace {

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;
namespace compress = spikestream::compress;

snn::Network test_net() {
  snn::Network net = snn::Network::make_tiny(18, 3, 32, 10);
  sc::Rng rng(42);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.20, 0.15, 0.30};
  snn::calibrate_thresholds(net, calib, targets);
  return net;
}

rt::BackendConfig cfg_of(rt::BackendKind kind, bool threads = true) {
  rt::BackendConfig cfg;
  cfg.kind = kind;
  cfg.shard_threads = threads;
  return cfg;
}

/// Fresh-allocation path: new state + by-value result every single run.
std::vector<snn::SpikeMap> run_fresh(const rt::InferenceEngine& engine,
                                     const std::vector<snn::Tensor>& images,
                                     int timesteps) {
  std::vector<snn::SpikeMap> outs;
  for (const auto& img : images) {
    snn::NetworkState state = engine.make_state();
    for (int t = 0; t < timesteps; ++t) {
      outs.push_back(engine.run(img, state).final_output);
    }
  }
  return outs;
}

/// Arena path: one state + one result reused across every sample/timestep,
/// with reset() (state.clear()) between samples.
std::vector<snn::SpikeMap> run_reused(const rt::InferenceEngine& engine,
                                      const std::vector<snn::Tensor>& images,
                                      int timesteps) {
  std::vector<snn::SpikeMap> outs;
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  for (const auto& img : images) {
    state.clear();
    for (int t = 0; t < timesteps; ++t) {
      engine.run(img, state, res);
      outs.push_back(res.final_output);
    }
  }
  return outs;
}

/// Warm the (state, result) arenas until `quiet` consecutive runs perform no
/// heap allocation (capped): membranes integrate for several timesteps
/// before occupancy — and with it every arena capacity — peaks, and the
/// peak's timestep depends on the input. Returns false if the cap was hit
/// while still allocating.
bool warm_until_quiet(const rt::InferenceEngine& engine,
                      const snn::Tensor& img, snn::NetworkState& state,
                      rt::InferenceResult& res, int quiet = 6, int cap = 64) {
  int quiet_runs = 0;
  for (int t = 0; t < cap && quiet_runs < quiet; ++t) {
    const std::size_t before = spikestream::alloc_hook::allocs();
    engine.run(img, state, res);
    quiet_runs =
        spikestream::alloc_hook::allocs() == before ? quiet_runs + 1 : 0;
  }
  return quiet_runs >= quiet;
}

}  // namespace

TEST(ScratchReuse, BitExactAcrossBackendsBatchesAndResets) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(3, 99, 16, 16, 3);
  k::RunOptions opt;
  for (const auto kind :
       {rt::BackendKind::kAnalytical, rt::BackendKind::kCycleAccurate,
        rt::BackendKind::kSharded}) {
    const rt::InferenceEngine engine(net, opt, cfg_of(kind));
    const auto fresh = run_fresh(engine, images, /*timesteps=*/3);
    const auto reused = run_reused(engine, images, /*timesteps=*/3);
    ASSERT_EQ(fresh.size(), reused.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_EQ(fresh[i].v, reused[i].v)
          << rt::backend_name(kind) << " run " << i;
    }
  }
}

TEST(ScratchReuse, SerialShardedMatchesThreadedThroughArenas) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 5, 16, 16, 3);
  k::RunOptions opt;
  const rt::InferenceEngine threaded(
      net, opt, cfg_of(rt::BackendKind::kSharded, true));
  const rt::InferenceEngine serial(net, opt,
                                   cfg_of(rt::BackendKind::kSharded, false));
  const auto rt_ = run_reused(threaded, images, 2);
  const auto rs = run_reused(serial, images, 2);
  ASSERT_EQ(rt_.size(), rs.size());
  for (std::size_t i = 0; i < rt_.size(); ++i) EXPECT_EQ(rt_[i].v, rs[i].v);
}

TEST(ScratchReuse, TimingIdenticalThroughArenas) {
  // Cycle counts must not depend on which allocation path produced them.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 31, 16, 16, 3);
  k::RunOptions opt;
  const rt::InferenceEngine engine(net, opt);
  for (const auto& img : images) {
    snn::NetworkState fresh_state = engine.make_state();
    const rt::InferenceResult fresh = engine.run(img, fresh_state);

    snn::NetworkState state = engine.make_state();
    rt::InferenceResult reused;
    engine.run(img, state, reused);
    ASSERT_EQ(fresh.layers.size(), reused.layers.size());
    EXPECT_DOUBLE_EQ(fresh.total_cycles, reused.total_cycles);
    for (std::size_t l = 0; l < fresh.layers.size(); ++l) {
      EXPECT_DOUBLE_EQ(fresh.layers[l].stats.cycles,
                       reused.layers[l].stats.cycles);
      EXPECT_DOUBLE_EQ(fresh.layers[l].stats.fpu_ops,
                       reused.layers[l].stats.fpu_ops);
    }
  }
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsAnalytical) {
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 7, 16, 16, 3)[0];
  k::RunOptions opt;
  const rt::InferenceEngine engine(net, opt);
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  // Two warmup timesteps grow every arena to capacity.
  engine.run(img, state, res);
  engine.run(img, state, res);
  state.clear();  // a reset must not force re-allocation either
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "steady-state inference must not touch the heap";
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsCycleAccurate) {
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 8, 16, 16, 3)[0];
  k::RunOptions opt;
  const rt::InferenceEngine engine(net, opt,
                                   cfg_of(rt::BackendKind::kCycleAccurate));
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  // Warmup populates the ISS calibration caches. The caches are logarithmic
  // (~12% buckets) and pre-calibrated at prepare(), so the occupancy drift
  // of the integrating membranes must not mint new buckets — the long
  // measurement window would catch that regression (it is exactly what the
  // former integer buckets did).
  ASSERT_TRUE(warm_until_quiet(engine, img, state, res));
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 12; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "cycle-accurate steady state must not calibrate or allocate";
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsPooledSharded) {
  // The persistent worker pool extends the zero-allocation contract to the
  // threaded sharded mode: shard fan-out submits stack jobs onto pre-created
  // threads and every per-shard buffer lives in a plan-presized ShardLane.
  // The hybrid strategy routes this net through all three shard axes.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 9, 16, 16, 3)[0];
  k::RunOptions opt;
  rt::BackendConfig cfg;
  cfg.kind = rt::BackendKind::kSharded;
  cfg.clusters = 4;
  cfg.shard_threads = true;  // pooled mode — the historical allocator
  cfg.partition = spikestream::kernels::PartitionStrategy::kHybrid;
  const rt::InferenceEngine engine(net, opt, cfg);
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  // Warm until occupancy (and with it every arena capacity) settles.
  ASSERT_TRUE(warm_until_quiet(engine, img, state, res));
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "pooled sharded steady state must not touch the heap";
}

TEST(ScratchReuse, CsrEncodeIntoReusesBuffers) {
  sc::Rng rng(3);
  snn::SpikeMap dense(12, 12, 64);
  for (auto& b : dense.v) b = rng.bernoulli(0.3);
  compress::CsrIfmap csr;
  compress::CsrIfmap::encode_into(dense, csr);
  const auto once = csr.c_idcs();
  // Re-encoding equal or sparser maps into the same object allocates nothing.
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int r = 0; r < 10; ++r) compress::CsrIfmap::encode_into(dense, csr);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(csr.c_idcs(), once);
  // And the reused encoding round-trips.
  const snn::SpikeMap back = csr.decode();
  EXPECT_EQ(back.v, dense.v);
}

TEST(ScratchReuse, BatchRunnerReusedStatesMatchPerSampleStates) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 21, 16, 16, 3);
  k::RunOptions opt;
  const rt::BatchRunner runner(net, opt, {}, {}, /*workers=*/2);
  const auto batched = runner.run(images, /*timesteps=*/2);
  for (std::size_t i = 0; i < images.size(); ++i) {
    rt::InferenceEngine engine(net, opt);
    const auto serial = rt::run_timesteps(engine, images[i], 2);
    EXPECT_EQ(batched[i].spike_counts, serial.spike_counts) << i;
    EXPECT_DOUBLE_EQ(batched[i].total_cycles, serial.total_cycles) << i;
  }
}

TEST(ScratchReuse, PipelinedRunnerSteadyStatePerBatchAllocsStable) {
  // The pipelined executor's orchestration (wave slicing, lane
  // borrowing) must reach a steady per-batch allocation count: after
  // warmup, every further batch allocates exactly as much as the previous
  // one (the residue is the by-value result marshalling, which is
  // per-batch constant), so growth-type regressions inside the runner show
  // up as a drift.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(5, 3, 16, 16, 3);
  k::RunOptions opt;
  const rt::PipelinedBatchRunner runner(net, opt, {}, {}, /*depth=*/3);
  for (int r = 0; r < 4; ++r) runner.run_single_step(images);
  std::size_t per_batch = 0;
  for (int r = 0; r < 5; ++r) {
    const std::size_t before = spikestream::alloc_hook::allocs();
    runner.run_single_step(images);
    const std::size_t d = spikestream::alloc_hook::allocs() - before;
    if (r == 0) {
      per_batch = d;
    } else {
      EXPECT_EQ(per_batch, d) << "batch " << r;
    }
  }
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsSegmentMajor) {
  // The segment-major FC accounting is pure plan arithmetic (scalar fields
  // on TilePlan) and the band-major functional pass reuses the per-lane row
  // arena, so the engine-level hot path must stay allocation-free with the
  // schedule enabled.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 7, 16, 16, 3)[0];
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  const rt::InferenceEngine engine(net, opt);
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  ASSERT_TRUE(warm_until_quiet(engine, img, state, res));
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "segment-major steady state must not touch the heap";
}

TEST(ScratchReuse, StreamReaderAccountingNeverAllocates) {
  // The DRAM model's accounting surfaces are closed-form over fixed-size
  // state (std::array open-row registers): pricing a million-beat access
  // pattern must not touch the heap at all — the planner calls these in its
  // hot cost queries.
  namespace arch = spikestream::arch;
  arch::StreamReader rd(arch::DramConfig::banked());
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int r = 0; r < 1000; ++r) {
    rd.stream(1.0e6, 64.0);
    rd.write(4096.0, 2.0);
    rd.stream_records(arch::DramFormat::kFixedStride, 8192.0, 32.0, 4.0);
    rd.touch(static_cast<std::uint64_t>(r) * 4096, 2048);
  }
  rd.reset();
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "DRAM stream accounting must be allocation-free";
  EXPECT_DOUBLE_EQ(rd.cost().bytes, 0.0);
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsBankedDram) {
  // Banked-DRAM pricing swaps the flat cost expressions for the row-model
  // closed forms inside the same plan queries; the engine-level steady state
  // must stay allocation-free with the banked model and the segment-major
  // schedule both enabled.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 7, 16, 16, 3)[0];
  k::RunOptions opt;
  opt.cost.dram = spikestream::arch::DramConfig::banked();
  opt.segment_major_lanes = 4;
  const rt::InferenceEngine engine(net, opt);
  snn::NetworkState state = engine.make_state();
  rt::InferenceResult res;
  ASSERT_TRUE(warm_until_quiet(engine, img, state, res));
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) engine.run(img, state, res);
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "banked-DRAM steady state must not touch the heap";
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsRowTiledWave) {
  // Four warm lanes of one lockstep wave on a pooled executor: input
  // compression, row tiles, timing tails and spike routing all run in the
  // lanes' own arenas (or fixed per-thread buffers), so a wave timestep
  // stays off the heap once warmed — on the pool threads too.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(4, 7, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  const rt::InferenceEngine engine(net, opt);
  rt::WorkerPool pool(3);
  std::vector<snn::NetworkState> states;
  for (std::size_t i = 0; i < images.size(); ++i) {
    states.push_back(engine.make_state());
  }
  std::vector<rt::InferenceResult> steps(images.size());
  std::vector<rt::InferenceEngine::BatchLane> wave(images.size());
  const auto timestep = [&] {
    for (std::size_t i = 0; i < images.size(); ++i) {
      engine.begin_sample(steps[i]);
      wave[i] = {&images[i], nullptr, &states[i], &steps[i]};
    }
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      engine.run_layer_batch(l, wave, &pool);
    }
  };
  int quiet = 0;
  for (int t = 0; t < 64 && quiet < 6; ++t) {
    const std::size_t before = spikestream::alloc_hook::allocs();
    timestep();
    quiet = spikestream::alloc_hook::allocs() == before ? quiet + 1 : 0;
  }
  ASSERT_GE(quiet, 6) << "wave never reached allocation quiescence";
  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int t = 0; t < 5; ++t) timestep();
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "row-tiled lockstep waves must not touch the heap";
}

TEST(ScratchReuse, ZeroSteadyStateAllocationsServerLoop) {
  // The serving hot path extends the contract end to end: submit (lock-free
  // ring push), wave formation, lockstep execution into the pre-sized lane
  // buffers, completion publish (futex wake) and the recycled request slot's
  // result reset must all stay off the heap once warmed. Fixed wave width
  // (adaptive off) keeps the wave shape identical across rounds.
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 7, 16, 16, 3)[0];
  k::RunOptions opt;
  opt.segment_major_lanes = 4;
  rt::ServerConfig scfg;
  scfg.max_queue_delay_us = 200;
  scfg.adaptive_wave = false;
  rt::InferenceServer server(net, opt, {}, scfg);
  rt::ServeRequest slot;  // recycled: result capacity persists across rounds
  slot.image = &img;

  // Warm until a full submit->wait round is allocation-quiet (arena growth,
  // first-wave lane state sizing, result vector capacity).
  int quiet = 0;
  for (int r = 0; r < 64 && quiet < 6; ++r) {
    const std::size_t before = spikestream::alloc_hook::allocs();
    ASSERT_TRUE(server.submit(slot));
    ASSERT_TRUE(slot.wait());
    quiet = spikestream::alloc_hook::allocs() == before ? quiet + 1 : 0;
  }
  ASSERT_GE(quiet, 6) << "server loop never reached allocation quiescence";

  const std::size_t before = spikestream::alloc_hook::allocs();
  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE(server.submit(slot));
    ASSERT_TRUE(slot.wait());
  }
  const std::size_t after = spikestream::alloc_hook::allocs();
  EXPECT_EQ(after - before, 0u)
      << "admission -> dispatch -> complete must not touch the heap";
  server.stop();
}
