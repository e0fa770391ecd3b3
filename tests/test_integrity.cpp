// Data-integrity subsystem contract (common/simd CRC32C, arch ECC model,
// runtime/integrity.hpp seals, and the hardened serving path):
//   * crc32c matches the published Castagnoli check value, chains exactly
//     (crc(a||b) == crc(b, crc(a))), and every SIMD tier returns the same
//     checksum as the table reference on randomized buffers;
//   * the SEC-DED ECC overlay is off by default (bit-exact historical cycles
//     and energy) and, when enabled, adds itemized check/scrub cycles plus
//     closed-form expected corrected / uncorrectable counts;
//   * the flip primitives are involutive (a second identical flip restores
//     the buffer), which is what makes injected SDC retry-recoverable;
//   * the server detects weight and spike-payload flips on its sealed
//     boundaries, retries to a bit-identical completion, publishes
//     kCorrupted only when mismatches persist through every retry, catches
//     membrane flips with redundant-lane execution, and keeps the
//     conservation invariant admitted == completed + timed_out + errored +
//     corrupted under every mode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "runtime/backend_sharded.hpp"
#include "runtime/engine.hpp"
#include "runtime/integrity.hpp"
#include "runtime/multistep.hpp"
#include "runtime/server.hpp"
#include "snn/calibrate.hpp"
#include "snn/input_gen.hpp"

namespace {

namespace rt = spikestream::runtime;
namespace k = spikestream::kernels;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;
namespace simd = spikestream::common::simd;

snn::Network test_net() {
  snn::Network net = snn::Network::make_tiny(18, 3, 32, 10);
  sc::Rng rng(42);
  net.init_weights(rng);
  const auto calib = snn::make_batch(4, 7, 16, 16, 3);
  const std::vector<double> targets = {0.20, 0.15, 0.30};
  snn::calibrate_thresholds(net, calib, targets);
  return net;
}

rt::BackendConfig sharded(int clusters) {
  rt::BackendConfig b;
  b.kind = rt::BackendKind::kSharded;
  b.clusters = clusters;
  b.shard_threads = false;
  return b;
}

std::uint32_t crc_of(const std::string& s, std::uint32_t seed = 0) {
  return simd::crc32c(s.data(), s.size(), seed);
}

}  // namespace

TEST(Crc32c, MatchesPublishedVectorsAndChains) {
  // The canonical CRC32C check value (RFC 3720 appendix / every published
  // implementation): crc32c("123456789") == 0xE3069283.
  EXPECT_EQ(crc_of("123456789"), 0xE3069283u);
  EXPECT_EQ(crc_of(""), 0u);
  // 32 zero bytes, another standard vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc_of(zeros), 0x8A9136AAu);

  // Chaining identity at every split point of a buffer.
  const std::string msg = "spikestream integrity chaining identity test!";
  const std::uint32_t whole = crc_of(msg);
  for (std::size_t cut = 0; cut <= msg.size(); ++cut) {
    const std::uint32_t chained =
        crc_of(msg.substr(cut), crc_of(msg.substr(0, cut)));
    EXPECT_EQ(chained, whole) << "split at " << cut;
  }
}

TEST(Crc32c, AllTiersMatchTableReferenceOnRandomBuffers) {
  sc::Rng rng(7);
  // Sizes straddle every dispatch boundary: sub-word tails, the single-chain
  // range, and buffers large enough for the 3-stream interleave + combine.
  const std::vector<std::size_t> sizes = {0,  1,  7,   8,   9,   63,  64,
                                          65, 191, 192, 193, 1000, 4096, 12345};
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    simd::force_crc_tier(simd::CrcTier::kTable);
    ASSERT_EQ(simd::crc_active(), simd::CrcTier::kTable);
    const std::uint32_t ref = simd::crc32c(buf.data(), buf.size());
    const std::uint32_t ref_seeded =
        simd::crc32c(buf.data(), buf.size(), 0xDEADBEEFu);
    for (const auto tier : {simd::CrcTier::kHw, simd::CrcTier::kHw3}) {
      const simd::CrcTier got = simd::force_crc_tier(tier);
      // On hosts without SSE4.2 the force clamps to the table tier — the
      // comparison is then trivially true, which is exactly the contract.
      EXPECT_EQ(got, simd::crc_active());
      EXPECT_EQ(simd::crc32c(buf.data(), buf.size()), ref)
          << simd::crc_tier_name(tier) << " size " << n;
      EXPECT_EQ(simd::crc32c(buf.data(), buf.size(), 0xDEADBEEFu), ref_seeded)
          << simd::crc_tier_name(tier) << " seeded, size " << n;
    }
  }
  simd::force_crc_tier(simd::crc_max_supported());  // restore for other tests
}

TEST(EccModel, OffByDefaultBitExactAndEnabledAddsItemizedOverhead) {
  const snn::Network net = test_net();
  const auto img = snn::make_batch(1, 11, 16, 16, 3)[0];

  k::RunOptions base;  // ecc.enabled defaults to false
  k::RunOptions ecc_on = base;
  ecc_on.cost.dram.ecc.enabled = true;
  ecc_on.cost.dram.ecc.ber = 1e-6;  // scaled up so expectations are visible
  k::RunOptions ecc_off = ecc_on;
  ecc_off.cost.dram.ecc.enabled = false;

  rt::InferenceEngine e_base(net, base);
  rt::InferenceEngine e_on(net, ecc_on);
  rt::InferenceEngine e_off(net, ecc_off);
  const rt::InferenceResult r_base = e_base.run(img);
  const rt::InferenceResult r_on = e_on.run(img);
  const rt::InferenceResult r_off = e_off.run(img);

  // The master switch is the whole story: enabled=false is bit-exact with
  // the historical numbers whatever the other knobs say.
  EXPECT_EQ(r_off.total_cycles, r_base.total_cycles);
  EXPECT_EQ(r_off.total_energy_mj, r_base.total_energy_mj);

  EXPECT_GT(r_on.total_cycles, r_base.total_cycles)
      << "ECC checks must cost cycles";
  EXPECT_GT(r_on.total_energy_mj, r_base.total_energy_mj)
      << "checked codewords are priced by the energy model";

  double words = 0, corrected = 0, uncorrectable = 0, ecc_cycles = 0;
  for (const auto& lm : r_on.layers) {
    words += lm.stats.ecc_words;
    corrected += lm.stats.ecc_corrected;
    uncorrectable += lm.stats.ecc_uncorrectable;
    ecc_cycles += lm.stats.ecc_cycles;
    // The itemization reconstructs protected-minus-unprotected exactly.
    EXPECT_GE(lm.stats.cycles, lm.stats.ecc_cycles);
  }
  EXPECT_GT(words, 0.0);
  EXPECT_GT(corrected, 0.0);
  EXPECT_GT(uncorrectable, 0.0);
  EXPECT_LT(uncorrectable, corrected)
      << "double-bit events must be quadratically rarer than single-bit";
  EXPECT_NEAR(r_on.total_cycles - r_base.total_cycles, ecc_cycles,
              1e-6 * r_on.total_cycles);
  for (const auto& lm : r_base.layers) {
    EXPECT_EQ(lm.stats.ecc_words, 0.0);
    EXPECT_EQ(lm.stats.ecc_cycles, 0.0);
  }

  // Spikes are untouched either way: ECC is a timing/energy overlay.
  EXPECT_EQ(r_on.final_output.v, r_base.final_output.v);

  // Closed-form expectation helpers.
  spikestream::arch::EccConfig cfg;
  cfg.ber = 1e-9;
  EXPECT_DOUBLE_EQ(cfg.expected_corrected(1000.0), 1000.0 * 72.0 * 1e-9);
  EXPECT_DOUBLE_EQ(cfg.expected_uncorrectable(1000.0),
                   1000.0 * (72.0 * 71.0 / 2.0) * 1e-18);

  // Scrub modeling: disabling the background scrub must shrink the overlay.
  k::RunOptions no_scrub = ecc_on;
  no_scrub.cost.dram.ecc.scrub_interval_cycles = 0;
  rt::InferenceEngine e_ns(net, no_scrub);
  const rt::InferenceResult r_ns = e_ns.run(img);
  EXPECT_LT(r_ns.total_cycles, r_on.total_cycles);
  EXPECT_GT(r_ns.total_cycles, r_base.total_cycles);
}

TEST(IntegrityPrimitives, FlipsAreInvolutiveAndSealsCatchThem) {
  snn::Network net = test_net();
  // Quantize-free direct manipulation: build the half image so the weight
  // flip exercises the dual-representation path.
  snn::LayerWeights& w = net.weights(1);
  w.build_half();
  const rt::Seal clean = rt::seal_weights(w);
  rt::flip_weight_bit(w, /*bit=*/12345);
  EXPECT_NE(rt::seal_weights(w), clean) << "a 1-bit flip must change the seal";
  rt::flip_weight_bit(w, 12345);
  EXPECT_EQ(rt::seal_weights(w), clean) << "the flip must be involutive";

  snn::SpikeMap m(4, 4, 2);
  m.v.assign(m.v.size(), 0);
  m.v[3] = 1;
  const rt::Seal sm = rt::seal_spikes(m);
  rt::flip_spike_byte(m, 35);  // 35 % 32 == 3: toggles the set spike off
  EXPECT_EQ(m.v[3], 0);
  EXPECT_NE(rt::seal_spikes(m), sm);
  rt::flip_spike_byte(m, 35);
  EXPECT_EQ(rt::seal_spikes(m), sm);

  snn::Tensor t(2, 2, 2);
  t.v.assign(t.v.size(), 0.0f);
  const rt::Seal st = rt::seal_tensor(t);
  rt::flip_membrane_bit(t, 64 + 30);  // element 2, exponent MSB
  EXPECT_NE(t.v[2], 0.0f);
  EXPECT_NE(rt::seal_tensor(t), st);
  rt::flip_membrane_bit(t, 64 + 30);
  EXPECT_EQ(rt::seal_tensor(t), st);

  EXPECT_STREQ(rt::seal_point_name(rt::SealPoint::kHandoff), "handoff");
  EXPECT_STREQ(rt::fault_kind_name(rt::FaultKind::kWeightBitFlip),
               "weight-bit-flip");
}

namespace {

/// Flip the exponent MSB of weight element `i` in the representation the
/// kernels stream (flip_weight_bit keeps the other one consistent). A small
/// weight grows by 2^16 (binary16) or 2^128 (float32), so any input that
/// reaches it changes the layer's currents.
void flip_weight_exponent(snn::LayerWeights& w, std::size_t i) {
  const bool half = w.half_exact && !w.half.empty();
  rt::flip_weight_bit(w, half ? i * 16 + 14 : i * 32 + 30);
}

}  // namespace

TEST(IntegrityPrimitives, WeightFlipReachesShardedChannelShards) {
  // Fault injectors flip weights in InferenceEngine::mutable_weights. Every
  // backend must compute from those live weights: an output-channel shard
  // that read a private copy of its channel slice would miss a flip, and
  // the sharded backend would then disagree with the analytical one.
  const snn::Network net = test_net();
  const k::RunOptions opt;
  rt::BackendConfig pooled = sharded(4);
  pooled.shard_threads = true;
  pooled.shard_min_work = 0;  // every layer fans its shards out on the pool
  rt::InferenceEngine analytical(net, opt);
  rt::InferenceEngine serial(net, opt, sharded(4));
  rt::InferenceEngine threaded(net, opt, pooled);
  const auto* be = dynamic_cast<const rt::ShardedBackend*>(&serial.backend());
  ASSERT_NE(be, nullptr);
  for (std::size_t l = 0; l < net.num_layers(); ++l) {
    const k::LayerPlan& plan = be->plan_for(net.layer(l));
    ASSERT_EQ(plan.axis, k::ShardAxis::kOutputChannel) << "layer " << l;
    ASSERT_GT(plan.n(), 1u) << "layer " << l;
  }

  // Every layer's spikes at each of three timesteps, then every membrane.
  const auto img = snn::make_batch(1, 33, 16, 16, 3)[0];
  auto trace = [&](const rt::InferenceEngine& e) {
    snn::NetworkState st = e.make_state();
    std::vector<std::uint8_t> spikes;
    std::vector<float> membranes;
    for (int t = 0; t < 3; ++t) {
      e.run(img, st);
      for (std::size_t l = 0; l < net.num_layers(); ++l) {
        const auto& v = st.scratch(l).main.run.out_spikes.v;
        spikes.insert(spikes.end(), v.begin(), v.end());
      }
    }
    for (std::size_t l = 0; l < net.num_layers(); ++l) {
      const auto& v = st.membrane(l).v;
      membranes.insert(membranes.end(), v.begin(), v.end());
    }
    return std::make_pair(spikes, membranes);
  };
  const auto clean = trace(analytical);
  ASSERT_EQ(trace(serial), clean);
  ASSERT_EQ(trace(threaded), clean);

  // Mid-slice elements of output channels 5 (encode, FC: slices [0, 8) and
  // [4, 8)) and 13 (conv: slice [8, 16)) — never a slice's first or last
  // element. The conv and FC flips cover many input channels, so some of
  // them meet a spike.
  struct Flips {
    std::size_t layer;
    int co;
    int ci_step;
  };
  for (const Flips f : {Flips{0, 5, 1}, Flips{1, 13, 1}, Flips{2, 5, 61}}) {
    const snn::LayerWeights& w = net.weights(f.layer);
    std::vector<std::size_t> elems;
    for (int ci = 1; ci + 1 < w.in_c; ci += f.ci_step) {
      elems.push_back(w.index(w.k / 2, w.k / 2, ci, f.co));
    }
    auto flip_all = [&] {
      for (rt::InferenceEngine* e : {&analytical, &serial, &threaded}) {
        snn::LayerWeights& live = e->mutable_weights(f.layer);
        for (const std::size_t i : elems) flip_weight_exponent(live, i);
      }
    };
    flip_all();
    for (const std::size_t i : elems) {
      ASSERT_TRUE(std::isfinite(analytical.mutable_weights(f.layer).v[i]));
    }
    const auto flipped = trace(analytical);
    EXPECT_NE(flipped, clean) << "layer " << f.layer << ": flip not visible";
    EXPECT_EQ(trace(serial), flipped) << "serial sharded, layer " << f.layer;
    EXPECT_EQ(trace(threaded), flipped) << "pooled sharded, layer " << f.layer;
    flip_all();  // involutive: restores the clean weights
    EXPECT_EQ(trace(analytical), clean) << "layer " << f.layer;
    EXPECT_EQ(trace(serial), clean) << "serial sharded, layer " << f.layer;
    EXPECT_EQ(trace(threaded), clean) << "pooled sharded, layer " << f.layer;
  }
}

namespace {

/// Run a one-wave burst through a server and return the baseline offline
/// results for the same images.
std::vector<rt::MultiStepResult> offline_baseline(
    const snn::Network& net, const k::RunOptions& opt,
    const std::vector<snn::Tensor>& images, int steps) {
  std::vector<rt::MultiStepResult> out;
  rt::InferenceEngine ref(net, opt, sharded(4));
  snn::NetworkState st = ref.make_state();
  for (const auto& img : images) {
    out.push_back(rt::run_timesteps(ref, st, img, steps));
  }
  return out;
}

}  // namespace

TEST(IntegrityServer, WeightFlipDetectedAndRetriedBitIdentical) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 51, 16, 16, 3);
  constexpr int kSteps = 2;
  k::RunOptions opt;
  opt.segment_major_lanes = 2;
  const auto offline = offline_baseline(net, opt, images, kSteps);

  rt::ServerConfig scfg;
  scfg.timesteps = kSteps;
  scfg.adaptive_wave = false;
  scfg.max_queue_delay_us = 200000;
  scfg.retry_backoff_us = 10;
  scfg.integrity.checksum_weights = true;
  // Sign-bit flip in layer 1's weights, first attempt of wave 0 only.
  scfg.faults.flip_weight(/*layer=*/1, /*bit=*/16 * 40 + 15, /*wave=*/0);
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  std::vector<rt::ServeRequest> reqs(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    reqs[i].image = &images[i];
    ASSERT_TRUE(server.submit(reqs[i]));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_TRUE(reqs[i].wait()) << "detected corruption must retry, not fail";
    EXPECT_EQ(reqs[i].result.spike_counts, offline[i].spike_counts)
        << "the clean retry must be bit-identical to an unfaulted run";
    EXPECT_EQ(reqs[i].result.total_cycles, offline[i].total_cycles);
  }
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.completed, images.size());
  EXPECT_EQ(st.corrupted, 0u);
  EXPECT_EQ(st.errored, 0u);
  EXPECT_GE(st.integrity_mismatches, 1u);
  EXPECT_GE(st.integrity_faults, 1u);
  EXPECT_GE(st.wave_retries, 1u);
  EXPECT_GE(st.data_faults_injected, 1u);
  EXPECT_GT(st.integrity_checks, st.integrity_mismatches);
  EXPECT_GT(st.crc_sealed_bytes, 0u);
  EXPECT_GT(st.crc_cycles, 0.0);
}

TEST(IntegrityServer, SpikeFlipDetectedAtHandoffAndSealsPublished) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 53, 16, 16, 3);
  constexpr int kSteps = 2;
  k::RunOptions opt;
  opt.segment_major_lanes = 2;
  const auto offline = offline_baseline(net, opt, images, kSteps);

  rt::ServerConfig scfg;
  scfg.timesteps = kSteps;
  scfg.adaptive_wave = false;
  scfg.max_queue_delay_us = 200000;
  scfg.retry_backoff_us = 10;
  scfg.integrity.checksum_spikes = true;
  scfg.faults.flip_spikes(/*layer=*/0, /*byte=*/17, /*wave=*/0, /*lane=*/1);
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  std::vector<rt::ServeRequest> reqs(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    reqs[i].image = &images[i];
    ASSERT_TRUE(server.submit(reqs[i]));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_TRUE(reqs[i].wait());
    EXPECT_EQ(reqs[i].result.spike_counts, offline[i].spike_counts);
  }
  server.stop();

  // Completion seal: recompute the chained per-timestep output CRC from the
  // offline path and require the published seal to match exactly.
  {
    rt::InferenceEngine ref(net, opt, sharded(4));
    for (std::size_t i = 0; i < images.size(); ++i) {
      snn::NetworkState state = ref.make_state();
      std::uint32_t crc = 0;
      std::uint64_t bytes = 0;
      rt::InferenceResult step;
      for (int t = 0; t < kSteps; ++t) {
        ref.run(images[i], state, step);
        crc = simd::crc32c(step.final_output.v.data(),
                           step.final_output.v.size(), crc);
        bytes += step.final_output.v.size();
      }
      EXPECT_EQ(reqs[i].result_seal.crc, crc) << "lane " << i;
      EXPECT_EQ(reqs[i].result_seal.bytes, bytes);
    }
  }

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.completed, images.size());
  EXPECT_EQ(st.corrupted, 0u);
  EXPECT_GE(st.integrity_mismatches, 1u);
  EXPECT_GE(st.wave_retries, 1u);
  EXPECT_GE(st.data_faults_injected, 1u);
}

TEST(IntegrityServer, MembraneFlipEscapesChecksumsButRedundancyCatchesIt) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 57, 16, 16, 3);
  constexpr int kSteps = 2;
  k::RunOptions opt;
  opt.segment_major_lanes = 2;
  const auto offline = offline_baseline(net, opt, images, kSteps);

  // Exponent-MSB flip in the output layer's membrane: 0.0 becomes 2.0, far
  // above the calibrated threshold, so the corrupted output neuron fires
  // spuriously at t=0 — guaranteed functional corruption of the served
  // spike counts.
  rt::FaultPlan flip;
  flip.flip_membrane(/*layer=*/2, /*bit=*/30, /*wave=*/0, /*lane=*/0);

  // Unprotected: the corruption completes "successfully" and serves a wrong
  // answer — the silent-escape baseline the seals exist to kill.
  {
    rt::ServerConfig scfg;
    scfg.timesteps = kSteps;
    scfg.adaptive_wave = false;
    scfg.max_queue_delay_us = 200000;
    scfg.faults = flip;
    rt::InferenceServer server(net, opt, sharded(4), scfg);
    std::vector<rt::ServeRequest> reqs(images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      reqs[i].image = &images[i];
      ASSERT_TRUE(server.submit(reqs[i]));
    }
    for (auto& r : reqs) ASSERT_TRUE(r.wait());
    server.stop();
    const rt::ServerStats st = server.stats();
    EXPECT_EQ(st.integrity_mismatches, 0u) << "nothing watches this path";
    EXPECT_GE(st.data_faults_injected, 1u);
    EXPECT_NE(reqs[0].result.spike_counts, offline[0].spike_counts)
        << "the unprotected flip must corrupt the served result silently";
  }

  // Redundant-lane mode: the shadow pass never sees the (primary-only)
  // injection, the output seals diverge, the wave retries and completes
  // bit-identical.
  {
    rt::ServerConfig scfg;
    scfg.timesteps = kSteps;
    scfg.adaptive_wave = false;
    scfg.max_queue_delay_us = 200000;
    scfg.retry_backoff_us = 10;
    scfg.integrity.redundant_lanes = true;
    scfg.faults = flip;
    rt::InferenceServer server(net, opt, sharded(4), scfg);
    std::vector<rt::ServeRequest> reqs(images.size());
    for (std::size_t i = 0; i < images.size(); ++i) {
      reqs[i].image = &images[i];
      ASSERT_TRUE(server.submit(reqs[i]));
    }
    for (std::size_t i = 0; i < images.size(); ++i) {
      ASSERT_TRUE(reqs[i].wait());
      EXPECT_EQ(reqs[i].result.spike_counts, offline[i].spike_counts)
          << "redundancy must turn the silent escape into a clean retry";
    }
    server.stop();
    const rt::ServerStats st = server.stats();
    EXPECT_GE(st.integrity_mismatches, 1u);
    EXPECT_GE(st.redundant_waves, 1u);
    EXPECT_EQ(st.corrupted, 0u);
  }
}

TEST(IntegrityServer, PerRequestRedundantOptInAndCleanWaveNoFalsePositive) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 59, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 2;
  const auto offline = offline_baseline(net, opt, images, 1);

  rt::ServerConfig scfg;
  scfg.adaptive_wave = false;
  scfg.max_queue_delay_us = 200000;
  // No global redundancy, no faults: the request-level opt-in alone must
  // trigger the shadow pass, and a clean wave must never mismatch.
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  std::vector<rt::ServeRequest> reqs(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    reqs[i].image = &images[i];
    reqs[i].redundant = (i == 0);
    ASSERT_TRUE(server.submit(reqs[i]));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_TRUE(reqs[i].wait());
    EXPECT_EQ(reqs[i].result.spike_counts, offline[i].spike_counts);
  }
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_GE(st.redundant_waves, 1u) << "one opted-in lane makes the wave run "
                                       "redundantly";
  EXPECT_EQ(st.integrity_mismatches, 0u)
      << "a deterministic engine must never diverge from its own shadow";
  EXPECT_EQ(st.corrupted, 0u);
  EXPECT_EQ(st.wave_retries, 0u);
}

TEST(IntegrityServer, PersistentCorruptionEndsInCorruptedNotError) {
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 61, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 2;

  rt::ServerConfig scfg;
  scfg.adaptive_wave = false;
  scfg.max_queue_delay_us = 200000;
  scfg.max_wave_retries = 1;  // 2 attempts vs 5 scheduled corrupt attempts
  scfg.retry_backoff_us = 10;
  scfg.integrity.checksum_weights = true;
  scfg.faults.flip_weight(/*layer=*/1, /*bit=*/15, /*wave=*/0, /*failures=*/5);
  rt::InferenceServer server(net, opt, sharded(4), scfg);

  std::vector<rt::ServeRequest> doomed(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    doomed[i].image = &images[i];
    ASSERT_TRUE(server.submit(doomed[i]));
  }
  for (auto& r : doomed) {
    EXPECT_FALSE(r.wait());
    EXPECT_EQ(r.state.load(), rt::ServeRequest::kCorrupted)
        << "persistent detected corruption is kCorrupted, not kError";
  }

  // Containment + recovery: the injected flips were undone after every
  // attempt, so the very next wave must serve clean results.
  const auto offline = offline_baseline(net, opt, images, 1);
  std::vector<rt::ServeRequest> healthy(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    healthy[i].image = &images[i];
    ASSERT_TRUE(server.submit(healthy[i]));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_TRUE(healthy[i].wait());
    EXPECT_EQ(healthy[i].result.spike_counts, offline[i].spike_counts)
        << "weights must be pristine again after the corrupted wave";
  }
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.admitted, 4u);
  EXPECT_EQ(st.completed, 2u);
  EXPECT_EQ(st.corrupted, 2u);
  EXPECT_EQ(st.errored, 0u);
  EXPECT_EQ(st.admitted,
            st.completed + st.timed_out + st.errored + st.corrupted)
      << "conservation must hold with the corrupted terminal state";
  EXPECT_EQ(st.wave_errors, 1u);
  EXPECT_EQ(st.integrity_faults, 2u);  // both attempts detected
}

TEST(IntegrityServer, ProtectionOffIsBitExactWithHistoricalServing) {
  // The whole subsystem dark: stats stay zero, results and modeled cycles
  // match the offline path exactly — nothing pays for what it doesn't use.
  const snn::Network net = test_net();
  const auto images = snn::make_batch(2, 67, 16, 16, 3);
  k::RunOptions opt;
  opt.segment_major_lanes = 2;
  const auto offline = offline_baseline(net, opt, images, 1);

  rt::ServerConfig scfg;
  scfg.adaptive_wave = false;
  scfg.max_queue_delay_us = 200000;
  rt::InferenceServer server(net, opt, sharded(4), scfg);
  std::vector<rt::ServeRequest> reqs(images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    reqs[i].image = &images[i];
    ASSERT_TRUE(server.submit(reqs[i]));
  }
  for (std::size_t i = 0; i < images.size(); ++i) {
    ASSERT_TRUE(reqs[i].wait());
    EXPECT_EQ(reqs[i].result.spike_counts, offline[i].spike_counts);
    EXPECT_EQ(reqs[i].result.total_cycles, offline[i].total_cycles);
    EXPECT_EQ(reqs[i].result_seal.bytes, 0u) << "no seal is computed dark";
  }
  server.stop();

  const rt::ServerStats st = server.stats();
  EXPECT_EQ(st.integrity_checks, 0u);
  EXPECT_EQ(st.crc_sealed_bytes, 0u);
  EXPECT_EQ(st.crc_cycles, 0.0);
  EXPECT_EQ(st.redundant_waves, 0u);
}
