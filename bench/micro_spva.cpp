// google-benchmark microbenches: host-side throughput of the ISS and of the
// functional kernels (useful to size batch counts for the figure benches, and
// to catch performance regressions in the simulator itself).
#include <benchmark/benchmark.h>

#include "arch/cluster.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/iss_kernels.hpp"
#include "kernels/layer_kernels.hpp"
#include "kernels/scheduler.hpp"
#include "snn/network.hpp"

namespace arch = spikestream::arch;
namespace k = spikestream::kernels;
namespace sc = spikestream::common;
namespace simd = spikestream::common::simd;
namespace snn = spikestream::snn;

namespace {

std::vector<std::uint16_t> rand_idcs(int n, int universe, std::uint64_t seed) {
  sc::Rng rng(seed);
  std::vector<std::uint16_t> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(static_cast<std::uint16_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(universe))));
  }
  return v;
}

void BM_IssBaselineSpva(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<double> w(512, 1.0);
  const auto idcs = rand_idcs(n, 512, 1);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    arch::ClusterConfig cfg;
    cfg.icache_miss_penalty = 0;
    arch::Cluster cl(cfg);
    const auto r = k::iss_baseline_spva(cl, w, idcs);
    cycles = r.cycles;
    benchmark::DoNotOptimize(r.value);
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
  state.counters["sim_cycles_per_sec"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_IssBaselineSpva)->Arg(64)->Arg(512);

void BM_IssStreamSpva(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  std::vector<double> w(512, 1.0);
  const auto idcs = rand_idcs(n, 512, 2);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    arch::ClusterConfig cfg;
    cfg.icache_miss_penalty = 0;
    arch::Cluster cl(cfg);
    const auto r = k::iss_spikestream_spva(cl, w, idcs);
    cycles = r.cycles;
    benchmark::DoNotOptimize(r.value);
  }
  state.counters["sim_cycles"] = static_cast<double>(cycles);
}
BENCHMARK(BM_IssStreamSpva)->Arg(64)->Arg(512);

void BM_ConvKernelFunctional(benchmark::State& state) {
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kConv;
  spec.name = "conv";
  spec.in_h = spec.in_w = 18;
  spec.in_c = 128;
  spec.k = 3;
  spec.out_c = 256;
  sc::Rng rng(3);
  snn::LayerWeights w;
  w.k = 3;
  w.in_c = 128;
  w.out_c = 256;
  w.v.resize(9u * 128 * 256);
  for (auto& x : w.v) x = static_cast<float>(rng.normal(0.0, 0.05));
  snn::SpikeMap in(18, 18, 128);
  for (auto& b : in.v) b = rng.bernoulli(0.3) ? 1 : 0;
  const auto csr = spikestream::compress::CsrIfmap::encode(in);
  k::RunOptions opt;
  for (auto _ : state) {
    snn::Tensor m(spec.out_h(), spec.out_w(), spec.out_c);
    const auto r = k::run_conv_layer(spec, w, csr, m, opt);
    benchmark::DoNotOptimize(r.stats.cycles);
  }
}
BENCHMARK(BM_ConvKernelFunctional);

/// The deep tower's mid conv (make_deep_tower: 8x8x8 padded input, 3x3
/// kernel, 8 output channels, FP16-quantized weights) at the tower's
/// calibrated 18% firing rate over the padded map (32% over its 6x6
/// interior): the narrow accumulate's shape. Each iteration takes the next
/// of 64 different inputs: on one repeated input the branch predictor
/// learns every tap's spike count, which a real layer sequence never lets
/// it do.
void BM_ConvFunctionalNarrow(benchmark::State& state) {
  snn::LayerSpec spec;
  spec.kind = snn::LayerKind::kConv;
  spec.name = "conv3";
  spec.in_h = spec.in_w = 8;
  spec.in_c = 8;
  spec.k = 3;
  spec.out_c = 8;
  sc::Rng rng(5);
  snn::LayerWeights w;
  w.k = 3;
  w.in_c = 8;
  w.out_c = 8;
  w.v.resize(9u * 8 * 8);
  for (auto& x : w.v) {
    x = sc::quantize(static_cast<float>(rng.normal(0.0, 0.17)),
                     sc::FpFormat::FP16);
  }
  w.build_half();
  std::vector<spikestream::compress::CsrIfmap> inputs;
  for (int i = 0; i < 64; ++i) {
    snn::SpikeMap in(8, 8, 8);
    for (int y = 1; y < 7; ++y) {
      for (int x = 1; x < 7; ++x) {
        for (int c = 0; c < 8; ++c) in.at(y, x, c) = rng.bernoulli(0.32);
      }
    }
    inputs.push_back(spikestream::compress::CsrIfmap::encode(in));
  }
  snn::Tensor m(spec.out_h(), spec.out_w(), spec.out_c);
  k::KernelScratch scratch;
  std::size_t next = 0;
  for (auto _ : state) {
    k::conv_functional(spec, w, inputs[next], m, scratch);
    next = (next + 1) % inputs.size();
    benchmark::DoNotOptimize(scratch.run.out_nnz);
  }
}
BENCHMARK(BM_ConvFunctionalNarrow);

/// The Section III-B work-stealing simulation on 8 cores: range(0) integer
/// task costs (ties included), range(1) independent lists advanced together
/// by the interleaved entry, on host SIMD tier range(2) (0 scalar, 2
/// AVX-512; clamped to the host). Time is per iteration, so divide by the
/// list count for the time per schedule.
void BM_StealSchedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto n_lists = static_cast<std::size_t>(state.range(1));
  const simd::Tier was = simd::active();
  simd::force_tier(static_cast<simd::Tier>(state.range(2)));
  sc::Rng rng(6);
  std::vector<std::vector<double>> tasks(n_lists, std::vector<double>(n));
  for (auto& list : tasks) {
    for (double& t : list) t = 200.0 + static_cast<double>(rng.uniform_u64(64));
  }
  std::vector<std::vector<double>> cores(n_lists, std::vector<double>(8));
  std::vector<simd::StealList> lists;
  for (std::size_t i = 0; i < n_lists; ++i) {
    lists.push_back({tasks[i].data(), n, cores[i].data()});
  }
  for (auto _ : state) {
    simd::steal_schedule_lists(lists, 8, 4.0);
    benchmark::DoNotOptimize(cores[0][0]);
  }
  state.SetLabel(simd::tier_name(simd::active()));
  simd::force_tier(was);
}
BENCHMARK(BM_StealSchedule)
    ->ArgsProduct({{36, 256, 1024}, {1, 2}, {0, 2}});

void BM_CsrEncode(benchmark::State& state) {
  sc::Rng rng(4);
  snn::SpikeMap in(34, 34, 64);
  for (auto& b : in.v) b = rng.bernoulli(0.15) ? 1 : 0;
  for (auto _ : state) {
    auto c = spikestream::compress::CsrIfmap::encode(in);
    benchmark::DoNotOptimize(c.nnz());
  }
}
BENCHMARK(BM_CsrEncode);

}  // namespace

BENCHMARK_MAIN();
