// Energy model: component accounting, format ordering, the calibrated power
// bands the paper reports (0.132 / 0.233 / 0.219 W), and the KernelStats
// counter table that feeds it (merge rules, priced counters).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "arch/energy.hpp"
#include "kernels/kernel_stats.hpp"

namespace arch = spikestream::arch;
namespace k = spikestream::kernels;
namespace sc = spikestream::common;

TEST(Energy, BreakdownSumsToTotal) {
  arch::EnergyParams p;
  arch::Activity a;
  a.cycles = 1000;
  a.int_instrs = 500;
  a.fpu_add_ops = 250;
  a.fpu_mac_ops = 50;
  a.tcdm_words = 400;
  a.ssr_elems = 250;
  a.dma_bytes = 2048;
  a.noc_bytes = 512;
  a.dram_row_misses = 16;
  a.ecc_words = 300;
  const auto e = arch::compute_energy(p, a, sc::FpFormat::FP16);
  EXPECT_NEAR(e.total_pj(),
              e.int_pj + e.icache_pj + e.fpu_pj + e.tcdm_pj + e.ssr_pj +
                  e.dma_pj + e.noc_pj + e.static_pj,
              1e-9);
  EXPECT_GT(e.fpu_pj, 0.0);
  EXPECT_GT(e.noc_pj, 0.0);
  EXPECT_GT(e.static_pj, 0.0);
}

TEST(Energy, MacCostsMoreThanAdd) {
  arch::EnergyParams p;
  arch::Activity add, mac;
  add.cycles = mac.cycles = 100;
  add.fpu_add_ops = 100;
  mac.fpu_mac_ops = 100;
  EXPECT_GT(arch::compute_energy(p, mac, sc::FpFormat::FP16).fpu_pj,
            arch::compute_energy(p, add, sc::FpFormat::FP16).fpu_pj);
}

TEST(Energy, NarrowFormatsCheaperPerOp) {
  arch::EnergyParams p;
  EXPECT_LT(p.fpu_op(sc::FpFormat::FP8), p.fpu_op(sc::FpFormat::FP16));
  EXPECT_LT(p.fpu_op(sc::FpFormat::FP16), p.fpu_op(sc::FpFormat::FP32));
  EXPECT_LT(p.fpu_op(sc::FpFormat::FP32), p.fpu_op(sc::FpFormat::FP64));
}

TEST(Energy, PowerIsEnergyOverTime) {
  arch::EnergyParams p;
  arch::Activity a;
  a.cycles = 1e6;
  a.fpu_add_ops = 5e5;
  const auto e = arch::compute_energy(p, a, sc::FpFormat::FP16);
  const double w = arch::average_power_w(p, a, sc::FpFormat::FP16);
  EXPECT_NEAR(w, e.total_pj() * 1e-12 / (a.cycles / p.freq_hz), 1e-9);
}

TEST(Energy, BaselinePowerBandMatchesPaper) {
  // Baseline FP16 activity profile: int pipe ~85% busy, 1 FPU op and ~2 TCDM
  // words per 11 cycles, no SSR. Paper: 0.1319 W.
  arch::EnergyParams p;
  arch::Activity a;
  const double cycles = 1e6;
  a.cycles = cycles;
  a.active_cores = 8;
  a.int_instrs = 8.0 / 11.0 * cycles * 8;
  a.fpu_add_ops = cycles / 11.0 * 8;
  a.tcdm_words = 2.0 * cycles / 11.0 * 8;
  const double w = arch::average_power_w(p, a, sc::FpFormat::FP16);
  EXPECT_NEAR(w, 0.132, 0.025);
}

TEST(Energy, SpikeStreamPowerBandMatchesPaper) {
  // SpikeStream FP16: measured kernel occupancy ~0.42 FPU ops/cycle (the
  // II=2 ceiling of 0.5 minus setup-bound SpVAs), 1.25 TCDM words/op, SSR
  // busy, thin integer activity. Paper: 0.233 W.
  arch::EnergyParams p;
  arch::Activity a;
  const double cycles = 1e6;
  const double occ = 0.42;
  a.cycles = cycles;
  a.active_cores = 8;
  a.int_instrs = 0.15 * cycles * 8;
  a.fpu_add_ops = occ * cycles * 8;
  a.tcdm_words = 1.25 * occ * cycles * 8;
  a.ssr_elems = occ * cycles * 8;
  const double w16 = arch::average_power_w(p, a, sc::FpFormat::FP16);
  EXPECT_NEAR(w16, 0.233, 0.04);
  // FP8 at the same occupancy is a few percent cheaper (paper: -6.7%).
  const double w8 = arch::average_power_w(p, a, sc::FpFormat::FP8);
  EXPECT_LT(w8, w16);
  EXPECT_NEAR((w16 - w8) / w16, 0.067, 0.05);
}

namespace {

/// Sets the counters of `s`, in table order, to base, base + 1, ...
void fill_counters(k::KernelStats& s, double base) {
#define SPK_FILL_COUNTER(name, rule) s.name = base++;
  SPIKESTREAM_KERNEL_COUNTERS(SPK_FILL_COUNTER)
#undef SPK_FILL_COUNTER
}

}  // namespace

TEST(KernelStats, MergeRulesFollowTheTable) {
  // The timeline counters, named here rather than read from the table: a
  // counter that changes rule must change this list too. Every other counter
  // is activity and sums across concurrent clusters.
  const std::set<std::string> timeline = {
      "cycles", "compute_cycles", "dma_cycles", "dma_cycles_hidden",
      "noc_contention_cycles", "fifo_stall_cycles", "ecc_cycles"};
  k::KernelStats lo, hi;
  fill_counters(lo, 1);
  fill_counters(hi, 1000);
  lo.active_cores = 3;
  lo.core_cycles = {1, 2, 3};
  hi.active_cores = 5;
  hi.core_cycles = {4, 5};

  k::KernelStats sum = lo;
  sum.accumulate(hi);
  k::KernelStats up = lo;  // the max rule must take the other shard's value
  up.merge_parallel(hi);
  k::KernelStats down = hi;  // ... and keep its own
  down.merge_parallel(lo);
  k::KernelStats cleared = hi;
  cleared.reset();

  std::size_t timeline_seen = 0;
#define SPK_EXPECT_RULE(name, rule)                                      \
  {                                                                      \
    const bool is_max = timeline.count(#name) == 1;                      \
    timeline_seen += is_max ? 1 : 0;                                     \
    EXPECT_EQ(sum.name, lo.name + hi.name) << #name;                     \
    EXPECT_EQ(up.name, is_max ? hi.name : lo.name + hi.name) << #name;   \
    EXPECT_EQ(down.name, is_max ? hi.name : hi.name + lo.name) << #name; \
    EXPECT_EQ(cleared.name, 0.0) << #name;                               \
  }
  SPIKESTREAM_KERNEL_COUNTERS(SPK_EXPECT_RULE)
#undef SPK_EXPECT_RULE
  EXPECT_EQ(timeline_seen, timeline.size()) << "a named timeline counter "
                                               "is missing from the table";

  // accumulate (consecutive runs on one cluster): widest core count, own
  // per-core breakdown. merge_parallel (concurrent clusters): core counts
  // sum, per-core breakdowns concatenate in merge order.
  EXPECT_EQ(sum.active_cores, 5);
  EXPECT_EQ(sum.core_cycles, (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(up.active_cores, 8);
  EXPECT_EQ(up.core_cycles, (std::vector<double>{1, 2, 3, 4, 5}));
  EXPECT_EQ(down.active_cores, 8);
  EXPECT_EQ(down.core_cycles, (std::vector<double>{4, 5, 1, 2, 3}));
  // reset: default state, per-core capacity kept for scratch reuse.
  EXPECT_EQ(cleared.active_cores, 8);
  EXPECT_TRUE(cleared.core_cycles.empty());
  EXPECT_GE(cleared.core_cycles.capacity(), 2u);
}

TEST(KernelStats, EveryPricedCounterReachesTheEnergyModel) {
  // The counters compute_energy prices, named here rather than read from
  // to_activity: setting one of them alone must move the energy, setting any
  // other counter alone must not. Fails when to_activity drops a priced
  // input or a new counter starts being priced unannounced.
  const std::set<std::string> priced = {
      "cycles", "int_instrs", "fpu_ops", "fpu_mac_ops", "tcdm_words",
      "ssr_elems", "dma_bytes", "noc_bytes", "dma_row_misses", "ecc_words"};
  const arch::EnergyParams p;
  const auto energy_pj = [&](const k::KernelStats& s) {
    return arch::compute_energy(p, s.to_activity(), sc::FpFormat::FP16)
        .total_pj();
  };
  const double idle = energy_pj(k::KernelStats{});
  EXPECT_EQ(idle, 0.0);
  std::size_t priced_seen = 0;
#define SPK_EXPECT_PRICED(name, rule)                    \
  {                                                      \
    const bool is_priced = priced.count(#name) == 1;     \
    priced_seen += is_priced ? 1 : 0;                    \
    k::KernelStats s;                                    \
    s.name = 1000;                                       \
    EXPECT_EQ(energy_pj(s) != idle, is_priced) << #name; \
  }
  SPIKESTREAM_KERNEL_COUNTERS(SPK_EXPECT_PRICED)
#undef SPK_EXPECT_PRICED
  EXPECT_EQ(priced_seen, priced.size()) << "a named priced counter is "
                                           "missing from the table";
  // active_cores is priced through the per-core static power.
  k::KernelStats narrow, wide;
  narrow.cycles = wide.cycles = 1000;
  narrow.active_cores = 4;
  EXPECT_LT(energy_pj(narrow), energy_pj(wide));
}
