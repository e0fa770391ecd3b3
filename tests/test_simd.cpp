// Host-SIMD dispatch layer (common/simd.hpp): every tier the running CPU
// supports must produce byte-identical results to the scalar tier for all
// kernels — the CSR nonzero scan, the LIF step, the per-group spike
// accumulate, the work-stealing schedule simulation and the binary16
// narrowing (checked against the scalar common/float_formats routines) —
// across lengths that exercise both the vector bodies and the scalar tails.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/float_formats.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "compress/csr_ifmap.hpp"
#include "kernels/scheduler.hpp"
#include "snn/lif.hpp"
#include "snn/tensor.hpp"

namespace {

namespace simd = spikestream::common::simd;
namespace snn = spikestream::snn;
namespace sc = spikestream::common;
namespace compress = spikestream::compress;

std::vector<simd::Tier> supported_tiers() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  if (simd::max_supported() >= simd::Tier::kAvx2) {
    tiers.push_back(simd::Tier::kAvx2);
  }
  if (simd::max_supported() >= simd::Tier::kAvx512) {
    tiers.push_back(simd::Tier::kAvx512);
  }
  return tiers;
}

/// RAII guard: restore free dispatch after a forced-tier section.
struct TierGuard {
  ~TierGuard() { simd::force_tier(simd::max_supported()); }
};

float from_bits(std::uint32_t u) { return std::bit_cast<float>(u); }

/// Widens binary16 `h`, keeping NaN sign and payload (the scalar routine
/// returns one canonical NaN for all of them).
float widen_keep_payload(std::uint16_t h) {
  const std::uint32_t mant = h & 0x03FFu;
  if ((h & 0x7C00u) == 0x7C00u && mant != 0) {
    return from_bits((std::uint32_t{h & 0x8000u} << 16) | 0x7F800000u |
                     (mant << 13));
  }
  return sc::fp16_bits_to_fp32(h);
}

/// Narrowing edge cases: all 65 536 binary16 patterns widened; every
/// rounding midpoint between adjacent finite binary16 magnitudes (the last
/// one is the overflow threshold 65520) with its two float neighbours, both
/// signs; float subnormals, zeros, infinities, and NaNs of both signs whose
/// payloads do or do not survive narrowing.
std::vector<float> fp16_edge_inputs() {
  std::vector<float> in;
  for (std::uint32_t h = 0; h <= 0xFFFFu; ++h) {
    in.push_back(widen_keep_payload(static_cast<std::uint16_t>(h)));
  }
  for (std::uint16_t h = 0; h < 0x7C00u; ++h) {
    const double lo = sc::fp16_bits_to_fp32(h);
    const double hi = h + 1 == 0x7C00u
                          ? 65536.0
                          : sc::fp16_bits_to_fp32(static_cast<std::uint16_t>(
                                h + 1));
    const auto mid = static_cast<float>((lo + hi) / 2);  // 12 bits: exact
    for (const float x : {std::nextafter(mid, 0.0f), mid,
                          std::nextafter(mid, 1e9f)}) {
      in.push_back(x);
      in.push_back(-x);
    }
  }
  for (const std::uint32_t u :
       {0x00000000u, 0x00000001u, 0x00012345u, 0x00400000u, 0x007FFFFFu,
        0x33000000u, 0x33800000u, 0x7F7FFFFFu, 0x7F800000u, 0x7F800001u,
        0x7F802000u, 0x7FA00000u, 0x7FC00000u, 0x7FC00001u, 0x7FFFFFFFu}) {
    in.push_back(from_bits(u));
    in.push_back(from_bits(u | 0x80000000u));
  }
  return in;
}

/// Index of the first element whose bit pattern differs, or -1 (a failure
/// then reports one element rather than dumping both arrays).
template <class T>
long first_diff(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(T)) != 0) return static_cast<long>(i);
  }
  return -1;
}

bool round_trips(float x) {
  return std::bit_cast<std::uint32_t>(sc::fp16_bits_to_fp32(
             sc::fp32_to_fp16_bits(x))) == std::bit_cast<std::uint32_t>(x);
}

}  // namespace

TEST(Simd, ActiveTierIsSupported) {
  EXPECT_LE(static_cast<int>(simd::active()),
            static_cast<int>(simd::max_supported()));
  // Forcing an unsupported tier clamps instead of crashing later.
  TierGuard guard;
  EXPECT_LE(static_cast<int>(simd::force_tier(simd::Tier::kAvx512)),
            static_cast<int>(simd::max_supported()));
}

TEST(Simd, NonzeroScanMatchesScalarAcrossTiers) {
  TierGuard guard;
  sc::Rng rng(11);
  for (const int n : {1, 7, 8, 31, 32, 33, 63, 64, 65, 129, 300, 512}) {
    for (const double density : {0.0, 0.02, 0.3, 1.0}) {
      std::vector<std::uint8_t> row(static_cast<std::size_t>(n));
      for (auto& b : row) b = rng.bernoulli(density);
      simd::force_tier(simd::Tier::kScalar);
      std::vector<std::uint16_t> expect;
      simd::append_nonzero_u8(row.data(), n, 3, expect);
      for (const simd::Tier tier : supported_tiers()) {
        simd::force_tier(tier);
        std::vector<std::uint16_t> got;
        simd::append_nonzero_u8(row.data(), n, 3, got);
        EXPECT_EQ(expect, got)
            << simd::tier_name(tier) << " n=" << n << " d=" << density;
      }
    }
  }
}

TEST(Simd, NonzeroScanTreatsAnyNonzeroByteAsSpike) {
  TierGuard guard;
  std::vector<std::uint8_t> row(70, 0);
  row[0] = 255;
  row[33] = 2;
  row[69] = 7;
  for (const simd::Tier tier : supported_tiers()) {
    simd::force_tier(tier);
    std::vector<std::uint16_t> got;
    simd::append_nonzero_u8(row.data(), static_cast<int>(row.size()), 0, got);
    EXPECT_EQ((std::vector<std::uint16_t>{0, 33, 69}), got)
        << simd::tier_name(tier);
  }
}

TEST(Simd, LifStepBitIdenticalAcrossTiers) {
  TierGuard guard;
  sc::Rng rng(22);
  for (const std::size_t n : {1ul, 5ul, 8ul, 15ul, 16ul, 17ul, 100ul, 1000ul}) {
    std::vector<float> cur(n), mem0(n);
    for (auto& x : cur) x = static_cast<float>(rng.uniform() * 4.0 - 1.0);
    for (auto& x : mem0) x = static_cast<float>(rng.uniform() * 2.0 - 0.5);

    simd::force_tier(simd::Tier::kScalar);
    std::vector<float> mem_ref = mem0;
    std::vector<std::uint8_t> spk_ref(n);
    const std::size_t fired_ref = simd::lif_step(
        cur.data(), mem_ref.data(), spk_ref.data(), n, 0.9f, 1.0f, 1.0f, 1.0f);

    for (const simd::Tier tier : supported_tiers()) {
      simd::force_tier(tier);
      std::vector<float> mem = mem0;
      std::vector<std::uint8_t> spk(n);
      const std::size_t fired = simd::lif_step(cur.data(), mem.data(),
                                               spk.data(), n, 0.9f, 1.0f,
                                               1.0f, 1.0f);
      EXPECT_EQ(fired_ref, fired) << simd::tier_name(tier) << " n=" << n;
      EXPECT_EQ(spk_ref, spk) << simd::tier_name(tier) << " n=" << n;
      // Bitwise comparison: tiers must agree on every membrane bit.
      EXPECT_EQ(0, std::memcmp(mem_ref.data(), mem.data(), n * sizeof(float)))
          << simd::tier_name(tier) << " n=" << n;
    }
  }
}

TEST(Simd, GroupCountsMatchScalarAcrossTiers) {
  TierGuard guard;
  sc::Rng rng(33);
  for (const int group : {1, 2, 3, 4, 5, 8, 16, 24, 64}) {
    for (const int c : {1, 4, 31, 32, 64, 100, 257}) {
      const int groups = (c + group - 1) / group;
      std::vector<std::uint8_t> row(static_cast<std::size_t>(c));
      for (auto& b : row) b = rng.bernoulli(0.4);
      // A couple of out-of-contract values: sums must still agree.
      if (c > 2) row[static_cast<std::size_t>(c) / 2] = 3;

      simd::force_tier(simd::Tier::kScalar);
      std::vector<double> expect(static_cast<std::size_t>(groups));
      simd::group_spike_counts(row.data(), c, group, groups, expect.data());
      for (const simd::Tier tier : supported_tiers()) {
        simd::force_tier(tier);
        std::vector<double> got(static_cast<std::size_t>(groups), -1.0);
        simd::group_spike_counts(row.data(), c, group, groups, got.data());
        EXPECT_EQ(expect, got)
            << simd::tier_name(tier) << " group=" << group << " c=" << c;
      }
    }
  }
}

TEST(Simd, StealScheduleMatchesScalarAcrossTiers) {
  // Integer costs in a small range force ties among the core times, so the
  // lowest-index tie rule is exercised on every list; 12 cores exceed one
  // zmm and take the scalar loop on every tier.
  namespace k = spikestream::kernels;
  TierGuard guard;
  sc::Rng rng(47);
  for (const double steal : {0.0, 3.0, 0.75}) {
    for (const int cores : {1, 2, 3, 5, 7, 8, 12}) {
      for (int trial = 0; trial < 6; ++trial) {
        std::vector<double> tasks(rng.uniform_u64(1101));
        for (double& t : tasks) t = static_cast<double>(rng.uniform_u64(6));
        const std::string at = "steal=" + std::to_string(steal) +
                               " cores=" + std::to_string(cores) +
                               " tasks=" + std::to_string(tasks.size());
        simd::force_tier(simd::Tier::kScalar);
        k::ScheduleResult expect;
        k::steal_schedule_into(tasks, cores, steal, expect);
        for (const simd::Tier tier : supported_tiers()) {
          simd::force_tier(tier);
          k::ScheduleResult got;
          got.core_cycles.assign(3, -1.0);  // stale contents are replaced
          k::steal_schedule_into(tasks, cores, steal, got);
          EXPECT_EQ(first_diff(expect.core_cycles, got.core_cycles), -1)
              << simd::tier_name(tier) << " " << at;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(expect.makespan),
                    std::bit_cast<std::uint64_t>(got.makespan))
              << simd::tier_name(tier) << " " << at;
        }
      }
    }
  }

  // The interleaved entry: lists of unequal lengths (one empty), in counts
  // that leave an odd list out of the pairs, against one steal_schedule
  // call per list.
  for (const simd::Tier tier : supported_tiers()) {
    simd::force_tier(tier);
    for (const int cores : {1, 4, 8, 12}) {
      for (const std::size_t n_lists : {1u, 2u, 3u, 5u}) {
        std::vector<std::vector<double>> tasks(n_lists);
        for (std::size_t i = 1; i < n_lists; ++i) {
          tasks[i].resize(rng.uniform_u64(300));
          for (double& t : tasks[i]) {
            t = static_cast<double>(rng.uniform_u64(5));
          }
        }
        std::vector<std::vector<double>> got(
            n_lists, std::vector<double>(static_cast<std::size_t>(cores)));
        std::vector<simd::StealList> lists;
        for (std::size_t i = 0; i < n_lists; ++i) {
          lists.push_back({tasks[i].data(), tasks[i].size(), got[i].data()});
        }
        simd::steal_schedule_lists(lists, cores, 2.0);
        for (std::size_t i = 0; i < n_lists; ++i) {
          std::vector<double> expect(static_cast<std::size_t>(cores), -1.0);
          simd::steal_schedule(tasks[i].data(), tasks[i].size(), cores, 2.0,
                               expect.data());
          EXPECT_EQ(first_diff(expect, got[i]), -1)
              << simd::tier_name(tier) << " cores=" << cores << " list " << i
              << " of " << n_lists;
        }
      }
    }
  }
}

TEST(Simd, CsrEncodeRoundTripsUnderEveryTier) {
  TierGuard guard;
  sc::Rng rng(44);
  snn::SpikeMap dense(9, 11, 77);
  for (auto& b : dense.v) b = rng.bernoulli(0.25);
  simd::force_tier(simd::Tier::kScalar);
  const compress::CsrIfmap ref = compress::CsrIfmap::encode(dense);
  for (const simd::Tier tier : supported_tiers()) {
    simd::force_tier(tier);
    const compress::CsrIfmap got = compress::CsrIfmap::encode(dense);
    EXPECT_EQ(ref.c_idcs(), got.c_idcs()) << simd::tier_name(tier);
    EXPECT_EQ(ref.s_ptr(), got.s_ptr()) << simd::tier_name(tier);
    EXPECT_EQ(got.decode().v, dense.v) << simd::tier_name(tier);
  }
}

TEST(Simd, LifStepIntoUsesDispatchedKernel) {
  // The snn-level wrapper and the raw kernel agree (shape plumbing only).
  TierGuard guard;
  sc::Rng rng(55);
  snn::Tensor cur(3, 5, 17), mem(3, 5, 17);
  for (auto& x : cur.v) x = static_cast<float>(rng.uniform() * 3.0);
  snn::Tensor mem2 = mem;
  snn::LifParams p;
  snn::SpikeMap out;
  const std::size_t fired = snn::lif_step_into(p, cur, mem, out);
  std::vector<std::uint8_t> spk(cur.v.size());
  const std::size_t fired2 =
      simd::lif_step(cur.v.data(), mem2.v.data(), spk.data(), cur.v.size(),
                     p.alpha, p.r, p.v_th, p.v_rst);
  EXPECT_EQ(fired, fired2);
  EXPECT_EQ(out.v, spk);
  EXPECT_EQ(mem.v, mem2.v);
}

TEST(Simd, Fp16QuantizeMatchesScalarRoutinesAcrossTiers) {
  TierGuard guard;
  const std::vector<float> in = fp16_edge_inputs();
  const std::size_t n = in.size();
  ASSERT_NE(0u, n % 16);  // the whole span ends in a scalar tail
  std::vector<float> expect_v(n);
  std::vector<std::uint16_t> expect_bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    expect_v[i] = sc::fp16_bits_to_fp32(sc::fp32_to_fp16_bits(in[i]));
    expect_bits[i] = sc::fp32_to_fp16_bits(expect_v[i]);
  }
  for (const simd::Tier tier : supported_tiers()) {
    simd::force_tier(tier);
    std::vector<float> v = in;
    std::vector<std::uint16_t> bits(n);
    simd::fp16_quantize(v.data(), bits.data(), n);
    const long dv = first_diff(expect_v, v);
    EXPECT_EQ(-1, dv) << simd::tier_name(tier) << " input bits 0x" << std::hex
                      << std::bit_cast<std::uint32_t>(in[dv < 0 ? 0 : dv]);
    const long db = first_diff(expect_bits, bits);
    EXPECT_EQ(-1, db) << simd::tier_name(tier) << " input bits 0x" << std::hex
                      << std::bit_cast<std::uint32_t>(in[db < 0 ? 0 : db]);
    // Short spans at shifting offsets: tail only, one block, block + tail.
    for (const std::size_t len : {1, 7, 8, 9, 15, 16, 17, 33}) {
      for (std::size_t off = 0; off + len <= n; off += 997) {
        std::vector<float> sv(in.begin() + off, in.begin() + off + len);
        std::vector<std::uint16_t> sb(len);
        simd::fp16_quantize(sv.data(), sb.data(), len);
        EXPECT_EQ(0, std::memcmp(sv.data(), &expect_v[off],
                                 len * sizeof(float)))
            << simd::tier_name(tier) << " off=" << off << " len=" << len;
        EXPECT_EQ(0, std::memcmp(sb.data(), &expect_bits[off],
                                 len * sizeof(std::uint16_t)))
            << simd::tier_name(tier) << " off=" << off << " len=" << len;
      }
    }
  }
}

TEST(Simd, Fp16PackExactMatchesScalarRoutinesAcrossTiers) {
  TierGuard guard;
  const std::vector<float> in = fp16_edge_inputs();
  const std::size_t n = in.size();
  for (const simd::Tier tier : supported_tiers()) {
    simd::force_tier(tier);
    std::vector<std::uint16_t> bits(n);
    // Restart one past every rejection, so each element is judged once and
    // the spans start at every alignment.
    std::size_t pos = 0;
    std::size_t rejected = 0;
    while (pos < n) {
      const std::size_t got =
          simd::fp16_pack_exact(in.data() + pos, bits.data() + pos, n - pos);
      std::size_t expect = pos;
      while (expect < n && round_trips(in[expect])) ++expect;
      ASSERT_EQ(expect - pos, got) << simd::tier_name(tier) << " from " << pos;
      for (std::size_t i = pos; i < expect; ++i) {
        ASSERT_EQ(sc::fp32_to_fp16_bits(in[i]), bits[i])
            << simd::tier_name(tier) << " i=" << i;
      }
      rejected += expect < n;
      pos = expect + 1;
    }
    // Midpoints, their neighbours, float subnormals and non-canonical NaNs.
    EXPECT_GT(rejected, 190000u) << simd::tier_name(tier);
  }
}

TEST(Simd, Fp16PackExactRejectsAtAnyPosition) {
  TierGuard guard;
  sc::Rng rng(66);
  std::vector<float> exact(300);
  for (auto& x : exact) {
    x = sc::quantize(static_cast<float>(rng.uniform() * 8.0 - 4.0),
                     sc::FpFormat::FP16);
  }
  exact[5] = std::numeric_limits<float>::infinity();  // exact, non-finite
  const float bad[] = {1.0f + 0x1p-12f,  // between two binary16 values
                       from_bits(0x00000001u),  // float subnormal
                       from_bits(0x7FC00001u),  // NaN payload lost
                       from_bits(0xFFC00000u),  // NaN sign lost
                       65520.0f};               // overflows to Inf
  for (const simd::Tier tier : supported_tiers()) {
    simd::force_tier(tier);
    for (const std::size_t len : {1, 2, 15, 16, 17, 31, 32, 33, 40, 300}) {
      std::vector<std::uint16_t> bits(len);
      EXPECT_EQ(len, simd::fp16_pack_exact(exact.data(), bits.data(), len))
          << simd::tier_name(tier) << " len=" << len;
      for (std::size_t p = 0; p < len; ++p) {
        std::vector<float> v(exact.begin(), exact.begin() + len);
        v[p] = bad[p % std::size(bad)];
        if (p + 3 < len) v[p + 3] = bad[(p + 1) % std::size(bad)];
        EXPECT_EQ(p, simd::fp16_pack_exact(v.data(), bits.data(), len))
            << simd::tier_name(tier) << " len=" << len << " p=" << p;
      }
    }
  }
}
