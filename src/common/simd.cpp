#include "common/simd.hpp"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/float_formats.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SPIKESTREAM_X86_SIMD 1
#include <immintrin.h>
#endif

namespace spikestream::common::simd {

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "?";
}

namespace {

Tier probe_max_supported() {
#ifdef SPIKESTREAM_X86_SIMD
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      __builtin_cpu_supports("f16c")) {
    return Tier::kAvx2;
  }
#endif
  return Tier::kScalar;
}

/// Forced tier, or -1 when dispatch follows the CPU probe.
std::atomic<int> g_forced{-1};

}  // namespace

Tier max_supported() {
  static const Tier t = probe_max_supported();
  return t;
}

Tier active() {
  const int f = g_forced.load(std::memory_order_relaxed);
  if (f < 0) return max_supported();
  return static_cast<int>(max_supported()) < f
             ? max_supported()
             : static_cast<Tier>(f);
}

Tier force_tier(Tier t) {
  g_forced.store(static_cast<int>(t), std::memory_order_relaxed);
  return active();
}

// ---------------------------------------------------------------------------
// Nonzero-byte scan (CSR ifmap encode inner loop)
// ---------------------------------------------------------------------------

namespace {

/// Portable word-at-a-time scan: eight channels tested per 64-bit load, so
/// fully-silent channel octets cost one load and one branch. Any nonzero
/// byte counts as a spike (same contract as the vector tiers and the tail).
void scan_scalar(const std::uint8_t* row, int n, std::uint16_t base,
                 std::vector<std::uint16_t>& out) {
  int ch = 0;
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::uint64_t k7f = 0x7f7f7f7f7f7f7f7full;
    constexpr std::uint64_t k80 = 0x8080808080808080ull;
    for (; ch + 8 <= n; ch += 8) {
      std::uint64_t word;
      std::memcpy(&word, row + ch, sizeof(word));
      // Bit 7 of each byte of `nz` is set iff that byte of `word` is nonzero.
      std::uint64_t nz = (((word & k7f) + k7f) | word) & k80;
      while (nz != 0) {
        const int lane = std::countr_zero(nz) >> 3;
        out.push_back(static_cast<std::uint16_t>(base + ch + lane));
        nz &= nz - 1;
      }
    }
  }
  for (; ch < n; ++ch) {
    if (row[ch]) out.push_back(static_cast<std::uint16_t>(base + ch));
  }
}

#ifdef SPIKESTREAM_X86_SIMD

__attribute__((target("avx2"))) void scan_avx2(
    const std::uint8_t* row, int n, std::uint16_t base,
    std::vector<std::uint16_t>& out) {
  const __m256i zero = _mm256_setzero_si256();
  int ch = 0;
  for (; ch + 32 <= n; ch += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + ch));
    // movemask of (v == 0) inverted = one bit per nonzero byte, in order.
    std::uint32_t nz = ~static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero)));
    while (nz != 0) {
      const int lane = std::countr_zero(nz);
      out.push_back(static_cast<std::uint16_t>(base + ch + lane));
      nz &= nz - 1;
    }
  }
  scan_scalar(row + ch, n - ch, static_cast<std::uint16_t>(base + ch), out);
}

__attribute__((target("avx512f,avx512bw"))) void scan_avx512(
    const std::uint8_t* row, int n, std::uint16_t base,
    std::vector<std::uint16_t>& out) {
  int ch = 0;
  for (; ch + 64 <= n; ch += 64) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(row + ch));
    // test(v, v) sets one mask bit per nonzero byte, in order.
    std::uint64_t nz = _mm512_test_epi8_mask(v, v);
    while (nz != 0) {
      const int lane = std::countr_zero(nz);
      out.push_back(static_cast<std::uint16_t>(base + ch + lane));
      nz &= nz - 1;
    }
  }
  scan_scalar(row + ch, n - ch, static_cast<std::uint16_t>(base + ch), out);
}

#endif  // SPIKESTREAM_X86_SIMD

}  // namespace

void append_nonzero_u8(const std::uint8_t* row, int n, std::uint16_t base,
                       std::vector<std::uint16_t>& out) {
#ifdef SPIKESTREAM_X86_SIMD
  switch (active()) {
    case Tier::kAvx512: scan_avx512(row, n, base, out); return;
    case Tier::kAvx2: scan_avx2(row, n, base, out); return;
    case Tier::kScalar: break;
  }
#endif
  scan_scalar(row, n, base, out);
}

// ---------------------------------------------------------------------------
// LIF membrane step
// ---------------------------------------------------------------------------

namespace {

/// Scalar tier. std::fmaf is the IEEE fused multiply-add, bit-identical to
/// the vfmadd lanes of the vector tiers whatever the libm fallback path.
std::size_t lif_scalar(const float* cur, float* mem, std::uint8_t* spikes,
                       std::size_t n, float alpha, float r, float v_th,
                       float v_rst) {
  std::size_t fired_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    float v = std::fmaf(mem[i], alpha, r * cur[i]);
    const bool fired = v >= v_th;
    spikes[i] = fired;
    v -= fired ? v_rst : 0.0f;
    mem[i] = v;
    fired_total += fired;
  }
  return fired_total;
}

#ifdef SPIKESTREAM_X86_SIMD

__attribute__((target("avx2,fma"))) std::size_t lif_avx2(
    const float* cur, float* mem, std::uint8_t* spikes, std::size_t n,
    float alpha, float r, float v_th, float v_rst) {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vr = _mm256_set1_ps(r);
  const __m256 vth = _mm256_set1_ps(v_th);
  const __m256 vrst = _mm256_set1_ps(v_rst);
  std::size_t fired_total = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_fmadd_ps(_mm256_loadu_ps(mem + i), va,
                               _mm256_mul_ps(vr, _mm256_loadu_ps(cur + i)));
    const __m256 ge = _mm256_cmp_ps(v, vth, _CMP_GE_OQ);
    v = _mm256_sub_ps(v, _mm256_and_ps(ge, vrst));
    _mm256_storeu_ps(mem + i, v);
    const unsigned bits =
        static_cast<unsigned>(_mm256_movemask_ps(ge)) & 0xffu;
    for (int j = 0; j < 8; ++j) spikes[i + j] = (bits >> j) & 1u;
    fired_total += static_cast<std::size_t>(std::popcount(bits));
  }
  return fired_total +
         lif_scalar(cur + i, mem + i, spikes + i, n - i, alpha, r, v_th,
                    v_rst);
}

__attribute__((target("avx512f,avx512bw,avx512vl"))) std::size_t lif_avx512(
    const float* cur, float* mem, std::uint8_t* spikes, std::size_t n,
    float alpha, float r, float v_th, float v_rst) {
  const __m512 va = _mm512_set1_ps(alpha);
  const __m512 vr = _mm512_set1_ps(r);
  const __m512 vth = _mm512_set1_ps(v_th);
  const __m512 vrst = _mm512_set1_ps(v_rst);
  std::size_t fired_total = 0;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 v = _mm512_fmadd_ps(_mm512_loadu_ps(mem + i), va,
                               _mm512_mul_ps(vr, _mm512_loadu_ps(cur + i)));
    const __mmask16 ge = _mm512_cmp_ps_mask(v, vth, _CMP_GE_OQ);
    v = _mm512_mask_sub_ps(v, ge, v, vrst);
    _mm512_storeu_ps(mem + i, v);
    // One 0/1 byte per mask bit, in lane order.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(spikes + i),
                     _mm_maskz_set1_epi8(ge, 1));
    fired_total += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(ge)));
  }
  return fired_total +
         lif_scalar(cur + i, mem + i, spikes + i, n - i, alpha, r, v_th,
                    v_rst);
}

#endif  // SPIKESTREAM_X86_SIMD

}  // namespace

std::size_t lif_step(const float* cur, float* mem, std::uint8_t* spikes,
                     std::size_t n, float alpha, float r, float v_th,
                     float v_rst) {
#ifdef SPIKESTREAM_X86_SIMD
  switch (active()) {
    case Tier::kAvx512:
      return lif_avx512(cur, mem, spikes, n, alpha, r, v_th, v_rst);
    case Tier::kAvx2:
      return lif_avx2(cur, mem, spikes, n, alpha, r, v_th, v_rst);
    case Tier::kScalar: break;
  }
#endif
  return lif_scalar(cur, mem, spikes, n, alpha, r, v_th, v_rst);
}

// ---------------------------------------------------------------------------
// Per-SIMD-group spike accumulate (scheduler task-cost feed)
// ---------------------------------------------------------------------------
// Sums of u8 values are exact small integers in double, so vector tiers are
// free to reduce in any shape — every tier produces identical counts.

namespace {

void groups_scalar(const std::uint8_t* row, int c, int group, int groups,
                   double* counts) {
  for (int g = 0; g < groups; ++g) {
    const int lo = g * group;
    const int hi = lo + group < c ? lo + group : c;
    double n = 0;
    for (int ch = lo; ch < hi; ++ch) n += row[ch];
    counts[g] = n;
  }
}

#ifdef SPIKESTREAM_X86_SIMD

/// Full-range-safe sum of `len` bytes (psadbw against zero).
__attribute__((target("avx2"))) std::uint64_t sum_u8_avx2(
    const std::uint8_t* p, int len) {
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  int i = 0;
  for (; i + 32 <= len; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(v, zero));
  }
  std::uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::uint64_t s = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < len; ++i) s += p[i];
  return s;
}

/// Groups of 4 bytes: 8 group sums per 32-byte load via the maddubs + madd
/// widening chain (pair sums to u16, pair-of-pair sums to u32, all within
/// 32-bit boundaries, so lane j is exactly bytes [4j, 4j + 4)).
__attribute__((target("avx2"))) void groups4_avx2(const std::uint8_t* row,
                                                  int groups, double* counts) {
  const __m256i ones8 = _mm256_set1_epi8(1);
  const __m256i ones16 = _mm256_set1_epi16(1);
  int g = 0;
  for (; g + 8 <= groups; g += 8) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + g * 4));
    const __m256i s32 =
        _mm256_madd_epi16(_mm256_maddubs_epi16(v, ones8), ones16);
    _mm256_storeu_pd(counts + g,
                     _mm256_cvtepi32_pd(_mm256_castsi256_si128(s32)));
    _mm256_storeu_pd(counts + g + 4,
                     _mm256_cvtepi32_pd(_mm256_extracti128_si256(s32, 1)));
  }
  for (; g < groups; ++g) {
    const std::uint8_t* p = row + g * 4;
    counts[g] = static_cast<double>(p[0]) + p[1] + p[2] + p[3];
  }
}

/// Groups of 8 bytes: psadbw sums each 8-byte half directly.
__attribute__((target("avx2"))) void groups8_avx2(const std::uint8_t* row,
                                                  int groups, double* counts) {
  const __m256i zero = _mm256_setzero_si256();
  int g = 0;
  for (; g + 4 <= groups; g += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + g * 8));
    const __m256i s64 = _mm256_sad_epu8(v, zero);
    std::uint64_t lanes[4];
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), s64);
    counts[g] = static_cast<double>(lanes[0]);
    counts[g + 1] = static_cast<double>(lanes[1]);
    counts[g + 2] = static_cast<double>(lanes[2]);
    counts[g + 3] = static_cast<double>(lanes[3]);
  }
  for (; g < groups; ++g) {
    std::uint64_t s = 0;
    const std::uint8_t* p = row + g * 8;
    for (int j = 0; j < 8; ++j) s += p[j];
    counts[g] = static_cast<double>(s);
  }
}

__attribute__((target("avx2"))) void groups_avx2(const std::uint8_t* row,
                                                 int c, int group, int groups,
                                                 double* counts) {
  // A partial trailing group falls back to the scalar loop for that group.
  const int full = c / group;
  const int vec_groups = full < groups ? full : groups;
  if (group == 4) {
    groups4_avx2(row, vec_groups, counts);
  } else if (group == 8) {
    groups8_avx2(row, vec_groups, counts);
  } else if (group >= 16 && group % 8 == 0) {
    for (int g = 0; g < vec_groups; ++g) {
      counts[g] = static_cast<double>(sum_u8_avx2(row + g * group, group));
    }
  } else {
    groups_scalar(row, c, group, groups, counts);
    return;
  }
  for (int g = vec_groups; g < groups; ++g) {
    const int lo = g * group;
    const int hi = lo + group < c ? lo + group : c;
    double n = 0;
    for (int ch = lo; ch < hi; ++ch) n += row[ch];
    counts[g] = n;
  }
}

__attribute__((target("avx512f,avx512bw"))) void groups_avx512(
    const std::uint8_t* row, int c, int group, int groups, double* counts) {
  const int full = c / group;
  const int vec_groups = full < groups ? full : groups;
  if (group == 8) {
    const __m512i zero = _mm512_setzero_si512();
    int g = 0;
    for (; g + 8 <= vec_groups; g += 8) {
      const __m512i v =
          _mm512_loadu_si512(reinterpret_cast<const void*>(row + g * 8));
      const __m512i s64 = _mm512_sad_epu8(v, zero);
      std::uint64_t lanes[8];
      _mm512_storeu_si512(reinterpret_cast<void*>(lanes), s64);
      for (int j = 0; j < 8; ++j) {
        counts[g + j] = static_cast<double>(lanes[j]);
      }
    }
    for (; g < vec_groups; ++g) {
      std::uint64_t s = 0;
      const std::uint8_t* p = row + g * 8;
      for (int j = 0; j < 8; ++j) s += p[j];
      counts[g] = static_cast<double>(s);
    }
    for (g = vec_groups; g < groups; ++g) {
      const int lo = g * group;
      const int hi = lo + group < c ? lo + group : c;
      double n = 0;
      for (int ch = lo; ch < hi; ++ch) n += row[ch];
      counts[g] = n;
    }
    return;
  }
  // Other widths reuse the AVX2 shapes (already fast; AVX-512 CPUs run them).
  groups_avx2(row, c, group, groups, counts);
}

#endif  // SPIKESTREAM_X86_SIMD

}  // namespace

void group_spike_counts(const std::uint8_t* row, int c, int group, int groups,
                        double* counts) {
  if (groups <= 0) return;
#ifdef SPIKESTREAM_X86_SIMD
  switch (active()) {
    case Tier::kAvx512: groups_avx512(row, c, group, groups, counts); return;
    case Tier::kAvx2: groups_avx2(row, c, group, groups, counts); return;
    case Tier::kScalar: break;
  }
#endif
  groups_scalar(row, c, group, groups, counts);
}

// ---------------------------------------------------------------------------
// Work-stealing schedule simulation (Section III-B)
// ---------------------------------------------------------------------------

namespace {

/// Scalar reference: a linear min-scan per task (core counts are single
/// digits, so it beats a heap and needs no storage).
void steal_scalar(const double* tasks, std::size_t n, int cores,
                  double steal_cost, double* core_cycles) {
  const auto nc = static_cast<std::size_t>(cores);
  for (std::size_t c = 0; c < nc; ++c) core_cycles[c] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < nc; ++c) {
      if (core_cycles[c] < core_cycles[best]) best = c;
    }
    // Same evaluation order as `time + steal_cost + t`, the historical
    // priority-queue implementation's expression.
    core_cycles[best] = core_cycles[best] + steal_cost + tasks[i];
  }
}

#ifdef SPIKESTREAM_X86_SIMD

/// Widest core count one zmm of core times holds.
constexpr int kStealLanes = 8;

/// True when the vector tier can hold `cores` core times.
bool steal_vector(int cores) {
  return cores >= 1 && cores <= kStealLanes && active() == Tier::kAvx512;
}

/// Lanes [0, cores) at 0, the rest at +inf, which never wins the minimum.
__attribute__((target("avx512f"))) __m512d steal_start(int cores) {
  return _mm512_mask_mov_pd(_mm512_set1_pd(__builtin_inf()),
                            static_cast<__mmask8>((1u << cores) - 1u),
                            _mm512_setzero_pd());
}

/// One claim: the earliest core (lowest index among the lanes equal to the
/// broadcast minimum) becomes (time + steal) + task. `time + steal` is
/// formed in every lane alongside the minimum search, off the critical
/// path; the claimed lane then takes it plus the task. The maskz forms with
/// an all-ones mask are the plain instructions; the unmasked intrinsics pass
/// an undefined vector through, which GCC flags under -Wmaybe-uninitialized.
__attribute__((target("avx512f"))) inline __m512d steal_claim(__m512d v,
                                                              __m512d steal,
                                                              double task) {
  constexpr __mmask8 kAll = 0xFF;
  const __m512d stolen = _mm512_maskz_add_pd(kAll, v, steal);
  // Minimum over the halves, then the 128-bit pairs, then the two lanes of
  // each pair: every lane ends up holding it.
  __m512d m =
      _mm512_maskz_min_pd(kAll, v, _mm512_maskz_shuffle_f64x2(kAll, v, v, 0x4E));
  m = _mm512_maskz_min_pd(kAll, m,
                          _mm512_maskz_shuffle_f64x2(kAll, m, m, 0xB1));
  m = _mm512_maskz_min_pd(kAll, m, _mm512_maskz_permute_pd(kAll, m, 0x55));
  const unsigned tied = _mm512_cmp_pd_mask(v, m, _CMP_EQ_OQ);
  const auto first = static_cast<__mmask8>(tied & (0u - tied));
  return _mm512_mask_add_pd(v, first, stolen, _mm512_set1_pd(task));
}

__attribute__((target("avx512f"))) void steal_store(__m512d v, int cores,
                                                    double* core_cycles) {
  _mm512_mask_storeu_pd(core_cycles, static_cast<__mmask8>((1u << cores) - 1u),
                        v);
}

__attribute__((target("avx512f"))) void steal_avx512(const double* tasks,
                                                     std::size_t n, int cores,
                                                     double steal_cost,
                                                     double* core_cycles) {
  const __m512d steal = _mm512_set1_pd(steal_cost);
  __m512d v = steal_start(cores);
  for (std::size_t i = 0; i < n; ++i) v = steal_claim(v, steal, tasks[i]);
  steal_store(v, cores, core_cycles);
}

/// Two lists in one loop: their claim chains are independent, so the core
/// overlaps them.
__attribute__((target("avx512f"))) void steal_pair_avx512(const StealList& a,
                                                          const StealList& b,
                                                          int cores,
                                                          double steal_cost) {
  const __m512d steal = _mm512_set1_pd(steal_cost);
  __m512d va = steal_start(cores);
  __m512d vb = va;
  const std::size_t both = a.n < b.n ? a.n : b.n;
  std::size_t i = 0;
  for (; i < both; ++i) {
    va = steal_claim(va, steal, a.tasks[i]);
    vb = steal_claim(vb, steal, b.tasks[i]);
  }
  for (std::size_t j = i; j < a.n; ++j) va = steal_claim(va, steal, a.tasks[j]);
  for (std::size_t j = i; j < b.n; ++j) vb = steal_claim(vb, steal, b.tasks[j]);
  steal_store(va, cores, a.core_cycles);
  steal_store(vb, cores, b.core_cycles);
}

#endif  // SPIKESTREAM_X86_SIMD

}  // namespace

void steal_schedule(const double* tasks, std::size_t n, int cores,
                    double steal_cost, double* core_cycles) {
#ifdef SPIKESTREAM_X86_SIMD
  if (steal_vector(cores)) {
    steal_avx512(tasks, n, cores, steal_cost, core_cycles);
    return;
  }
#endif
  steal_scalar(tasks, n, cores, steal_cost, core_cycles);
}

void steal_schedule_lists(std::span<const StealList> lists, int cores,
                          double steal_cost) {
  std::size_t i = 0;
#ifdef SPIKESTREAM_X86_SIMD
  if (steal_vector(cores)) {
    for (; i + 2 <= lists.size(); i += 2) {
      steal_pair_avx512(lists[i], lists[i + 1], cores, steal_cost);
    }
  }
#endif
  for (; i < lists.size(); ++i) {
    steal_schedule(lists[i].tasks, lists[i].n, cores, steal_cost,
                   lists[i].core_cycles);
  }
}

// ---------------------------------------------------------------------------
// IEEE binary16 narrowing (FP16 weight image)
// ---------------------------------------------------------------------------
// vcvtps2ph with an immediate round-to-nearest-even matches the scalar
// routines on every finite source (including float subnormals, which round
// to a signed zero, and overflow to Inf); vcvtph2ps widens exactly. Only NaN
// sources differ (payloads), so a block holding any source with an all-ones
// exponent runs scalar.

namespace {

void quantize_fp16_scalar(float* v, std::uint16_t* bits, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = fp16_bits_to_fp32(fp32_to_fp16_bits(v[i]));
    bits[i] = fp32_to_fp16_bits(v[i]);
  }
}

std::size_t pack_fp16_scalar(const float* v, std::uint16_t* bits,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t h = fp32_to_fp16_bits(v[i]);
    // Bit-compare so -0.0 / NaN cannot slip through an == check.
    if (std::bit_cast<std::uint32_t>(fp16_bits_to_fp32(h)) !=
        std::bit_cast<std::uint32_t>(v[i])) {
      return i;
    }
    bits[i] = h;
  }
  return n;
}

#ifdef SPIKESTREAM_X86_SIMD

constexpr std::int32_t kF32ExpMask = 0x7F800000;

// The AVX-512 tier uses the maskz conversions with an all-ones mask: they
// compile to the plain vcvtps2ph / vcvtph2ps, while the unmasked intrinsics
// pass an undefined vector through, which GCC reports under
// -Wmaybe-uninitialized.

/// Lanes of `x` (float bits) whose exponent is all ones.
__attribute__((target("avx512f"))) __mmask16 nonfinite_avx512(__m512i x) {
  const __m512i e = _mm512_set1_epi32(kF32ExpMask);
  return _mm512_cmpeq_epi32_mask(_mm512_and_si512(x, e), e);
}

__attribute__((target("avx512f"))) void quantize_fp16_avx512(
    float* v, std::uint16_t* bits, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 x = _mm512_loadu_ps(v + i);
    if (nonfinite_avx512(_mm512_castps_si512(x)) != 0) {
      quantize_fp16_scalar(v + i, bits + i, 16);
      continue;
    }
    const __m256i h =
        _mm512_maskz_cvtps_ph(0xFFFF, x, _MM_FROUND_TO_NEAREST_INT);
    _mm512_storeu_ps(v + i, _mm512_maskz_cvtph_ps(0xFFFF, h));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bits + i), h);
  }
  quantize_fp16_scalar(v + i, bits + i, n - i);
}

__attribute__((target("avx512f"))) std::size_t pack_fp16_avx512(
    const float* v, std::uint16_t* bits, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i x = _mm512_loadu_si512(reinterpret_cast<const void*>(v + i));
    const __m256i h = _mm512_maskz_cvtps_ph(0xFFFF, _mm512_castsi512_ps(x),
                                            _MM_FROUND_TO_NEAREST_INT);
    const __mmask16 exact =
        _mm512_cmpeq_epi32_mask(
            _mm512_castps_si512(_mm512_maskz_cvtph_ps(0xFFFF, h)), x) &
        static_cast<__mmask16>(~nonfinite_avx512(x));
    if (exact != 0xFFFF) {
      // A non-finite or inexact lane: the scalar routines decide the block
      // and write its bits up to the first rejection.
      const std::size_t k = pack_fp16_scalar(v + i, bits + i, 16);
      if (k != 16) return i + k;
      continue;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(bits + i), h);
  }
  return i + pack_fp16_scalar(v + i, bits + i, n - i);
}

/// Lanes of `x` (float bits) whose exponent is all ones, as 0/-1 lanes.
__attribute__((target("avx2"))) __m256i nonfinite_avx2(__m256i x) {
  const __m256i e = _mm256_set1_epi32(kF32ExpMask);
  return _mm256_cmpeq_epi32(_mm256_and_si256(x, e), e);
}

__attribute__((target("avx2,f16c"))) void quantize_fp16_avx2(
    float* v, std::uint16_t* bits, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_loadu_ps(v + i);
    if (_mm256_movemask_epi8(nonfinite_avx2(_mm256_castps_si256(x))) != 0) {
      quantize_fp16_scalar(v + i, bits + i, 8);
      continue;
    }
    const __m128i h = _mm256_cvtps_ph(x, _MM_FROUND_TO_NEAREST_INT);
    _mm256_storeu_ps(v + i, _mm256_cvtph_ps(h));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(bits + i), h);
  }
  quantize_fp16_scalar(v + i, bits + i, n - i);
}

__attribute__((target("avx2,f16c"))) std::size_t pack_fp16_avx2(
    const float* v, std::uint16_t* bits, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m128i h =
        _mm256_cvtps_ph(_mm256_castsi256_ps(x), _MM_FROUND_TO_NEAREST_INT);
    const __m256i exact = _mm256_andnot_si256(
        nonfinite_avx2(x),
        _mm256_cmpeq_epi32(_mm256_castps_si256(_mm256_cvtph_ps(h)), x));
    if (_mm256_movemask_epi8(exact) != -1) {
      // A non-finite or inexact lane: the scalar routines decide the block
      // and write its bits up to the first rejection.
      const std::size_t k = pack_fp16_scalar(v + i, bits + i, 8);
      if (k != 8) return i + k;
      continue;
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(bits + i), h);
  }
  return i + pack_fp16_scalar(v + i, bits + i, n - i);
}

#endif  // SPIKESTREAM_X86_SIMD

}  // namespace

void fp16_quantize(float* v, std::uint16_t* bits, std::size_t n) {
#ifdef SPIKESTREAM_X86_SIMD
  switch (active()) {
    case Tier::kAvx512: quantize_fp16_avx512(v, bits, n); return;
    case Tier::kAvx2: quantize_fp16_avx2(v, bits, n); return;
    case Tier::kScalar: break;
  }
#endif
  quantize_fp16_scalar(v, bits, n);
}

std::size_t fp16_pack_exact(const float* v, std::uint16_t* bits,
                            std::size_t n) {
#ifdef SPIKESTREAM_X86_SIMD
  switch (active()) {
    case Tier::kAvx512: return pack_fp16_avx512(v, bits, n);
    case Tier::kAvx2: return pack_fp16_avx2(v, bits, n);
    case Tier::kScalar: break;
  }
#endif
  return pack_fp16_scalar(v, bits, n);
}

// ---------------------------------------------------------------------------
// CRC32C checksum engine (runtime/integrity seal/verify primitive)
// ---------------------------------------------------------------------------

const char* crc_tier_name(CrcTier t) {
  switch (t) {
    case CrcTier::kTable: return "table";
    case CrcTier::kHw: return "sse42";
    case CrcTier::kHw3: return "sse42x3";
  }
  return "?";
}

namespace {

CrcTier probe_crc_max_supported() {
#ifdef SPIKESTREAM_X86_SIMD
  if (__builtin_cpu_supports("sse4.2")) {
    return CrcTier::kHw3;  // kHw3 needs nothing beyond the crc32 instruction
  }
#endif
  return CrcTier::kTable;
}

/// Forced CRC tier, or -1 when dispatch follows the CPU probe.
std::atomic<int> g_crc_forced{-1};

/// Reflected CRC32C polynomial.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

struct Crc32cTable {
  std::uint32_t t[256];
  Crc32cTable() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (c >> 1) ^ kCrc32cPoly : c >> 1;
      }
      t[i] = c;
    }
  }
};

const std::uint32_t* crc32c_table() {
  static const Crc32cTable table;
  return table.t;
}

/// Table tier on the *raw* (pre-inverted) register value.
std::uint32_t crc_table_raw(std::uint32_t crc, const std::uint8_t* p,
                            std::size_t n) {
  const std::uint32_t* t = crc32c_table();
  for (std::size_t i = 0; i < n; ++i) {
    crc = t[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

// GF(2) carryless shift: advance a raw CRC register as if `len` zero bytes
// followed (zlib's crc32_combine operator, transcribed for the Castagnoli
// polynomial). This is what lets the three-stream tier stitch independent
// chunk CRCs into the exact sequential checksum.

std::uint32_t gf2_matrix_times(const std::uint32_t* mat, std::uint32_t vec) {
  std::uint32_t sum = 0;
  while (vec != 0) {
    if (vec & 1u) sum ^= *mat;
    vec >>= 1;
    ++mat;
  }
  return sum;
}

void gf2_matrix_square(std::uint32_t* square, const std::uint32_t* mat) {
  for (int n = 0; n < 32; ++n) square[n] = gf2_matrix_times(mat, mat[n]);
}

std::uint32_t crc32c_shift_raw(std::uint32_t crc, std::size_t len) {
  if (len == 0) return crc;
  std::uint32_t even[32];  // operator for 2 zero bits
  std::uint32_t odd[32];   // operator for 1 zero bit
  odd[0] = kCrc32cPoly;
  std::uint32_t row = 1;
  for (int n = 1; n < 32; ++n) {
    odd[n] = row;
    row <<= 1;
  }
  gf2_matrix_square(even, odd);  // 2 zero bits
  gf2_matrix_square(odd, even);  // 4 zero bits
  // Square-and-multiply over the *byte* count: the first square below builds
  // the operator for one zero byte (8 bits), so bit k of `len` applies the
  // operator for 2^k zero bytes.
  std::uint32_t* pair[2] = {even, odd};
  int which = 0;
  do {
    gf2_matrix_square(pair[which], pair[which ^ 1]);
    if (len & 1u) crc = gf2_matrix_times(pair[which], crc);
    len >>= 1;
    which ^= 1;
  } while (len != 0);
  return crc;
}

#ifdef SPIKESTREAM_X86_SIMD

__attribute__((target("sse4.2"))) std::uint32_t crc_hw_raw(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  std::uint64_t c = crc;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  for (; i < n; ++i) {
    c32 = _mm_crc32_u8(c32, p[i]);
  }
  return c32;
}

/// Three interleaved crc32 chains over thirds of the buffer, recombined with
/// the GF(2) shift. Exact: crc(A||B||C) == shift(shift(crc(A), |B|) ^
/// crc0(B), |C|) ^ crc0(C), where crc0 runs on a zero-seeded register.
__attribute__((target("sse4.2"))) std::uint32_t crc_hw3_raw(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
  constexpr std::size_t kMinSplit = 3 * 64;  // below this the combine wins
  if (n < kMinSplit) return crc_hw_raw(crc, p, n);
  const std::size_t chunk = (n / 3) & ~std::size_t{7};  // whole 8-byte words
  const std::uint8_t* p0 = p;
  const std::uint8_t* p1 = p + chunk;
  const std::uint8_t* p2 = p + 2 * chunk;
  std::uint64_t c0 = crc;
  std::uint64_t c1 = 0;
  std::uint64_t c2 = 0;
  for (std::size_t i = 0; i + 8 <= chunk; i += 8) {
    std::uint64_t w0, w1, w2;
    std::memcpy(&w0, p0 + i, sizeof(w0));
    std::memcpy(&w1, p1 + i, sizeof(w1));
    std::memcpy(&w2, p2 + i, sizeof(w2));
    c0 = _mm_crc32_u64(c0, w0);
    c1 = _mm_crc32_u64(c1, w1);
    c2 = _mm_crc32_u64(c2, w2);
  }
  std::uint32_t combined =
      crc32c_shift_raw(static_cast<std::uint32_t>(c0), chunk) ^
      static_cast<std::uint32_t>(c1);
  combined = crc32c_shift_raw(combined, chunk) ^
             static_cast<std::uint32_t>(c2);
  // Tail past the three whole chunks continues on the single hardware chain.
  return crc_hw_raw(combined, p + 3 * chunk, n - 3 * chunk);
}

#endif  // SPIKESTREAM_X86_SIMD

}  // namespace

CrcTier crc_max_supported() {
  static const CrcTier t = probe_crc_max_supported();
  return t;
}

CrcTier crc_active() {
  const int f = g_crc_forced.load(std::memory_order_relaxed);
  if (f < 0) return crc_max_supported();
  return static_cast<int>(crc_max_supported()) < f
             ? crc_max_supported()
             : static_cast<CrcTier>(f);
}

CrcTier force_crc_tier(CrcTier t) {
  g_crc_forced.store(static_cast<int>(t), std::memory_order_relaxed);
  return crc_active();
}

std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t crc = seed ^ 0xFFFFFFFFu;
#ifdef SPIKESTREAM_X86_SIMD
  switch (crc_active()) {
    case CrcTier::kHw3: return crc_hw3_raw(crc, p, n) ^ 0xFFFFFFFFu;
    case CrcTier::kHw: return crc_hw_raw(crc, p, n) ^ 0xFFFFFFFFu;
    case CrcTier::kTable: break;
  }
#endif
  return crc_table_raw(crc, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace spikestream::common::simd
