// Runtime-dispatched host SIMD kernels for the simulator hot loops: the CSR
// nonzero-byte scan (ifmap compression), the LIF membrane step, the dense
// per-SIMD-group spike accumulate that feeds the schedule simulation and the
// work-stealing schedule simulation itself — plus the float -> binary16
// narrowing that builds the FP16 weight image at engine construction. Each
// kernel has a scalar reference implementation plus AVX2 and/or AVX-512
// variants compiled with function-level target attributes, so one portable
// binary carries every tier and picks the widest one the running CPU
// supports (probed once via cpuid).
//
// Bit-exactness contract: every tier of a kernel produces byte-identical
// output for identical input — the vector paths are lane-wise transcriptions
// of the scalar loop, never reassociations of it (tests/test_simd.cpp pins
// all tiers against the scalar one on randomized inputs). The LIF step fuses
// mem * alpha + (r * cur) with a real FMA in every tier (std::fmaf on the
// scalar path), so the arithmetic is identical whether the hardware runs
// vfmadd231ps or the libm fallback.
//
// `force_tier()` exists for tests and A/B profiling only; it clamps to what
// the CPU supports, so forcing kAvx512 on an AVX2 machine yields kAvx2.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace spikestream::common::simd {

enum class Tier {
  kScalar = 0,
  kAvx2 = 1,    ///< AVX2 + FMA + F16C
  kAvx512 = 2,  ///< AVX-512 F + BW
};

const char* tier_name(Tier t);

/// Widest tier the running CPU supports (probed once, cached).
Tier max_supported();

/// The tier kernels currently dispatch to: min(max_supported, forced).
Tier active();

/// Test/bench hook: pin dispatch to `t` (clamped to max_supported()).
/// Returns the tier actually in effect.
Tier force_tier(Tier t);

// --- kernels ----------------------------------------------------------------

/// Append the indices (offset `base`) of all nonzero bytes in `row[0..n)` to
/// `out`, in ascending order — the inner loop of CsrIfmap::encode_into. Any
/// nonzero byte counts as a spike, exactly like the scalar tail.
void append_nonzero_u8(const std::uint8_t* row, int n, std::uint16_t base,
                       std::vector<std::uint16_t>& out);

/// One LIF step over `n` neurons: v = fma(mem, alpha, r * cur); fired =
/// v >= v_th; v -= fired ? v_rst : 0. Writes spikes (0/1 bytes), updates
/// `mem` in place, returns the number of neurons that fired.
std::size_t lif_step(const float* cur, float* mem, std::uint8_t* spikes,
                     std::size_t n, float alpha, float r, float v_th,
                     float v_rst);

/// Per-SIMD-group spike counts over one dense output row: counts[g] =
/// sum(row[g * group .. min((g + 1) * group, c))) as a double (sums of
/// small integers — exact in every summation order, so vector paths may
/// reduce in any shape). The dense accumulate feeding the scheduler's
/// per-group task costs.
void group_spike_counts(const std::uint8_t* row, int c, int group, int groups,
                        double* counts);

// --- Work-stealing schedule simulation --------------------------------------
// Greedy list scheduling of the Section III-B work stealing
// (kernels/scheduler.hpp): every core starts at 0; each task, in order, goes
// to the earliest-free core (lowest index on ties), whose time becomes
// (time + steal_cost) + task. On 1-8 cores the kAvx512 tier keeps the core
// times in one zmm (unused lanes at +inf): the earliest core is the first set
// bit of the mask of lanes equal to the broadcast minimum, and it takes
// (time + steal_cost) + task with the scalar expression's two roundings in
// its order, so every tier is bit-identical for finite costs. Above 8 cores,
// and on the other tiers, the scalar loop runs.

/// One independent task list of steal_schedule_lists.
struct StealList {
  const double* tasks = nullptr;
  std::size_t n = 0;
  double* core_cycles = nullptr;  ///< out: `cores` finish times
};

/// Schedule tasks[0..n) onto `cores` cores; writes core_cycles[0..cores).
void steal_schedule(const double* tasks, std::size_t n, int cores,
                    double steal_cost, double* core_cycles);

/// Several independent schedules on the same core count and steal cost,
/// advanced two at a time so each list's dependency chain hides the
/// other's latency. Every list gets exactly what steal_schedule gives it.
void steal_schedule_lists(std::span<const StealList> lists, int cores,
                          double steal_cost);

// --- IEEE binary16 narrowing ------------------------------------------------
// Float -> binary16 with round-to-nearest-even: vcvtps2ph over 16 lanes
// (kAvx512) or 8 (kAvx2, F16C); the scalar tier is the reference routines
// common::fp32_to_fp16_bits / fp16_bits_to_fp32. Those routines turn every
// NaN into one canonical pattern while vcvtps2ph keeps payloads, so a vector
// block holding any Inf/NaN source (exponent all ones) goes through the scalar
// routines: every tier writes the same bits and floats for every input.

/// Quantize mode: v[i] = fp16_bits_to_fp32(fp32_to_fp16_bits(v[i])) in place
/// and bits[i] = fp32_to_fp16_bits(v[i]) of that rounded value, whose
/// round trip is exact by construction.
void fp16_quantize(float* v, std::uint16_t* bits, std::size_t n);

/// Pack-if-exact mode: bits[i] = fp32_to_fp16_bits(v[i]) while v[i]
/// round-trips float -> binary16 -> float bit-exactly. Returns `n` when every
/// element does, else the index k of the first one that does not; bits[0..k)
/// are written either way.
std::size_t fp16_pack_exact(const float* v, std::uint16_t* bits,
                            std::size_t n);

// --- CRC32C checksum engine -------------------------------------------------
// The seal/verify primitive of the data-integrity subsystem
// (runtime/integrity.hpp): CRC32C (Castagnoli polynomial 0x1EDC6F41,
// reflected 0x82F63B78) over a byte buffer. Dispatched exactly like the
// kernels above, with its own tier ladder because the relevant ISA feature is
// SSE4.2's crc32 instruction, not the AVX vector width:
//
//  * kTable   — byte-at-a-time table reference (any CPU).
//  * kHw      — one _mm_crc32_u64 dependency chain, 8 bytes per step.
//  * kHw3     — three interleaved _mm_crc32_u64 chains over thirds of the
//    buffer (the crc32 instruction has 3-cycle latency / 1-cycle throughput,
//    so independent chains triple the sustained rate), recombined with a
//    GF(2) carryless shift — the same trick the wide AVX-512+VPCLMULQDQ
//    implementations build on.
//
// Every tier returns the identical checksum for identical input (the combine
// step is an exact algebraic identity, not an approximation); test_integrity
// pins all tiers against the table one on randomized buffers.

enum class CrcTier {
  kTable = 0,  ///< portable table-driven reference
  kHw = 1,     ///< SSE4.2 crc32 instruction, single stream
  kHw3 = 2,    ///< SSE4.2 crc32, three interleaved streams + GF(2) combine
};

const char* crc_tier_name(CrcTier t);

/// Widest CRC tier the running CPU supports (probed once, cached).
CrcTier crc_max_supported();

/// The tier crc32c() currently dispatches to: min(crc_max_supported, forced).
CrcTier crc_active();

/// Test/bench hook: pin CRC dispatch to `t` (clamped to crc_max_supported()).
/// Returns the tier actually in effect.
CrcTier force_crc_tier(CrcTier t);

/// CRC32C of `data[0..n)`, chained: pass a previous crc32c() result as
/// `seed` to checksum a logical concatenation incrementally
/// (crc32c(b, nb, crc32c(a, na)) == crc32c(a||b)). Seed 0 starts fresh.
std::uint32_t crc32c(const void* data, std::size_t n, std::uint32_t seed = 0);

}  // namespace spikestream::common::simd
