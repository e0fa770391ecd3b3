// End-to-end data-integrity layer for the serving stack (PR-10).
//
// Threat model: silent data corruption — bit flips in weight tiles, spike
// payloads in NoC transit, live membrane state — produces *wrong answers*,
// not exceptions. The fault-injection machinery (runtime/faults.hpp) can now
// plant exactly those flips deterministically; this header provides the
// defense: CRC32C seals on every dataflow domain boundary plus a
// redundant-execution mode for the state no seal can cover.
//
//   admission ──seal(image)──▶ wave formation ──verify──▶ layer 0
//        layer l ──seal(carry)──▶ cluster handoff ──verify──▶ layer l+1
//        last layer ──seal(output)──▶ completion (seal published to caller)
//
// A seal is computed on the producing side of a boundary and verified on the
// consuming side; corruption in between fails the verify with an
// IntegrityFault. IntegrityFault derives from TransientFault on purpose: the
// server's existing bounded-retry containment catches it, resets the wave's
// lanes and re-runs from timestep 0 — and because every injected data fault
// is undone (weights) or regenerated (spikes, membranes) between attempts,
// the retried wave completes bit-identical to an unfaulted one. Only when
// retries exhaust while mismatches persist do the wave's requests end in the
// kCorrupted terminal state (distinct from kError: the caller knows the
// failure was a detected-integrity one, not a crash).
//
// Membranes are live neuron state, rewritten every timestep — there is no
// producer/consumer boundary to seal. The redundant-lane mode covers them:
// the wave executes twice and the per-timestep output seals of the two
// passes must agree (on real hardware the passes land on disjoint clusters,
// so a localized SPM flip perturbs only one of them).
//
// Everything here is off by default and the checks are pure observers —
// with IntegrityConfig all-false no seal is computed, no counter moves and
// every historical spike stream and BENCH number stays bit-exact (the same
// contract arch::EccConfig and DramConfig::flat_legacy honor).
//
// The CRC itself is common::simd::crc32c — the SIMD-tiered Castagnoli engine
// (table / SSE4.2 / 3-stream interleaved) with the standard chaining
// identity, so seals are host-independent and tier-independent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/function_ref.hpp"
#include "common/simd.hpp"
#include "runtime/engine.hpp"
#include "runtime/faults.hpp"
#include "runtime/multistep.hpp"
#include "snn/network.hpp"
#include "snn/tensor.hpp"

namespace spikestream::runtime {

/// Detected data corruption: a checksum mismatch on a sealed boundary or a
/// redundant-lane divergence. Subclasses TransientFault so the server's
/// retry-with-backoff containment re-runs the wave; exhausted retries with
/// the mismatch persisting end the requests in kCorrupted.
class IntegrityFault : public TransientFault {
 public:
  explicit IntegrityFault(const std::string& what) : TransientFault(what) {}
};

/// Where a seal guards the dataflow (names for fault messages and reports).
enum class SealPoint {
  kAdmission,   ///< input image, sealed at submit(), verified at wave start
  kWeights,     ///< per-layer weight slice, sealed once, verified per attempt
  kHandoff,     ///< spike carry crossing a layer/cluster boundary
  kCompletion,  ///< final output map, seal published with the result
  kRedundant,   ///< primary-vs-shadow per-timestep output comparison
};

const char* seal_point_name(SealPoint p);

/// CRC32C checksum + length of one sealed buffer. Two buffers with equal
/// seals are byte-identical up to CRC32C collision odds; the length guard
/// also catches truncation, which a bare CRC of a shorter prefix would not.
struct Seal {
  std::uint32_t crc = 0;
  std::uint64_t bytes = 0;

  bool operator==(const Seal& o) const {
    return crc == o.crc && bytes == o.bytes;
  }
  bool operator!=(const Seal& o) const { return !(*this == o); }
};

inline Seal seal_bytes(const void* data, std::size_t n) {
  return Seal{common::simd::crc32c(data, n), static_cast<std::uint64_t>(n)};
}

/// Seal a spike map's payload (the 0/1 bytes the consumer integrates).
inline Seal seal_spikes(const snn::SpikeMap& m) {
  return seal_bytes(m.v.data(), m.v.size() * sizeof(std::uint8_t));
}

/// Seal a dense float tensor (input images, membrane snapshots in tests).
inline Seal seal_tensor(const snn::Tensor& t) {
  return seal_bytes(t.v.data(), t.v.size() * sizeof(float));
}

/// Seal a layer's weight slice: the float buffer chained with the streamed
/// half-precision image (when present), so a flip in either representation
/// fails the verify.
Seal seal_weights(const snn::LayerWeights& w);

/// Protection switches for the serving path. All off by default — the
/// bit-exactness contract. crc_bytes_per_cycle prices the modeled checker
/// (a by-8 slice-by-3 CRC32C engine keeps up with the 64 B/cycle DMA port),
/// feeding ServerStats::crc_cycles so benches can report seal overhead.
struct IntegrityConfig {
  /// Seal spike-path boundaries: admission images, layer-to-layer carries,
  /// final outputs. Verified where the data is consumed; the completion seal
  /// is published on the request for the caller's own end-to-end check.
  bool checksum_spikes = false;
  /// Seal every layer's weight slice at server construction and verify
  /// before a wave attempt touches it (catches SPM weight-tile rot).
  bool checksum_weights = false;
  /// Verify the golden weight seals every Nth wave (1 = every wave). Weights
  /// are static, so re-hashing all slices per wave is the dominant checker
  /// cost on big nets; a longer period amortizes it scrub-style at the price
  /// of a detection window — a flip landing between verified waves is served
  /// before the next check catches the rot. Spike-path seals are unaffected
  /// (live data is always checked at every boundary).
  std::uint64_t weight_check_period = 1;
  /// Execute every wave twice and require the per-timestep output seals of
  /// the two passes to agree. The only defense that covers membrane state;
  /// costs ~2x compute. (ServeRequest::redundant opts a single request's
  /// wave in without flipping the global default.)
  bool redundant_lanes = false;
  /// Modeled CRC checker throughput (bytes/cycle) for the crc_cycles stat.
  double crc_bytes_per_cycle = 64.0;

  bool any() const {
    return checksum_spikes || checksum_weights || redundant_lanes;
  }
};

// --- SDC injection primitives ----------------------------------------------
// The server uses these to realize FaultPlan data events. All three are
// involutive (a second identical call restores the buffer exactly), which is
// what makes injected faults retry-recoverable without snapshotting.

/// Flip one bit of one quantized weight of `w`, keeping the float and
/// half-precision representations consistent (when the half image is exact,
/// the flip lands in the streamed half bits and the float view is re-derived;
/// otherwise the float bits take the flip directly). `bit` is reduced mod
/// the representation's total bit count.
void flip_weight_bit(snn::LayerWeights& w, std::uint64_t bit);

/// Toggle one spike byte (0 <-> 1) of a carry map. `byte` reduced mod size.
void flip_spike_byte(snn::SpikeMap& m, std::uint64_t byte);

/// Flip one bit of one membrane potential. `bit` reduced mod the tensor's
/// total float-bit count.
void flip_membrane_bit(snn::Tensor& t, std::uint64_t bit);

// --- the serving wave's integrity protocol ---------------------------------

/// One wave's integrity accounting, flushed into ServerStats by the server.
struct IntegrityCounters {
  std::uint64_t checks = 0;        ///< seal verifications performed
  std::uint64_t mismatches = 0;    ///< verifications that failed
  std::uint64_t injected = 0;      ///< data-fault flips physically applied
  std::uint64_t sealed_bytes = 0;  ///< bytes sealed or verified
  bool ran_shadow = false;         ///< the wave ran a redundant shadow pass
};

/// What one served wave does besides executing: it injects the FaultPlan
/// events that strike inside the wave body (transient throws and weight /
/// spike / membrane flips) and checks the seals that catch them. Inside a
/// pass these are run_wave hooks: membrane flips before a layer; the plan's
/// transient, the handoff seal and payload flips after one; output flips
/// and the chained completion seal after each timestep. Around the passes,
/// run_attempt handles weight flips, the admission and weight seals and the
/// redundant compare. Injections land only on the primary pass of an
/// event's leading `failures` attempts.
class WaveIntegrity : public InferenceEngine::WaveHooks {
 public:
  using BatchLane = InferenceEngine::BatchLane;

  /// Seals every weight slice when checksum_weights is armed (construction
  /// is the trust anchor: nothing has run yet); sizes buffers for waves of
  /// up to `max_lanes` lanes and `max_faults` events.
  WaveIntegrity(InferenceEngine& engine, const IntegrityConfig& cfg,
                std::size_t max_lanes, std::size_t max_faults);

  /// The seal submit() puts on a request's input: Seal{} unless
  /// checksum_spikes is armed. Thread-safe (client threads call it).
  Seal admission_seal(const snn::Tensor* image) const {
    return cfg_.checksum_spikes && image ? seal_tensor(*image) : Seal{};
  }

  /// Arm the next wave: zero the counters, drop the last wave's events.
  /// `wave_index` paces weight_check_period; `redundant` adds a shadow pass.
  void begin_wave(std::uint64_t wave_index, bool redundant);
  /// Schedule a transient or data event on the armed wave. The wave's
  /// leading attempts throw TransientFault, as many as its transient events
  /// ask for in total.
  void add_fault(const FaultEvent& e);
  /// Lane `i`'s input seal, as submit() computed it.
  void admit(std::size_t i, const Seal& s) { admitted_[i] = s; }

  /// One attempt of the armed wave: plant its weight flips, verify the
  /// admission and weight seals, run `pass(true)` (the primary pass, with
  /// this object as its hooks and each lane's finished timestep handed to
  /// `keep`), undo the flips; on a redundant wave run `pass(false)` and
  /// compare the output seals. Throws IntegrityFault on a mismatch (weights
  /// restored) and TransientFault on a scheduled transient.
  void run_attempt(int attempt, std::span<const BatchLane> lanes,
                   KeepStep keep, common::FunctionRef<void(bool)> pass);

  /// Lane `i`'s chained output seal from the last primary pass.
  Seal output_seal(std::size_t i) const { return out_[0][i]; }
  const IntegrityCounters& counters() const { return counters_; }

  void before_layer(int t, std::size_t l,
                    std::span<BatchLane> lanes) override;
  void after_layer(int t, std::size_t l, std::span<BatchLane> lanes) override;
  void after_timestep(int t, std::span<BatchLane> lanes) override;

 private:
  /// `e` is a `kind` event corrupting the current pass.
  bool fires(const FaultEvent& e, FaultKind kind) const {
    return primary_ && e.kind == kind && attempt_ < e.failures;
  }
  std::size_t layer_of(const FaultEvent& e) const {
    return static_cast<std::size_t>(e.layer) % engine_.network().num_layers();
  }
  /// Count a seal check; on a mismatch throw IntegrityFault(what + at).
  void verify(const Seal& got, const Seal& want, const char* what,
              std::size_t at);
  /// Toggle the attempt's weight flips (a second call restores the weights);
  /// returns how many it toggled.
  std::uint64_t toggle_weight_flips();
  /// Plant the payload flips aimed at layer `l`'s output on lane `lane`.
  void flip_payload(std::size_t l, std::size_t lane, std::size_t lanes,
                    snn::SpikeMap& m);

  InferenceEngine& engine_;
  IntegrityConfig cfg_;
  std::vector<Seal> weight_seals_;  ///< golden, from construction
  std::vector<FaultEvent> faults_;  ///< the armed wave's data events
  std::vector<Seal> admitted_;      ///< per lane, from submit()
  std::vector<Seal> out_[2];        ///< per lane: primary, shadow pass
  IntegrityCounters counters_;
  const KeepStep* keep_ = nullptr;  ///< valid inside run_attempt only
  std::uint64_t wave_index_ = 0;
  int transient_failures_ = 0;
  bool redundant_ = false;
  bool primary_ = true;
  int attempt_ = 0;
};

}  // namespace spikestream::runtime
