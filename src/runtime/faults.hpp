// Deterministic fault injection for the serving stack. A FaultPlan is a
// schedule of fault events keyed by *wave index* — the dispatcher's dense
// per-fired-wave counter — never by wall-clock time, so a given plan replays
// identically on any host at any speed (the same reproducibility contract
// the seeded input generators honor).
//
// Four fault kinds, mirroring the failure domains of a multi-cluster part:
//
//  * kClusterFailStop   — a cluster drops out of the active set for good.
//    The sharded backend re-plans every prepared layer over the survivors
//    and publishes the result as a new plan epoch, so modeled cycles
//    reflect the lost capacity while spikes stay bit-identical.
//  * kClusterSlowdown   — a straggler: one cluster's shard service time is
//    multiplied by `factor` (thermal throttling, a flaky DRAM channel).
//  * kLinkDegrade       — one cluster's NoC injection/ejection links run at
//    1/factor bandwidth (a marginal SerDes lane dropping down-training).
//  * kTransientWaveError — the first `failures` execution attempts of one
//    wave throw TransientFault mid-wave (an ECC burst, a watchdog trip).
//    The server contains the throw, resets the wave's lanes and retries
//    with bounded backoff; the engine is deterministic, so a retried wave
//    completes bit-identical to an unfaulted one.
//
// Three *silent data corruption* kinds (PR-10, the data-plane threat model —
// these produce wrong answers, not exceptions, unless a protection mode from
// runtime/integrity.hpp is armed):
//
//  * kWeightBitFlip     — one bit of one quantized weight of layer `layer`
//    flips (a stale or damaged SPM weight tile). Applied to the live engine
//    weights for the first `failures` attempts of the wave and restored
//    after each attempt, so a retry past the failure budget runs clean.
//  * kSpikePayloadFlip  — one spike byte of the map handed from layer
//    `layer` to its consumer toggles (corruption in NoC transit). Targets
//    wave lane `lane` (mod occupied lanes).
//  * kMembraneFlip      — one bit of a membrane potential of layer `layer`
//    flips just before the layer integrates it (an SPM soft error in live
//    neuron state). Lane-targeted like the payload flip. Membranes are not
//    a sealed path: only redundant-lane execution catches this one.
//
// All three reuse the zero-wall-clock-randomness contract: deterministic
// (wave, layer, bit, lane) targeting, seeded chaos via chaos_data(), and
// retry-recoverable because every attempt restores/regenerates the buffer.
//
// The plan is pure data: the InferenceServer applies structural events to
// its ShardedBackend at wave boundaries; transient throws and data flips are
// injected inside the wave body by runtime/integrity.hpp's WaveIntegrity
// hooks. Tests and benches can also drive the backend's fault surface
// (fail_cluster / set_cluster_slowdown / set_link_degrade) directly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"

namespace spikestream::runtime {

/// A retryable wave-scope failure. The server's containment distinguishes it
/// from spikestream::Error: TransientFault retries (bounded, with backoff),
/// anything else fails the wave's requests immediately.
class TransientFault : public Error {
 public:
  explicit TransientFault(const std::string& what) : Error(what) {}
};

enum class FaultKind {
  kClusterFailStop,
  kClusterSlowdown,
  kLinkDegrade,
  kTransientWaveError,
  kWeightBitFlip,     ///< SDC in a weight slice (sealed path)
  kSpikePayloadFlip,  ///< SDC in a spike map crossing a cluster handoff
  kMembraneFlip,      ///< SDC in live membrane state (unsealed path)
};

const char* fault_kind_name(FaultKind k);

/// True for the silent-data-corruption kinds (bit/byte flips in live
/// buffers), which are injected inside the wave body rather than applied at
/// the wave boundary.
constexpr bool is_data_fault(FaultKind k) {
  return k == FaultKind::kWeightBitFlip || k == FaultKind::kSpikePayloadFlip ||
         k == FaultKind::kMembraneFlip;
}

struct FaultEvent {
  FaultKind kind = FaultKind::kTransientWaveError;
  /// Wave index at which the event fires. Structural events (fail-stop /
  /// slowdown / link derate) apply once, before the wave executes; a
  /// transient event makes that wave's leading attempts throw; a data fault
  /// corrupts that wave's leading attempts and is undone between attempts.
  std::uint64_t wave = 0;
  int cluster = -1;     ///< target cluster (structural kinds)
  double factor = 1.0;  ///< slowdown multiple / link bandwidth derate (>= 1)
  int failures = 1;     ///< transient/data: attempts of the wave affected
  // --- data-corruption targeting (is_data_fault kinds only) -----------------
  int layer = 0;          ///< target layer
  std::uint64_t bit = 0;  ///< bit (weights/membrane) or byte (spikes) index,
                          ///< reduced mod the target buffer's size at apply
  int lane = 0;           ///< target wave lane, mod occupied lanes
};

/// Sorted deterministic fault schedule. Builders keep the event list ordered
/// by wave (stable for equal waves), so the server consumes it with a single
/// monotonic cursor.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add(const FaultEvent& e);
  FaultPlan& kill_cluster(int cluster, std::uint64_t wave);
  FaultPlan& slow_cluster(int cluster, double factor, std::uint64_t wave);
  FaultPlan& degrade_link(int cluster, double factor, std::uint64_t wave);
  FaultPlan& transient_error(std::uint64_t wave, int failures = 1);
  // Data-corruption builders (see the header comment's threat model).
  FaultPlan& flip_weight(int layer, std::uint64_t bit, std::uint64_t wave,
                         int failures = 1);
  FaultPlan& flip_spikes(int layer, std::uint64_t byte, std::uint64_t wave,
                         int lane = 0, int failures = 1);
  FaultPlan& flip_membrane(int layer, std::uint64_t bit, std::uint64_t wave,
                           int lane = 0, int failures = 1);

  /// Seeded random schedule of `events` faults over waves [0, waves) against
  /// `clusters` clusters — chaos-monkey mode for soak tests. Deterministic:
  /// the same arguments always produce the same plan. At most clusters - 1
  /// fail-stops are drawn so the fleet never loses its last cluster.
  static FaultPlan chaos(std::uint64_t seed, std::uint64_t waves, int clusters,
                         int events);

  /// Seeded random schedule of `events` *data-corruption* faults (weight /
  /// spike-payload / membrane flips) over waves [0, waves) targeting layers
  /// [0, layers) and lanes [0, lanes). Deterministic like chaos(), and a
  /// separate draw sequence so existing chaos() plans stay byte-identical.
  /// Merge the two by add()ing one plan's events() into the other.
  static FaultPlan chaos_data(std::uint64_t seed, std::uint64_t waves,
                              int layers, int lanes, int events);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  /// All events, sorted by wave.
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Total attempts of `wave` that must throw (sum over transient events
  /// scheduled at exactly this wave).
  int transient_failures_at(std::uint64_t wave) const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace spikestream::runtime
