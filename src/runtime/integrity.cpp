#include "runtime/integrity.hpp"

#include <algorithm>
#include <cstring>

#include "common/float_formats.hpp"

namespace spikestream::runtime {

const char* seal_point_name(SealPoint p) {
  switch (p) {
    case SealPoint::kAdmission: return "admission";
    case SealPoint::kWeights: return "weights";
    case SealPoint::kHandoff: return "handoff";
    case SealPoint::kCompletion: return "completion";
    case SealPoint::kRedundant: return "redundant";
  }
  return "?";
}

Seal seal_weights(const snn::LayerWeights& w) {
  const std::size_t float_bytes = w.v.size() * sizeof(float);
  std::uint32_t crc = common::simd::crc32c(w.v.data(), float_bytes);
  std::uint64_t bytes = float_bytes;
  if (w.half_exact && !w.half.empty()) {
    const std::size_t half_bytes = w.half.size() * sizeof(std::uint16_t);
    crc = common::simd::crc32c(w.half.data(), half_bytes, crc);
    bytes += half_bytes;
  }
  return Seal{crc, bytes};
}

void flip_weight_bit(snn::LayerWeights& w, std::uint64_t bit) {
  if (w.half_exact && !w.half.empty()) {
    // The streamed representation takes the hit; the float view is re-derived
    // so both stay consistent (and both verifiable against one seal). The
    // re-derivation is exact in both directions because half_exact means
    // every element round-trips — which also makes a second identical call
    // restore the original bits.
    const std::size_t i = static_cast<std::size_t>((bit / 16) % w.half.size());
    w.half[i] = static_cast<std::uint16_t>(w.half[i] ^ (1u << (bit % 16)));
    w.v[i] = common::fp16_bits_to_fp32(w.half[i]);
    return;
  }
  SPK_CHECK(!w.v.empty(), "flip_weight_bit on an empty weight slice");
  const std::size_t i = static_cast<std::size_t>((bit / 32) % w.v.size());
  std::uint32_t u;
  std::memcpy(&u, &w.v[i], sizeof(u));
  u ^= 1u << (bit % 32);
  std::memcpy(&w.v[i], &u, sizeof(u));
}

void flip_spike_byte(snn::SpikeMap& m, std::uint64_t byte) {
  SPK_CHECK(!m.v.empty(), "flip_spike_byte on an empty spike map");
  // Spike payloads are 0/1-valued bytes: XOR with 1 toggles the spike while
  // keeping the value domain valid — the realistic single-event upset in a
  // 1-bit payload, and involutive for retry recovery.
  m.v[static_cast<std::size_t>(byte % m.v.size())] ^= 1u;
}

void flip_membrane_bit(snn::Tensor& t, std::uint64_t bit) {
  SPK_CHECK(!t.v.empty(), "flip_membrane_bit on an empty tensor");
  const std::size_t i = static_cast<std::size_t>((bit / 32) % t.v.size());
  std::uint32_t u;
  std::memcpy(&u, &t.v[i], sizeof(u));
  u ^= 1u << (bit % 32);
  std::memcpy(&t.v[i], &u, sizeof(u));
}

// --- WaveIntegrity -----------------------------------------------------------

WaveIntegrity::WaveIntegrity(InferenceEngine& engine,
                             const IntegrityConfig& cfg,
                             std::size_t max_lanes, std::size_t max_faults)
    : engine_(engine), cfg_(cfg), admitted_(max_lanes) {
  for (auto& out : out_) out.resize(max_lanes);
  faults_.reserve(max_faults);
  for (std::size_t l = 0; cfg_.checksum_weights &&
                          l < engine_.network().num_layers(); ++l) {
    weight_seals_.push_back(seal_weights(engine_.network().weights(l)));
  }
}

void WaveIntegrity::begin_wave(std::uint64_t wave_index, bool redundant) {
  faults_.clear();
  counters_ = {};
  wave_index_ = wave_index;
  transient_failures_ = 0;
  redundant_ = redundant;
}

void WaveIntegrity::add_fault(const FaultEvent& e) {
  if (e.kind == FaultKind::kTransientWaveError) {
    transient_failures_ += std::max(1, e.failures);
  } else {
    faults_.push_back(e);
  }
}

void WaveIntegrity::verify(const Seal& got, const Seal& want,
                           const char* what, std::size_t at) {
  ++counters_.checks;
  if (got == want) return;
  ++counters_.mismatches;
  throw IntegrityFault(what + std::to_string(at));
}

std::uint64_t WaveIntegrity::toggle_weight_flips() {
  std::uint64_t n = 0;
  for (const FaultEvent& e : faults_) {
    if (fires(e, FaultKind::kWeightBitFlip)) {
      flip_weight_bit(engine_.mutable_weights(layer_of(e)), e.bit);
      ++n;
    }
  }
  return n;
}

void WaveIntegrity::flip_payload(std::size_t l, std::size_t lane,
                                 std::size_t lanes, snn::SpikeMap& m) {
  for (const FaultEvent& e : faults_) {
    if (fires(e, FaultKind::kSpikePayloadFlip) && layer_of(e) == l &&
        static_cast<std::size_t>(e.lane) % lanes == lane && !m.v.empty()) {
      flip_spike_byte(m, e.bit);
      ++counters_.injected;
    }
  }
}

void WaveIntegrity::run_attempt(int attempt, std::span<const BatchLane> lanes,
                                KeepStep keep,
                                common::FunctionRef<void(bool)> pass) {
  const std::size_t wn = lanes.size();
  attempt_ = attempt;
  keep_ = &keep;
  primary_ = true;
  std::fill_n(out_[0].begin(), wn, Seal{});
  // Weight flips are engine-global (every pass reads the same quantized
  // slices), so they are applied right before the primary pass and undone
  // right after — which both makes retries past the failure budget run
  // clean and models the shadow pass's disjoint clusters owning
  // uncorrupted weight copies.
  counters_.injected += toggle_weight_flips();
  try {
    // Admission boundary: re-seal each input and compare against the seal
    // submit() computed (corruption while queued). The modeled checker ran
    // twice per image — once at admission, once here.
    for (std::size_t i = 0; cfg_.checksum_spikes && i < wn; ++i) {
      if (lanes[i].image == nullptr) continue;
      const Seal s = seal_tensor(*lanes[i].image);
      counters_.sealed_bytes += 2 * s.bytes;
      verify(s, admitted_[i], "admission seal mismatch on lane ", i);
    }
    // Weight boundary: every slice the attempt will stream must still match
    // its construction-time seal — this is what turns an injected weight
    // flip from a silently wrong answer into a detected, retryable fault. A
    // weight_check_period > 1 amortizes the re-hash scrub-style over the
    // wave sequence (weights are static; see IntegrityConfig).
    if (cfg_.weight_check_period <= 1 ||
        wave_index_ % cfg_.weight_check_period == 0) {
      for (std::size_t l = 0; l < weight_seals_.size(); ++l) {
        const Seal s = seal_weights(engine_.network().weights(l));
        counters_.sealed_bytes += s.bytes;
        verify(s, weight_seals_[l], "weight seal mismatch at layer ", l);
      }
    }
    pass(true);
  } catch (...) {
    toggle_weight_flips();  // undo before the retry machinery runs
    throw;
  }
  toggle_weight_flips();
  if (!redundant_) return;
  counters_.ran_shadow = true;
  primary_ = false;
  std::fill_n(out_[1].begin(), wn, Seal{});
  pass(false);
  for (std::size_t i = 0; i < wn; ++i) {
    verify(out_[1][i], out_[0][i], "redundant-lane output divergence on lane ",
           i);
  }
}

void WaveIntegrity::before_layer(int t, std::size_t l,
                                 std::span<BatchLane> lanes) {
  // Membrane SDC: flip live neuron state right before the layer integrates
  // it. Unsealed path — only the redundancy compare can catch this one. No
  // undo needed: every pass starts from cleared lane state.
  for (const FaultEvent& e : faults_) {
    if (t == 0 && fires(e, FaultKind::kMembraneFlip) && layer_of(e) == l) {
      const std::size_t i = static_cast<std::size_t>(e.lane) % lanes.size();
      flip_membrane_bit(lanes[i].state->membrane(l), e.bit);
      ++counters_.injected;
    }
  }
}

void WaveIntegrity::after_layer(int t, std::size_t l,
                                std::span<BatchLane> lanes) {
  // Injected transients fire mid-wave (after the first layer already
  // dirtied lane state) so a retry genuinely exercises the reset path.
  if (primary_ && t == 0 && l == 0 && attempt_ < transient_failures_) {
    throw TransientFault("injected transient wave fault");
  }
  // Handoff boundary: seal the spike carry layer l produced, model the
  // transit (where a payload flip may land), verify on the consuming side
  // before layer l+1 integrates it.
  if (!primary_ || l + 1 >= engine_.network().num_layers() ||
      (!cfg_.checksum_spikes && faults_.empty())) {
    return;
  }
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i].carry == nullptr) continue;
    // The carry aliases lane-owned scratch; corrupting it in place is
    // exactly what NoC transit corruption does.
    auto& carry = const_cast<snn::SpikeMap&>(*lanes[i].carry);
    const Seal s = cfg_.checksum_spikes ? seal_spikes(carry) : Seal{};
    if (t == 0) flip_payload(l, i, lanes.size(), carry);
    if (cfg_.checksum_spikes) {
      const Seal v = seal_spikes(carry);
      counters_.sealed_bytes += s.bytes + v.bytes;
      verify(v, s, "handoff seal mismatch after layer ", l);
    }
  }
}

void WaveIntegrity::after_timestep(int t, std::span<BatchLane> lanes) {
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    snn::SpikeMap& fo = lanes[i].out->final_output;
    // Payload flips targeting the last layer land on the final output map
    // itself — past the last sealed handoff, before the completion seal
    // covers it, so checksum mode cannot see them (the redundancy compare
    // can; bench/integrity_profile demonstrates the escape).
    if (t == 0) {
      flip_payload(engine_.network().num_layers() - 1, i, lanes.size(), fo);
    }
    if (cfg_.checksum_spikes || redundant_) {
      Seal& seal = out_[primary_ ? 0 : 1][i];
      seal.crc = common::simd::crc32c(fo.v.data(), fo.v.size(), seal.crc);
      seal.bytes += fo.v.size();
      counters_.sealed_bytes += fo.v.size();
    }
    if (primary_) (*keep_)(i, *lanes[i].out);
  }
}

}  // namespace spikestream::runtime
