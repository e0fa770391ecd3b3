// Multi-timestep inference (the regime of the Fig. 5 comparison and of most
// deployed SNNs): run T LIF timesteps over one input, accumulating output
// spike counts, runtime and energy. Membrane potentials integrate across
// timesteps inside the NetworkState; this wrapper adds rate-decoding of the
// result. The stateless overloads take an explicit NetworkState so one
// immutable engine can serve many concurrent samples (see BatchRunner).
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/function_ref.hpp"
#include "runtime/engine.hpp"
#include "snn/state.hpp"

namespace spikestream::runtime {

struct MultiStepResult {
  int timesteps = 0;
  std::vector<std::uint32_t> spike_counts;  ///< per output neuron, summed
  double total_cycles = 0;
  double total_energy_mj = 0;
  std::vector<double> cycles_per_step;

  /// Rate-decoded prediction: index of the output neuron that spiked most
  /// (ties resolve to the lowest index). Returns -1 when no output was
  /// recorded — i.e. `spike_counts` is empty because zero timesteps ran.
  int argmax() const {
    if (spike_counts.empty()) return -1;
    int best = 0;
    for (std::size_t i = 1; i < spike_counts.size(); ++i) {
      if (spike_counts[i] > spike_counts[static_cast<std::size_t>(best)]) {
        best = static_cast<int>(i);
      }
    }
    return best;
  }

  void accumulate_step(const InferenceResult& step) {
    if (spike_counts.empty()) {
      spike_counts.assign(step.final_output.size(), 0);
    }
    for (std::size_t i = 0; i < step.final_output.v.size(); ++i) {
      spike_counts[i] += step.final_output.v[i];
    }
    total_cycles += step.total_cycles;
    total_energy_mj += step.total_energy_mj;
    cycles_per_step.push_back(step.total_cycles);
  }
};

/// Present the same image for `timesteps` steps (constant-current coding via
/// the encode layer). Membranes integrate inside `state`, which is cleared
/// first.
inline MultiStepResult run_timesteps(const InferenceEngine& engine,
                                     snn::NetworkState& state,
                                     const snn::Tensor& image, int timesteps) {
  state.clear();
  MultiStepResult r;
  r.timesteps = timesteps;
  InferenceResult step;  // reused across timesteps (scratch-arena hot path)
  for (int t = 0; t < timesteps; ++t) {
    engine.run(image, state, step);
    r.accumulate_step(step);
  }
  return r;
}

/// Event-driven variant: one pre-padded spike map per timestep.
inline MultiStepResult run_event_stream(
    const InferenceEngine& engine, snn::NetworkState& state,
    const std::vector<snn::SpikeMap>& frames) {
  state.clear();
  MultiStepResult r;
  r.timesteps = static_cast<int>(frames.size());
  InferenceResult step;
  for (const auto& f : frames) {
    engine.run_events(f, state, step);
    r.accumulate_step(step);
  }
  return r;
}

/// Receives one sample's finished timestep: keep(sample, step).
using KeepStep =
    common::FunctionRef<void(std::size_t, const InferenceResult&)>;

/// Lockstep batch: `images` in waves of `lanes.size()` samples, each wave one
/// InferenceEngine::run_wave. The caller owns the lanes (their `state` and
/// `out` are kept, `image` is set per wave), and with them the weight
/// residency each lane carries from wave to wave. `keep` receives every
/// sample's result after each of its timesteps.
inline void run_lockstep_batch(const InferenceEngine& engine,
                               std::span<InferenceEngine::BatchLane> lanes,
                               const std::vector<snn::Tensor>& images,
                               int timesteps, WorkerPool* pool,
                               KeepStep keep) {
  struct Keep final : InferenceEngine::WaveHooks {
    explicit Keep(KeepStep k) : fn(k) {}
    void after_timestep(int, std::span<InferenceEngine::BatchLane> wave)
        override {
      for (std::size_t i = 0; i < wave.size(); ++i) fn(first + i, *wave[i].out);
    }
    KeepStep fn;
    std::size_t first = 0;  ///< sample index of the wave's lane 0
  } hooks(keep);
  const std::size_t W = lanes.size();
  for (std::size_t w0 = 0; w0 < images.size(); w0 += W) {
    const std::size_t wn = std::min(W, images.size() - w0);
    for (std::size_t i = 0; i < wn; ++i) lanes[i].image = &images[w0 + i];
    hooks.first = w0;
    engine.run_wave(lanes.first(wn), timesteps, pool, &hooks);
  }
}

/// Stateful conveniences: run on the engine's internal state (resets first).
inline MultiStepResult run_timesteps(InferenceEngine& engine,
                                     const snn::Tensor& image, int timesteps) {
  snn::NetworkState state = engine.make_state();
  return run_timesteps(engine, state, image, timesteps);
}

inline MultiStepResult run_event_stream(
    InferenceEngine& engine, const std::vector<snn::SpikeMap>& frames) {
  snn::NetworkState state = engine.make_state();
  return run_event_stream(engine, state, frames);
}

}  // namespace spikestream::runtime
