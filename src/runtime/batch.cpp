#include "runtime/batch.hpp"

#include <algorithm>
#include <thread>

#include "runtime/worker_pool.hpp"

namespace spikestream::runtime {

BatchRunner::BatchRunner(const snn::Network& net,
                         const kernels::RunOptions& opt,
                         const BackendConfig& backend,
                         const arch::EnergyParams& energy, int workers)
    : engine_(net, opt, backend, energy),
      workers_(WorkerPool::clamp_to_hardware(
          workers > 0
              ? workers
              : static_cast<int>(std::thread::hardware_concurrency()))),
      pool_(engine_.worker_pool()) {
  // Sample fan-out and shard fan-out share one set of threads, so batch
  // workers can no longer oversubscribe the host whatever the backend; when
  // the engine's backend never threads, the runner brings its own pool.
  if (pool_ == nullptr && workers_ > 1) {
    pool_ = std::make_shared<WorkerPool>(workers_ - 1);
  }
}

BatchRunner::~BatchRunner() = default;

void BatchRunner::for_samples(
    std::size_t n,
    common::FunctionRef<void(std::size_t, std::size_t)> fn) const {
  const std::size_t slots =
      std::min<std::size_t>(static_cast<std::size_t>(workers_), n);
  if (slots <= 1 || pool_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  pool_->parallel_for(n, slots, fn);
}

// Each worker slot keeps one NetworkState for the whole batch: membranes are
// cleared between samples (run_steps / run_event_stream do that) while the
// scratch arenas inside stay warm, so every sample after the first runs
// allocation-free.

std::vector<snn::NetworkState> BatchRunner::worker_states(
    std::size_t n_samples) const {
  // Must match for_samples(): slot indices run in [0, min(workers_, n)).
  std::vector<snn::NetworkState> states(
      std::min<std::size_t>(static_cast<std::size_t>(workers_),
                            std::max<std::size_t>(n_samples, 1)));
  for (auto& s : states) s = engine_.make_state();
  return states;
}

void BatchRunner::run_steps(const std::vector<snn::Tensor>& images,
                            int timesteps, KeepStep keep) const {
  const std::size_t n = images.size();
  if (n == 0 || timesteps <= 0 || engine_.network().num_layers() == 0) {
    return;
  }
  const auto lanes =
      static_cast<std::size_t>(engine_.options().segment_major_lanes);
  if (lanes > 1) {
    const std::size_t W = std::min(n, lanes);
    std::vector<snn::NetworkState> states(W);
    std::vector<InferenceResult> steps(W);
    std::vector<InferenceEngine::BatchLane> wave(W);
    for (std::size_t i = 0; i < W; ++i) {
      states[i] = engine_.make_state();
      wave[i] = {nullptr, nullptr, &states[i], &steps[i]};
    }
    run_lockstep_batch(engine_, wave, images, timesteps, pool_.get(), keep);
    return;
  }
  std::vector<snn::NetworkState> states = worker_states(n);
  std::vector<InferenceResult> steps(states.size());
  for_samples(n, [&](std::size_t worker, std::size_t i) {
    states[worker].clear();
    for (int t = 0; t < timesteps; ++t) {
      engine_.run(images[i], states[worker], steps[worker]);
      keep(i, steps[worker]);
    }
  });
}

std::vector<MultiStepResult> BatchRunner::run(
    const std::vector<snn::Tensor>& images, int timesteps) const {
  std::vector<MultiStepResult> results(images.size());
  for (MultiStepResult& r : results) r.timesteps = timesteps;
  run_steps(images, timesteps, [&](std::size_t i, const InferenceResult& s) {
    results[i].accumulate_step(s);
  });
  return results;
}

std::vector<InferenceResult> BatchRunner::run_single_step(
    const std::vector<snn::Tensor>& images) const {
  std::vector<InferenceResult> results(images.size());
  run_steps(images, 1, [&](std::size_t i, const InferenceResult& s) {
    results[i] = s;
  });
  return results;
}

std::vector<MultiStepResult> BatchRunner::run_events(
    const std::vector<std::vector<snn::SpikeMap>>& streams) const {
  std::vector<MultiStepResult> results(streams.size());
  std::vector<snn::NetworkState> states = worker_states(streams.size());
  for_samples(streams.size(), [&](std::size_t worker, std::size_t i) {
    results[i] = run_event_stream(engine_, states[worker], streams[i]);
  });
  return results;
}

}  // namespace spikestream::runtime
