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
  // Sample fan-out: samples are claimed off the pool by at most `workers_`
  // slots, and each slot keeps one NetworkState for the whole batch.
  // Membranes are cleared between samples while the scratch arenas inside
  // stay warm, so every sample after the first runs allocation-free.
  const std::size_t slots =
      std::min<std::size_t>(static_cast<std::size_t>(workers_), n);
  std::vector<snn::NetworkState> states(slots);
  for (auto& s : states) s = engine_.make_state();
  std::vector<InferenceResult> steps(slots);
  auto run_sample = [&](std::size_t slot, std::size_t i) {
    states[slot].clear();
    for (int t = 0; t < timesteps; ++t) {
      engine_.run(images[i], states[slot], steps[slot]);
      keep(i, steps[slot]);
    }
  };
  if (slots <= 1 || pool_ == nullptr) {
    for (std::size_t i = 0; i < n; ++i) run_sample(0, i);
  } else {
    pool_->parallel_for(n, slots, run_sample);
  }
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

}  // namespace spikestream::runtime
