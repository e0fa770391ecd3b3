#include "runtime/pipeline.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "runtime/worker_pool.hpp"

namespace spikestream::runtime {

PipelinedBatchRunner::PipelinedBatchRunner(const snn::Network& net,
                                           const kernels::RunOptions& opt,
                                           const BackendConfig& backend,
                                           const arch::EnergyParams& energy,
                                           int depth, int workers)
    : engine_(net, opt, backend, energy),
      depth_(std::max(1, depth)),
      pool_(engine_.worker_pool()) {
  // Row-tile fan-out and shard fan-out share one set of threads (like
  // BatchRunner); when the engine's backend never threads, the runner brings
  // its own pool sized for the requested worker count.
  const int w = WorkerPool::clamp_to_hardware(
      workers > 0 ? workers
                  : static_cast<int>(std::thread::hardware_concurrency()));
  if (pool_ == nullptr && w > 1) {
    pool_ = std::make_shared<WorkerPool>(w - 1);
  }
}

PipelinedBatchRunner::~PipelinedBatchRunner() = default;

std::vector<PipelinedBatchRunner::Lane> PipelinedBatchRunner::borrow_lanes(
    std::size_t want) const {
  std::vector<Lane> lanes;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    lanes.swap(lane_cache_);  // empty if another run holds the cache
  }
  while (lanes.size() < want) {
    lanes.emplace_back();
    lanes.back().state = engine_.make_state();
  }
  return lanes;
}

void PipelinedBatchRunner::return_lanes(std::vector<Lane>&& lanes) const {
  std::lock_guard<std::mutex> lock(lanes_mu_);
  if (lane_cache_.empty()) lane_cache_ = std::move(lanes);
}

void PipelinedBatchRunner::run_steps(const std::vector<snn::Tensor>& images,
                                     int timesteps, KeepStep keep) const {
  if (images.empty() || timesteps <= 0 ||
      engine_.network().num_layers() == 0) {
    return;
  }
  // A short call runs on the first lanes only; the rest stay in the cache
  // with their weight residency.
  const std::size_t want =
      std::min(static_cast<std::size_t>(depth_), images.size());
  std::vector<Lane> lanes = borrow_lanes(want);
  std::vector<InferenceEngine::BatchLane> wave;
  wave.reserve(want);
  for (std::size_t i = 0; i < want; ++i) {
    wave.push_back({nullptr, nullptr, &lanes[i].state, &lanes[i].step});
  }
  run_lockstep_batch(engine_, wave, images, timesteps, pool_.get(), keep);
  return_lanes(std::move(lanes));
}

std::vector<MultiStepResult> PipelinedBatchRunner::run(
    const std::vector<snn::Tensor>& images, int timesteps) const {
  std::vector<MultiStepResult> results(images.size());
  for (MultiStepResult& r : results) r.timesteps = timesteps;
  run_steps(images, timesteps, [&](std::size_t i, const InferenceResult& s) {
    results[i].accumulate_step(s);
  });
  return results;
}

std::vector<InferenceResult> PipelinedBatchRunner::run_single_step(
    const std::vector<snn::Tensor>& images) const {
  std::vector<InferenceResult> results(images.size());
  run_steps(images, 1, [&](std::size_t i, const InferenceResult& s) {
    results[i] = s;
  });
  return results;
}

}  // namespace spikestream::runtime
