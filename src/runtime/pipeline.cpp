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
  // Stage fan-out and shard fan-out share one set of threads (like
  // BatchRunner); when the engine's backend never threads, the runner brings
  // its own pool sized for the requested worker count.
  const int w = WorkerPool::clamp_to_hardware(
      workers > 0 ? workers
                  : static_cast<int>(std::thread::hardware_concurrency()));
  if (pool_ == nullptr && w > 1 && depth_ > 1) {
    pool_ = std::make_shared<WorkerPool>(w - 1);
  }
}

PipelinedBatchRunner::~PipelinedBatchRunner() = default;

std::vector<PipelinedBatchRunner::Lane> PipelinedBatchRunner::borrow_lanes(
    std::size_t n_samples) const {
  std::vector<Lane> lanes;
  {
    std::lock_guard<std::mutex> lock(lanes_mu_);
    lanes.swap(lane_cache_);  // empty if another run holds the cache
  }
  const std::size_t want = std::min<std::size_t>(
      static_cast<std::size_t>(depth_), std::max<std::size_t>(n_samples, 1));
  if (lanes.size() > want) lanes.resize(want);
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

void PipelinedBatchRunner::run_stages(
    std::size_t n, std::size_t stages,
    common::FunctionRef<void(std::size_t, std::size_t, Lane&)> step,
    std::vector<Lane>& lanes) const {
  if (n == 0 || stages == 0) return;
  const std::size_t depth = lanes.size();

  // Start tick of every sample: one sample enters per tick while a pipeline
  // lane is free; sample i reuses the lane of sample i - depth and therefore
  // waits until that sample fully drained. In-flight samples are always a
  // window of at most `depth` consecutive indices, so `i % depth` lanes never
  // alias within a tick.
  std::vector<std::size_t> start(n);
  for (std::size_t i = 0; i < n; ++i) {
    start[i] = i < depth
                   ? i
                   : std::max(start[i - 1] + 1, start[i - depth] + stages);
  }

  std::vector<std::pair<std::size_t, std::size_t>> active;  // (sample, stage)
  active.reserve(depth);
  std::size_t w_lo = 0, w_hi = 0;
  const std::size_t end_tick = start[n - 1] + stages;
  for (std::size_t tick = 0; tick < end_tick; ++tick) {
    while (w_lo < n && start[w_lo] + stages <= tick) ++w_lo;
    while (w_hi < n && start[w_hi] <= tick) ++w_hi;
    active.clear();
    for (std::size_t i = w_lo; i < w_hi; ++i) {
      active.emplace_back(i, tick - start[i]);
    }
    auto run_one = [&](std::size_t idx) {
      const auto [sample, stage] = active[idx];
      step(sample, stage, lanes[sample % depth]);
    };
    if (pool_ == nullptr || active.size() <= 1) {
      for (std::size_t idx = 0; idx < active.size(); ++idx) run_one(idx);
    } else {
      pool_->parallel_for(active.size(), active.size(),
                          [&](std::size_t, std::size_t idx) { run_one(idx); });
    }
  }
}

void PipelinedBatchRunner::run_steps(const std::vector<snn::Tensor>& images,
                                     int timesteps, KeepStep keep) const {
  const std::size_t layers = engine_.network().num_layers();
  if (images.empty() || timesteps <= 0 || layers == 0) return;
  std::vector<Lane> lanes = borrow_lanes(images.size());
  if (engine_.options().segment_major_lanes > 1) {
    std::vector<InferenceEngine::BatchLane> wave;
    wave.reserve(lanes.size());
    for (Lane& lane : lanes) {
      wave.push_back({nullptr, nullptr, &lane.state, &lane.step});
    }
    run_lockstep_batch(engine_, wave, images, timesteps, pool_.get(), keep);
  } else {
    run_stages(
        images.size(), static_cast<std::size_t>(timesteps) * layers,
        [&](std::size_t sample, std::size_t stage, Lane& lane) {
          const std::size_t l = stage % layers;
          if (stage == 0) lane.state.clear();
          if (l == 0) {
            engine_.begin_sample(lane.step);
            lane.carry = nullptr;
          }
          lane.carry = engine_.run_layer(l, &images[sample], lane.carry,
                                         lane.state, lane.step);
          if (l + 1 == layers) keep(sample, lane.step);
        },
        lanes);
  }
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
