#include "runtime/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <span>
#include <thread>

#include "runtime/backend_sharded.hpp"
#include "runtime/worker_pool.hpp"

namespace spikestream::runtime {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::chrono::steady_clock::time_point to_time_point(std::uint64_t ns) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::nanoseconds(ns)));
}

enum FireReason { kFullWave = 0, kDeadline = 1, kDrain = 2 };

}  // namespace

InferenceServer::InferenceServer(const snn::Network& net,
                                 const kernels::RunOptions& opt,
                                 const BackendConfig& backend,
                                 const ServerConfig& server,
                                 const arch::EnergyParams& energy)
    : engine_(net, opt, backend, energy),
      cfg_(server),
      max_lanes_(cfg_.max_wave_lanes > 0
                     ? cfg_.max_wave_lanes
                     : engine_.options().segment_major_lanes),
      queue_(server.queue_capacity),
      integrity_(engine_, cfg_.integrity, static_cast<std::size_t>(max_lanes_),
                 cfg_.faults.size()) {
  sharded_ = dynamic_cast<const ShardedBackend*>(&engine_.backend());
  cfg_.min_wave_lanes = std::clamp(cfg_.min_wave_lanes, 1, max_lanes_);
  delay_ns_ = std::max<std::int64_t>(0, cfg_.max_queue_delay_us) * 1000;
  // Throughput-safe start: the controller begins at full lanes and shrinks
  // only when sustained light load proves the latency win is free.
  target_lanes_.store(max_lanes_, std::memory_order_relaxed);
  stats_.target_lanes = max_lanes_;

  // Same pool-sharing rule as BatchRunner: reuse the backend's persistent
  // pool when it has one so wave-lane fan-out and shard fan-out share one
  // clamped thread set; otherwise bring our own for the wave's row tiles.
  pool_ = engine_.worker_pool();
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (pool_ == nullptr && hw > 1) {
    pool_ = std::make_shared<WorkerPool>(hw - 1);
  }

  // Every wave-sized buffer is allocated here, once: the dispatcher loop
  // reuses them for the life of the server.
  const auto lanes = static_cast<std::size_t>(max_lanes_);
  wave_.resize(lanes, nullptr);
  enqueue_snap_.resize(lanes, 0);
  states_.resize(lanes);
  steps_.resize(lanes);
  lanes_.resize(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    states_[i] = engine_.make_state();
    lanes_[i] = {nullptr, nullptr, &states_[i], &steps_[i]};
  }

  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

InferenceServer::~InferenceServer() { stop(); }

bool InferenceServer::submit(ServeRequest& req) {
  // The submitting_ count makes shutdown race-free: stop() closes admission
  // and then waits for every in-flight submit (a handful of instructions,
  // nothing blocking) to retire before it tells the dispatcher to drain, so
  // a push can never land after the dispatcher's final empty check and no
  // request is ever stranded in kQueued.
  submitting_.fetch_add(1, std::memory_order_acq_rel);
  if (closed_.load(std::memory_order_acquire)) {
    submitting_.fetch_sub(1, std::memory_order_release);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    req.state.store(ServeRequest::kRejected, std::memory_order_release);
    req.state.notify_all();
    return false;
  }
  req.dispatch_ns = 0;
  req.complete_ns = 0;
  // Admission seal: producer-side checksum of the input, verified when the
  // wave forms — the first sealed boundary of the dataflow. Computed here on
  // the client's thread (lock-free, allocation-free like the rest of
  // submit()); the modeled checker bytes are accounted at verify time.
  req.input_seal = integrity_.admission_seal(req.image);
  req.result_seal = Seal{};
  req.state.store(ServeRequest::kQueued, std::memory_order_relaxed);
  req.enqueue_ns = now_ns();
  const bool pushed = queue_.try_push(&req);
  submitting_.fetch_sub(1, std::memory_order_release);
  if (!pushed) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    req.state.store(ServeRequest::kRejected, std::memory_order_release);
    req.state.notify_all();
    return false;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  // Dekker-style handshake with the sleeping dispatcher: the fence orders
  // our push before the sleeping_ read exactly as the dispatcher's fence
  // orders its sleeping_ write before its queue re-check — one side always
  // observes the other, so a wakeup is never lost, and on the busy path
  // this is a single relaxed load.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleeping_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_cv_.notify_one();
  }
  return true;
}

void InferenceServer::stop() {
  if (!closed_.exchange(true, std::memory_order_acq_rel)) {
    // Admission is closed; let in-flight submits retire their pushes.
    while (submitting_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    stop_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      wake_cv_.notify_one();
    }
  }
  std::lock_guard<std::mutex> lock(join_mu_);  // one joiner, losers wait
  if (dispatcher_.joinable()) dispatcher_.join();
}

void InferenceServer::wait_for_work(bool has_deadline,
                                    std::uint64_t deadline_ns) {
  std::unique_lock<std::mutex> lock(wake_mu_);
  sleeping_.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const auto wake = [this] {
    return queue_.size_approx() > 0 || stop_.load(std::memory_order_acquire);
  };
  if (!wake()) {
    if (has_deadline) {
      wake_cv_.wait_until(lock, to_time_point(deadline_ns), wake);
    } else {
      wake_cv_.wait(lock, wake);
    }
  }
  sleeping_.store(false, std::memory_order_relaxed);
}

void InferenceServer::dispatcher_loop() {
  for (;;) {
    std::size_t wn = 0;
    std::uint64_t deadline_ns = 0;
    int fire_reason = kFullWave;
    const int target = std::clamp(
        target_lanes_.load(std::memory_order_relaxed), 1, max_lanes_);
    const auto want = static_cast<std::size_t>(target);
    for (;;) {
      ServeRequest* req = nullptr;
      while (wn < want && queue_.try_pop(req)) {
        // TTL shedding at pop time: a request whose deadline already passed
        // is published kTimedOut instead of occupying a lane — serving it
        // late would only delay the still-viable requests behind it.
        const std::uint64_t ttl = ttl_ns(*req);
        if (ttl != 0) {
          const std::uint64_t now = now_ns();
          if (now >= req->enqueue_ns + ttl) {
            shed_expired(req, now);
            continue;
          }
        }
        wave_[wn++] = req;
        if (wn == 1) {
          deadline_ns = req->enqueue_ns +
                        static_cast<std::uint64_t>(delay_ns_);
        }
      }
      if (wn >= want) {
        fire_reason = kFullWave;
        break;
      }
      const bool stopping = stop_.load(std::memory_order_acquire);
      if (wn == 0) {
        if (stopping && queue_.size_approx() == 0) return;
        wait_for_work(/*has_deadline=*/false, 0);
        continue;
      }
      if (stopping) {
        fire_reason = kDrain;
        break;
      }
      if (now_ns() >= deadline_ns) {
        fire_reason = kDeadline;
        break;
      }
      wait_for_work(/*has_deadline=*/true, deadline_ns);
    }
    if (wn > 0) execute_wave(wn, target, fire_reason);
  }
}

std::uint64_t InferenceServer::ttl_ns(const ServeRequest& req) const {
  std::int64_t us = req.ttl_us;
  if (us == 0) us = cfg_.default_ttl_us;
  if (us <= 0) return 0;  // negative per-request TTL opts out of the default
  return static_cast<std::uint64_t>(us) * 1000;
}

void InferenceServer::shed_expired(ServeRequest* req, std::uint64_t now) {
  req->dispatch_ns = now;
  req->complete_ns = now;
  req->state.store(ServeRequest::kTimedOut, std::memory_order_release);
  req->state.notify_all();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.timed_out;
}

void InferenceServer::apply_fault_events() {
  const auto& events = cfg_.faults.events();
  while (next_fault_ < events.size() &&
         events[next_fault_].wave <= wave_index_) {
    const FaultEvent& e = events[next_fault_++];
    switch (e.kind) {
      case FaultKind::kClusterFailStop:
        // fail_cluster() is the arbiter: it refuses ids outside the active
        // slots and killing the last survivor, and re-plans exactly once on
        // accept.
        if (sharded_ != nullptr && sharded_->fail_cluster(e.cluster)) {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.cluster_failures;
          ++stats_.faults_applied;
        }
        break;
      case FaultKind::kClusterSlowdown:
        if (sharded_ != nullptr) {
          sharded_->set_cluster_slowdown(e.cluster, e.factor);
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.faults_applied;
        }
        break;
      case FaultKind::kLinkDegrade:
        if (sharded_ != nullptr) {
          sharded_->set_link_degrade(e.cluster, e.factor);
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.faults_applied;
        }
        break;
      default:
        // Transient and data events strike this wave's leading attempts
        // from inside the wave body, where the integrity layer plants them.
        integrity_.add_fault(e);
        break;
    }
  }
}

void InferenceServer::ensure_shadow() {
  if (!shadow_states_.empty()) return;
  const auto lanes = static_cast<std::size_t>(max_lanes_);
  shadow_states_.resize(lanes);
  shadow_steps_.resize(lanes);
  shadow_lanes_.resize(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    shadow_states_[i] = engine_.make_state();
    shadow_lanes_[i] = {nullptr, nullptr, &shadow_states_[i],
                        &shadow_steps_[i]};
  }
}

void InferenceServer::execute_wave(std::size_t wn, int target,
                                   int fire_reason) {
  // Second TTL gate: requests admitted in time can still expire while the
  // wave buffer waits for its deadline. Shed them now and compact — a wave
  // shed to empty never executes (and does not advance wave_index_).
  {
    const std::uint64_t now = now_ns();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < wn; ++i) {
      ServeRequest* req = wave_[i];
      const std::uint64_t ttl = ttl_ns(*req);
      if (ttl != 0 && now >= req->enqueue_ns + ttl) {
        shed_expired(req, now);
      } else {
        wave_[kept++] = req;
      }
    }
    wn = kept;
    if (wn == 0) return;
  }

  // A wave runs redundantly when the server default says so or any member
  // request opted in.
  bool redundant = cfg_.integrity.redundant_lanes;
  for (std::size_t i = 0; i < wn && !redundant; ++i) {
    redundant = wave_[i]->redundant;
  }
  if (redundant) ensure_shadow();
  integrity_.begin_wave(wave_index_, redundant);
  apply_fault_events();

  const int timesteps = std::max(1, cfg_.timesteps);
  const std::uint64_t t_dispatch = now_ns();
  const std::size_t backlog = queue_.size_approx();
  for (std::size_t i = 0; i < wn; ++i) {
    ServeRequest* req = wave_[i];
    req->dispatch_ns = t_dispatch;
    integrity_.admit(i, req->input_seal);
    lanes_[i].image = req->image;
    if (redundant) shadow_lanes_[i].image = req->image;
  }
  const std::span primary(lanes_.data(), wn);
  const std::span shadow(shadow_lanes_.data(), redundant ? wn : 0);

  // Every attempt re-runs the wave from a clean lane state (run_wave clears
  // it) and an empty accumulator (reset without surrendering capacity, so a
  // recycled slot stays allocation-free), so a retried wave — the engine
  // being deterministic — lands bit-identical to a clean run. The integrity
  // layer wraps the passes; only the primary pass is served.
  WorkerPool* pool = pool_.get();
  const auto run_attempt = [&](int attempt) {
    for (std::size_t i = 0; i < wn; ++i) {
      MultiStepResult& r = wave_[i]->result;
      r.timesteps = timesteps;
      r.spike_counts.clear();
      r.cycles_per_step.clear();
      r.total_cycles = 0;
      r.total_energy_mj = 0;
    }
    integrity_.run_attempt(
        attempt, primary,
        [&](std::size_t i, const InferenceResult& step) {
          wave_[i]->result.accumulate_step(step);
        },
        [&](bool is_primary) {
          engine_.run_wave(is_primary ? primary : shadow, timesteps, pool,
                           &integrity_);
        });
  };

  // Exception containment: a throwing wave fails only this wave's requests.
  // TransientFault (and its IntegrityFault subclass) earns bounded
  // retry-with-backoff; anything else fails the wave immediately. The
  // dispatcher survives either way. `last_integrity` remembers whether the
  // terminal failure was a detected-corruption one: exhausted retries then
  // publish kCorrupted instead of kError.
  bool wave_ok = false;
  bool last_integrity = false;
  int attempt = 0;
  std::uint64_t retries = 0;
  std::uint64_t transients = 0;
  std::uint64_t ifaults = 0;
  for (;;) {
    try {
      run_attempt(attempt);
      wave_ok = true;
      break;
    } catch (const TransientFault& e) {
      ++transients;
      last_integrity = dynamic_cast<const IntegrityFault*>(&e) != nullptr;
      if (last_integrity) ++ifaults;
      if (attempt >= cfg_.max_wave_retries) break;
      ++attempt;
      ++retries;
      if (cfg_.retry_backoff_us > 0 &&
          !stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(cfg_.retry_backoff_us * attempt));
      }
    } catch (const std::exception&) {
      last_integrity = false;
      break;
    }
  }
  ++wave_index_;

  // Publish completions before the bookkeeping below so a waiting client's
  // wakeup is never queued behind the stats lock. The moment a terminal
  // state lands the caller may recycle or destroy the request, so everything
  // the stats block needs is snapshotted here — wave_[i] must not be
  // dereferenced after its store.
  const std::uint64_t t_done = now_ns();
  const int final_state =
      wave_ok ? ServeRequest::kDone
              : (last_integrity ? ServeRequest::kCorrupted
                                : ServeRequest::kError);
  for (std::size_t i = 0; i < wn; ++i) {
    ServeRequest* req = wave_[i];
    enqueue_snap_[i] = req->enqueue_ns;
    if (wave_ok) req->result_seal = integrity_.output_seal(i);
    req->complete_ns = t_done;
    req->state.store(final_state, std::memory_order_release);
    req->state.notify_all();
  }

  // A failed wave is not SLO evidence: it skips the controller and the
  // latency histograms so fault noise never reshapes healthy waves or the
  // p99.
  const int flip =
      wave_ok ? update_controller(wn, target, fire_reason, backlog) : 0;
  const IntegrityCounters& ic = integrity_.counters();
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.waves;
  stats_.wave_retries += retries;
  stats_.transient_faults += transients;
  stats_.integrity_checks += ic.checks;
  stats_.integrity_mismatches += ic.mismatches;
  stats_.integrity_faults += ifaults;
  stats_.data_faults_injected += ic.injected;
  stats_.crc_sealed_bytes += ic.sealed_bytes;
  if (cfg_.integrity.crc_bytes_per_cycle > 0) {
    stats_.crc_cycles += static_cast<double>(ic.sealed_bytes) /
                         cfg_.integrity.crc_bytes_per_cycle;
  }
  if (ic.ran_shadow) ++stats_.redundant_waves;
  if (!wave_ok) {
    ++stats_.wave_errors;
    (last_integrity ? stats_.corrupted : stats_.errored) += wn;
    return;
  }
  if (fire_reason == kFullWave) ++stats_.full_waves;
  if (fire_reason == kDeadline) ++stats_.deadline_waves;
  if (fire_reason == kDrain) ++stats_.drain_waves;
  if (flip > 0) ++stats_.wave_grows;
  if (flip < 0) ++stats_.wave_shrinks;
  stats_.completed += wn;
  stats_.wave_lanes.add(static_cast<double>(wn));
  stats_.wave_occupancy.add(static_cast<double>(wn) /
                            static_cast<double>(max_lanes_));
  stats_.queue_depth.add(static_cast<double>(backlog));
  stats_.target_trace.add(static_cast<double>(target));
  for (std::size_t i = 0; i < wn; ++i) {
    stats_.latency_us.add(static_cast<double>(t_done - enqueue_snap_[i]) *
                          1e-3);
    stats_.queue_us.add(static_cast<double>(t_dispatch - enqueue_snap_[i]) *
                        1e-3);
  }
}

int InferenceServer::update_controller(std::size_t wn, int target,
                                       int fire_reason,
                                       std::size_t backlog) {
  if (!cfg_.adaptive_wave || fire_reason == kDrain) return 0;
  const auto want = static_cast<std::size_t>(target);
  const bool pressure = wn >= want && backlog > 0;
  const bool slack =
      fire_reason == kDeadline &&
      static_cast<double>(wn) <=
          cfg_.shrink_occupancy * static_cast<double>(target);
  if (pressure) {
    ++grow_streak_;
    shrink_streak_ = 0;
  } else if (slack) {
    ++shrink_streak_;
    grow_streak_ = 0;
  } else {
    // Dead band: a full wave with no backlog, or a deadline wave above the
    // shrink threshold, is evidence the current size fits — reset both
    // streaks so the target holds (this is what prevents oscillation).
    grow_streak_ = 0;
    shrink_streak_ = 0;
  }
  const int streak = std::max(1, cfg_.controller_streak);
  int next = target;
  int flip = 0;
  if (grow_streak_ >= streak && target < max_lanes_) {
    next = std::min(max_lanes_, target * 2);
    grow_streak_ = 0;
    flip = 1;
  } else if (shrink_streak_ >= streak && target > cfg_.min_wave_lanes) {
    next = std::max(cfg_.min_wave_lanes, target / 2);
    shrink_streak_ = 0;
    flip = -1;
  }
  if (next != target) {
    target_lanes_.store(next, std::memory_order_relaxed);
  }
  return flip;
}

ServerStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ServerStats out = stats_;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.target_lanes = target_lanes_.load(std::memory_order_relaxed);
  if (sharded_ != nullptr) {
    out.degrade_replans = sharded_->degrade_replans();
    out.active_clusters = sharded_->active_clusters();
  }
  return out;
}

}  // namespace spikestream::runtime
