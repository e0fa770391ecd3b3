#include "runtime/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
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
      queue_(server.queue_capacity) {
  sharded_ = dynamic_cast<const ShardedBackend*>(&engine_.backend());
  max_lanes_ = cfg_.max_wave_lanes > 0
                   ? cfg_.max_wave_lanes
                   : std::max(1, engine_.options().segment_major_lanes);
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
  for (auto& s : states_) s = engine_.make_state();
  steps_.resize(lanes);
  lanes_.resize(lanes);
  out_crc_.resize(lanes, 0);
  out_bytes_.resize(lanes, 0);
  wave_data_faults_.reserve(cfg_.faults.size());

  // Golden weight seals: computed once over the quantized slices the engine
  // will actually stream, then verified before every wave attempt touches
  // them. Construction-time is the trust anchor — nothing has run yet.
  if (cfg_.integrity.checksum_weights) {
    const std::size_t n = engine_.network().num_layers();
    weight_seals_.reserve(n);
    for (std::size_t l = 0; l < n; ++l) {
      weight_seals_.push_back(seal_weights(engine_.network().weights(l)));
    }
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
  if (cfg_.integrity.checksum_spikes && req.image != nullptr) {
    req.input_seal = seal_tensor(*req.image);
  } else {
    req.input_seal = Seal{};
  }
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

int InferenceServer::apply_fault_events() {
  const auto& events = cfg_.faults.events();
  int transient_failures = 0;
  wave_data_faults_.clear();
  while (next_fault_ < events.size() &&
         events[next_fault_].wave <= wave_index_) {
    const FaultEvent& e = events[next_fault_++];
    switch (e.kind) {
      case FaultKind::kClusterFailStop:
        // fail_cluster() is the arbiter: it refuses duplicates, bad ids and
        // killing the last survivor, and re-plans exactly once on accept.
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
      case FaultKind::kTransientWaveError:
        transient_failures += std::max(1, e.failures);
        break;
      case FaultKind::kWeightBitFlip:
      case FaultKind::kSpikePayloadFlip:
      case FaultKind::kMembraneFlip:
        // Data events corrupt this wave's leading attempts from inside the
        // wave body; collect them for execute_wave's injection points.
        wave_data_faults_.push_back(e);
        break;
    }
  }
  return transient_failures;
}

void InferenceServer::ensure_shadow() {
  if (!shadow_states_.empty()) return;
  const auto lanes = static_cast<std::size_t>(max_lanes_);
  shadow_states_.resize(lanes);
  for (auto& s : shadow_states_) s = engine_.make_state();
  shadow_steps_.resize(lanes);
  shadow_lanes_.resize(lanes);
  shadow_crc_.resize(lanes, 0);
  shadow_bytes_.resize(lanes, 0);
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

  const int transient_failures = apply_fault_events();

  const std::size_t layers = engine_.network().num_layers();
  const int timesteps = std::max(1, cfg_.timesteps);
  const std::uint64_t t_dispatch = now_ns();
  const std::size_t backlog = queue_.size_approx();

  for (std::size_t i = 0; i < wn; ++i) wave_[i]->dispatch_ns = t_dispatch;

  // Data-integrity wave context: a wave runs redundantly when the server
  // default says so or any member request opted in. Counters are wave-local
  // and flushed under the stats lock exactly once.
  const IntegrityConfig& integ = cfg_.integrity;
  bool redundant = integ.redundant_lanes;
  for (std::size_t i = 0; i < wn && !redundant; ++i) {
    redundant = wave_[i]->redundant;
  }
  if (redundant) ensure_shadow();
  const bool seal_outputs = integ.checksum_spikes || redundant;
  std::uint64_t checks = 0, mismatches = 0, ifaults = 0, injected = 0;
  std::uint64_t sealed_bytes = 0;

  const auto target_layer = [&](const FaultEvent& e) {
    return static_cast<std::size_t>(e.layer) % layers;
  };
  const auto target_lane = [&](const FaultEvent& e) {
    return static_cast<std::size_t>(e.lane) % wn;
  };
  // Weight flips are engine-global (every pass reads the same quantized
  // slices), so they are applied right before a primary pass and undone
  // right after — the involution makes undo == re-apply — which both makes
  // retries past the failure budget run clean and models the shadow pass's
  // disjoint clusters owning uncorrupted weight copies.
  const auto toggle_weight_flips = [&](int attempt) {
    for (const FaultEvent& e : wave_data_faults_) {
      if (e.kind == FaultKind::kWeightBitFlip && attempt < e.failures) {
        flip_weight_bit(engine_.mutable_weights(target_layer(e)), e.bit);
      }
    }
  };

  // The offline lockstep path, verbatim: all lanes advance through the same
  // layer together (InferenceEngine::run_layer_batch) — segmented FC layers
  // stream each weight band once per wave, conv layers split into row tiles
  // on the pool, so even a one-lane wave uses every pool thread. Every
  // attempt starts from a clean lane state and an empty
  // accumulator (reset without surrendering capacity, so a recycled slot
  // stays allocation-free), so a retried wave re-runs from timestep 0 and —
  // the engine being deterministic — lands bit-identical to a clean run.
  //
  // `primary` distinguishes the served pass from the redundant shadow pass:
  // injections and seal verification run on the primary only (the shadow
  // models disjoint clusters, which the localized flip does not reach), and
  // only the primary accumulates into the requests' results. Both passes
  // chain their per-timestep completion seals for the redundancy compare.
  WorkerPool* pool = pool_.get();
  const auto run_pass = [&](int attempt, bool primary) {
    auto& states = primary ? states_ : shadow_states_;
    auto& steps = primary ? steps_ : shadow_steps_;
    auto& lanes = primary ? lanes_ : shadow_lanes_;
    auto& ocrc = primary ? out_crc_ : shadow_crc_;
    auto& obytes = primary ? out_bytes_ : shadow_bytes_;
    for (std::size_t i = 0; i < wn; ++i) {
      states[i].clear();
      ocrc[i] = 0;
      obytes[i] = 0;
      if (primary) {
        ServeRequest* req = wave_[i];
        req->result.timesteps = timesteps;
        req->result.spike_counts.clear();
        req->result.cycles_per_step.clear();
        req->result.total_cycles = 0;
        req->result.total_energy_mj = 0;
      }
    }
    // Admission boundary: re-seal each input and compare against the seal
    // submit() computed (corruption while queued). The modeled checker ran
    // twice per image — once at admission, once here.
    if (primary && integ.checksum_spikes) {
      for (std::size_t i = 0; i < wn; ++i) {
        if (wave_[i]->image == nullptr) continue;
        const Seal s = seal_tensor(*wave_[i]->image);
        sealed_bytes += 2 * s.bytes;
        ++checks;
        if (s != wave_[i]->input_seal) {
          ++mismatches;
          throw IntegrityFault("admission seal mismatch");
        }
      }
    }
    // Weight boundary: every slice the attempt will stream must still match
    // its construction-time seal — this is what turns an injected weight
    // flip from a silently wrong answer into a detected, retryable fault.
    // A weight_check_period > 1 amortizes the re-hash scrub-style over the
    // wave sequence (weights are static; see IntegrityConfig).
    const bool weights_due =
        integ.weight_check_period <= 1 ||
        wave_index_ % integ.weight_check_period == 0;
    if (primary && integ.checksum_weights && weights_due) {
      for (std::size_t l = 0; l < layers; ++l) {
        const Seal s = seal_weights(engine_.network().weights(l));
        sealed_bytes += s.bytes;
        ++checks;
        if (s != weight_seals_[l]) {
          ++mismatches;
          throw IntegrityFault("weight seal mismatch at layer " +
                               std::to_string(l));
        }
      }
    }
    for (int t = 0; t < timesteps; ++t) {
      for (std::size_t i = 0; i < wn; ++i) {
        engine_.begin_sample(steps[i]);
        lanes[i] = {wave_[i]->image, nullptr, &states[i], &steps[i]};
      }
      for (std::size_t l = 0; l < layers; ++l) {
        // Membrane SDC: flip live neuron state right before the layer
        // integrates it. Unsealed path — only the redundancy compare below
        // can catch this one. No undo needed: every attempt clears state.
        if (primary && t == 0) {
          for (const FaultEvent& e : wave_data_faults_) {
            if (e.kind == FaultKind::kMembraneFlip && attempt < e.failures &&
                target_layer(e) == l) {
              flip_membrane_bit(states[target_lane(e)].membrane(l), e.bit);
              ++injected;
            }
          }
        }
        engine_.run_layer_batch(l, std::span(lanes.data(), wn), pool);
        // Injected transients fire mid-wave (after the first layer already
        // dirtied lane state) so a retry genuinely exercises the reset path.
        if (primary && t == 0 && l == 0 && attempt < transient_failures) {
          throw TransientFault("injected transient wave fault");
        }
        // Handoff boundary: seal the spike carry layer l produced, model the
        // transit (where a payload flip may land), verify on the consuming
        // side before layer l+1 integrates it.
        if (primary && l + 1 < layers &&
            (integ.checksum_spikes || !wave_data_faults_.empty())) {
          for (std::size_t i = 0; i < wn; ++i) {
            const snn::SpikeMap* carry = lanes[i].carry;
            if (carry == nullptr) continue;
            Seal s{};
            if (integ.checksum_spikes) {
              s = seal_spikes(*carry);
              sealed_bytes += s.bytes;
            }
            if (t == 0) {
              for (const FaultEvent& e : wave_data_faults_) {
                if (e.kind == FaultKind::kSpikePayloadFlip &&
                    attempt < e.failures && target_layer(e) == l &&
                    target_lane(e) == i) {
                  // The carry aliases lane-owned scratch; corrupting it in
                  // place is exactly what NoC transit corruption does.
                  flip_spike_byte(const_cast<snn::SpikeMap&>(*carry), e.bit);
                  ++injected;
                }
              }
            }
            if (integ.checksum_spikes) {
              const Seal v = seal_spikes(*carry);
              sealed_bytes += v.bytes;
              ++checks;
              if (v != s) {
                ++mismatches;
                throw IntegrityFault("handoff seal mismatch after layer " +
                                     std::to_string(l));
              }
            }
          }
        }
      }
      for (std::size_t i = 0; i < wn; ++i) {
        // Payload flips targeting the last layer land on the final output
        // map itself — past the last sealed handoff, before the completion
        // seal covers it, so checksum mode cannot see them (the redundancy
        // compare can; bench/integrity_profile demonstrates the escape).
        if (primary && t == 0) {
          for (const FaultEvent& e : wave_data_faults_) {
            if (e.kind == FaultKind::kSpikePayloadFlip &&
                attempt < e.failures && target_layer(e) == layers - 1 &&
                target_lane(e) == i && !steps[i].final_output.v.empty()) {
              flip_spike_byte(steps[i].final_output, e.bit);
              ++injected;
            }
          }
        }
        if (seal_outputs) {
          const auto& fo = steps[i].final_output.v;
          ocrc[i] = common::simd::crc32c(fo.data(), fo.size(), ocrc[i]);
          obytes[i] += fo.size();
          sealed_bytes += fo.size();
        }
        if (primary) wave_[i]->result.accumulate_step(steps[i]);
      }
    }
  };

  bool ran_shadow = false;
  const auto run_attempt = [&](int attempt) {
    toggle_weight_flips(attempt);  // apply
    for (const FaultEvent& e : wave_data_faults_) {
      if (e.kind == FaultKind::kWeightBitFlip && attempt < e.failures) {
        ++injected;
      }
    }
    try {
      run_pass(attempt, /*primary=*/true);
    } catch (...) {
      toggle_weight_flips(attempt);  // undo before the retry machinery runs
      throw;
    }
    toggle_weight_flips(attempt);  // undo (shadow reads clean weights)
    if (redundant) {
      ran_shadow = true;
      run_pass(attempt, /*primary=*/false);
      for (std::size_t i = 0; i < wn; ++i) {
        ++checks;
        if (out_crc_[i] != shadow_crc_[i] || out_bytes_[i] != shadow_bytes_[i]) {
          ++mismatches;
          throw IntegrityFault("redundant-lane output divergence on lane " +
                               std::to_string(i));
        }
      }
    }
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
  for (;;) {
    try {
      run_attempt(attempt);
      wave_ok = true;
      break;
    } catch (const IntegrityFault&) {
      ++transients;
      ++ifaults;
      last_integrity = true;
      if (attempt >= cfg_.max_wave_retries) break;
      ++attempt;
      ++retries;
      if (cfg_.retry_backoff_us > 0 &&
          !stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(cfg_.retry_backoff_us * attempt));
      }
    } catch (const TransientFault&) {
      ++transients;
      last_integrity = false;
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
    if (wave_ok && seal_outputs) {
      req->result_seal = Seal{out_crc_[i], out_bytes_[i]};
    }
    req->complete_ns = t_done;
    req->state.store(final_state, std::memory_order_release);
    req->state.notify_all();
  }

  const auto flush_integrity = [&](ServerStats& s) {
    s.integrity_checks += checks;
    s.integrity_mismatches += mismatches;
    s.integrity_faults += ifaults;
    s.data_faults_injected += injected;
    s.crc_sealed_bytes += sealed_bytes;
    if (integ.crc_bytes_per_cycle > 0) {
      s.crc_cycles += static_cast<double>(sealed_bytes) /
                      integ.crc_bytes_per_cycle;
    }
    if (ran_shadow) ++s.redundant_waves;
  };

  if (!wave_ok) {
    // A failed wave is not SLO evidence: skip the controller and the latency
    // histograms so fault noise never reshapes healthy waves or the p99.
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.waves;
    ++stats_.wave_errors;
    if (last_integrity) {
      stats_.corrupted += wn;
    } else {
      stats_.errored += wn;
    }
    stats_.wave_retries += retries;
    stats_.transient_faults += transients;
    flush_integrity(stats_);
    return;
  }

  const int flip = update_controller(wn, target, fire_reason, backlog);

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.waves;
    if (fire_reason == kFullWave) ++stats_.full_waves;
    if (fire_reason == kDeadline) ++stats_.deadline_waves;
    if (fire_reason == kDrain) ++stats_.drain_waves;
    if (flip > 0) ++stats_.wave_grows;
    if (flip < 0) ++stats_.wave_shrinks;
    stats_.completed += wn;
    stats_.wave_retries += retries;
    stats_.transient_faults += transients;
    flush_integrity(stats_);
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
