// Inference-as-a-service runtime: turns the batch-offline engine into a
// request/response server with a user-facing latency SLO.
//
//   producers ──try_push──▶ BoundedMpscQueue ──try_pop──▶ dispatcher thread
//                (lock-free ring, full = reject)             │
//                                                   dynamic batch former
//                                                (deadline- or size-triggered)
//                                                            │
//                                          segment-major lockstep wave
//                                      (InferenceEngine::run_wave on the
//                                       persistent WorkerPool — the same
//                                       loop BatchRunner drives offline)
//
// Admission is a bounded lock-free MPSC ring (Vyukov sequence-numbered
// cells): any number of client threads try_push a ServeRequest* with a CAS
// on the tail — no mutex, no allocation, and a full ring rejects instead of
// blocking (the reject is counted; load shedding is explicit). The single
// consumer is the dispatcher thread, which drains arrivals into a wave of up
// to `target` lanes and fires it either when the wave is full or when the
// oldest queued request has waited ServerConfig::max_queue_delay_us — so an
// idle server adds at most one deadline of latency and a busy server keeps
// the engine at full segment-major occupancy. When both the queue and the
// wave are empty the dispatcher *blocks* on a condition variable (producers
// nudge it awake only when they observed it sleeping), so an idle server
// burns no CPU — same contract the WorkerPool's idle workers honor.
//
// Served outputs (spikes AND modeled cycles) are bit-identical to
// BatchRunner on the same inputs whatever wave boundaries the arrival timing
// produced — the segment-major charges are per-sample batch means,
// independent of lane assignment (tests/test_server.cpp pins this). The
// lanes persist for the server's lifetime, and they, the wave buffers and
// the per-request result vectors are pre-sized at construction or on first
// use, so the admission -> dispatch -> complete hot path is allocation-free
// at steady state (tests/test_scratch_reuse.cpp counts it).
//
// SLO-aware wave sizing: a hysteresis-gated controller trades wave size for
// latency. Full waves leaving a backlog
// grow the target (×2 toward max_wave_lanes — throughput under heavy load);
// deadline-fired waves at <= shrink_occupancy of the target shrink it (÷2
// toward min_wave_lanes — a light-load request no longer waits for lanes it
// cannot fill). Both need `controller_streak` *consecutive* waves of
// evidence and the dead band between the two thresholds means steady load
// never oscillates.
//
// Per-request telemetry (enqueue/dispatch/complete timestamps on the request
// slot; queue depth, wave occupancy, rejects, p50/p95/p99 latency in
// ServerStats' allocation-free LogHistograms) is what bench/serve_profile.cpp
// sweeps into BENCH_serve.json and CI guards with --p99-threshold.
//
// Hardened serving path (see ARCHITECTURE.md "Fault domains"): every admitted
// request reaches exactly one terminal state — kDone, kTimedOut (its TTL
// expired in the queue or wave buffer and it was shed before execution),
// kError (its wave threw and retries were exhausted), kCorrupted (a detected
// data-integrity failure persisted through every retry) — so
// admitted == completed + timed_out + errored + corrupted once the server
// drains. A throwing wave is contained to that wave's requests: the
// dispatcher catches, retries transient faults with bounded backoff (each
// attempt resets lane state and re-runs from timestep 0, so a successful
// retry is bit-identical to a clean run), and keeps serving subsequent waves
// either way. Structural faults from ServerConfig::faults (cluster fail-stop
// / slowdown / link degrade, keyed by wave index — never wall-clock) are
// applied to the sharded backend between waves, which re-plans over the
// survivors exactly once per fault (bench/fault_profile.cpp drives this and
// CI guards the degradation curve in BENCH_fault.json).
//
// Data-integrity path (runtime/integrity.hpp, off by default): with
// ServerConfig::integrity armed, CRC32C seals guard the dataflow from
// admission to the published ServeRequest::result_seal, and redundant-lane
// mode (IntegrityConfig::redundant_lanes or ServeRequest::redundant) runs the
// wave twice and compares the passes — the only defense covering membrane
// state. A mismatch throws IntegrityFault (a TransientFault), so the retry
// containment above re-runs the wave; requests whose mismatch persists
// through every retry end in kCorrupted (bench/integrity_profile.cpp sweeps
// flip rate x protection mode into BENCH_integrity.json).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/stats.hpp"
#include "runtime/engine.hpp"
#include "runtime/faults.hpp"
#include "runtime/integrity.hpp"
#include "runtime/multistep.hpp"

namespace spikestream::runtime {

class WorkerPool;
class ShardedBackend;

/// Bounded lock-free multi-producer single-consumer ring (Vyukov
/// sequence-numbered cells). Fixed capacity (rounded up to a power of two),
/// allocated once at construction; try_push / try_pop never allocate and
/// never block — a full ring fails the push so the caller can count the
/// rejection instead of stalling the client.
template <typename T>
class BoundedMpscQueue {
 public:
  explicit BoundedMpscQueue(std::size_t capacity) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    cells_ = std::make_unique<Cell[]>(cap);
    mask_ = cap - 1;
    for (std::size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  /// Multi-producer: lock-free, allocation-free; false = ring full.
  bool try_push(T v) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.val = v;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Single consumer only. FIFO in tail-claim order (per-producer order is
  /// preserved). False = empty (or the winning producer has not finished
  /// publishing its cell yet).
  bool try_pop(T& out) {
    const std::size_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    if (static_cast<std::intptr_t>(seq) -
            static_cast<std::intptr_t>(pos + 1) != 0) {
      return false;
    }
    out = cell.val;
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  std::size_t capacity() const { return mask_ + 1; }
  /// Racy snapshot (exact when quiescent).
  std::size_t size_approx() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? tail - head : 0;
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    T val{};
  };
  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_ = 0;
  alignas(64) std::atomic<std::size_t> tail_{0};  ///< producers (CAS)
  alignas(64) std::atomic<std::size_t> head_{0};  ///< consumer only
};

/// One in-flight request. Caller-owned, must stay at a stable address from
/// submit() until wait() returns; reusable across requests (the result
/// vectors keep their capacity, so steady-state resubmission is
/// allocation-free). Not movable once submitted.
struct ServeRequest {
  enum State : int {
    kIdle = 0,
    kQueued = 1,
    kDone = 2,
    kRejected = 3,  ///< ring full or server stopped (never owned)
    kTimedOut = 4,  ///< TTL expired before execution; shed, result untouched
    kError = 5,     ///< wave threw and retries were exhausted
    kCorrupted = 6, ///< detected data corruption persisted through retries
  };

  const snn::Tensor* image = nullptr;  ///< input; caller keeps it alive
  MultiStepResult result;              ///< filled before kDone is published
  /// Per-request deadline: shed with kTimedOut if still unexecuted this many
  /// microseconds after enqueue. 0 = inherit ServerConfig::default_ttl_us;
  /// negative = no deadline even when the server has a default.
  std::int64_t ttl_us = 0;
  /// Opt this request's wave into redundant-lane execution (primary + shadow
  /// pass, output seals compared) even when the server-wide
  /// IntegrityConfig::redundant_lanes default is off.
  bool redundant = false;
  /// Written by submit() when checksum_spikes is armed: the admission seal of
  /// `image`, verified again when the wave forms (catches corruption while
  /// the request sat in the ring).
  Seal input_seal;
  /// Written before kDone when checksums are armed: the chained CRC32C seal
  /// over every timestep's final output map — the caller's end-to-end
  /// integrity handle for the served result.
  Seal result_seal;

  // Telemetry (steady_clock ns), written by the server.
  std::uint64_t enqueue_ns = 0;
  std::uint64_t dispatch_ns = 0;
  std::uint64_t complete_ns = 0;

  std::atomic<int> state{kIdle};

  /// Block until the server published a terminal state; returns true when
  /// the request completed (false = rejected / timed out / errored).
  bool wait() {
    int s = state.load(std::memory_order_acquire);
    while (s == kQueued) {
      state.wait(s, std::memory_order_acquire);
      s = state.load(std::memory_order_acquire);
    }
    return s == kDone;
  }

  /// Bounded wait: returns the observed state after at most ~timeout_us.
  /// Any value other than kQueued is terminal and the slot is the caller's
  /// again; kQueued means the server still owns the slot — keep it alive and
  /// call wait()/wait_for() again. (std::atomic has no timed wait, so this
  /// polls at a 50 us granularity; it is a convenience for callers with
  /// their own deadline, not the hot completion path.)
  int wait_for(std::int64_t timeout_us) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(std::max<std::int64_t>(
                              0, timeout_us));
    int s = state.load(std::memory_order_acquire);
    while (s == kQueued) {
      if (std::chrono::steady_clock::now() >= deadline) return s;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      s = state.load(std::memory_order_acquire);
    }
    return s;
  }

  double queue_us() const {
    return static_cast<double>(dispatch_ns - enqueue_ns) * 1e-3;
  }
  double latency_us() const {
    return static_cast<double>(complete_ns - enqueue_ns) * 1e-3;
  }
};

struct ServerConfig {
  std::size_t queue_capacity = 1024;  ///< admission ring (rounded up to 2^k)
  int timesteps = 1;                  ///< LIF steps per request
  /// Deadline: a partial wave fires once its oldest request has queued this
  /// long, so light-load latency is bounded by one deadline + one service.
  std::int64_t max_queue_delay_us = 2000;
  /// Wave-size bounds for the SLO controller. max_wave_lanes = 0 means
  /// RunOptions::segment_major_lanes.
  int min_wave_lanes = 1;
  int max_wave_lanes = 0;
  /// SLO-aware sizing on/off (off = every wave targets max_wave_lanes).
  bool adaptive_wave = true;
  /// Consecutive waves of evidence before the target moves (hysteresis).
  int controller_streak = 3;
  /// Deadline-fired waves at or below this fraction of the target shrink it.
  double shrink_occupancy = 0.5;
  /// Default per-request TTL (microseconds): a request still unexecuted this
  /// long after enqueue is shed with kTimedOut instead of served late.
  /// 0 = no deadline; ServeRequest::ttl_us overrides per request.
  std::int64_t default_ttl_us = 0;
  /// Transient-fault containment: a wave that throws TransientFault is
  /// retried from a clean lane state up to this many times before its
  /// requests fail with kError. Any other exception fails the wave
  /// immediately (still contained: the dispatcher keeps serving).
  int max_wave_retries = 2;
  /// Linear backoff between retry attempts (attempt k sleeps k * this);
  /// skipped while stopping so drain never dawdles.
  std::int64_t retry_backoff_us = 100;
  /// Deterministic fault schedule, keyed by wave index (never wall-clock).
  /// Structural events (fail-stop / slowdown / link degrade) are applied to
  /// the sharded backend before the first wave whose index reaches them;
  /// transient events make that wave's first execution attempts throw; data
  /// events (weight / spike / membrane flips) corrupt that wave's first
  /// `failures` attempts and are undone/regenerated between attempts.
  FaultPlan faults;
  /// Data-integrity protection switches (all off by default — bit-exact
  /// historical behavior). See runtime/integrity.hpp.
  IntegrityConfig integrity;
};

/// Aggregate telemetry snapshot. Histograms record microseconds.
struct ServerStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  ///< ring full or server stopped
  std::uint64_t completed = 0;
  std::uint64_t timed_out = 0;  ///< shed by TTL before execution
  std::uint64_t errored = 0;    ///< wave threw, retries exhausted
  std::uint64_t waves = 0;
  std::uint64_t full_waves = 0;      ///< fired because the target filled
  std::uint64_t deadline_waves = 0;  ///< fired by max_queue_delay_us
  std::uint64_t drain_waves = 0;     ///< fired by stop() draining
  int wave_grows = 0;
  int wave_shrinks = 0;
  int target_lanes = 0;  ///< controller target at snapshot time
  // Fault-domain telemetry (bench/fault_profile.cpp and the CI --fault guard
  // reconcile these against the FaultPlan that was injected).
  std::uint64_t wave_retries = 0;      ///< retry attempts after TransientFault
  std::uint64_t wave_errors = 0;       ///< waves that ended in kError
  std::uint64_t transient_faults = 0;  ///< TransientFault throws observed
  std::uint64_t cluster_failures = 0;  ///< fail-stop events accepted
  std::uint64_t faults_applied = 0;    ///< structural events applied in total
  int degrade_replans = 0;   ///< backend re-plan passes (one per fail-stop)
  int active_clusters = 0;   ///< surviving clusters at snapshot time
  // Data-integrity telemetry (bench/integrity_profile.cpp and the CI
  // --integrity guard reconcile these against the injected data faults).
  std::uint64_t corrupted = 0;           ///< requests that ended kCorrupted
  std::uint64_t integrity_checks = 0;    ///< seal verifications performed
  std::uint64_t integrity_mismatches = 0;  ///< verifications that failed
  std::uint64_t integrity_faults = 0;    ///< IntegrityFault throws observed
  /// Individual flips physically applied (an event active for k attempts
  /// counts k times — what actually hit live buffers).
  std::uint64_t data_faults_injected = 0;
  std::uint64_t redundant_waves = 0;     ///< waves that ran a shadow pass
  std::uint64_t crc_sealed_bytes = 0;    ///< bytes sealed or verified
  /// Modeled checker cycles: crc_sealed_bytes / crc_bytes_per_cycle — the
  /// protection overhead benches report against served cycles.
  double crc_cycles = 0;
  common::LogHistogram latency_us;  ///< enqueue -> complete
  common::LogHistogram queue_us;    ///< enqueue -> dispatch
  common::RunningStats wave_lanes;       ///< occupied lanes per wave
  common::RunningStats wave_occupancy;   ///< occupied / max_wave_lanes
  common::RunningStats queue_depth;      ///< backlog at dispatch
  common::RunningStats target_trace;     ///< controller target per wave
};

class InferenceServer {
 public:
  InferenceServer(const snn::Network& net, const kernels::RunOptions& opt,
                  const BackendConfig& backend = {},
                  const ServerConfig& server = {},
                  const arch::EnergyParams& energy = {});
  ~InferenceServer();  ///< stop()s first

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Thread-safe, lock-free, allocation-free admission. False = rejected
  /// (ring full or server stopped); the request is untouched apart from its
  /// state and may be resubmitted. On true the server owns `req` until its
  /// state turns terminal — keep it alive and call req.wait().
  bool submit(ServeRequest& req);

  /// Close admission, drain every queued request through normal waves, join
  /// the dispatcher. Idempotent; the destructor calls it.
  void stop();

  ServerStats stats() const;
  const InferenceEngine& engine() const { return engine_; }
  const ServerConfig& config() const { return cfg_; }
  int max_wave_lanes() const { return max_lanes_; }
  /// Current SLO-controller wave-size target.
  int target_lanes() const {
    return target_lanes_.load(std::memory_order_relaxed);
  }

 private:
  void dispatcher_loop();
  /// Block until work arrives, stop() is called, or (when `has_deadline`)
  /// the deadline passes. Never spins: sleeps on wake_cv_.
  void wait_for_work(bool has_deadline, std::uint64_t deadline_ns);
  void execute_wave(std::size_t wn, int target, int fire_reason);
  /// Effective TTL in ns (0 = none): per-request override, else the config
  /// default, else unbounded.
  std::uint64_t ttl_ns(const ServeRequest& req) const;
  /// Publish kTimedOut on an expired request (dispatcher thread only).
  void shed_expired(ServeRequest* req, std::uint64_t now);
  /// Apply every structural fault event whose wave index has arrived and
  /// hand this wave's transient and data-corruption events to integrity_.
  void apply_fault_events();
  /// Lazily build the shadow lanes for redundant-lane execution.
  void ensure_shadow();
  /// Hysteresis-gated wave-size update; see the header comment. Returns
  /// +1 / -1 / 0 for grow / shrink / hold (stats are recorded by the caller).
  int update_controller(std::size_t wn, int target, int fire_reason,
                        std::size_t backlog);

  InferenceEngine engine_;
  ServerConfig cfg_;
  int max_lanes_ = 1;
  std::int64_t delay_ns_ = 0;
  std::shared_ptr<WorkerPool> pool_;
  /// Non-null when the backend is sharded: the target for structural fault
  /// injection and the source of degraded-mode telemetry.
  const ShardedBackend* sharded_ = nullptr;

  BoundedMpscQueue<ServeRequest*> queue_;
  std::atomic<bool> closed_{false};  ///< admission closed (stop() phase 1)
  std::atomic<bool> stop_{false};    ///< dispatcher drain+exit (phase 2)
  std::atomic<int> submitting_{0};   ///< submits between closed_-check & push
  std::mutex join_mu_;
  std::atomic<bool> sleeping_{false};
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;

  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<int> target_lanes_{1};

  // Dispatcher-owned wave state (pre-sized at construction; reused forever).
  std::vector<ServeRequest*> wave_;
  std::vector<std::uint64_t> enqueue_snap_;  ///< see execute_wave()
  std::vector<snn::NetworkState> states_;
  std::vector<InferenceResult> steps_;
  std::vector<InferenceEngine::BatchLane> lanes_;

  // Data-integrity state (dispatcher-owned). The shadow lanes back
  // redundant-lane execution and are built lazily on the first redundant
  // wave (only servers that use the mode pay its state memory).
  WaveIntegrity integrity_;
  std::vector<snn::NetworkState> shadow_states_;
  std::vector<InferenceResult> shadow_steps_;
  std::vector<InferenceEngine::BatchLane> shadow_lanes_;

  // Controller streaks (dispatcher-owned).
  int grow_streak_ = 0;
  int shrink_streak_ = 0;

  // Fault-plan replay state (dispatcher-owned): wave_index_ counts executed
  // waves (shed-to-empty waves do not count) and next_fault_ is the cursor
  // into the plan's wave-sorted events — each event fires exactly once, at
  // the first wave whose index reaches it.
  std::uint64_t wave_index_ = 0;
  std::size_t next_fault_ = 0;

  mutable std::mutex stats_mu_;
  ServerStats stats_;

  std::thread dispatcher_;  ///< started last, joined by stop()
};

}  // namespace spikestream::runtime
