// Persistent worker pool: the one thread-spawn point of the runtime. The
// sharded backend (per-layer shard fan-out) and the batch runner (per-sample
// fan-out) used to each create std::thread workers per call — per *layer* in
// the sharded case, which broke the zero-allocation contract and paid thread
// start-up latency on the hottest path. The pool creates its threads once
// and hands out work through a lock-guarded intrusive job list:
//
//  * submitting a job allocates nothing — the Job lives on the submitter's
//    stack and the callable is a non-owning FunctionRef;
//  * the submitter always participates in its own job, so a pool with zero
//    threads degenerates to the serial loop and progress is guaranteed even
//    when every thread is busy (no deadlock under nesting: a batch-sample
//    task that fans out shards simply executes them itself while idle
//    threads help);
//  * results are deterministic by construction: tasks write disjoint outputs
//    and every merge happens in task order on the submitter, so the thread
//    count changes wall-clock only, never a result.
//
// Thread counts are clamped to hardware_concurrency() — oversubscription
// (batch workers x shard workers) is impossible by construction because both
// levels share the same fixed set of threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/function_ref.hpp"

namespace spikestream::runtime {

class WorkerPool {
 public:
  /// A pool with `threads` persistent workers, clamped to
  /// [0, hardware_concurrency() - 1] — the submitting thread is always the
  /// +1 that fills the machine.
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Run `fn(slot, index)` for every index in [0, n), blocking until all
  /// tasks finished. The caller participates. At most `max_slots` executors
  /// join; each concurrent executor of this job holds a distinct slot id in
  /// [0, max_slots), so callers can keep per-slot state (one NetworkState
  /// per batch worker). Reentrant: `fn` may itself call parallel_for on the
  /// same pool. The first exception thrown by a task is rethrown here after
  /// the job drains.
  void parallel_for(std::size_t n, std::size_t max_slots,
                    common::FunctionRef<void(std::size_t, std::size_t)> fn);

  int threads() const { return static_cast<int>(workers_.size()); }
  /// Maximum concurrent executors of one job: the workers plus a submitter.
  int slots() const { return static_cast<int>(workers_.size()) + 1; }

  /// `requested` clamped to [1, hardware_concurrency()].
  static int clamp_to_hardware(int requested);

 private:
  struct Job {
    Job(common::FunctionRef<void(std::size_t, std::size_t)> f, std::size_t n_,
        std::size_t max_slots_)
        : fn(f), n(n_), max_slots(max_slots_) {}
    common::FunctionRef<void(std::size_t, std::size_t)> fn;
    const std::size_t n;
    const std::size_t max_slots;
    std::atomic<std::size_t> next{0};        ///< task claim counter
    std::atomic<std::size_t> slot_count{0};  ///< executor slot counter
    // Guarded by the pool mutex:
    std::size_t done = 0;     ///< tasks finished (or skipped after an error)
    int active = 0;           ///< executors currently inside the job
    std::exception_ptr error;
    Job* next_job = nullptr;  ///< intrusive LIFO list link
  };

  /// Claim a slot and run tasks until the job is drained. Returns the number
  /// of tasks this executor accounted for (callers update `done` under the
  /// pool mutex).
  std::size_t run_tasks(Job& job, std::exception_ptr& error) const;

  void worker_loop();
  void unlink(Job* job);  // requires mu_ held

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: a job was pushed / stop
  std::condition_variable done_cv_;  ///< submitters: counts advanced
  Job* head_ = nullptr;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// `fn(i)` for every i in [0, n): one pool job when `pool` is non-null (the
/// caller participates), else a plain loop on the calling thread — the
/// per-lane and per-tile fan-out of a lockstep wave.
void for_each_index(WorkerPool* pool, std::size_t n,
                    common::FunctionRef<void(std::size_t)> fn);

}  // namespace spikestream::runtime
