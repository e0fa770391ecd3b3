#include "runtime/worker_pool.hpp"

#include <algorithm>

namespace spikestream::runtime {

int WorkerPool::clamp_to_hardware(int requested) {
  const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::clamp(requested, 1, hw);
}

WorkerPool::WorkerPool(int threads) {
  const int n = std::clamp(
      threads, 0,
      std::max(0, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::size_t WorkerPool::run_tasks(Job& job, std::exception_ptr& error) const {
  const std::size_t slot = job.slot_count.fetch_add(1);
  if (slot >= job.max_slots) return 0;  // lost the slot race, let others run
  std::size_t finished = 0;
  for (std::size_t i = job.next.fetch_add(1); i < job.n;
       i = job.next.fetch_add(1)) {
    ++finished;
    if (error) continue;  // drain claims without running after a failure
    try {
      job.fn(slot, i);
    } catch (...) {
      error = std::current_exception();
    }
  }
  return finished;
}

void WorkerPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    Job* job = nullptr;
    // A job is claimable while it has unclaimed tasks AND a free executor
    // slot; saturated or drained jobs are skipped (their own executors retire
    // them), so a worker never spins on work it cannot join.
    work_cv_.wait(lock, [&] {
      if (stop_) return true;
      for (Job* j = head_; j != nullptr; j = j->next_job) {
        if (j->next.load() < j->n && j->slot_count.load() < j->max_slots) {
          job = j;
          return true;
        }
      }
      return false;
    });
    if (stop_) return;
    ++job->active;  // pins the job: the submitter waits for active == 0
    std::exception_ptr error = job->error;
    lock.unlock();
    const std::size_t finished = run_tasks(*job, error);
    lock.lock();
    --job->active;
    job->done += finished;
    if (error && !job->error) job->error = error;
    if (job->next.load() >= job->n) unlink(job);
    done_cv_.notify_all();
  }
}

void WorkerPool::unlink(Job* job) {
  Job** p = &head_;
  while (*p != nullptr && *p != job) p = &(*p)->next_job;
  if (*p == job) *p = job->next_job;
}

void WorkerPool::parallel_for(
    std::size_t n, std::size_t max_slots,
    common::FunctionRef<void(std::size_t, std::size_t)> fn) {
  if (n == 0) return;
  if (workers_.empty() || max_slots <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(0, i);
    return;
  }
  Job job(fn, n, max_slots);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job.next_job = head_;  // LIFO: nested jobs drain before their parents
    head_ = &job;
  }
  // Wake only as many workers as the job can seat (the submitter takes one
  // slot itself): small shard jobs on big pools must not stampede every
  // thread per layer. Correctness never depends on wakeups — the submitter
  // participates regardless.
  const std::size_t wake =
      std::min<std::size_t>(std::min(n, max_slots) - 1, workers_.size());
  for (std::size_t i = 0; i < wake; ++i) work_cv_.notify_one();

  std::exception_ptr error;
  const std::size_t finished = run_tasks(job, error);

  std::unique_lock<std::mutex> lock(mu_);
  job.done += finished;
  if (error && !job.error) job.error = error;
  unlink(&job);  // no new executor may join once the submitter waits
  done_cv_.wait(lock,
                [&job] { return job.done == job.n && job.active == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void for_each_index(WorkerPool* pool, std::size_t n,
                    common::FunctionRef<void(std::size_t)> fn) {
  if (pool == nullptr) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->parallel_for(n, n, [&](std::size_t, std::size_t i) { fn(i); });
}

}  // namespace spikestream::runtime
