// Workload-stealing scheduler simulation (Section III-B): each core, on
// finishing its receptive field, atomically fetches the next unprocessed RF
// (`next_rf` tag). With per-task cycle costs known, this is equivalent to
// greedy list scheduling in task order onto the earliest-free core, plus the
// steal cost per task. A static round-robin variant backs the ablation bench.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/simd.hpp"

namespace spikestream::kernels {

struct ScheduleResult {
  std::vector<double> core_cycles;  ///< finish time per core
  double makespan = 0;

  double imbalance() const {
    double lo = 1e300, hi = 0;
    for (double c : core_cycles) {
      lo = std::min(lo, c);
      hi = std::max(hi, c);
    }
    return core_cycles.empty() || hi == 0 ? 0.0 : (hi - lo) / hi;
  }
};

/// Latest core finish time (0 for no cores).
inline double makespan_of(std::span<const double> core_cycles) {
  double m = 0;
  for (double c : core_cycles) m = std::max(m, c);
  return m;
}

/// Dynamic workload stealing into a caller-owned result (scratch reuse, no
/// allocations once `core_cycles` capacity is warm): tasks claimed in order
/// by the earliest-free core (lowest index on ties, matching the atomic
/// next_rf fetch); each claim pays `steal_cost` cycles. Runs on the widest
/// host SIMD tier (common::simd::steal_schedule).
inline void steal_schedule_into(std::span<const double> task_cycles, int cores,
                                double steal_cost, ScheduleResult& r) {
  r.core_cycles.resize(static_cast<std::size_t>(cores));
  common::simd::steal_schedule(task_cycles.data(), task_cycles.size(), cores,
                               steal_cost, r.core_cycles.data());
  r.makespan = makespan_of(r.core_cycles);
}

/// Dynamic workload stealing: tasks claimed in order by the earliest-free
/// core; each claim pays `steal_cost` cycles.
inline ScheduleResult steal_schedule(std::span<const double> task_cycles,
                                     int cores, double steal_cost) {
  ScheduleResult r;
  steal_schedule_into(task_cycles, cores, steal_cost, r);
  return r;
}

/// Static round-robin pre-assignment into a caller-owned result.
inline void static_schedule_into(std::span<const double> task_cycles,
                                 int cores, ScheduleResult& r) {
  r.core_cycles.assign(static_cast<std::size_t>(cores), 0.0);
  for (std::size_t i = 0; i < task_cycles.size(); ++i) {
    r.core_cycles[i % static_cast<std::size_t>(cores)] += task_cycles[i];
  }
  r.makespan = makespan_of(r.core_cycles);
}

/// Static round-robin pre-assignment (ablation baseline): core i gets tasks
/// i, i+cores, i+2*cores, ... regardless of their dynamic cost.
inline ScheduleResult static_schedule(std::span<const double> task_cycles,
                                      int cores) {
  ScheduleResult r;
  static_schedule_into(task_cycles, cores, r);
  return r;
}

}  // namespace spikestream::kernels
