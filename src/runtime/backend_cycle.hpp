// ISS-calibrated backend: functional results come from the analytical path
// (so spikes stay bit-identical across backends), but each layer's compute
// time is re-anchored against the cycle-level `arch::Cluster` simulator.
//
// Per layer we derive the mean SpVA stream length (conv/FC) or the dense dot
// length (encode), replay a representative sequence of the paper's inner
// loops on a fresh single-core cluster (kernels/iss_kernels), and scale the
// analytical compute-critical-path by measured/modeled. This promotes the
// model-vs-ISS cross-validation of tests/test_model_vs_iss.cpp from a test
// into an execution mode; calibration runs are cached by (loop kind, bucketed
// length) so a full network costs only a handful of ISS invocations.
#pragma once

#include <array>
#include <mutex>

#include "runtime/backend.hpp"

namespace spikestream::runtime {

class CycleAccurateBackend : public AnalyticalBackend {
 public:
  explicit CycleAccurateBackend(const kernels::RunOptions& opt,
                                int sample_spvas = 32);

  const char* name() const override { return "cycle-accurate"; }

  /// Pre-calibrates the full logarithmic bucket grid of every ratio kind the
  /// configured variant can request (~50 ISS runs per kind, once per
  /// engine). Steady-state execution then never calibrates — and therefore
  /// never allocates — whatever occupancy trajectory the workload follows.
  void prepare(const snn::Network& net) const override;

  // Every execution path is inherited from AnalyticalBackend and funnels
  // into the virtual timing tails below, which append the ISS re-anchoring —
  // so per-lane, row-tiled and segment-major batch execution all stay
  // calibrated through one code path.

  /// Measured/modeled cycle ratio for sparse SpVAs of mean length `len`
  /// (exposed for tests; cached, thread-safe).
  double sparse_ratio(double len) const;
  /// Same for the dense encode dot product of length `len`.
  double dense_ratio(double len) const;
  /// Same for the kDenseNoTc ablation's per-window dense stream of `len`
  /// elements (affine weight + activation streams, single accumulator).
  double dense_no_tc_ratio(double len) const;
  /// Same for the baseline encode layer's 2x-unrolled scalar dot of `len`.
  double baseline_dense_ratio(double len) const;

 protected:
  // Exact analytical timing + ISS re-anchoring of the compute critical path.
  void time_encode(const snn::LayerSpec& spec,
                   kernels::KernelScratch& ks) const override;
  void time_conv(const snn::LayerSpec& spec, const compress::CsrIfmap& ifmap,
                 kernels::KernelScratch& ks) const override;
  void time_fc(const snn::LayerSpec& spec, const compress::CsrIfmap& ifmap,
               kernels::KernelScratch& ks) const override;

 private:
  // Bucket-index twins of the public ratio lookups: prepare() iterates the
  // grid by index (several low indices share a rounded representative
  // length, so a length-driven warmup would leave slots cold).
  double sparse_ratio_bucket(std::size_t idx) const;
  double dense_ratio_bucket(std::size_t idx) const;
  double dense_no_tc_ratio_bucket(std::size_t idx) const;
  double baseline_dense_ratio_bucket(std::size_t idx) const;

  /// Rescale the compute critical path of `run` by `ratio`, keeping the
  /// DMA timeline and re-deriving the overlapped wall-clock cycles.
  void retime(kernels::LayerRun& run, double ratio) const;

  int sample_spvas_;
  mutable std::mutex mu_;
  /// Fixed-capacity ratio caches indexed by logarithmic length bucket
  /// (~12% granularity, 6 buckets per octave), < 0 = not yet calibrated.
  /// The former integer-rounded buckets made steady state churn: mean
  /// stream lengths jitter by ±1 between timesteps, so every timestep
  /// calibrated a "new" bucket — ISS runs plus heap allocations (the 40
  /// allocs/layer this backend used to show) forever. The log grid absorbs
  /// that jitter, is small enough to exhaust (≤ ~50 entries per kind, array
  /// storage, no node allocations), and keeps the ratio a pure function of
  /// the requested length — cycle counts stay independent of execution
  /// order, which the pipelined executor's parity tests rely on.
  static constexpr std::size_t kSparseBuckets = 49;  ///< lengths 1..256
  static constexpr std::size_t kDenseBuckets = 55;   ///< lengths 8..4096
  using SparseCache = std::array<double, kSparseBuckets>;
  using DenseCache = std::array<double, kDenseBuckets>;
  mutable SparseCache sparse_cache_;
  mutable DenseCache dense_cache_;
  mutable DenseCache dense_no_tc_cache_;
  mutable DenseCache baseline_dense_cache_;
};

}  // namespace spikestream::runtime
