#include "runtime/backend_cycle.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/cluster.hpp"
#include "common/rng.hpp"
#include "kernels/cost_model.hpp"
#include "kernels/iss_kernels.hpp"
#include "kernels/tiling.hpp"

namespace spikestream::runtime {

namespace {

constexpr int kWeightUniverse = 512;
constexpr double kRatioLo = 0.5;  ///< sanity clamp: model and ISS are
constexpr double kRatioHi = 2.0;  ///< cross-validated within ~15%

arch::Cluster calibration_cluster() {
  arch::ClusterConfig cfg;
  // Cold-I$ effects are charged separately (icache_layer_warmup), so the
  // calibration loops run with a warm cache, exactly like the model-vs-ISS
  // cross-validation tests.
  cfg.icache_miss_penalty = 0;
  return arch::Cluster(cfg);
}

std::vector<std::uint16_t> rand_idcs(int n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::uint16_t> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v.push_back(static_cast<std::uint16_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(kWeightUniverse))));
  }
  return v;
}

// Logarithmic length grid shared by every ratio cache: ~12% granularity (6
// buckets per octave). bucket_index() maps a requested length onto the grid;
// bucket_length() is the representative length the calibration run replays —
// a pure function of the request, so ratios are independent of lookup order.
constexpr double kBucketsPerOctave = 6.0;

std::size_t bucket_index(double len, double lo, double hi) {
  const double x = std::clamp(len, lo, hi);
  const double base = std::log2(lo) * kBucketsPerOctave;
  return static_cast<std::size_t>(
      std::lround(std::log2(x) * kBucketsPerOctave - base));
}

long bucket_length(std::size_t idx, double lo, double hi) {
  const double base = std::log2(lo) * kBucketsPerOctave;
  const double len =
      std::exp2((static_cast<double>(idx) + base) / kBucketsPerOctave);
  return std::clamp(static_cast<long>(std::lround(len)),
                    static_cast<long>(lo), static_cast<long>(hi));
}

std::size_t sparse_bucket(double len) { return bucket_index(len, 1, 256); }
long sparse_bucket_length(std::size_t idx) { return bucket_length(idx, 1, 256); }

std::size_t dense_bucket(double len) { return bucket_index(len, 8, 4096); }
long dense_bucket_length(std::size_t idx) {
  long b = bucket_length(idx, 8, 4096);
  b += b & 1;  // the 2-accumulator ISS dot requires an even length
  return b;
}

}  // namespace

CycleAccurateBackend::CycleAccurateBackend(const kernels::RunOptions& opt,
                                           int sample_spvas)
    : AnalyticalBackend(opt),
      sample_spvas_(std::max(4, sample_spvas)) {
  sparse_cache_.fill(-1.0);
  dense_cache_.fill(-1.0);
  dense_no_tc_cache_.fill(-1.0);
  baseline_dense_cache_.fill(-1.0);
}

void CycleAccurateBackend::prepare(const snn::Network& net) const {
  (void)net;  // grid bounds are workload-independent
  // Calibrate by bucket *index*, not by representative length: several low
  // indices share a rounded representative length, so a length-driven loop
  // would leave those slots cold and steady-state requests landing on them
  // would still calibrate (and allocate) lazily. Sparse SpVA ratios cover
  // every variant's conv/FC path; the dense grids are only reachable from
  // specific variants — skip the unreachable ones.
  for (std::size_t i = 0; i < kSparseBuckets; ++i) sparse_ratio_bucket(i);
  for (std::size_t i = 0; i < kDenseBuckets; ++i) {
    if (opt_.variant == kernels::Variant::kBaseline) {
      baseline_dense_ratio_bucket(i);
    } else {
      dense_ratio_bucket(i);
    }
    if (opt_.variant == kernels::Variant::kDenseNoTc) {
      dense_no_tc_ratio_bucket(i);
    }
  }
}

double CycleAccurateBackend::sparse_ratio(double len) const {
  return sparse_ratio_bucket(sparse_bucket(len));
}

double CycleAccurateBackend::sparse_ratio_bucket(std::size_t idx) const {
  const long b = sparse_bucket_length(idx);
  std::lock_guard<std::mutex> lock(mu_);
  if (sparse_cache_[idx] >= 0) return sparse_cache_[idx];

  const kernels::CostParams& p = opt_.cost;
  auto cl = calibration_cluster();
  std::vector<double> w(kWeightUniverse, 1.0);
  double measured = 0, modeled = 0;
  if (opt_.variant == kernels::Variant::kBaseline) {
    // One long baseline SpVA amortizes the microkernel prologue so the ratio
    // tracks the per-element slope (Listing 1b).
    const int n = static_cast<int>(
        std::min<long>(b * sample_spvas_, 4096L));
    const auto r = kernels::iss_baseline_spva(cl, w, rand_idcs(n, 11u + b));
    measured = static_cast<double>(r.cycles);
    modeled = kernels::baseline_spva_cycles(p, n);
  } else {
    // Back-to-back streamed SpVAs exercising the SSR shadow-register overlap
    // (Listing 1c), matching how the conv kernel issues them.
    std::vector<std::vector<std::uint16_t>> streams;
    streams.reserve(static_cast<std::size_t>(sample_spvas_));
    for (int j = 0; j < sample_spvas_; ++j) {
      streams.push_back(rand_idcs(static_cast<int>(b),
                                  100u + static_cast<std::uint64_t>(j)));
    }
    const auto r = kernels::iss_spikestream_spva_sequence(cl, w, streams);
    measured = static_cast<double>(r.cycles);
    modeled = kernels::spikestream_spva_cycles(p, static_cast<double>(b), 1.0) *
              sample_spvas_;
  }
  const double ratio =
      std::clamp(modeled > 0 ? measured / modeled : 1.0, kRatioLo, kRatioHi);
  sparse_cache_[idx] = ratio;
  return ratio;
}

double CycleAccurateBackend::dense_ratio(double len) const {
  return dense_ratio_bucket(dense_bucket(len));
}

double CycleAccurateBackend::dense_ratio_bucket(std::size_t idx) const {
  const long b = dense_bucket_length(idx);
  std::lock_guard<std::mutex> lock(mu_);
  if (dense_cache_[idx] >= 0) return dense_cache_[idx];

  const kernels::CostParams& p = opt_.cost;
  auto cl = calibration_cluster();
  std::vector<double> a(static_cast<std::size_t>(b), 1.0);
  std::vector<double> w(static_cast<std::size_t>(b), 0.5);
  const auto r = kernels::iss_dense_dot(cl, a, w, p.dense_accumulators);
  const double modeled =
      kernels::spikestream_dense_dot_cycles(p, static_cast<double>(b), 1.0);
  const double ratio = std::clamp(
      modeled > 0 ? static_cast<double>(r.cycles) / modeled : 1.0, kRatioLo,
      kRatioHi);
  dense_cache_[idx] = ratio;
  return ratio;
}

double CycleAccurateBackend::dense_no_tc_ratio(double len) const {
  // The kDenseNoTc ablation walks the whole fan-in with an affine weight
  // stream and the dense 0/1 activation vector alongside — exactly the
  // two-stream fmadd loop of iss_dense_dot, but with a single accumulator
  // (it replaces the sparse SpVA's reduction register one for one). The
  // layer model optimistically charges it at the fadd II; the ISS twin
  // surfaces the real single-accumulator fmadd II, instead of the silent
  // ratio of 1.0 this variant used to get.
  return dense_no_tc_ratio_bucket(dense_bucket(len));
}

double CycleAccurateBackend::dense_no_tc_ratio_bucket(std::size_t idx) const {
  const long b = dense_bucket_length(idx);
  std::lock_guard<std::mutex> lock(mu_);
  if (dense_no_tc_cache_[idx] >= 0) return dense_no_tc_cache_[idx];

  const kernels::CostParams& p = opt_.cost;
  auto cl = calibration_cluster();
  std::vector<double> act(static_cast<std::size_t>(b), 1.0);
  std::vector<double> w(static_cast<std::size_t>(b), 0.5);
  const auto r = kernels::iss_dense_dot(cl, act, w, 1);
  const double modeled =
      p.fadd_latency * static_cast<double>(b) + p.ss_residue;
  const double ratio = std::clamp(
      modeled > 0 ? static_cast<double>(r.cycles) / modeled : 1.0, kRatioLo,
      kRatioHi);
  dense_no_tc_cache_[idx] = ratio;
  return ratio;
}

double CycleAccurateBackend::baseline_dense_ratio(double len) const {
  return baseline_dense_ratio_bucket(dense_bucket(len));
}

double CycleAccurateBackend::baseline_dense_ratio_bucket(
    std::size_t idx) const {
  const long b = dense_bucket_length(idx);
  std::lock_guard<std::mutex> lock(mu_);
  if (baseline_dense_cache_[idx] >= 0) return baseline_dense_cache_[idx];

  const kernels::CostParams& p = opt_.cost;
  auto cl = calibration_cluster();
  std::vector<double> act(static_cast<std::size_t>(b), 1.0);
  std::vector<double> w(static_cast<std::size_t>(b), 0.5);
  const auto r = kernels::iss_baseline_dense_dot(cl, act, w);
  const double modeled =
      kernels::baseline_dense_dot_cycles(p, static_cast<double>(b));
  const double ratio = std::clamp(
      modeled > 0 ? static_cast<double>(r.cycles) / modeled : 1.0, kRatioLo,
      kRatioHi);
  baseline_dense_cache_[idx] = ratio;
  return ratio;
}

void CycleAccurateBackend::retime(kernels::LayerRun& run, double ratio) const {
  const kernels::CostParams& p = opt_.cost;
  kernels::KernelStats& st = run.stats;
  const double warmup = p.icache_layer_warmup;
  st.compute_cycles =
      warmup + std::max(0.0, st.compute_cycles - warmup) * ratio;
  for (double& c : st.core_cycles) c *= ratio;
  // dma_saved_bytes > 0 marks a batch-reuse warm run: re-derive the overlap
  // from the same (weight-free) DMA timeline the analytical pass charged.
  // Segment-major plans take precedence inside overlap_cycles regardless of
  // the flag — their amortized timeline has no warm/cold split. The plan's
  // DMA timeline already carries the banked-DRAM pricing (row penalties,
  // spill overlap) when CostParams::dram is banked, so re-anchoring the
  // compute path keeps the row-hit/row-miss/hidden itemization in st intact.
  st.cycles = kernels::overlap_cycles(run.plan, st.compute_cycles,
                                      opt_.double_buffer,
                                      st.dma_saved_bytes > 0);
}

void CycleAccurateBackend::time_conv(const snn::LayerSpec& spec,
                                     const compress::CsrIfmap& ifmap,
                                     kernels::KernelScratch& ks) const {
  AnalyticalBackend::time_conv(spec, ifmap, ks);
  kernels::LayerRun& run = ks.run;
  if (opt_.variant == kernels::Variant::kDenseNoTc) {
    // Every window streams the full fan-in, so the representative dense
    // stream length is exact, not a mean.
    retime(run, dense_no_tc_ratio(spec.in_c));
    return;
  }
  // Representative SpVA length: mean over every stream the kernel walks
  // (each of the k*k windows of every output position). Each input position
  // (y, x) is covered by cov(y)*cov(x) windows, so one O(positions) sweep
  // over the CSR row counts replaces the former O(positions * k^2) loop and
  // produces the identical sum (all addends are exact integers).
  double elems = 0;
  const int oh = spec.out_h(), ow = spec.out_w();
  const int ih = ifmap.h(), iw = ifmap.w();
  const int k = spec.k;
  auto coverage = [k](int pos, int out_dim) {
    return std::min(k - 1, pos) - std::max(0, pos - out_dim + 1) + 1;
  };
  for (int y = 0; y < ih; ++y) {
    const double cy = coverage(y, oh);
    for (int x = 0; x < iw; ++x) {
      elems += cy * coverage(x, ow) * ifmap.stream_len(y, x);
    }
  }
  const double n_streams =
      static_cast<double>(oh) * ow * spec.k * spec.k;
  retime(run, sparse_ratio(n_streams > 0 ? elems / n_streams : 1.0));
}

void CycleAccurateBackend::time_fc(const snn::LayerSpec& spec,
                                   const compress::CsrIfmap& ifmap,
                                   kernels::KernelScratch& ks) const {
  AnalyticalBackend::time_fc(spec, ifmap, ks);
  kernels::LayerRun& run = ks.run;
  const double segs = std::max(1, run.plan.in_segments);
  if (opt_.variant == kernels::Variant::kDenseNoTc) {
    retime(run, dense_no_tc_ratio(static_cast<double>(spec.in_c) / segs));
    return;
  }
  const double s_seg = static_cast<double>(ifmap.nnz()) / segs;
  retime(run, sparse_ratio(s_seg));
}

void CycleAccurateBackend::time_encode(const snn::LayerSpec& spec,
                                       kernels::KernelScratch& ks) const {
  AnalyticalBackend::time_encode(spec, ks);
  const double dot_len =
      static_cast<double>(spec.k) * spec.k * spec.in_c;
  if (opt_.variant == kernels::Variant::kBaseline) {
    retime(ks.run, baseline_dense_ratio(dot_len));
    return;
  }
  retime(ks.run, dense_ratio(dot_len));
}

}  // namespace spikestream::runtime
