// Per-layer threshold calibration: choose each layer's v_th so its average
// output firing rate over a calibration batch matches a target profile.
//
// Because a single-timestep LIF with zero initial membrane fires exactly when
// r * i >= v_th, the threshold achieving a target rate is the corresponding
// quantile of the layer's input-current distribution — no bisection needed.
// Layers are calibrated front to back so each layer sees the spike statistics
// produced by the already-calibrated prefix (the "threshold balancing"
// technique from the ANN->SNN conversion literature).
#pragma once

#include <span>
#include <vector>

#include "snn/network.hpp"
#include "snn/tensor.hpp"

namespace spikestream::snn {

/// Target *output* firing rate per layer. The paper's Fig. 3a profile (rates
/// decrease with depth; FC layers extremely sparse) translated to outputs:
/// layer l's output rate is layer l+1's ifmap activity (before re-padding).
std::vector<double> svgg11_target_rates();

/// Target output rates for Network::make_wide_fc (the DMA spill bench
/// vehicle): moderate encode activity, sparse FC stack like the paper's
/// classifier layers.
std::vector<double> wide_fc_target_rates();

/// Target output rates for Network::make_deep_tower(depth, ...): moderate
/// encode output, a flat mid-rate through the identical tower convs (keeps
/// the pipeline stages balanced), sparse head.
std::vector<double> deep_tower_target_rates(int depth = 14);

/// Calibrate `net` thresholds in place over the calibration images.
/// Returns the achieved mean output rate per layer. Above the set-up gate
/// (Network::threaded_setup) the per-image passes run on a transient worker
/// pool, joined before return; thresholds and rates are the serial ones.
std::vector<double> calibrate_thresholds(Network& net,
                                         std::span<const Tensor> images,
                                         std::span<const double> target_rates);

}  // namespace spikestream::snn
