// Resource utilisation models (paper Sec. 5.1, Eqs. 3-5) and the bottom-up
// "implementation" model that substitutes for Vivado post-implementation
// reports (DESIGN.md Sec. 1).
#ifndef HDNN_ESTIMATOR_RESOURCE_MODEL_H_
#define HDNN_ESTIMATOR_RESOURCE_MODEL_H_

#include "common/types.h"
#include "platform/fpga_spec.h"
#include "platform/power_model.h"
#include "platform/profile_constants.h"

namespace hdnn {

/// Resource usage of NI accelerator instances.
struct ResourceEstimate {
  double luts = 0;
  double dsps = 0;
  double bram18 = 0;

  ResourceUsage AsUsage() const { return ResourceUsage{luts, dsps, bram18}; }
};

/// Analytical model, paper Eqs. 3-5 (per instance, scaled by cfg.ni):
///   N_DSP  = PI*PO*PT^2/pack + alpha*PO*m^2 + PO + beta          (Eq. 3)
///   N_BRAM = W/W_bram * (PI*PT^2 + PI*PO*PT^2 + (1+alpha)*PO*m^2) (Eq. 4)
///   N_LUT  = gamma * PI*PO*PT^2 * (1 + delta*m^2)                 (Eq. 5)
ResourceEstimate AnalyticalResources(const AccelConfig& cfg,
                                     const FpgaSpec& spec,
                                     const ProfileConstants& profile);

/// Bottom-up implementation model: counts instantiated multipliers (with
/// per-platform DSP packing), buffer partitions packed into BRAM blocks by
/// width x depth (shallow partitions map to LUTRAM), and per-component LUT
/// profiles. This is the "measured" number our Table 3 bench reports.
ResourceEstimate ImplementationResources(const AccelConfig& cfg,
                                         const FpgaSpec& spec,
                                         const ProfileConstants& profile,
                                         bool hybrid = true);

/// Raw device-limit check (paper Table 2: N_LUT < LUT, N_DSP < DSP,
/// N_BRAM < BRAM).
bool FitsDeviceLimits(const ResourceEstimate& est, const FpgaSpec& spec);

/// Per-die packing check for multi-die parts: instances must not straddle
/// dies, and each die keeps max_utilization headroom for cross-die routing
/// (paper Sec. 1). Applies to the implementation model.
bool FitsPerDie(const ResourceEstimate& est, const AccelConfig& cfg,
                const FpgaSpec& spec);

}  // namespace hdnn

#endif  // HDNN_ESTIMATOR_RESOURCE_MODEL_H_
