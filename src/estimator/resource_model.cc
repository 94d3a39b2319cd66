#include "estimator/resource_model.h"

#include <cmath>

#include "common/check.h"
#include "common/math_util.h"
#include "mem/onchip_buffer.h"

namespace hdnn {
namespace {

/// BRAM18 blocks for one physical buffer: `partitions` independent banks of
/// `depth` words x `width` bits. Banks deeper than the LUTRAM threshold use
/// BRAM; a true-dual-port BRAM18 can host two banks when one bank fits half
/// the block (the pair-packing Vivado applies to shallow partitions).
struct BufferCost {
  double bram18 = 0;
  double lutram_bits = 0;
};

BufferCost BankedBufferCost(double partitions, double depth, double width,
                            const ProfileConstants& p) {
  BufferCost cost;
  if (depth <= 0 || partitions <= 0) return cost;
  if (depth < p.lutram_depth_threshold) {
    cost.lutram_bits = partitions * depth * width;
    return cost;
  }
  const double width_blocks = std::ceil(width / p.bram_width);
  const double depth_blocks = std::ceil(depth / p.bram_depth);
  double per_bank = width_blocks * depth_blocks;
  if (per_bank == 1.0 && depth * 2 <= p.bram_depth &&
      width <= p.bram_width) {
    // Two shallow banks share one true-dual-port block.
    cost.bram18 = std::ceil(partitions / 2.0);
  } else {
    cost.bram18 = partitions * per_bank;
  }
  return cost;
}

// Implementation-model LUT coefficients, profiled at the paper's two design
// points (see DESIGN.md Sec. 4 and profile_constants.h).
constexpr double kLutPerMacPack1 = 153.0;
constexpr double kLutPerMacPack2 = 106.6;
constexpr double kLutPerTransformLane = 29.6;
constexpr double kLutFixedControl = 5000.0;

double LutPerMac(const FpgaSpec& spec) {
  return spec.dsp_pack >= 2.0 ? kLutPerMacPack2 : kLutPerMacPack1;
}

}  // namespace

ResourceEstimate AnalyticalResources(const AccelConfig& cfg,
                                     const FpgaSpec& spec,
                                     const ProfileConstants& profile) {
  cfg.Validate();
  const double pe = static_cast<double>(cfg.pi) * cfg.po * cfg.pt * cfg.pt;
  const double m2 = static_cast<double>(cfg.wino_m()) * cfg.wino_m();

  ResourceEstimate est;
  // Eq. 3 (pack generalises the multiplier->DSP mapping; pack=1 reproduces
  // the printed equation).
  est.dsps = cfg.ni * (pe / spec.dsp_pack + profile.alpha * cfg.po * m2 +
                       cfg.po + profile.beta);
  // Eq. 4.
  est.bram18 = cfg.ni * (static_cast<double>(cfg.data_width) / profile.bram_width) *
               (cfg.pi * cfg.pt * cfg.pt + pe +
                (1 + profile.alpha) * cfg.po * m2);
  // Eq. 5.
  est.luts = cfg.ni * profile.gamma * pe * (1 + profile.delta * m2);
  return est;
}

ResourceEstimate ImplementationResources(const AccelConfig& cfg,
                                         const FpgaSpec& spec,
                                         const ProfileConstants& profile,
                                         bool hybrid) {
  cfg.Validate();
  const double pe = static_cast<double>(cfg.pi) * cfg.po * cfg.pt * cfg.pt;
  const double m = cfg.wino_m();
  const double m2 = m * m;

  // --- DSPs: PE multipliers (packed), requantisation multipliers, bias,
  // address generation.
  const double dsp_per_inst = pe / spec.dsp_pack +
                              profile.alpha * cfg.po * m2 + cfg.po +
                              profile.beta;

  // --- BRAM: the three ping-pong buffers with their Table 1 physical
  // partitionings (Winograd factors are the per-dimension maxima; see
  // mem/onchip_buffer.h), plus the accumulation buffer and FIFOs.
  const ConvMode part_mode = hybrid ? ConvMode::kWinograd : ConvMode::kSpatial;
  const double in_parts = InBufferPartition(part_mode, cfg).total();
  const double wgt_parts = WgtBufferPartition(part_mode, cfg).total();
  const double out_parts = OutBufferPartition(part_mode, cfg).total();

  const double in_elems = 2.0 * cfg.input_buffer_vectors * cfg.pi;
  const double wgt_elems = 2.0 * cfg.weight_buffer_vectors * cfg.pi * cfg.po;
  const double out_elems = 2.0 * cfg.output_buffer_vectors * cfg.po;

  double bram = 0, lutram_bits = 0;
  const auto add = [&](BufferCost c) {
    bram += c.bram18;
    lutram_bits += c.lutram_bits;
  };
  add(BankedBufferCost(in_parts, in_elems / in_parts, cfg.data_width, profile));
  add(BankedBufferCost(wgt_parts, wgt_elems / wgt_parts, 16, profile));
  add(BankedBufferCost(out_parts, out_elems / out_parts, cfg.data_width,
                       profile));
  // Accumulation buffer: alpha*PO*m^2 wide-word banks, shallow (one group's
  // tiles), octa-packed into BRAM.
  if (hybrid) {
    bram += std::ceil(profile.alpha * cfg.po * m2 / 8.0);
  } else {
    bram += std::ceil(profile.alpha * cfg.po * cfg.pt / 8.0);
  }
  // Handshake/instruction FIFOs.
  bram += 4;

  // --- LUTs: MAC glue, transform lanes, managers/control, LUTRAM.
  double lut_per_inst = LutPerMac(spec) * pe + kLutFixedControl +
                        lutram_bits * profile.lutram_luts_per_bit;
  if (hybrid) {
    const double transform_lanes =
        (cfg.pi * cfg.pt * cfg.pt + cfg.po * m2) * m;
    lut_per_inst += kLutPerTransformLane * transform_lanes;
  }

  ResourceEstimate est;
  est.dsps = std::round(cfg.ni * dsp_per_inst);
  est.bram18 = std::round(cfg.ni * bram);
  est.luts = std::round(cfg.ni * lut_per_inst);
  return est;
}

ResourceFit FitsDeviceLimits(const ResourceEstimate& est,
                             const FpgaSpec& spec) {
  return {est.luts <= spec.luts, est.dsps <= spec.dsps,
          est.bram18 <= spec.bram18};
}

ResourceFit FitsPerDie(const ResourceEstimate& est, const AccelConfig& cfg,
                       const FpgaSpec& spec) {
  if (spec.dies <= 1 || cfg.ni < 1) {
    const double cap = spec.max_utilization;
    return {est.luts <= cap * spec.luts, est.dsps <= cap * spec.dsps,
            est.bram18 <= cap * spec.bram18};
  }
  const double cap = spec.max_utilization;
  const int inst_per_die = static_cast<int>(CeilDiv(cfg.ni, spec.dies));
  const double per_inst_lut = est.luts / cfg.ni;
  const double per_inst_dsp = est.dsps / cfg.ni;
  const double per_inst_bram = est.bram18 / cfg.ni;
  return {inst_per_die * per_inst_lut <= cap * spec.luts_per_die(),
          inst_per_die * per_inst_dsp <= cap * spec.dsps_per_die(),
          inst_per_die * per_inst_bram <= cap * spec.bram18_per_die()};
}

}  // namespace hdnn
