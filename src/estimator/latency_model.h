// Analytical latency models (paper Sec. 5.2, Eqs. 6-15) and the CONV
// operation partitioning math of Sec. 4.2.4 (shared with the compiler).
//
// All times are in accelerator clock cycles (double); convert with
// FpgaSpec::freq_mhz. Bandwidth enters as elements/cycle, elements being
// 16-bit DRAM words, matching the paper's element-granular Eqs. 8-11.
#ifndef HDNN_ESTIMATOR_LATENCY_MODEL_H_
#define HDNN_ESTIMATOR_LATENCY_MODEL_H_

#include <cstdint>

#include "common/math_util.h"
#include "common/types.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"

namespace hdnn {

/// Input-window extent, in rows or columns, that `n` output rows or columns
/// of one group read along an axis with kernel size `kernel`: ceil(n/m)
/// Winograd tiles advance m inputs each and the last reads a PT-wide tile
/// plus 3 per extra kernel slice; Spatial reads (n-1)*stride + kernel. The
/// estimator's slab and halo terms and the compiler's slab geometry all
/// use this one rule.
inline std::int64_t InputWindowExtent(ConvMode mode, std::int64_t n,
                                      int kernel, int stride,
                                      const AccelConfig& cfg) {
  if (mode == ConvMode::kWinograd) {
    const std::int64_t m = cfg.wino_m();
    return (CeilDiv(n, m) - 1) * m + cfg.pt +
           3 * (CeilDiv<std::int64_t>(kernel, 3) - 1);
  }
  return (n - 1) * stride + kernel;
}

/// CONV operation partitioning (paper Sec. 4.2.4): input/output fmaps are
/// split into `num_groups` row groups along H (1 row for Spatial, m rows for
/// Winograd, scaled up when a fused pool window needs more rows); weights
/// are split into `gk` groups along K and, when one slice of one K-group
/// still exceeds the weight buffer, into `cb` blocks along C.
struct GroupCounts {
  int num_groups = 1;   ///< input/output row groups (H or H/m)
  int rows_per_group = 1;  ///< output rows produced per group
  int wg = 1;           ///< column groups (wide rows that exceed the input
                        ///< buffer are tiled along W with halo overlap)
  int cols_per_group = 1;  ///< output cols per column group
  int gk = 1;           ///< weight groups along output channels
  int k_per_group = 1;  ///< output channels per weight group (last may be less)
  int cb = 1;           ///< channel blocks along input channels
  int c_per_block = 1;  ///< input channels per block (last may be less)
  int slices = 1;       ///< kernel-decomposition slices (Winograd)

  /// Total (row x column) fmap groups.
  int fmap_groups() const { return num_groups * wg; }
};

/// Computes the partitioning of one layer under `mode` for config `cfg`.
/// Throws CapacityError if even a minimal group cannot fit on-chip.
GroupCounts ComputeGroups(const ConvLayer& layer, const FmapShape& in,
                          ConvMode mode, const AccelConfig& cfg);

/// True iff the layer can execute in Winograd mode at all (stride must be 1;
/// kernel any size via decomposition).
bool WinogradApplicable(const ConvLayer& layer);

/// True iff a layer partitioned as `g` can run under `flow` — the
/// compiler's loop-order rule, which the DSE filters on. Channel blocking
/// (cb > 1) needs WS, a single fmap group and a single kernel slice;
/// decomposed kernels (slices > 1) accumulate slices on chip per fmap
/// group, which needs IS.
bool DataflowLegal(const GroupCounts& g, Dataflow flow);

/// Per-layer latency decomposition, cycles.
struct LatencyBreakdown {
  double t_ldi = 0;      ///< LOAD_INP, one full pass of the input fmap (Eq. 10)
  double t_ldw = 0;      ///< LOAD_WGT, one full pass of all weights (Eq. 8/9)
  double t_cp = 0;       ///< COMP (Eq. 6/7)
  double t_sv = 0;       ///< SAVE, one full pass of the output fmap (Eq. 11)
  double penalty = 0;    ///< non-hidable memory latency (Sec. 5.2)
  double total = 0;      ///< Eq. 12-15

  double Seconds(double freq_mhz) const { return total / (freq_mhz * 1e6); }
};

/// Fused-segment residency context of one layer (compiler/fusion.h): which
/// of its fmap streams are on-chip hand-offs instead of DRAM transfers.
struct FusionContext {
  bool input_resident = false;   ///< LOAD_INP reads the resident mirror
  bool output_resident = false;  ///< SAVE writes the resident mirror

  friend bool operator==(const FusionContext&, const FusionContext&) = default;
};

/// Eqs. 6-15 for one layer under (mode, dataflow). `ni` instances share the
/// platform DRAM bandwidth (spec.bandwidth_per_instance_gbps).
LatencyBreakdown EstimateLayerLatency(const ConvLayer& layer,
                                      const FmapShape& in, ConvMode mode,
                                      Dataflow flow, const AccelConfig& cfg,
                                      const FpgaSpec& spec);

/// Fusion-aware overload: a resident input elides the LOAD_INP bandwidth
/// bound and burst setups (the hand-off moves at the PI*PT datapath width);
/// a resident output does the same for SAVE. The residual stream of a
/// SAVE_RES layer always prices as DRAM traffic — skip operands are never
/// resident. The plain overload is exactly FusionContext{}.
LatencyBreakdown EstimateLayerLatency(const ConvLayer& layer,
                                      const FmapShape& in, ConvMode mode,
                                      Dataflow flow, const AccelConfig& cfg,
                                      const FpgaSpec& spec,
                                      const FusionContext& fusion);

/// Per-layer mapping decision (the DSE's SW parameters, paper Table 2),
/// plus the fused-segment decision of the compiler pass: `fuse_output`
/// keeps this layer's output resident on chip for its sole consumer.
struct LayerMapping {
  ConvMode mode = ConvMode::kSpatial;
  Dataflow dataflow = Dataflow::kInputStationary;
  bool fuse_output = false;

  friend bool operator==(const LayerMapping&, const LayerMapping&) = default;
};

/// Residency context of layer `i` under a mapping's fuse_output flags:
/// output_resident is the layer's own flag, input_resident is its
/// producer's (the model input is never resident).
FusionContext FusionContextOf(const Model& model,
                              const std::vector<LayerMapping>& mapping,
                              int layer);

}  // namespace hdnn

#endif  // HDNN_ESTIMATOR_LATENCY_MODEL_H_
