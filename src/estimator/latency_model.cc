#include "estimator/latency_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/math_util.h"
#include "isa/fields.h"
#include "winograd/decompose.h"
#include "winograd/matrices.h"

namespace hdnn {
namespace {

/// CTRL-pipeline overhead charged per instruction group (instruction fetch /
/// decode and handshake round trips that cannot overlap with data).
constexpr double kGroupOverheadCycles = 12.0;

}  // namespace

bool WinogradApplicable(const ConvLayer& layer) {
  return layer.stride == 1;
}

bool DataflowLegal(const GroupCounts& g, Dataflow flow) {
  if (g.cb > 1) {
    return flow == Dataflow::kWeightStationary && g.fmap_groups() == 1 &&
           g.slices == 1;
  }
  return g.slices == 1 || flow == Dataflow::kInputStationary;
}

GroupCounts ComputeGroups(const ConvLayer& layer, const FmapShape& in,
                          ConvMode mode, const AccelConfig& cfg) {
  const FmapShape out = layer.ConvOutput(in);
  GroupCounts g;

  // Row groups along output H. Spatial: 1 row; Winograd: m rows. A fused
  // pool window must be fully contained in one group.
  int rows = (mode == ConvMode::kWinograd) ? cfg.wino_m() : 1;
  if (layer.pool > 1) {
    while (rows % layer.pool != 0 && layer.pool % rows != 0) ++rows;
    rows = std::max(rows, layer.pool);
    if (mode == ConvMode::kWinograd) rows = RoundUp(rows, cfg.wino_m());
  }
  g.rows_per_group = rows;
  g.num_groups = static_cast<int>(CeilDiv(out.height, rows));

  // The input slab for one group must fit one input-buffer half; wide rows
  // are additionally tiled along W (with halo overlap) until they fit.
  const std::int64_t window_rows =
      InputWindowExtent(mode, rows, layer.kernel_h, layer.stride, cfg);
  const std::int64_t cv = CeilDiv<std::int64_t>(in.channels, cfg.pi);
  // Column groups must respect both the tile quantum and the pool window.
  int col_quantum = (mode == ConvMode::kWinograd) ? cfg.wino_m() : 1;
  if (layer.pool > 1) {
    col_quantum = col_quantum * layer.pool / std::gcd(col_quantum, layer.pool);
  }
  int cols = static_cast<int>(RoundUp<std::int64_t>(out.width, col_quantum));
  auto slab_vectors = [&](int out_cols) {
    return window_rows *
           InputWindowExtent(mode, out_cols, layer.kernel_w, layer.stride,
                             cfg) *
           cv;
  };
  while (cols > col_quantum &&
         slab_vectors(cols) > cfg.input_buffer_vectors) {
    cols = static_cast<int>(
        RoundUp<std::int64_t>(CeilDiv(cols, 2), col_quantum));
  }
  if (slab_vectors(cols) > cfg.input_buffer_vectors) {
    throw CapacityError("minimal input group (" +
                        std::to_string(slab_vectors(cols)) +
                        " vectors) exceeds input buffer half (" +
                        std::to_string(cfg.input_buffer_vectors) +
                        ") for layer " + layer.name);
  }
  g.cols_per_group = std::min<int>(cols, static_cast<int>(
                                             RoundUp<std::int64_t>(
                                                 out.width, col_quantum)));
  g.wg = static_cast<int>(CeilDiv(out.width, g.cols_per_group));

  // Kernel-decomposition slices, each indexed by COMP's wino_offset.
  g.slices = (mode == ConvMode::kWinograd)
                 ? NumKernelSlices(layer.kernel_h, layer.kernel_w)
                 : 1;
  constexpr std::int64_t kMaxSlices =
      FieldMax<CompFormat>("wino_offset") + 1;
  if (g.slices > kMaxSlices) {
    throw CapacityError(std::to_string(g.slices) +
                        " Winograd kernel slices exceed the " +
                        std::to_string(kMaxSlices) +
                        " COMP wino_offset indexes for layer " + layer.name);
  }

  // Weight groups: one (K-group x C-block) slice must fit a weight-buffer
  // half. Weight vectors carry PI*PO elements.
  const std::int64_t wgt_cap_elems =
      static_cast<std::int64_t>(cfg.weight_buffer_vectors) * cfg.pi * cfg.po;
  const std::int64_t elems_per_kc =
      (mode == ConvMode::kWinograd)
          ? static_cast<std::int64_t>(cfg.pt) * cfg.pt
          : static_cast<std::int64_t>(layer.kernel_h) * layer.kernel_w;

  // Prefer the full C per block; shrink C-blocks only when one K-row of
  // weights cannot fit. LOAD's chan_vecs field caps one block's channel
  // vectors regardless of buffer capacity.
  const std::int64_t max_c_block =
      FieldMax<LoadFormat>("chan_vecs") * cfg.pi;
  std::int64_t c_block = std::min<std::int64_t>(in.channels, max_c_block);
  std::int64_t k_group = out.channels;
  auto group_elems = [&](std::int64_t kg, std::int64_t cb) {
    return RoundUp<std::int64_t>(kg, cfg.po) * RoundUp<std::int64_t>(cb, cfg.pi) *
           elems_per_kc;
  };
  while (k_group > cfg.po && group_elems(k_group, c_block) > wgt_cap_elems) {
    k_group = CeilDiv<std::int64_t>(k_group, 2);
  }
  k_group = RoundUp<std::int64_t>(k_group, cfg.po);
  while (c_block > cfg.pi && group_elems(k_group, c_block) > wgt_cap_elems) {
    c_block = CeilDiv<std::int64_t>(c_block, 2);
  }
  c_block = RoundUp<std::int64_t>(c_block, cfg.pi);
  if (group_elems(k_group, c_block) > wgt_cap_elems) {
    throw CapacityError("minimal weight group exceeds weight buffer for layer " +
                        layer.name);
  }
  g.k_per_group = static_cast<int>(std::min<std::int64_t>(k_group, out.channels));
  g.gk = static_cast<int>(CeilDiv<std::int64_t>(out.channels, g.k_per_group));
  g.c_per_block = static_cast<int>(std::min<std::int64_t>(c_block, in.channels));
  g.cb = static_cast<int>(CeilDiv<std::int64_t>(in.channels, g.c_per_block));

  // The output group (rows x group cols x K-group channels) must fit an
  // output half; shrink the weight group further if needed.
  const std::int64_t group_cols =
      RoundUp<std::int64_t>(g.cols_per_group, col_quantum);
  while (static_cast<std::int64_t>(rows) * group_cols *
             CeilDiv<std::int64_t>(g.k_per_group, cfg.po) >
         cfg.output_buffer_vectors) {
    if (g.k_per_group <= cfg.po) {
      throw CapacityError("output group exceeds output buffer for layer " +
                          layer.name);
    }
    g.k_per_group = static_cast<int>(
        RoundUp<std::int64_t>(CeilDiv(g.k_per_group, 2), cfg.po));
  }
  g.gk = static_cast<int>(
      CeilDiv<std::int64_t>(out.channels, g.k_per_group));
  return g;
}

LatencyBreakdown EstimateLayerLatency(const ConvLayer& layer,
                                      const FmapShape& in, ConvMode mode,
                                      Dataflow flow, const AccelConfig& cfg,
                                      const FpgaSpec& spec) {
  return EstimateLayerLatency(layer, in, mode, flow, cfg, spec,
                              FusionContext{});
}

LatencyBreakdown EstimateLayerLatency(const ConvLayer& layer,
                                      const FmapShape& in, ConvMode mode,
                                      Dataflow flow, const AccelConfig& cfg,
                                      const FpgaSpec& spec,
                                      const FusionContext& fusion) {
  HDNN_CHECK(mode == ConvMode::kSpatial || WinogradApplicable(layer))
      << layer.name << ": Winograd requires stride 1";
  const FmapShape out = layer.ConvOutput(in);
  const GroupCounts groups = ComputeGroups(layer, in, mode, cfg);
  const double bw = spec.dram_words_per_cycle(cfg.ni);
  const double pe_width = static_cast<double>(cfg.pi) * cfg.po * cfg.pt;
  const double m = cfg.wino_m();

  const double R = layer.kernel_h, S = layer.kernel_w;
  const double OH = out.height, OW = out.width;
  const double H = in.height, W = in.width;
  const double slices = groups.slices;

  // Discretised problem dimensions: the PE processes whole channel vectors
  // and whole output tiles, so partial vectors/tiles cost full slots. In
  // Spatial mode the PT x PT cores merge into one broadcast array consuming
  // PI*PT input channels x PO*PT output channels per cycle (Sec. 4.2.2), so
  // channels round to that coarser granularity. The smooth paper equations
  // are recovered exactly when everything divides.
  const int k_quant = (mode == ConvMode::kSpatial) ? cfg.po * cfg.pt : cfg.po;
  const int c_quant = (mode == ConvMode::kSpatial) ? cfg.pi * cfg.pt : cfg.pi;
  // Compute slots round to the PE consumption granularity *per weight
  // group*: a K-group smaller than PO*PT leaves Spatial-mode output lanes
  // idle (weight-buffer-limited deep layers). Memory traffic rounds only to
  // the DRAM packing granularity (PI / PO vectors).
  const double Kp_cp = static_cast<double>(groups.gk) *
                       static_cast<double>(RoundUp<std::int64_t>(
                           std::min(groups.k_per_group, out.channels), k_quant));
  const double Cp_cp = static_cast<double>(groups.cb) *
                       static_cast<double>(RoundUp<std::int64_t>(
                           std::min(groups.c_per_block, in.channels), c_quant));
  const double Kp =
      static_cast<double>(RoundUp<std::int64_t>(out.channels, cfg.po));
  const double Cp =
      static_cast<double>(RoundUp<std::int64_t>(in.channels, cfg.pi));
  const double OHt =
      (mode == ConvMode::kWinograd)
          ? static_cast<double>(groups.num_groups * groups.rows_per_group)
          : OH;
  const double OWt =
      (mode == ConvMode::kWinograd)
          ? static_cast<double>(groups.wg *
                                RoundUp<std::int64_t>(groups.cols_per_group,
                                                      cfg.wino_m()))
          : OW;

  LatencyBreakdown lb;
  if (mode == ConvMode::kSpatial) {
    // Eq. 6 / Eq. 8.
    lb.t_cp = Kp_cp * Cp_cp * R * S * OHt * OWt /
              (static_cast<double>(cfg.pi) * cfg.po * cfg.pt * cfg.pt);
    lb.t_ldw = Kp * Cp * R * S / std::min(bw, pe_width);
  } else {
    // Eq. 7 / Eq. 9 (slices = ceil(R/3)*ceil(S/3)).
    lb.t_cp = Kp_cp * Cp_cp * slices * (cfg.pt * cfg.pt) * OHt * OWt /
              (static_cast<double>(cfg.pi) * cfg.po * cfg.pt * cfg.pt * m * m);
    lb.t_ldw = Kp * Cp * slices * (cfg.pt * cfg.pt) / std::min(bw, pe_width);
  }
  // Eq. 10 / Eq. 11, with the group-window halo the line buffer cannot
  // avoid: each row sweep loads (window + (ng-1)*advance) rows instead of H,
  // and each column tile re-reads its horizontal halo.
  const std::int64_t window_rows = InputWindowExtent(
      mode, groups.rows_per_group, layer.kernel_h, layer.stride, cfg);
  const double rows_swept =
      window_rows + static_cast<double>(groups.num_groups - 1) *
                        ((mode == ConvMode::kWinograd)
                             ? groups.rows_per_group
                             : groups.rows_per_group * layer.stride);
  const std::int64_t window_cols = InputWindowExtent(
      mode, groups.cols_per_group, layer.kernel_w, layer.stride, cfg);
  const double cols_advance = (mode == ConvMode::kWinograd)
                                  ? groups.cols_per_group
                                  : groups.cols_per_group * layer.stride;
  const double cols_swept =
      W + static_cast<double>(groups.wg - 1) *
              std::max(0.0, window_cols - cols_advance);
  const double halo =
      std::min(std::max(rows_swept / H, 1.0), 2.0) *
      std::min(std::max(cols_swept / W, 1.0), 2.0);
  // A resident stream is an on-chip hand-off: it moves at the full datapath
  // width with no bandwidth bound (keep-resident LOAD/SAVE never touch the
  // DRAM port in the simulator).
  lb.t_ldi =
      fusion.input_resident
          ? Cp * H * W * halo / (static_cast<double>(cfg.pi) * cfg.pt)
          : Cp * H * W * halo /
                std::min(bw, static_cast<double>(cfg.pi) * cfg.pt);
  lb.t_sv = fusion.output_resident
                ? Kp * OHt * OWt / (static_cast<double>(cfg.po) * cfg.pt)
                : Kp * OHt * OWt /
                      std::min(bw, static_cast<double>(cfg.po) * cfg.pt);
  // A fused residual add streams the skip tensor back in through the SAVE
  // stage: one extra DRAM read per written element (real positions only —
  // residual layers cannot pool, so reads = Kp * OH * OW).
  if (layer.has_residual()) {
    lb.t_sv += Kp * OH * OW / std::min(bw, static_cast<double>(cfg.po) * cfg.pt);
  }

  const double ng = groups.fmap_groups();
  const double gk = static_cast<double>(groups.gk) * groups.cb;

  // Eqs. 12-15: the dataflow determines which stream is re-loaded. Under WS
  // with channel blocking each K-group streams the full input once (its CB
  // blocks partition the channels), so the input reload factor is GK alone.
  double body;
  if (flow == Dataflow::kInputStationary) {
    body = std::max({lb.t_ldi, ng * lb.t_ldw, lb.t_cp, lb.t_sv});
  } else {
    body = std::max({static_cast<double>(groups.gk) * lb.t_ldi, lb.t_ldw,
                     lb.t_cp, lb.t_sv});
  }

  // Non-hidable penalty: pipeline fill (first input + first weight group)
  // and drain (last save), plus per-group control overhead and burst setup.
  const double t_ldi_g = lb.t_ldi / ng;
  const double t_ldw_g = lb.t_ldw / gk;
  const double t_sv_g = lb.t_sv / (ng * gk);
  const double n_groups_total = ng * gk * slices;
  // Burst setups: `ng` LOAD_INP transactions plus `ng*gk` SAVE transactions
  // — each dropped when the corresponding stream is an on-chip hand-off.
  const double burst_transactions =
      (fusion.input_resident ? 0.0 : ng) +
      (fusion.output_resident ? 0.0 : ng * gk);
  lb.penalty = t_ldi_g + t_ldw_g + t_sv_g +
               n_groups_total * kGroupOverheadCycles +
               burst_transactions * kBurstOverheadCycles;
  // Each residual SAVE issues a second DRAM transaction for the skip read
  // (the skip operand streams from DRAM even when the output is resident).
  if (layer.has_residual()) lb.penalty += ng * gk * kBurstOverheadCycles;
  lb.total = body + lb.penalty;
  return lb;
}

FusionContext FusionContextOf(const Model& model,
                              const std::vector<LayerMapping>& mapping,
                              int layer) {
  HDNN_CHECK(static_cast<int>(mapping.size()) == model.num_layers())
      << "mapping size " << mapping.size() << " vs " << model.num_layers()
      << " layers";
  FusionContext ctx;
  ctx.output_resident = mapping[static_cast<std::size_t>(layer)].fuse_output;
  const int producer = model.input_index(layer);
  ctx.input_resident =
      producer >= 0 && mapping[static_cast<std::size_t>(producer)].fuse_output;
  return ctx;
}

}  // namespace hdnn
