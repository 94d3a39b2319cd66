#include "compiler/compiler.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "common/math_util.h"
#include "compiler/fusion.h"
#include "compiler/stream_check.h"
#include "compiler/weight_pack.h"
#include "quant/quant_config.h"
#include "sim/decoded_program.h"
#include "winograd/matrices.h"

namespace hdnn {
namespace {

constexpr int kBaseShift = 6;  // features are Q5.6

int Lcm(int a, int b) { return a / std::gcd(a, b) * b; }

/// Stores a codegen value into an instruction field. A bare narrowing cast
/// would wrap a value the field's type cannot hold (a 65540-wide fmap into
/// a 16-bit pitch) into one that passes the codec's width check, compiling
/// a program that computes something else. The codec still checks the
/// field's width in its format list (isa/fields.h).
template <typename Field>
void Put(Field& field, std::int64_t value, const char* name) {
  if (value < 0 ||
      static_cast<std::uint64_t>(value) > std::numeric_limits<Field>::max()) {
    throw FieldOverflow("instruction field " + std::string(name) +
                        " cannot hold " + std::to_string(value));
  }
  field = static_cast<Field>(value);
}

SaveLayout LayoutFor(ConvMode source_mode, ConvMode target_layout) {
  if (source_mode == ConvMode::kWinograd) {
    return target_layout == ConvMode::kWinograd ? SaveLayout::kWinoToWino
                                                : SaveLayout::kWinoToSpat;
  }
  return target_layout == ConvMode::kWinograd ? SaveLayout::kSpatToWino
                                              : SaveLayout::kSpatToSpat;
}

/// Geometry of one fmap (row x column) group.
struct GroupGeom {
  int oh0, oh_cnt;       ///< output rows covered (pre-pool)
  int ow0, ow_cnt;       ///< output cols covered (pre-pool)
  int tiles_h, tiles_w;  ///< Winograd tiles (0 for Spatial)
  // Input window (slab geometry).
  int dram_r0, rows_read, pad_t, pad_b;
  int dram_c0, cols_read, pad_l, pad_r;
  int window_rows, window_cols;
};

GroupGeom MakeGroupGeom(const ConvLayer& layer, const FmapShape& in,
                        const FmapShape& conv_out, const GroupCounts& g,
                        ConvMode mode, const AccelConfig& cfg, int hg,
                        int wg) {
  GroupGeom geom{};
  const int m = cfg.wino_m();
  geom.oh0 = hg * g.rows_per_group;
  geom.oh_cnt = std::min(g.rows_per_group, conv_out.height - geom.oh0);
  geom.ow0 = wg * g.cols_per_group;
  geom.ow_cnt = std::min(g.cols_per_group, conv_out.width - geom.ow0);

  int rstart, cstart;
  if (mode == ConvMode::kWinograd) {
    geom.tiles_h = static_cast<int>(CeilDiv(geom.oh_cnt, m));
    geom.tiles_w = static_cast<int>(CeilDiv(geom.ow_cnt, m));
    rstart = geom.oh0 - layer.pad;
    cstart = geom.ow0 - layer.pad;
  } else {
    rstart = geom.oh0 * layer.stride - layer.pad;
    cstart = geom.ow0 * layer.stride - layer.pad;
  }
  geom.window_rows = static_cast<int>(InputWindowExtent(
      mode, geom.oh_cnt, layer.kernel_h, layer.stride, cfg));
  geom.window_cols = static_cast<int>(InputWindowExtent(
      mode, geom.ow_cnt, layer.kernel_w, layer.stride, cfg));
  geom.pad_t = std::max(0, -rstart);
  geom.dram_r0 = std::max(0, rstart);
  geom.rows_read =
      std::max(0, std::min(in.height, rstart + geom.window_rows) - geom.dram_r0);
  geom.pad_b = geom.window_rows - geom.pad_t - geom.rows_read;
  geom.pad_l = std::max(0, -cstart);
  geom.dram_c0 = std::max(0, cstart);
  geom.cols_read =
      std::max(0, std::min(in.width, cstart + geom.window_cols) - geom.dram_c0);
  geom.pad_r = geom.window_cols - geom.pad_l - geom.cols_read;
  HDNN_INTERNAL(geom.pad_b >= 0 && geom.pad_r >= 0) << "negative padding";
  return geom;
}

/// Codegen context for one model.
class Codegen {
 public:
  Codegen(const Model& model, const std::vector<LayerMapping>& mapping,
          const AccelConfig& cfg, const FpgaSpec& spec,
          const QuantConfig* quant)
      : model_(model), mapping_(mapping), cfg_(cfg), spec_(spec),
        quant_(quant) {}

  CompiledModel Run() {
    CompiledModel cm;
    cm.cfg = cfg_;
    cm.base_shift = kBaseShift;
    PlanLayers(cm);
    AllocateDram(cm);
    for (int i = 0; i < model_.num_layers(); ++i) {
      try {
        EmitLayer(cm, i);
      } catch (const FieldOverflow& e) {
        throw CapacityError("layer " + model_.layer(i).name + ": " +
                            e.what());
      }
    }
    CtrlFields end;
    end.op = Opcode::kEnd;
    cm.program.push_back(Encode(InstrFields{end}));
    return cm;
  }

 private:
  /// Tensor index of layer i's input: 0 is the model input, t = li + 1 is
  /// the output of layer li.
  int InputTensorOf(int i) const { return model_.input_index(i) + 1; }

  /// True when layer li reads a keep-resident tensor: its producer's
  /// fuse_output flag marks the hand-off (the model input never is).
  bool InputResident(int li) const {
    const int producer = model_.input_index(li);
    return producer >= 0 &&
           mapping_[static_cast<std::size_t>(producer)].fuse_output;
  }

  void PlanLayers(CompiledModel& cm) {
    const int chan_quantum = Lcm(cfg_.pi, cfg_.po);
    for (int i = 0; i < model_.num_layers(); ++i) {
      const ConvLayer& layer = model_.layer(i);
      LayerPlan plan;
      plan.mapping = mapping_[static_cast<std::size_t>(i)];
      plan.in_shape = model_.InputOf(i);
      plan.conv_out = layer.ConvOutput(plan.in_shape);
      plan.out_shape = model_.OutputOf(i);
      if (plan.mapping.mode == ConvMode::kWinograd) {
        HDNN_CHECK(WinogradApplicable(layer))
            << layer.name << ": Winograd requires stride 1";
        plan.u_shift = WinoParamForPt(cfg_.pt).recommended_u_shift();
      }
      plan.quan_shift = kBaseShift + plan.u_shift;
      plan.groups = ComputeGroups(layer, plan.in_shape, plan.mapping.mode, cfg_);
      // The partitioning may force the loop order (DataflowLegal): channel
      // blocking runs WS, decomposed kernels IS.
      Dataflow& flow = plan.mapping.dataflow;
      if (!DataflowLegal(plan.groups, flow)) {
        flow = flow == Dataflow::kInputStationary
                   ? Dataflow::kWeightStationary
                   : Dataflow::kInputStationary;
        HDNN_CHECK(DataflowLegal(plan.groups, flow))
            << layer.name
            << ": channel blocking needs a single fmap group and a single "
               "kernel slice";
      }
      plan.cp_in = static_cast<int>(
          RoundUp<std::int64_t>(plan.in_shape.channels, chan_quantum));
      plan.cp_out = static_cast<int>(
          RoundUp<std::int64_t>(layer.out_channels, chan_quantum));
      if (quant_ != nullptr) PlanQuantization(plan, i);
      cm.plans.push_back(plan);
    }

    // Tensor layouts. A tensor (model input or layer output) has ONE DRAM
    // layout that every reader must agree on: WINO (channel-outermost) when
    // any consumer's LOAD path requires it (Winograd mode, FC flattening,
    // channel blocking), WINO for tensors nothing LOADs (the final output —
    // host convention — and residual-only tensors), SPAT otherwise.
    const int num_tensors = model_.num_layers() + 1;
    std::vector<bool> has_main_consumer(
        static_cast<std::size_t>(num_tensors), false);
    std::vector<bool> wino_tensor(static_cast<std::size_t>(num_tensors),
                                  false);
    for (int i = 0; i < model_.num_layers(); ++i) {
      const LayerPlan& plan = cm.plans[static_cast<std::size_t>(i)];
      const bool wants_wino = plan.mapping.mode == ConvMode::kWinograd ||
                              model_.layer(i).is_fc || plan.groups.cb > 1;
      const std::size_t t = static_cast<std::size_t>(InputTensorOf(i));
      has_main_consumer[t] = true;
      if (wants_wino) wino_tensor[t] = true;
    }
    for (int t = 0; t < num_tensors; ++t) {
      if (!has_main_consumer[static_cast<std::size_t>(t)]) {
        wino_tensor[static_cast<std::size_t>(t)] = true;
      }
    }
    for (int i = 0; i < model_.num_layers(); ++i) {
      LayerPlan& plan = cm.plans[static_cast<std::size_t>(i)];
      plan.input_layout =
          wino_tensor[static_cast<std::size_t>(InputTensorOf(i))]
              ? ConvMode::kWinograd
              : ConvMode::kSpatial;
      plan.output_layout = wino_tensor[static_cast<std::size_t>(i + 1)]
                               ? ConvMode::kWinograd
                               : ConvMode::kSpatial;
      const int res = model_.residual_index(i);
      if (res >= 0) {
        plan.res_wino = wino_tensor[static_cast<std::size_t>(res + 1)];
      }
    }
  }

  /// Adopts the QuantConfig's grids for layer `i`: per-layer fracs and the
  /// COMP shift, plus per-output-channel shifts clamped to the minimum
  /// fraction bits within each weight block (every COMP instruction covers
  /// exactly one k-block, so a per-block shift needs no ISA change).
  /// Winograd layers stay uniform — their offline kernel transform (and the
  /// u_shift folded into it) is shared by the whole layer.
  void PlanQuantization(LayerPlan& plan, int i) {
    const ConvLayer& layer = model_.layer(i);
    plan.in_frac = quant_->act_frac[static_cast<std::size_t>(InputTensorOf(i))];
    plan.out_frac = quant_->act_frac[static_cast<std::size_t>(i) + 1];
    plan.wgt_frac = quant_->wgt_frac[static_cast<std::size_t>(i)];
    plan.quan_shift =
        plan.in_frac + plan.wgt_frac + plan.u_shift - plan.out_frac;
    HDNN_CHECK(plan.quan_shift >= 0 && plan.quan_shift < 63)
        << layer.name << ": quantisation shift " << plan.quan_shift
        << " outside the datapath's [0, 63) requantise range";
    const std::vector<int>& want =
        quant_->wgt_frac_ch[static_cast<std::size_t>(i)];
    if (want.empty() || plan.mapping.mode == ConvMode::kWinograd) return;
    HDNN_CHECK(static_cast<int>(want.size()) == layer.out_channels)
        << layer.name << ": per-channel fracs for " << want.size()
        << " channels, layer has " << layer.out_channels;
    plan.wgt_frac_ch.assign(static_cast<std::size_t>(layer.out_channels),
                            plan.wgt_frac);
    ForEachWeightBlock(plan, layer, cfg_, [&](const WeightBlock& block) {
      int m = want[static_cast<std::size_t>(block.k0)];
      for (int k = block.k0; k < block.k0 + block.k_count; ++k) {
        m = std::min(m, want[static_cast<std::size_t>(k)]);
      }
      for (int k = block.k0; k < block.k0 + block.k_count; ++k) {
        plan.wgt_frac_ch[static_cast<std::size_t>(k)] = m;
      }
    });
    bool uniform = true;
    plan.quan_shift_ch.resize(static_cast<std::size_t>(layer.out_channels));
    for (int k = 0; k < layer.out_channels; ++k) {
      const int shift = plan.in_frac + plan.wgt_frac_ch[static_cast<std::size_t>(k)] +
                        plan.u_shift - plan.out_frac;
      HDNN_CHECK(shift >= 0 && shift < 63)
          << layer.name << " channel " << k << ": shift " << shift
          << " outside the datapath's [0, 63) requantise range";
      plan.quan_shift_ch[static_cast<std::size_t>(k)] = shift;
      uniform &= shift == plan.quan_shift;
    }
    if (uniform) {  // block clamping flattened every boost — keep it scalar
      plan.wgt_frac_ch.clear();
      plan.quan_shift_ch.clear();
    }
  }

  void AllocateDram(CompiledModel& cm) {
    std::int64_t offset = 0;
    for (int i = 0; i < model_.num_layers(); ++i) {
      LayerPlan& plan = cm.plans[static_cast<std::size_t>(i)];
      plan.wgt_dram_base = offset;
      plan.wgt_dram_words = WeightImageWords(plan, model_.layer(i), cfg_);
      offset += plan.wgt_dram_words;
      plan.bias_dram_base = offset;
      offset += BiasImageWords(model_.layer(i), cfg_);
    }

    // Liveness-interval fmap allocation over uniform slots. Tensor t is
    // defined by layer def(t) = t - 1 (the model input by -1) and stays
    // live through its last consumer: a tensor read by layer k must survive
    // layer k entirely, because layer k's SAVEs can overlap its remaining
    // LOADs; a tensor whose last read is layer k may be overwritten by any
    // layer > k, because the SAVE -> LOAD_INP layer barrier orders layer
    // k+1's writes after all of layer k's reads. Two tensors may share a
    // slot iff their [def, last_use] intervals are disjoint — for a chain
    // this reproduces the historical even/odd ping-pong exactly.
    const int num_tensors = model_.num_layers() + 1;
    std::vector<int> last_use(static_cast<std::size_t>(num_tensors));
    for (int t = 0; t < num_tensors; ++t) {
      last_use[static_cast<std::size_t>(t)] = t - 1;  // def(t)
    }
    std::vector<std::int64_t> tensor_words(
        static_cast<std::size_t>(num_tensors), 0);
    for (int i = 0; i < model_.num_layers(); ++i) {
      const LayerPlan& plan = cm.plans[static_cast<std::size_t>(i)];
      const std::size_t in_t = static_cast<std::size_t>(InputTensorOf(i));
      last_use[in_t] = std::max(last_use[in_t], i);
      // A tensor's slot must hold the larger of its producer's padded view
      // and each consumer's padded view (FC consumers view the same
      // elements flattened with a different channel padding).
      tensor_words[in_t] =
          std::max(tensor_words[in_t], static_cast<std::int64_t>(plan.cp_in) *
                                           plan.in_shape.height *
                                           plan.in_shape.width);
      tensor_words[static_cast<std::size_t>(i + 1)] = std::max(
          tensor_words[static_cast<std::size_t>(i + 1)],
          static_cast<std::int64_t>(plan.cp_out) * plan.out_shape.height *
              plan.out_shape.width);
      const int res = model_.residual_index(i);
      if (res >= 0) {
        const std::size_t res_t = static_cast<std::size_t>(res + 1);
        last_use[res_t] = std::max(last_use[res_t], i);
      }
    }
    std::int64_t region = 0;
    for (const std::int64_t words : tensor_words) {
      region = std::max(region, words);
    }

    // First-fit over uniform slots: slot s is reusable for tensor t when
    // its current occupant's interval ended before t's begins.
    std::vector<int> slot_last_use;  // per slot, of the current occupant
    std::vector<std::int64_t> tensor_base(
        static_cast<std::size_t>(num_tensors), 0);
    for (int t = 0; t < num_tensors; ++t) {
      const int def = t - 1;
      int slot = -1;
      for (std::size_t s = 0; s < slot_last_use.size(); ++s) {
        if (slot_last_use[s] < def) {
          slot = static_cast<int>(s);
          break;
        }
      }
      if (slot < 0) {
        slot = static_cast<int>(slot_last_use.size());
        slot_last_use.push_back(0);
      }
      slot_last_use[static_cast<std::size_t>(slot)] =
          last_use[static_cast<std::size_t>(t)];
      tensor_base[static_cast<std::size_t>(t)] = offset + slot * region;
    }

    for (int i = 0; i < model_.num_layers(); ++i) {
      LayerPlan& plan = cm.plans[static_cast<std::size_t>(i)];
      plan.in_dram_base =
          tensor_base[static_cast<std::size_t>(InputTensorOf(i))];
      plan.out_dram_base = tensor_base[static_cast<std::size_t>(i + 1)];
      const int res = model_.residual_index(i);
      if (res >= 0) {
        plan.res_dram_base = tensor_base[static_cast<std::size_t>(res + 1)];
      }
    }
    cm.fmap_region_words = region;
    cm.fmap_base = offset;
    cm.fmap_slots = static_cast<int>(slot_last_use.size());
    cm.total_dram_words = offset + cm.fmap_slots * region;
  }

  // --- Instruction emission helpers -------------------------------------

  void Emit(CompiledModel& cm, const InstrFields& f) {
    cm.program.push_back(Encode(f));
  }

  LoadFields MakeLoadInp(const CompiledModel& cm, int li,
                         const GroupGeom& geom, int c0, int cv) {
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    const FmapShape& in = plan.in_shape;
    LoadFields f;
    f.op = Opcode::kLoadInp;
    f.keep_resident = InputResident(li);
    f.dept = kWaitCredit | kEmitData;
    Put(f.buff_id, ldi_count_++ % 2, "buff_id");
    f.buff_base = 0;
    Put(f.rows, geom.rows_read, "rows");
    Put(f.cols, geom.cols_read, "cols");
    Put(f.chan_vecs, cv, "chan_vecs");
    Put(f.pad_t, geom.pad_t, "pad_t");
    Put(f.pad_b, geom.pad_b, "pad_b");
    Put(f.pad_l, geom.pad_l, "pad_l");
    Put(f.pad_r, geom.pad_r, "pad_r");
    Put(f.pitch, in.width, "pitch (fmap width)");
    Put(f.aux, in.height, "aux (fmap height)");
    const std::int64_t region = cm.input_region(li);
    if (plan.input_layout == ConvMode::kWinograd) {
      f.wino = true;
      Put(f.dram_base,
          region + static_cast<std::int64_t>(c0) * in.height * in.width +
              static_cast<std::int64_t>(geom.dram_r0) * in.width +
              geom.dram_c0,
          "dram_base");
    } else {
      HDNN_INTERNAL(c0 == 0) << "SPAT layout cannot address channel blocks";
      Put(f.dram_base,
          region + (static_cast<std::int64_t>(geom.dram_r0) * in.width +
                    geom.dram_c0) *
                       plan.cp_in,
          "dram_base");
    }
    return f;
  }

  /// Emits LOAD_WGT followed by LOAD_BIAS for one weight block.
  void EmitWeightBlock(CompiledModel& cm, int li, const WeightBlock& block) {
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    const ConvLayer& layer = model_.layer(li);
    const bool wino = plan.mapping.mode == ConvMode::kWinograd;
    const int half = ldw_count_++ % 2;

    LoadFields w;
    w.op = Opcode::kLoadWgt;
    w.dept = kWaitCredit;
    Put(w.buff_id, half, "buff_id");
    w.buff_base = 0;
    Put(w.dram_base, plan.wgt_dram_base + block.base_words, "dram_base");
    Put(w.rows, wino ? cfg_.pt : layer.kernel_h, "rows");
    Put(w.cols, wino ? cfg_.pt : layer.kernel_w, "cols");
    Put(w.chan_vecs, CeilDiv(block.c_count, cfg_.pi), "chan_vecs");
    Put(w.aux, CeilDiv(block.k_count, cfg_.po), "aux");
    w.wino = wino;
    Put(w.wino_offset,
        std::min<std::int64_t>(block.slice,
                               FieldMax<LoadFormat>("wino_offset")),
        "wino_offset");
    Emit(cm, w);

    LoadFields b;
    b.op = Opcode::kLoadBias;
    b.dept = kEmitData;
    Put(b.buff_id, half, "buff_id");
    b.buff_base = 0;
    Put(b.dram_base, plan.bias_dram_base + 2LL * block.k0, "dram_base");
    Put(b.aux, CeilDiv(block.k_count, cfg_.po), "aux");
    Emit(cm, b);
  }

  CompFields MakeComp(const CompiledModel& cm, int li, const GroupGeom& geom,
                      const WeightBlock& block, int inp_half, int wgt_half) {
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    const ConvLayer& layer = model_.layer(li);
    const bool wino = plan.mapping.mode == ConvMode::kWinograd;
    CompFields f;
    Put(f.inp_buff_id, inp_half, "inp_buff_id");
    Put(f.wgt_buff_id, wgt_half, "wgt_buff_id");
    Put(f.out_buff_id, save_count_ % 2, "out_buff_id");
    f.inp_buff_base = 0;
    f.out_buff_base = 0;
    f.wgt_buff_base = 0;
    Put(f.iw_num, geom.window_cols, "iw_num");
    Put(f.ic_vecs, CeilDiv(block.c_count, cfg_.pi), "ic_vecs");
    Put(f.oc_vecs, CeilDiv(block.k_count, cfg_.po), "oc_vecs");
    Put(f.stride, layer.stride, "stride");
    // A residual layer's ReLU applies to the sum, so COMP emits the raw
    // requantised convolution and SAVE_RES rectifies after the add.
    f.relu = layer.relu && !layer.has_residual();
    // Each COMP covers one weight block (one k0..k0+k_count output-channel
    // range), so a per-channel plan lowers to the block's clamped shift.
    Put(f.quan,
        plan.quan_shift_ch.empty()
            ? plan.quan_shift
            : plan.quan_shift_ch[static_cast<std::size_t>(block.k0)],
        "quan");
    f.wino = wino;
    Put(f.wino_offset, block.slice, "wino_offset");
    if (wino) {
      Put(f.ow_num, geom.tiles_w, "ow_num");
      Put(f.oh_num, geom.tiles_h, "oh_num");
      f.kh = 3;
      f.kw = 3;
      const int slices_w = static_cast<int>(CeilDiv(layer.kernel_w, 3));
      Put(f.base_row, 3 * (block.slice / slices_w), "base_row");
      Put(f.base_col, 3 * (block.slice % slices_w), "base_col");
    } else {
      Put(f.ow_num, geom.ow_cnt, "ow_num");
      Put(f.oh_num, geom.oh_cnt, "oh_num");
      Put(f.kh, layer.kernel_h, "kh");
      Put(f.kw, layer.kernel_w, "kw");
      f.base_row = 0;
      f.base_col = 0;
    }
    return f;
  }

  void EmitSave(CompiledModel& cm, int li, const GroupGeom& geom,
                const WeightBlock& block) {
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    const ConvLayer& layer = model_.layer(li);
    const int pool = layer.pool;
    const FmapShape& out = plan.out_shape;
    SaveFields f;
    f.keep_resident = plan.mapping.fuse_output;
    f.dept = kWaitData0 | kEmitCredit0;
    Put(f.buff_id, save_count_++ % 2, "buff_id");
    f.buff_base = 0;
    Put(f.rows, geom.oh_cnt, "rows");
    Put(f.cols, geom.ow_cnt, "cols");
    Put(f.oc_vecs, CeilDiv(block.k_count, cfg_.po), "oc_vecs");
    f.layout = LayoutFor(plan.mapping.mode, plan.output_layout);
    Put(f.pool, pool, "pool");
    Put(f.out_h, out.height, "out_h");
    Put(f.out_w, out.width, "out_w");
    Put(f.oc_pitch, plan.cp_out, "oc_pitch");
    const int pr0 = geom.oh0 / pool;
    const int pc0 = geom.ow0 / pool;
    // Folds the k-group and group-origin offsets into a tensor base, per
    // layout — shared by the destination and the residual source, which has
    // this layer's exact conv-out geometry (model validation) and the same
    // padded channel count, so the fold is identical.
    auto fold_origin = [&](std::int64_t base, bool wino) {
      return wino ? base +
                        static_cast<std::int64_t>(block.k0) * out.height *
                            out.width +
                        static_cast<std::int64_t>(pr0) * out.width + pc0
                  : base +
                        (static_cast<std::int64_t>(pr0) * out.width + pc0) *
                            plan.cp_out +
                        block.k0;
    };
    Put(f.dram_base,
        fold_origin(cm.output_region(li),
                    plan.output_layout == ConvMode::kWinograd),
        "dram_base");
    if (layer.has_residual()) {
      HDNN_INTERNAL(plan.res_dram_base >= 0) << "residual slot unassigned";
      f.res_add = true;
      f.res_wino = plan.res_wino;
      f.relu = layer.relu;
      Put(f.res_dram_base, fold_origin(plan.res_dram_base, plan.res_wino),
          "res_dram_base");
    }
    Emit(cm, f);
  }

  // --- Layer emission -----------------------------------------------------

  void EmitLayer(CompiledModel& cm, int li) {
    LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    plan.first_instr = static_cast<int>(cm.program.size());
    if (plan.mapping.dataflow == Dataflow::kInputStationary) {
      EmitLayerIS(cm, li);
    } else {
      EmitLayerWS(cm, li);
    }
    plan.num_instrs = static_cast<int>(cm.program.size()) - plan.first_instr;

    // Layer barrier: layer li+1 reads the fmap region layer li writes, so
    // its first LOAD_INP must wait for li's last SAVE to drain. The barrier
    // is a SAVE -> LOAD_INP handshake token (kEmitData on the last SAVE,
    // kWaitData0 on the next layer's first LOAD_INP).
    for (int i = plan.first_instr + plan.num_instrs - 1; i >= plan.first_instr;
         --i) {
      if (IsSaveOpcode(PeekOpcode(cm.program[static_cast<std::size_t>(i)]))) {
        auto f = std::get<SaveFields>(
            Decode(cm.program[static_cast<std::size_t>(i)]));
        f.dept |= kEmitData;
        cm.program[static_cast<std::size_t>(i)] = Encode(f);
        break;
      }
    }
    if (li > 0) {
      for (int i = plan.first_instr;
           i < plan.first_instr + plan.num_instrs; ++i) {
        if (IsLoadInpOpcode(
                PeekOpcode(cm.program[static_cast<std::size_t>(i)]))) {
          auto f = std::get<LoadFields>(
              Decode(cm.program[static_cast<std::size_t>(i)]));
          f.dept |= kWaitData0;
          cm.program[static_cast<std::size_t>(i)] = Encode(f);
          break;
        }
      }
    }
  }

  void EmitLayerIS(CompiledModel& cm, int li) {
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    const ConvLayer& layer = model_.layer(li);
    const GroupCounts& g = plan.groups;
    HDNN_CHECK(g.cb == 1) << layer.name << ": IS requires CB == 1";

    std::vector<WeightBlock> blocks;
    ForEachWeightBlock(plan, layer, cfg_,
                       [&](const WeightBlock& b) { blocks.push_back(b); });

    // Column tiles outer, rows inner: row sweeps stay contiguous so the
    // input line buffer can reuse overlapping window rows.
    for (int wg = 0; wg < g.wg; ++wg) {
      for (int hg = 0; hg < g.num_groups; ++hg) {
        const GroupGeom geom = MakeGroupGeom(layer, plan.in_shape,
                                             plan.conv_out, g, plan.mapping.mode,
                                             cfg_, hg, wg);
        const int inp_half = ldi_count_ % 2;
        Emit(cm, MakeLoadInp(cm, li, geom, 0,
                             static_cast<int>(CeilDiv(plan.cp_in, cfg_.pi))));
        for (int kg = 0; kg < g.gk; ++kg) {
          // Each kernel-decomposition slice is its own weight block with its
          // own LOAD_WGT; partial results accumulate on chip (Sec. 4.2.5).
          for (int slice = 0; slice < g.slices; ++slice) {
            const WeightBlock& block =
                blocks[static_cast<std::size_t>(kg * g.slices + slice)];
            const int wgt_half = ldw_count_ % 2;
            EmitWeightBlock(cm, li, block);
            CompFields comp = MakeComp(cm, li, geom, block, inp_half, wgt_half);
            comp.accum_clear = (slice == 0);
            comp.accum_emit = (slice == g.slices - 1);
            comp.dept = kWaitData1 | kEmitCredit1;
            if (kg == 0 && slice == 0) comp.dept |= kWaitData0;
            if (kg == g.gk - 1 && slice == g.slices - 1) {
              comp.dept |= kEmitCredit0;
            }
            if (comp.accum_emit) comp.dept |= kWaitCredit | kEmitData;
            Emit(cm, comp);
          }
          EmitSave(cm, li, geom, blocks[static_cast<std::size_t>(kg * g.slices)]);
        }
      }
    }
  }

  void EmitLayerWS(CompiledModel& cm, int li) {
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    const ConvLayer& layer = model_.layer(li);
    const GroupCounts& g = plan.groups;
    HDNN_CHECK(g.slices == 1)
        << layer.name << ": WS requires a single kernel slice (use IS for "
        << "decomposed Winograd kernels)";

    std::vector<WeightBlock> blocks;
    ForEachWeightBlock(plan, layer, cfg_,
                       [&](const WeightBlock& b) { blocks.push_back(b); });

    const int total_groups = g.fmap_groups();
    for (int kg = 0; kg < g.gk; ++kg) {
      for (int cb = 0; cb < g.cb; ++cb) {
        const int wgt_half = ldw_count_ % 2;
        const WeightBlock& block =
            blocks[static_cast<std::size_t>(kg * g.cb + cb)];
        EmitWeightBlock(cm, li, block);
        int group_index = 0;
        for (int wg = 0; wg < g.wg; ++wg) {
          for (int hg = 0; hg < g.num_groups; ++hg, ++group_index) {
            const GroupGeom geom =
                MakeGroupGeom(layer, plan.in_shape, plan.conv_out, g,
                              plan.mapping.mode, cfg_, hg, wg);
            const int inp_half = ldi_count_ % 2;
            Emit(cm, MakeLoadInp(cm, li, geom, block.c0,
                                 static_cast<int>(
                                     CeilDiv(block.c_count, cfg_.pi))));
            CompFields comp = MakeComp(cm, li, geom, block, inp_half, wgt_half);
            comp.accum_clear = (cb == 0);
            comp.accum_emit = (cb == g.cb - 1);
            comp.dept = kWaitData0 | kEmitCredit0;
            if (group_index == 0) comp.dept |= kWaitData1;
            if (group_index == total_groups - 1) comp.dept |= kEmitCredit1;
            if (comp.accum_emit) comp.dept |= kWaitCredit | kEmitData;
            Emit(cm, comp);
            if (cb == g.cb - 1) {
              EmitSave(cm, li, geom, block);
            }
          }
        }
      }
    }
  }

  const Model& model_;
  const std::vector<LayerMapping>& mapping_;
  AccelConfig cfg_;
  FpgaSpec spec_;
  const QuantConfig* quant_;  ///< adopted grids (null = legacy Q5.6 point)
  int ldi_count_ = 0;
  int ldw_count_ = 0;
  int save_count_ = 0;
};

}  // namespace

Compiler::Compiler(const AccelConfig& cfg, const FpgaSpec& spec)
    : cfg_(cfg), spec_(spec) {
  cfg_.Validate();
}

CompiledModel Compiler::Compile(const Model& model,
                                const std::vector<LayerMapping>& mapping,
                                const QuantConfig* quant) const {
  HDNN_CHECK(model.num_layers() > 0) << "empty model";
  HDNN_CHECK(static_cast<int>(mapping.size()) == model.num_layers())
      << "mapping size mismatch";
  ValidateFusionFlags(model, mapping, cfg_);
  if (quant != nullptr) {
    HDNN_CHECK(quant->feature_bits == cfg_.data_width &&
               quant->weight_bits == cfg_.wgt_width)
        << "QuantConfig is for " << quant->feature_bits << "/"
        << quant->weight_bits << "-bit data, config is " << cfg_.data_width
        << "/" << cfg_.wgt_width;
    quant->Validate(model);
  }
  Codegen codegen(model, mapping, cfg_, spec_, quant);
  CompiledModel cm = codegen.Run();
  // Decode once and QA that decode at compile time: every Runtime::Execute
  // of this model then starts at the scheduler loop.
  cm.decoded = std::make_shared<const DecodedProgram>(RequireValidStream(cm));
  return cm;
}

}  // namespace hdnn
