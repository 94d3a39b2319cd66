// The HybridDNN compiler (paper Fig. 1, Step 3): lowers a DNN model plus a
// per-layer mapping strategy (CONV mode + dataflow, chosen by the DSE) into
// the 128-bit instruction stream executed by the accelerator, together with
// the DRAM memory map for weights, biases and the feature-map slots.
//
// Feature maps live in uniform DRAM slots assigned by a liveness-interval
// allocator: every tensor (the model input plus each layer output) is live
// from its defining layer through its last consumer (input edge or residual
// edge), and two tensors share a slot only when their intervals are
// disjoint. For linear chains this degenerates to exactly the historical
// two-region even/odd ping-pong (bit-identical addresses); residual models
// get a third (or more) slot wherever a skip tensor outlives the next layer.
//
// Loop structures (paper Fig. 4):
//   IS:  for each fmap group { LOAD_INP; for each weight block
//        { LOAD_WGT(+BIAS); COMP per slice }; SAVE per K-group }
//   WS:  for each weight block { LOAD_WGT(+BIAS); for each fmap group
//        { LOAD_INP; COMP per slice; SAVE on last C-block } }
//
// Channel blocking (CB > 1, needed for FC-scale layers) is only legal with
// WS and a single fmap group; the layer then reads the WINO (channel-
// outermost) DDR layout so channel sub-ranges are contiguous.
#ifndef HDNN_COMPILER_COMPILER_H_
#define HDNN_COMPILER_COMPILER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "estimator/latency_model.h"
#include "isa/codec.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"

namespace hdnn {

struct DecodedProgram;  // sim/decoded_program.h
struct QuantConfig;     // quant/quant_config.h

/// Per-layer compilation record.
struct LayerPlan {
  LayerMapping mapping;
  GroupCounts groups;
  int u_shift = 0;      ///< offline kernel-transform shift (Winograd)
  /// COMP QUAN_PARAM. Without a QuantConfig this is the historical
  /// hand-assigned base shift (6) + u_shift; with one it derives from the
  /// adopted grids: in_frac + wgt_frac + u_shift - out_frac.
  int quan_shift = 0;
  // Adopted quantisation grids (defaults reproduce the legacy Q5.6 / Q1.6
  // hand-assigned point). Weight quantisation (quant/scale_select.h) and
  // the golden reference (quant/golden.h) read these, so the plan is the
  // single source of truth for what the instruction stream implements.
  int in_frac = 6;      ///< feature fraction bits of the input tensor
  int out_frac = 6;     ///< feature fraction bits of the output tensor
  int wgt_frac = 6;     ///< per-layer weight fraction bits (floor)
  /// Effective per-output-channel weight fraction bits after clamping to
  /// the minimum within each weight block (empty = uniform wgt_frac).
  std::vector<int> wgt_frac_ch;
  /// Per-output-channel COMP shifts matching wgt_frac_ch (empty = uniform
  /// quan_shift). Constant within every weight block by construction, which
  /// is what lets each COMP instruction carry its block's shift.
  std::vector<int> quan_shift_ch;
  ConvMode input_layout = ConvMode::kSpatial;   ///< DDR layout read
  ConvMode output_layout = ConvMode::kSpatial;  ///< DDR layout written
  int cp_in = 0;        ///< padded input channels in DRAM
  int cp_out = 0;       ///< padded output channels in DRAM
  FmapShape in_shape;   ///< (real) input geometry
  FmapShape conv_out;   ///< conv output before pooling
  FmapShape out_shape;  ///< after pooling
  std::int64_t wgt_dram_base = 0;   ///< start of this layer's weight image
  std::int64_t wgt_dram_words = 0;
  std::int64_t bias_dram_base = 0;  ///< start of this layer's bias image
  std::int64_t in_dram_base = 0;    ///< fmap slot holding this layer's input
  std::int64_t out_dram_base = 0;   ///< fmap slot this layer writes
  std::int64_t res_dram_base = -1;  ///< residual-source slot (-1 = none)
  bool res_wino = false;            ///< residual source layout is WINO
  int first_instr = 0;  ///< index of this layer's first instruction
  int num_instrs = 0;
};

/// A fully lowered model.
struct CompiledModel {
  AccelConfig cfg;
  int base_shift = 6;  ///< feature fraction bits (Q5.6)
  std::vector<Instruction> program;  ///< END-terminated
  /// Decode-once cache: the program's decoded fields + per-module issue
  /// queues, built (and stream-checked) by Compiler::Compile so every
  /// execution — each batch item of a serving engine in particular — starts
  /// at the simulator's scheduler loop. Shared by copies of this
  /// CompiledModel (it is immutable). Invariant: anything that mutates
  /// `program` afterwards must reset `decoded` (or the simulator would
  /// execute the stale stream); when it is null, each Runtime::Execute
  /// decodes the program once, checks that decode and runs it.
  std::shared_ptr<const DecodedProgram> decoded;
  std::vector<LayerPlan> plans;
  std::int64_t fmap_region_words = 0;  ///< uniform fmap slot size
  std::int64_t fmap_base = 0;          ///< first fmap slot address
  int fmap_slots = 0;                  ///< live slots the allocator needed
  std::int64_t total_dram_words = 0;

  /// DRAM base of the fmap slot layer `layer` reads its input from (for
  /// layer 0 this is where the host stages the model input).
  std::int64_t input_region(int layer) const {
    return plans[static_cast<std::size_t>(layer)].in_dram_base;
  }
  /// DRAM base of the fmap slot layer `layer` writes its output to.
  std::int64_t output_region(int layer) const {
    return plans[static_cast<std::size_t>(layer)].out_dram_base;
  }
};

class Compiler {
 public:
  Compiler(const AccelConfig& cfg, const FpgaSpec& spec);

  /// Lowers `model` under the given per-layer mapping. Throws CapacityError
  /// when a layer cannot be scheduled on this configuration. When `quant`
  /// is non-null the calibrated per-tensor/per-channel grids replace the
  /// hand-assigned base shift in every COMP QUAN_PARAM (per-channel scales
  /// are clamped to the minimum within each weight block, and to the layer
  /// value for Winograd layers, whose kernel transform is per-layer).
  CompiledModel Compile(const Model& model,
                        const std::vector<LayerMapping>& mapping,
                        const QuantConfig* quant = nullptr) const;

 private:
  AccelConfig cfg_;
  FpgaSpec spec_;
};

}  // namespace hdnn

#endif  // HDNN_COMPILER_COMPILER_H_
