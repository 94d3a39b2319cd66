// Post-training quantisation configuration (ROADMAP item 2).
//
// The accelerator's datapath is fixed-point end to end: int8 weights, 12-bit
// features, int64 accumulation, and one rounding-shift requantisation per
// COMP instruction (QUAN_PARAM, paper Table 4). Historically every scale was
// hand-assigned — features Q5.6, weights Q1.6, shift 6 everywhere. A
// QuantConfig makes the scales explicit per tensor and per layer instead:
//
//   * act_frac[t]    — feature fraction bits of tensor t (tensor 0 is the
//                      model input, tensor i+1 is layer i's output). Every
//                      reader and the writer of a tensor agree on its grid.
//   * wgt_frac[i]    — layer i's weight fraction bits (the per-layer floor).
//   * wgt_frac_ch[i] — optional per-output-channel weight fraction bits,
//                      each >= wgt_frac[i]; empty = uniform layer scale.
//
// Layer i's requantisation shift for output channel k follows from the
// grids rather than from a constant:
//
//   shift(i, k) = act_frac[in(i)] + wgt_frac_ch[i][k] - act_frac[i+1]
//
// (plus the Winograd u_shift, which the compiler adds exactly as before).
// Biases are quantised on the accumulator grid act_frac[in] + wgt_frac so
// they add into the MAC sum without alignment.
//
// Per-channel scales ride on an ISA property: QUAN_PARAM is a field of each
// COMP instruction, and each COMP covers one output-channel block, so shifts
// may differ between blocks for free. The compiler clamps per-channel
// fraction bits to the minimum within each weight block (and to the layer
// value for Winograd layers, whose offline kernel transform is per-layer).
#ifndef HDNN_QUANT_QUANT_CONFIG_H_
#define HDNN_QUANT_QUANT_CONFIG_H_

#include <vector>

#include "nn/model.h"

namespace hdnn {

struct QuantConfig {
  int feature_bits = 12;
  int weight_bits = 8;
  /// Feature fraction bits per tensor; size = num_layers + 1, index 0 is
  /// the model input and index i+1 is layer i's output.
  std::vector<int> act_frac;
  /// Weight fraction bits per layer (the per-layer floor).
  std::vector<int> wgt_frac;
  /// Optional per-output-channel weight fraction bits per layer. An empty
  /// inner vector means the layer uses the uniform wgt_frac scale.
  std::vector<std::vector<int>> wgt_frac_ch;

  /// Fraction bits of the model-input tensor.
  int input_frac() const { return act_frac.at(0); }
  /// Fraction bits of layer i's output tensor.
  int out_frac(int layer) const {
    return act_frac.at(static_cast<std::size_t>(layer) + 1);
  }
  /// Fraction bits of the tensor layer i reads (its producer's output).
  int in_frac(const Model& model, int layer) const {
    return act_frac.at(static_cast<std::size_t>(model.input_index(layer) + 1));
  }
  /// Weight fraction bits of layer i, channel k (per-channel when present).
  int weight_frac(int layer, int k) const {
    const auto& ch = wgt_frac_ch.at(static_cast<std::size_t>(layer));
    return ch.empty() ? wgt_frac[static_cast<std::size_t>(layer)]
                      : ch.at(static_cast<std::size_t>(k));
  }
  /// Layer i's requantisation shift at the uniform (per-layer) scale,
  /// before the Winograd u_shift.
  int shift(const Model& model, int layer) const {
    return in_frac(model, layer) + wgt_frac[static_cast<std::size_t>(layer)] -
           out_frac(layer);
  }

  /// Checks internal consistency against `model`: vector sizes, non-negative
  /// fraction bits, non-negative shifts, per-channel >= per-layer, and that
  /// residual adds mix tensors on the same grid (SAVE_RES adds raw integers,
  /// so both operands of a skip connection must share fraction bits).
  void Validate(const Model& model) const;

  /// The hand-assigned legacy point: every feature tensor Q(feature)/6,
  /// every weight Q/6, i.e. shift 6 on every layer — bit-identical to a
  /// compile without a QuantConfig.
  static QuantConfig Uniform(const Model& model, int feature_frac = 6,
                             int weight_frac = 6);
};

}  // namespace hdnn

#endif  // HDNN_QUANT_QUANT_CONFIG_H_
