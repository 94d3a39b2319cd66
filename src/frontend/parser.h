// Model description parser (paper Fig. 1 Step 1): a small text format for
// pretrained-model structure, sufficient for the accelerator's layer types.
//
//   model vgg16
//   input 3 224 224
//   conv name=conv1_1 out=64 k=3 s=1 p=1 relu=1
//   conv name=conv1_2 out=64 k=3 s=1 p=1 relu=1 pool=2
//   fc name=fc6 out=4096 relu=1
//
// Graph edges (residual networks):
//   conv name=b1a out=64
//   conv name=b1p out=64 k=1 from=conv1   # branch: input is conv1's output
//   conv name=b1b out=64 relu=1 add=b1p   # element-wise add before the ReLU
//
// `from=` names the producer layer (default: the previous line); `add=`
// names a residual source whose output is added element-wise before the
// fused ReLU. Both may only reference earlier layers; duplicate layer names
// and unknown attributes are rejected with line-numbered errors.
//
// '#' starts a comment. `k`/`s`/`p` may be omitted (default 3/1/same).
// ParseModelText(WriteModelText(m)) reproduces m (round-trip tested).
//
// Limits: every channel count (an `fc` layer's flattened C*H*W input
// included), fmap height and width lies in [1, kMaxModelExtent] = [1, 2^20],
// the kernel size in [1, kMaxKernel] = [1, 15] and the stride in
// [1, kMaxStride] = [1, 4] (nn/model.h; the last two are what COMP's kh/kw
// and stride fields hold, read from the ISA's format lists), and the
// model's total op count fits 64 bits. A text outside them is a
// line-numbered ParseError. A text inside them may still fail to compile,
// as a CapacityError naming the layer and the field, when an fmap is too
// wide or tall, or has too many channels, for a LOAD or SAVE field.
#ifndef HDNN_FRONTEND_PARSER_H_
#define HDNN_FRONTEND_PARSER_H_

#include <string>

#include "nn/model.h"
#include "platform/fpga_spec.h"

namespace hdnn {

Model ParseModelText(const std::string& text);
std::string WriteModelText(const Model& model);

/// Parses an FPGA spec description:
///   fpga myboard
///   luts 53200
///   dsps 220
///   bram18 280
///   dies 1
///   bandwidth_gbps 2.4
///   freq_mhz 100
///   dsp_pack 2
///   static_watts 1.25
///   max_utilization 0.8
/// The counts (luts, dsps, bram18, dies) are integers in [1, 2^31 - 1];
/// bandwidth_gbps is in (0, 1e5], freq_mhz in (0, 1e4] and dsp_pack in
/// (0, 64], physical ceilings far above any part (VU9P: 64 GB/s, 167 MHz,
/// one MAC per DSP) that keep modeled time and GOPS finite; static_watts is
/// >= 0; max_utilization is in (0, 1]. A value outside its range is a
/// ParseError naming the line and the property, and so is a text without
/// an `fpga <name>` line. A spec missing luts, dsps, bram18, freq_mhz or
/// bandwidth_gbps is an InvalidArgument.
FpgaSpec ParseFpgaSpecText(const std::string& text);

}  // namespace hdnn

#endif  // HDNN_FRONTEND_PARSER_H_
