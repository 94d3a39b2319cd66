// Offline weight preparation (paper Sec. 4.2.3: "Regarding DNN parameters
// for Winograd, we perform an offline transformation from pretrained DNN
// models"): quantisation, Winograd kernel transform, decomposition into 3x3
// slices, and packing into the DRAM image in the exact linear order the
// LOAD_WGT module streams (see sim/accelerator.h slab contract).
#ifndef HDNN_COMPILER_WEIGHT_PACK_H_
#define HDNN_COMPILER_WEIGHT_PACK_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "compiler/compiler.h"
#include "mem/dram_model.h"
#include "tensor/tensor.h"

namespace hdnn {

/// Quantised parameters of one layer.
struct LayerWeightsQ {
  Tensor<std::int8_t> weights;  ///< K x C x R x S
  Tensor<std::int32_t> bias;    ///< K (may be empty)
};

using ModelWeightsQ = std::vector<LayerWeightsQ>;

/// One weight block = the unit one LOAD_WGT instruction moves.
struct WeightBlock {
  int kg = 0, cb = 0, slice = 0;
  int k0 = 0, k_count = 0;  ///< output-channel range
  int c0 = 0, c_count = 0;  ///< input-channel range
  std::int64_t base_words = 0;   ///< offset within the layer's weight image
  std::int64_t block_words = 0;
};

/// Enumerates the blocks of one layer in canonical (kg, cb, slice) order —
/// the order the codegen assumes. Returns total image words.
std::int64_t ForEachWeightBlock(
    const LayerPlan& plan, const ConvLayer& layer, const AccelConfig& cfg,
    const std::function<void(const WeightBlock&)>& fn);

/// Words needed for a layer's weight image.
std::int64_t WeightImageWords(const LayerPlan& plan, const ConvLayer& layer,
                              const AccelConfig& cfg);

/// Words needed for a layer's bias image (2 words per padded K).
std::int64_t BiasImageWords(const ConvLayer& layer, const AccelConfig& cfg);

/// Writes the weight + bias images of all layers into DRAM at the bases
/// recorded in the compiled model. Winograd layers get transformed (U) and
/// quantised kernels; biases of Winograd layers are pre-shifted by u_shift.
void WriteWeightImages(const CompiledModel& cm, const Model& model,
                       const ModelWeightsQ& weights, DramModel& dram);

/// Content key of the image WriteWeightImages writes: a 64-bit hash of
/// everything it reads — cfg.pi/po/pt, the memory map's extent, each
/// layer's geometry, plan mode, groups, u_shift and weight/bias bases, and
/// the weight and bias tensors' shapes and bytes (read in 8-byte words).
/// Built from content only, never from addresses, so a tensor mutated in
/// place gets a new key; a single changed word always does. Equal keys
/// mean an identical image up to a 64-bit collision among multi-word
/// changes.
std::uint64_t WeightImageKey(const CompiledModel& cm, const Model& model,
                             const ModelWeightsQ& weights);

/// Deterministic synthetic quantised weights for experiments (paper
/// substitution: pretrained VGG16 -> seeded synthetic parameters).
ModelWeightsQ SyntheticWeights(const Model& model, std::uint64_t seed);

}  // namespace hdnn

#endif  // HDNN_COMPILER_WEIGHT_PACK_H_
