#include "compiler/fusion.h"

#include <algorithm>

#include "common/check.h"
#include "common/math_util.h"

namespace hdnn {
namespace {

/// The unique main consumer of layer `layer`'s output, or -1 when the count
/// is not exactly one.
int SoleConsumer(const Model& model, int layer) {
  int consumer = -1;
  for (int j = layer + 1; j < model.num_layers(); ++j) {
    if (model.input_index(j) != layer) continue;
    if (consumer >= 0) return -1;  // second reader
    consumer = j;
  }
  return consumer;
}

bool HasResidualConsumer(const Model& model, int layer) {
  for (int j = layer + 1; j < model.num_layers(); ++j) {
    if (model.residual_index(j) == layer) return true;
  }
  return false;
}

/// Checks the flagged set against the budget: at every layer index the
/// images of all resident tensors covering it must fit together. A resident
/// tensor occupies the mirror from its producer layer through its consumer.
bool FitsBudgetTogether(const Model& model, const AccelConfig& cfg,
                        const std::vector<bool>& fused) {
  const std::int64_t budget = ResidencyBudgetWords(cfg);
  std::vector<std::int64_t> occupancy(
      static_cast<std::size_t>(model.num_layers()), 0);
  for (int i = 0; i < model.num_layers(); ++i) {
    if (!fused[static_cast<std::size_t>(i)]) continue;
    const int consumer = SoleConsumer(model, i);
    HDNN_INTERNAL(consumer > i) << "fused tensor without a consumer";
    const std::int64_t words = TensorResidencyWords(model, i, cfg);
    for (int k = i; k <= consumer; ++k) {
      occupancy[static_cast<std::size_t>(k)] += words;
      if (occupancy[static_cast<std::size_t>(k)] > budget) return false;
    }
  }
  return true;
}

}  // namespace

std::int64_t ResidencyBudgetWords(const AccelConfig& cfg) {
  return static_cast<std::int64_t>(cfg.input_buffer_vectors) * cfg.pi;
}

std::int64_t TensorResidencyWords(const Model& model, int layer,
                                  const AccelConfig& cfg) {
  // Channels pad to whole PI-lane vectors, as the compiler pads them.
  const FmapShape out = model.OutputOf(layer);
  std::int64_t words =
      RoundUp<std::int64_t>(out.channels, cfg.pi) * out.height * out.width;
  for (int j = layer + 1; j < model.num_layers(); ++j) {
    if (model.input_index(j) != layer) continue;
    const FmapShape in = model.InputOf(j);  // canonicalised (FC flattening)
    words = std::max(words, RoundUp<std::int64_t>(in.channels, cfg.pi) *
                                in.height * in.width);
  }
  return words;
}

bool FusableOutput(const Model& model, int layer, const AccelConfig& cfg) {
  HDNN_CHECK(layer >= 0 && layer < model.num_layers())
      << "fusion query for layer " << layer;
  if (layer == model.num_layers() - 1) return false;  // the model output
  if (SoleConsumer(model, layer) < 0) return false;
  if (HasResidualConsumer(model, layer)) return false;
  return TensorResidencyWords(model, layer, cfg) <= ResidencyBudgetWords(cfg);
}

std::vector<bool> PlanFusion(const Model& model, const AccelConfig& cfg) {
  std::vector<bool> fused(static_cast<std::size_t>(model.num_layers()), false);
  for (int i = 0; i < model.num_layers(); ++i) {
    if (!FusableOutput(model, i, cfg)) continue;
    fused[static_cast<std::size_t>(i)] = true;
    if (!FitsBudgetTogether(model, cfg, fused)) {
      fused[static_cast<std::size_t>(i)] = false;  // would oversubscribe
    }
  }
  return fused;
}

void ValidateFusionFlags(const Model& model,
                         const std::vector<LayerMapping>& mapping,
                         const AccelConfig& cfg) {
  HDNN_CHECK(static_cast<int>(mapping.size()) == model.num_layers())
      << "fusion validation: mapping size mismatch";
  std::vector<bool> fused(static_cast<std::size_t>(model.num_layers()), false);
  for (int i = 0; i < model.num_layers(); ++i) {
    if (!mapping[static_cast<std::size_t>(i)].fuse_output) continue;
    HDNN_CHECK(FusableOutput(model, i, cfg))
        << model.layer(i).name
        << ": fuse_output set but the output cannot be kept resident "
           "(branching/residual reader, model output, or image exceeds the "
           "residency budget)";
    fused[static_cast<std::size_t>(i)] = true;
  }
  HDNN_CHECK(FitsBudgetTogether(model, cfg, fused))
      << "fuse_output flags oversubscribe the on-chip residency budget ("
      << ResidencyBudgetWords(cfg) << " words)";
}

}  // namespace hdnn
