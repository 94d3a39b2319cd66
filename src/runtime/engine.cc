#include "runtime/engine.h"

#include <utility>

#include "common/check.h"

namespace hdnn {

std::uint64_t AccelConfigHashValue(const AccelConfig& cfg) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  HashMix(h, static_cast<std::uint64_t>(cfg.pi));
  HashMix(h, static_cast<std::uint64_t>(cfg.po));
  HashMix(h, static_cast<std::uint64_t>(cfg.pt));
  HashMix(h, static_cast<std::uint64_t>(cfg.ni));
  HashMix(h, static_cast<std::uint64_t>(cfg.data_width));
  HashMix(h, static_cast<std::uint64_t>(cfg.wgt_width));
  HashMix(h, static_cast<std::uint64_t>(cfg.input_buffer_vectors));
  HashMix(h, static_cast<std::uint64_t>(cfg.weight_buffer_vectors));
  HashMix(h, static_cast<std::uint64_t>(cfg.output_buffer_vectors));
  return h;
}

std::uint64_t ModelStructuralHash(const Model& model,
                                  const std::vector<LayerMapping>& mapping) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  HashMix(h, static_cast<std::uint64_t>(model.input().channels));
  HashMix(h, static_cast<std::uint64_t>(model.input().height));
  HashMix(h, static_cast<std::uint64_t>(model.input().width));
  HashMix(h, static_cast<std::uint64_t>(model.num_layers()));
  for (int i = 0; i < model.num_layers(); ++i) {
    const ConvLayer& layer = model.layer(i);
    HashMix(h, static_cast<std::uint64_t>(layer.in_channels));
    HashMix(h, static_cast<std::uint64_t>(layer.out_channels));
    HashMix(h, static_cast<std::uint64_t>(layer.kernel_h));
    HashMix(h, static_cast<std::uint64_t>(layer.kernel_w));
    HashMix(h, static_cast<std::uint64_t>(layer.stride));
    HashMix(h, static_cast<std::uint64_t>(layer.pad));
    HashMix(h, static_cast<std::uint64_t>(layer.relu));
    HashMix(h, static_cast<std::uint64_t>(layer.pool));
    HashMix(h, static_cast<std::uint64_t>(layer.is_fc));
    // Graph edges: a skip connection changes the compiled program (SAVE_RES
    // emission, DRAM slot assignment), so two models identical layer-wise
    // but wired differently must not share a cache entry. +1 keeps the
    // "model input" / "no edge" sentinel (-1) distinct from layer 0.
    HashMix(h, static_cast<std::uint64_t>(model.input_index(i) + 1));
    HashMix(h, static_cast<std::uint64_t>(model.residual_index(i) + 1));
  }
  for (const LayerMapping& m : mapping) {
    HashMix(h, static_cast<std::uint64_t>(m.mode));
    HashMix(h, static_cast<std::uint64_t>(m.dataflow));
    // The fused-segment decision changes the emitted opcodes (SAVE_KR /
    // LOAD_INP_KR), so fused and unfused compiles must not share an entry.
    HashMix(h, static_cast<std::uint64_t>(m.fuse_output));
  }
  return h;
}

std::size_t InferenceEngine::CacheKeyHash::operator()(
    const CacheKey& key) const {
  std::uint64_t h = key.structural_hash;
  HashMix(h, AccelConfigHashValue(key.cfg));
  return static_cast<std::size_t>(h);
}

InferenceEngine::InferenceEngine(const FpgaSpec& spec, int num_workers)
    : spec_(spec) {
  HDNN_CHECK(num_workers == 1)
      << "the engine is single-threaded; num_workers must be 1, got "
      << num_workers;
}

std::shared_ptr<const CompiledModel> InferenceEngine::GetOrCompile(
    const Model& model, const AccelConfig& cfg,
    const std::vector<LayerMapping>& mapping) {
  HDNN_CHECK(static_cast<int>(mapping.size()) == model.num_layers())
      << "mapping has " << mapping.size() << " entries for "
      << model.num_layers() << " layers";
  const CacheKey key{ModelStructuralHash(model, mapping), cfg};
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++cache_hits_;
    return it->second;
  }
  const Compiler compiler(cfg, spec_);
  auto compiled =
      std::make_shared<const CompiledModel>(compiler.Compile(model, mapping));
  ++cache_misses_;
  return cache_.emplace(key, std::move(compiled)).first->second;
}

Runtime& InferenceEngine::RuntimeFor(const AccelConfig& cfg) {
  std::unique_ptr<Runtime>& runtime = runtimes_[cfg];
  if (!runtime) runtime = std::make_unique<Runtime>(cfg, spec_);
  return *runtime;
}

}  // namespace hdnn
