// Deployment cache over the single-shot runtime. The InferenceEngine owns
//   * a compiled-program cache keyed by (structural model+mapping hash,
//     AccelConfig) — repeated traffic for the same deployment skips the
//     compiler entirely;
//   * one persistent Runtime per AccelConfig, built on first use. Every
//     server sharing the engine profiles and serves on it, so servers of
//     one deployment share one resident weight image (DESIGN.md Sec. 4);
//     Runtime reuse is bit- and cycle-invisible, so which server ran last
//     never affects results.
//
// Parallel accelerator instances are modeled in virtual time by the server
// (ServeTrace's drainers, runtime/server.h), not by host threads. The engine
// is single-threaded: it takes no lock, and callers must not share one
// engine between threads.
#ifndef HDNN_RUNTIME_ENGINE_H_
#define HDNN_RUNTIME_ENGINE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "compiler/compiler.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"
#include "runtime/runtime.h"

namespace hdnn {

/// One FNV-1a step over the 8 bytes of `v`: the mixer behind
/// AccelConfigHashValue, ModelStructuralHash and the engine's cache key.
inline void HashMix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

/// FNV-1a fingerprint of every AccelConfig field (tracked by the sizeof
/// tripwire in test_engine's cache-key audit).
std::uint64_t AccelConfigHashValue(const AccelConfig& cfg);

/// Order-independent structural fingerprint of a model plus its per-layer
/// mapping (FNV-1a over geometry; the model name does not participate).
std::uint64_t ModelStructuralHash(const Model& model,
                                  const std::vector<LayerMapping>& mapping);

class InferenceEngine {
 public:
  /// `num_workers` must be 1 (anything else is an InvalidArgument); the
  /// parameter only keeps existing two-argument callers compiling.
  explicit InferenceEngine(const FpgaSpec& spec, int num_workers = 1);

  /// Compiles `model` for `cfg` under `mapping`, or returns the cached
  /// program compiled earlier for an identical deployment.
  std::shared_ptr<const CompiledModel> GetOrCompile(
      const Model& model, const AccelConfig& cfg,
      const std::vector<LayerMapping>& mapping);

  /// The engine's one Runtime for `cfg`, built on the first call; the
  /// reference stays valid for the engine's lifetime.
  Runtime& RuntimeFor(const AccelConfig& cfg);

  // Program-cache observability.
  std::int64_t cache_hits() const { return cache_hits_; }
  std::int64_t cache_misses() const { return cache_misses_; }

 private:
  struct CacheKey {
    std::uint64_t structural_hash = 0;
    AccelConfig cfg;
    friend bool operator==(const CacheKey&, const CacheKey&) = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const;
  };
  struct ConfigHash {
    std::size_t operator()(const AccelConfig& cfg) const {
      return static_cast<std::size_t>(AccelConfigHashValue(cfg));
    }
  };

  FpgaSpec spec_;
  std::unordered_map<CacheKey, std::shared_ptr<const CompiledModel>,
                     CacheKeyHash>
      cache_;
  std::unordered_map<AccelConfig, std::unique_ptr<Runtime>, ConfigHash>
      runtimes_;
  std::int64_t cache_hits_ = 0;
  std::int64_t cache_misses_ = 0;
};

}  // namespace hdnn

#endif  // HDNN_RUNTIME_ENGINE_H_
