// Shared pool of per-config Runtime instances (each owning its DramModel +
// Accelerator arenas), checked out for the duration of one batch or one
// ServeTrace and returned for reuse.
//
// Concurrent ExecuteBatch callers each check out their own share-nothing
// Runtimes, so they overlap instead of serializing on the engine, and a
// pooled Runtime keeps its weight image resident from one checkout to the
// next (a server's repeated ServeTraces stage weights once). Runtime reuse
// is bit- and cycle-invisible (DramModel::Reset + per-run Accelerator state
// reset, see DESIGN.md Sec. 4), so which physical Runtime a request lands
// on never affects results.
#ifndef HDNN_RUNTIME_RUNTIME_POOL_H_
#define HDNN_RUNTIME_RUNTIME_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"
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

/// FNV-1a fingerprint of every AccelConfig field (tracked by the
/// sizeof tripwire in test_engine's cache-key audit, which exercises this
/// hash through the engine's CacheKeyHash).
std::uint64_t AccelConfigHashValue(const AccelConfig& cfg);

class RuntimePool {
 public:
  /// Up to kMaxIdlePerConfig returned Runtimes are retained per config for
  /// reuse; surplus returns are destroyed (the pool never bounds
  /// *checkouts* — a burst of callers simply builds fresh Runtimes).
  explicit RuntimePool(const FpgaSpec& spec) : spec_(spec) {}

  RuntimePool(const RuntimePool&) = delete;
  RuntimePool& operator=(const RuntimePool&) = delete;

  /// RAII checkout: returns the Runtime to the pool on destruction.
  class Lease {
   public:
    Lease() = default;
    Lease(RuntimePool* pool, AccelConfig cfg,
          std::unique_ptr<Runtime> runtime)
        : pool_(pool), cfg_(cfg), runtime_(std::move(runtime)) {}
    Lease(Lease&& other) noexcept = default;
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = other.pool_;
        cfg_ = other.cfg_;
        runtime_ = std::move(other.runtime_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    ~Lease() { Release(); }

    Runtime& operator*() const { return *runtime_; }
    Runtime* operator->() const { return runtime_.get(); }
    bool valid() const { return runtime_ != nullptr; }

   private:
    void Release();

    RuntimePool* pool_ = nullptr;
    AccelConfig cfg_;
    std::unique_ptr<Runtime> runtime_;
  };

  /// Reuses an idle Runtime built for `cfg` or constructs a fresh one.
  Lease Checkout(const AccelConfig& cfg);

  /// Idle (returned, not checked out) Runtimes currently retained.
  std::size_t idle_count() const;
  /// Total Runtime constructions performed by this pool (reuse diagnostics).
  std::int64_t built_count() const;

 private:
  friend class Lease;
  void Return(const AccelConfig& cfg, std::unique_ptr<Runtime> runtime);

  struct ConfigHash {
    std::size_t operator()(const AccelConfig& cfg) const {
      return static_cast<std::size_t>(AccelConfigHashValue(cfg));
    }
  };

  static constexpr int kMaxIdlePerConfig = 16;

  FpgaSpec spec_;
  mutable std::mutex mu_;
  std::unordered_map<AccelConfig, std::vector<std::unique_ptr<Runtime>>,
                     ConfigHash>
      idle_;
  std::int64_t built_ = 0;
};

}  // namespace hdnn

#endif  // HDNN_RUNTIME_RUNTIME_POOL_H_
