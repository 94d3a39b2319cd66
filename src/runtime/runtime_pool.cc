#include "runtime/runtime_pool.h"

#include <utility>

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

RuntimePool::Lease RuntimePool::Checkout(const AccelConfig& cfg) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = idle_.find(cfg);
    if (it != idle_.end() && !it->second.empty()) {
      std::unique_ptr<Runtime> runtime = std::move(it->second.back());
      it->second.pop_back();
      // Per-lease execution flags never leak between tenants: a reused
      // Runtime starts with integrity tagging off, exactly like a fresh one.
      runtime->set_integrity_check(false);
      return Lease(this, cfg, std::move(runtime));
    }
  }
  // Build outside the lock: Runtime construction allocates the DRAM image
  // and simulator arenas, and a burst of first checkouts must not serialize.
  auto runtime = std::make_unique<Runtime>(cfg, spec_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++built_;
  }
  return Lease(this, cfg, std::move(runtime));
}

void RuntimePool::Return(const AccelConfig& cfg,
                         std::unique_ptr<Runtime> runtime) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::unique_ptr<Runtime>>& free_list = idle_[cfg];
  if (static_cast<int>(free_list.size()) < kMaxIdlePerConfig) {
    free_list.push_back(std::move(runtime));
  }
  // else: drop — the unique_ptr destroys the surplus Runtime.
}

std::size_t RuntimePool::idle_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [cfg, free_list] : idle_) n += free_list.size();
  return n;
}

std::int64_t RuntimePool::built_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return built_;
}

void RuntimePool::Lease::Release() {
  if (pool_ != nullptr && runtime_ != nullptr) {
    pool_->Return(cfg_, std::move(runtime_));
  }
  pool_ = nullptr;
  runtime_.reset();
}

}  // namespace hdnn
