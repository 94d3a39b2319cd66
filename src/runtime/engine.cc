#include "runtime/engine.h"

#include <algorithm>
#include <exception>
#include <future>
#include <utility>

#include "common/check.h"
#include "quant/quant_config.h"

namespace hdnn {

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
  HashMix(h, key.quant_fingerprint);
  HashMix(h, AccelConfigHashValue(key.cfg));
  return static_cast<std::size_t>(h);
}

InferenceEngine::InferenceEngine(const FpgaSpec& spec, int num_workers)
    : spec_(spec), pool_(num_workers), rt_pool_(spec) {}

std::shared_ptr<const CompiledModel> InferenceEngine::GetOrCompile(
    const Model& model, const AccelConfig& cfg,
    const std::vector<LayerMapping>& mapping, bool* was_hit,
    const QuantConfig* quant) {
  HDNN_CHECK(static_cast<int>(mapping.size()) == model.num_layers())
      << "mapping has " << mapping.size() << " entries for "
      << model.num_layers() << " layers";
  const CacheKey key{ModelStructuralHash(model, mapping),
                     quant != nullptr ? quant->Fingerprint() : 0, cfg};
  {
    std::lock_guard<std::mutex> lock(cache_mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++cache_hits_;
      if (was_hit) *was_hit = true;
      return it->second;
    }
  }
  // Compile outside the lock: compilation is the expensive part and two
  // concurrent misses for the same key simply race to insert equal values.
  const Compiler compiler(cfg, spec_);
  auto compiled = std::make_shared<const CompiledModel>(
      compiler.Compile(model, mapping, quant));
  std::lock_guard<std::mutex> lock(cache_mu_);
  auto [it, inserted] = cache_.emplace(key, std::move(compiled));
  if (inserted) {
    ++cache_misses_;
  } else {
    ++cache_hits_;
  }
  if (was_hit) *was_hit = !inserted;
  return it->second;
}

std::int64_t InferenceEngine::cache_hits() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_hits_;
}

std::int64_t InferenceEngine::cache_misses() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_misses_;
}

std::size_t InferenceEngine::cache_size() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  return cache_.size();
}

BatchReport InferenceEngine::ExecuteBatch(
    const Model& model, const AccelConfig& cfg,
    const std::vector<LayerMapping>& mapping, const ModelWeightsQ& weights,
    std::span<const Tensor<std::int16_t>> inputs, bool functional,
    const QuantConfig* quant) {
  bool was_hit = false;
  std::shared_ptr<const CompiledModel> compiled =
      GetOrCompile(model, cfg, mapping, &was_hit, quant);

  BatchReport report;
  report.workers_used = num_workers();
  report.cache_hit = was_hit;
  report.items.resize(inputs.size());
  if (inputs.empty()) return report;

  // Check out one Runtime per participating worker from the shared pool
  // (workers beyond the batch size would execute nothing). The leases are
  // private to this call, so concurrent ExecuteBatch callers overlap.
  const std::size_t workers = static_cast<std::size_t>(num_workers());
  const std::size_t active = std::min(workers, inputs.size());
  std::vector<RuntimePool::Lease> leases;
  leases.reserve(active);
  for (std::size_t w = 0; w < active; ++w) {
    leases.push_back(rt_pool_.Checkout(cfg));
  }

  // Static round-robin assignment: item i -> worker i % W. Each worker
  // executes its items in increasing order on its private Runtime, so a run
  // is reproducible regardless of scheduling, and each item sees exactly
  // the state a sequential Runtime::Execute would.
  std::vector<std::exception_ptr> item_error(inputs.size());
  std::vector<std::future<void>> done;
  done.reserve(active);
  for (std::size_t w = 0; w < active; ++w) {
    done.push_back(pool_.Submit([&, w] {
      Runtime& runtime = *leases[w];
      for (std::size_t i = w; i < inputs.size(); i += workers) {
        try {
          report.items[i] = runtime.Execute(model, *compiled, weights,
                                            inputs[i], functional);
        } catch (...) {
          item_error[i] = std::current_exception();
        }
      }
    }));
  }
  for (auto& f : done) f.get();
  // First failure wins in item order (failures are recorded per item above,
  // so worker interleaving cannot reorder them).
  for (const std::exception_ptr& error : item_error) {
    if (error) std::rethrow_exception(error);
  }

  // Modeled-accelerator makespan: the W workers stand in for W parallel
  // accelerator instances, each running its items back to back.
  std::vector<double> worker_busy(workers, 0);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    worker_busy[i % workers] += report.items[i].seconds;
  }
  for (double busy : worker_busy) {
    report.sim_makespan_seconds = std::max(report.sim_makespan_seconds, busy);
  }
  // One simulated run models one accelerator instance, so the worker pool
  // is the instance count here; multiplying by cfg.ni as well would double
  // count (per-item RunReport.effective_gops carries the xNI figure).
  const double total_ops = static_cast<double>(model.TotalOps()) *
                           static_cast<double>(inputs.size());
  if (report.sim_makespan_seconds > 0) {
    report.aggregate_effective_gops =
        total_ops / report.sim_makespan_seconds / 1e9;
  }
  return report;
}

}  // namespace hdnn
