#include "estimator/latency_cache.h"

namespace hdnn {
namespace {

/// splitmix64 finalizer — the same mix step Prng uses; good avalanche for
/// hash combining.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t value) {
  return Mix(seed ^ value);
}

LayerLatencyKey MakeLatencyKey(const ConvLayer& layer, const FmapShape& in,
                               ConvMode mode, const AccelConfig& cfg,
                               const FusionContext& fusion) {
  LayerLatencyKey key;
  key.input_resident = fusion.input_resident ? 1 : 0;
  key.output_resident = fusion.output_resident ? 1 : 0;
  key.in_channels = layer.in_channels;
  key.out_channels = layer.out_channels;
  key.kernel_h = layer.kernel_h;
  key.kernel_w = layer.kernel_w;
  key.stride = layer.stride;
  key.pad = layer.pad;
  key.pool = layer.pool;
  key.residual = layer.has_residual() ? 1 : 0;
  key.in_height = in.height;
  key.in_width = in.width;
  key.mode = mode;
  key.pi = cfg.pi;
  key.po = cfg.po;
  key.pt = cfg.pt;
  key.ni = cfg.ni;
  key.input_buffer_vectors = cfg.input_buffer_vectors;
  key.weight_buffer_vectors = cfg.weight_buffer_vectors;
  key.output_buffer_vectors = cfg.output_buffer_vectors;
  return key;
}

std::size_t LayerLatencyKeyHash::operator()(const LayerLatencyKey& k) const {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  for (int v : {k.in_channels, k.out_channels, k.kernel_h, k.kernel_w,
                k.stride, k.pad, k.pool, k.residual, k.input_resident,
                k.output_resident, k.in_height, k.in_width,
                static_cast<int>(k.mode), k.pi, k.po, k.pt, k.ni,
                k.input_buffer_vectors, k.weight_buffer_vectors,
                k.output_buffer_vectors}) {
    h = HashCombine(h,
                    static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
  }
  return static_cast<std::size_t>(h);
}

bool LatencyMemoCache::Lookup(const LayerLatencyKey& key,
                              LayerLatencyValue* value) const {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++stats_.misses;
    return false;
  }
  *value = it->second;
  ++stats_.hits;
  return true;
}

void LatencyMemoCache::Insert(const LayerLatencyKey& key,
                              const LayerLatencyValue& value) {
  map_.emplace(key, value);
}

}  // namespace hdnn
