// Memoization cache for Eq. 12-15 latency-model queries.
//
// A DSE run evaluates the same per-layer latency question many times: model
// families share layer geometries (all of VGG16's conv5 block, every repeated
// ResNet stage), and re-exploring a model under different DseOptions revisits
// identical (layer, mode, config) points. The cache keys a query by the layer
// geometry and the latency-relevant accelerator parameters and stores the
// best-dataflow answer, so repeated sweeps become lookups.
//
// Values are pure functions of their key (for a fixed FpgaSpec), which is
// what keeps memoized and cold exploration results exactly equal. The cache
// is not synchronized: it belongs to one single-threaded DseEngine.
#ifndef HDNN_ESTIMATOR_LATENCY_CACHE_H_
#define HDNN_ESTIMATOR_LATENCY_CACHE_H_

#include <cstdint>
#include <unordered_map>

#include "common/types.h"
#include "estimator/latency_model.h"
#include "nn/model.h"

namespace hdnn {

/// Everything EstimateLayerLatency / ComputeGroups read from (layer, input
/// shape, mode, config). The FpgaSpec is deliberately absent: a cache belongs
/// to one DseEngine, whose spec is fixed. NI is part of the key because the
/// per-instance DRAM bandwidth depends on it (Eqs. 8-11); relu/is_fc/name are
/// absent because they do not enter the latency model. `residual` is present
/// because a fused residual add doubles the SAVE stage's DRAM traffic.
struct LayerLatencyKey {
  int in_channels = 0;
  int out_channels = 0;
  int kernel_h = 0;
  int kernel_w = 0;
  int stride = 0;
  int pad = 0;
  int pool = 0;
  int residual = 0;  ///< 1 when the layer fuses a residual add
  int input_resident = 0;   ///< 1 when LOAD_INP is an on-chip hand-off
  int output_resident = 0;  ///< 1 when SAVE is an on-chip hand-off
  int in_height = 0;
  int in_width = 0;
  ConvMode mode = ConvMode::kSpatial;
  int pi = 0;
  int po = 0;
  int pt = 0;
  int ni = 0;
  int input_buffer_vectors = 0;
  int weight_buffer_vectors = 0;
  int output_buffer_vectors = 0;

  friend bool operator==(const LayerLatencyKey&,
                         const LayerLatencyKey&) = default;
};

/// Builds the key for one (layer, input, mode, config) query under a fusion
/// context — resident streams change the Eq. 10/11 terms, so fused and
/// unfused answers must not collide.
LayerLatencyKey MakeLatencyKey(const ConvLayer& layer, const FmapShape& in,
                               ConvMode mode, const AccelConfig& cfg,
                               const FusionContext& fusion);

/// splitmix64-style hash combine shared by the memo cache and the runtime's
/// weight-image key.
std::uint64_t HashCombine(std::uint64_t seed, std::uint64_t value);

/// The memoized answer: the best legal dataflow for the keyed mode and its
/// Eq. 12-15 total, or "infeasible" when no dataflow can be scheduled.
struct LayerLatencyValue {
  bool feasible = false;
  double total_cycles = 0;
  Dataflow dataflow = Dataflow::kInputStationary;
};

struct LayerLatencyKeyHash {
  std::size_t operator()(const LayerLatencyKey& k) const;
};

class LatencyMemoCache {
 public:
  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
  };

  /// Returns true and fills `*value` on a hit. Counts hit/miss.
  bool Lookup(const LayerLatencyKey& key, LayerLatencyValue* value) const;

  /// Stores the answer for `key` (called after a Lookup miss).
  void Insert(const LayerLatencyKey& key, const LayerLatencyValue& value);

  Stats stats() const { return stats_; }

 private:
  std::unordered_map<LayerLatencyKey, LayerLatencyValue, LayerLatencyKeyHash>
      map_;
  mutable Stats stats_;
};

}  // namespace hdnn

#endif  // HDNN_ESTIMATOR_LATENCY_CACHE_H_
