#include "fleet/router.h"

#include <utility>

#include "common/check.h"

namespace hdnn {

Router::Router(int num_shards, const RouterOptions& options)
    : options_(options), num_shards_(num_shards), root_(options.seed) {
  HDNN_CHECK(num_shards >= 1) << "router needs at least one shard, got "
                              << num_shards;
  HDNN_CHECK(options.choices >= 0)
      << "choices must be non-negative, got " << options.choices;
}

RouteDecision Router::RoutePair(const std::vector<double>& load,
                                const std::vector<bool>& feasible) {
  HDNN_CHECK(static_cast<int>(load.size()) == num_shards_ &&
             static_cast<int>(feasible.size()) == num_shards_)
      << "load/feasible size mismatch";
  std::vector<int> pool;
  pool.reserve(static_cast<std::size_t>(num_shards_));
  for (int s = 0; s < num_shards_; ++s) {
    if (feasible[static_cast<std::size_t>(s)]) pool.push_back(s);
  }
  const std::int64_t decision = decisions_++;
  RouteDecision out;
  if (pool.empty()) return out;

  const int m = static_cast<int>(pool.size());
  int sampled = m;
  if (options_.choices > 0 && options_.choices < m) {
    // Partial Fisher-Yates over the feasible pool from this decision's own
    // forked stream: the first `choices` slots become the sample.
    Prng stream = root_.Fork(static_cast<std::uint64_t>(decision));
    sampled = options_.choices;
    for (int j = 0; j < sampled; ++j) {
      const auto r = static_cast<int>(stream.NextInt(j, m - 1));
      std::swap(pool[static_cast<std::size_t>(j)],
                pool[static_cast<std::size_t>(r)]);
    }
  }
  int best = pool[0];
  for (int j = 1; j < sampled; ++j) {
    const int s = pool[static_cast<std::size_t>(j)];
    const double ls = load[static_cast<std::size_t>(s)];
    const double lb = load[static_cast<std::size_t>(best)];
    if (ls < lb || (ls == lb && s < best)) best = s;
  }
  out.primary = best;
  // Hedge: second-least-loaded of the same sample (never the primary),
  // ties to the lowest shard index.
  int hedge = -1;
  for (int j = 0; j < sampled; ++j) {
    const int s = pool[static_cast<std::size_t>(j)];
    if (s == best) continue;
    if (hedge < 0) {
      hedge = s;
      continue;
    }
    const double ls = load[static_cast<std::size_t>(s)];
    const double lh = load[static_cast<std::size_t>(hedge)];
    if (ls < lh || (ls == lh && s < hedge)) hedge = s;
  }
  out.hedge = hedge;
  return out;
}

}  // namespace hdnn
