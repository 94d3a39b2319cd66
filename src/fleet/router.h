// Deadline-aware fleet router: shards open-loop traffic across the boards
// of a planned portfolio (src/fleet/portfolio.h).
//
// Policy: among the shards the caller marks feasible for a request (its
// latency class fits, and the backlog still leaves deadline slack), pick
// the least-loaded of `choices` sampled shards — power-of-two-choices by
// default, which gets within a constant of full least-loaded scanning at
// O(1) cost — or scan every feasible shard when choices = 0.
//
// Determinism: decision k draws from Prng(seed).Fork(k) (common/prng.h
// splitmix stream derivation), so it is a pure function of
// (seed, k, load, feasible) — independent of how many draws earlier
// decisions consumed, of wall clock, and of any thread interleaving in the
// caller. Replaying the same request sequence yields a bit-identical
// decision vector, which is what lets the fleet bench pin its routing.
#ifndef HDNN_FLEET_ROUTER_H_
#define HDNN_FLEET_ROUTER_H_

#include <cstdint>
#include <vector>

#include "common/prng.h"

namespace hdnn {

struct RouterOptions {
  std::uint64_t seed = 1;  ///< base of the per-decision forked streams
  /// Shards sampled per decision (power-of-N-choices). 0 = scan every
  /// feasible shard (full least-loaded).
  int choices = 2;
};

/// A routing decision with a hedge target: `primary` is the least-loaded
/// sampled feasible shard; `hedge` is the second-least-loaded of the same
/// sample (-1 when it has fewer than two shards), so a hedge never perturbs
/// primary routing. Near-deadline requests are duplicated onto the hedge
/// shard — first non-error completion wins; duplicates are harmless because
/// inference is pure.
struct RouteDecision {
  int primary = -1;
  int hedge = -1;
};

class Router {
 public:
  Router(int num_shards, const RouterOptions& options);

  /// Picks the shards for one request. `load` is the caller's backlog
  /// estimate per shard (any consistent unit; lower = emptier) and
  /// `feasible` masks the shards this request may use; both must have
  /// num_shards entries. Among the sampled feasible shards the least
  /// loaded is the primary, ties to the lowest shard index; the primary is
  /// -1 when no shard is feasible (the caller sheds). Each call consumes one
  /// decision slot.
  RouteDecision RoutePair(const std::vector<double>& load,
                          const std::vector<bool>& feasible);

  std::int64_t decisions() const { return decisions_; }
  int num_shards() const { return num_shards_; }

 private:
  RouterOptions options_;
  int num_shards_;
  Prng root_;
  std::int64_t decisions_ = 0;
};

}  // namespace hdnn

#endif  // HDNN_FLEET_ROUTER_H_
