// Per-shard health detection for the self-healing fleet (DESIGN.md Sec. 12).
//
// A HealthTracker watches worker progress per shard and trips two wires:
//
//   * Heartbeat. A shard with outstanding work (queued or in flight) that
//     completes nothing for `heartbeat_timeout_seconds` is marked kSuspect
//     — the router masks it, but its queue is kept (a transient stall may
//     drain it). A suspect shard still silent after `down_after_seconds`
//     more is declared kDown: permanent, never unmasked, and the trigger
//     for portfolio re-planning. A suspect shard that completes work
//     recovers to kHealthy.
//   * Consecutive deadline misses. `max_consecutive_misses` served-class
//     deadline misses in a row (expiries / post-deadline completions) with
//     no on-time completion in between also trip kSuspect — the slow-clock
//     failure mode, where the board still makes progress but too late.
//
// The tracker is time-base agnostic (plain double seconds); the virtual-
// time fleet simulation drives it with simulated time. It is deliberately
// not thread-safe — callers serialize.
#ifndef HDNN_FLEET_HEALTH_H_
#define HDNN_FLEET_HEALTH_H_

#include <vector>

#include "common/check.h"

namespace hdnn {

enum class ShardHealth {
  kHealthy = 0,
  kSuspect,  ///< tripwire fired; masked from routing, may still recover
  kDown,     ///< permanent loss; masked forever, triggers re-planning
};

struct HealthOptions {
  /// Busy shard with no completion for this long -> kSuspect.
  double heartbeat_timeout_seconds = 0.02;
  /// kSuspect with still no completion for this much MORE time -> kDown.
  double down_after_seconds = 0.05;
  /// Consecutive deadline misses (no on-time completion between) that trip
  /// kSuspect. 0 disables the miss tripwire.
  int max_consecutive_misses = 8;

  void Validate() const {
    HDNN_CHECK(heartbeat_timeout_seconds > 0)
        << "heartbeat timeout must be positive, got "
        << heartbeat_timeout_seconds;
    HDNN_CHECK(down_after_seconds > 0)
        << "down_after must be positive, got " << down_after_seconds;
    HDNN_CHECK(max_consecutive_misses >= 0)
        << "max_consecutive_misses must be non-negative, got "
        << max_consecutive_misses;
  }
};

class HealthTracker {
 public:
  HealthTracker(int num_shards, const HealthOptions& options,
                double now = 0);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  ShardHealth health(int shard) const { return at(shard).state; }
  /// Routable = healthy. Suspect and down shards are masked.
  bool routable(int shard) const {
    return at(shard).state == ShardHealth::kHealthy;
  }
  bool alive(int shard) const { return at(shard).state != ShardHealth::kDown; }
  /// Total state transitions observed (diagnostics).
  int transitions() const { return transitions_; }

  /// The shard completed a result on time at `now`: heartbeat re-anchors,
  /// the miss streak resets, and a kSuspect shard recovers to kHealthy
  /// (kDown is permanent).
  void OnProgress(int shard, double now);
  /// A served request of this shard missed its deadline at `now`.
  /// `made_progress` distinguishes a LATE COMPLETION (work still finished —
  /// liveness progress, so the heartbeat re-anchors and only the miss
  /// streak suffers: the slow-clock signature) from an EXPIRY swept out of
  /// the queue (no work finished; the heartbeat keeps counting down).
  void OnDeadlineMiss(int shard, double now, bool made_progress = false);
  /// Outstanding-work edge: the heartbeat wire is armed only while the
  /// shard has queued or in-flight work (an idle shard owes no progress).
  /// Entering busy re-anchors the heartbeat.
  void SetBusy(int shard, bool busy, double now);

  /// Advances the tripwires to `now`. Returns true when any shard changed
  /// state (the caller re-masks the router / triggers re-planning).
  bool Tick(double now);

  /// Earliest future instant at which Tick could change some shard's state
  /// given no further progress; +infinity when no wire is armed. Virtual-
  /// time loops advance to this even when no other event is pending, so
  /// detection fires without traffic to drive it.
  double NextDeadline() const;

 private:
  struct Shard {
    ShardHealth state = ShardHealth::kHealthy;
    bool busy = false;
    double last_progress = 0;   ///< last completion (or busy-edge anchor)
    double suspect_since = 0;   ///< valid while state == kSuspect
    int consecutive_misses = 0;
  };

  const Shard& at(int shard) const {
    HDNN_CHECK(shard >= 0 && shard < num_shards())
        << "shard index " << shard << " out of range";
    return shards_[static_cast<std::size_t>(shard)];
  }
  Shard& at(int shard) {
    HDNN_CHECK(shard >= 0 && shard < num_shards())
        << "shard index " << shard << " out of range";
    return shards_[static_cast<std::size_t>(shard)];
  }
  void Trip(Shard& s, double now);

  HealthOptions options_;
  std::vector<Shard> shards_;
  int transitions_ = 0;
};

}  // namespace hdnn

#endif  // HDNN_FLEET_HEALTH_H_
