#include "fleet/health.h"

#include <algorithm>
#include <limits>

namespace hdnn {

HealthTracker::HealthTracker(int num_shards, const HealthOptions& options,
                             double now)
    : options_(options) {
  options_.Validate();
  HDNN_CHECK(num_shards >= 1)
      << "health tracker needs at least one shard, got " << num_shards;
  shards_.assign(static_cast<std::size_t>(num_shards), {});
  for (Shard& s : shards_) s.last_progress = now;
}

void HealthTracker::OnProgress(int shard, double now) {
  Shard& s = at(shard);
  if (s.state == ShardHealth::kDown) return;  // permanent
  s.last_progress = std::max(s.last_progress, now);
  s.consecutive_misses = 0;
  if (s.state == ShardHealth::kSuspect) {
    s.state = ShardHealth::kHealthy;
    ++transitions_;
  }
}

void HealthTracker::OnDeadlineMiss(int shard, double now,
                                   bool made_progress) {
  Shard& s = at(shard);
  if (s.state == ShardHealth::kDown) return;
  if (made_progress) s.last_progress = std::max(s.last_progress, now);
  if (options_.max_consecutive_misses == 0) return;
  if (++s.consecutive_misses >= options_.max_consecutive_misses &&
      s.state == ShardHealth::kHealthy) {
    Trip(s, now);
  }
}

void HealthTracker::SetBusy(int shard, bool busy, double now) {
  Shard& s = at(shard);
  if (busy && !s.busy) s.last_progress = std::max(s.last_progress, now);
  s.busy = busy;
}

void HealthTracker::Trip(Shard& s, double now) {
  s.state = ShardHealth::kSuspect;
  s.suspect_since = now;
  ++transitions_;
}

bool HealthTracker::Tick(double now) {
  bool changed = false;
  for (Shard& s : shards_) {
    if (s.state == ShardHealth::kHealthy && s.busy &&
        now >= s.last_progress + options_.heartbeat_timeout_seconds) {
      Trip(s, now);
      changed = true;
    }
    if (s.state == ShardHealth::kSuspect &&
        now >= s.suspect_since + options_.down_after_seconds) {
      s.state = ShardHealth::kDown;
      ++transitions_;
      changed = true;
    }
  }
  return changed;
}

double HealthTracker::NextDeadline() const {
  double next = std::numeric_limits<double>::infinity();
  for (const Shard& s : shards_) {
    if (s.state == ShardHealth::kHealthy && s.busy) {
      next = std::min(next,
                      s.last_progress + options_.heartbeat_timeout_seconds);
    } else if (s.state == ShardHealth::kSuspect) {
      next = std::min(next, s.suspect_since + options_.down_after_seconds);
    }
  }
  return next;
}

}  // namespace hdnn
