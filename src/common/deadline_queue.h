// Deadline-aware bounded FIFO with size- and timeout-triggered batch
// dispatch — the policy core of the serving front door (runtime/server.h).
//
// The container is not thread-safe and works in plain double seconds of
// virtual time. The server's trace drainers (InferenceServer::ServeTrace)
// and the fleet simulator (SimulateFleet) both feed it, so they share one
// implementation of admission, shedding and batch composition.
//
// Policy:
//   * Admission. The queue holds at most `capacity` requests. A push into a
//     full queue first sheds already-expired entries; if still full, the
//     queued entry with the LATEST deadline is evicted when the incoming
//     request's deadline is strictly earlier (deadline-aware shedding: under
//     overload, the work most likely to miss its deadline anyway is dropped
//     first), otherwise the incoming request is rejected.
//   * Dispatch. A batch is ready when the queue holds at least `max_batch`
//     requests (size trigger) or the oldest request has waited at least
//     `max_queue_delay` seconds (timeout trigger). Batches are FIFO prefixes
//     of at most `max_batch` entries.
//   * Expiry. An entry whose deadline is strictly before `now` is expired;
//     sweeps happen at admission and at dispatch, so an expired request is
//     never executed.
#ifndef HDNN_COMMON_DEADLINE_QUEUE_H_
#define HDNN_COMMON_DEADLINE_QUEUE_H_

#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace hdnn {

inline constexpr double kNoDeadline = std::numeric_limits<double>::infinity();
inline constexpr double kNeverTriggers =
    std::numeric_limits<double>::infinity();

enum class AdmitResult {
  kAdmitted,  ///< enqueued; queue had room (possibly after an expiry sweep)
  kEvicted,   ///< enqueued; the latest-deadline entry was shed to make room
  kRejected,  ///< queue full of requests with deadlines no later than ours
};

template <typename T>
class DeadlineQueue {
 public:
  struct Entry {
    T value{};
    double enqueue_s = 0;
    double deadline_s = kNoDeadline;  ///< absolute; kNoDeadline = none
  };

  DeadlineQueue(int capacity, int max_batch, double max_queue_delay_s)
      : capacity_(capacity),
        max_batch_(max_batch),
        max_queue_delay_s_(max_queue_delay_s) {
    HDNN_CHECK(capacity >= 1) << "queue capacity must be positive, got "
                              << capacity;
    HDNN_CHECK(max_batch >= 1) << "max_batch must be positive, got "
                               << max_batch;
    HDNN_CHECK(max_queue_delay_s >= 0)
        << "max_queue_delay must be non-negative, got " << max_queue_delay_s;
  }

  int capacity() const { return capacity_; }
  int max_batch() const { return max_batch_; }
  double max_queue_delay_s() const { return max_queue_delay_s_; }
  bool empty() const { return entries_.empty(); }
  int size() const { return static_cast<int>(entries_.size()); }

  /// Moves every entry expired at `now` into `expired`, preserving FIFO
  /// order among survivors. Returns the number shed.
  int SweepExpired(double now, std::vector<Entry>& expired) {
    int shed = 0;
    for (std::size_t i = 0; i < entries_.size();) {
      if (entries_[i].deadline_s < now) {
        expired.push_back(std::move(entries_[i]));
        entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
        ++shed;
      } else {
        ++i;
      }
    }
    return shed;
  }

  /// Admission under the policy above. On kEvicted the shed entry is moved
  /// into `*evicted` (which must be non-null); `expired` receives any
  /// entries shed by the pre-admission expiry sweep regardless of outcome.
  /// `entry` is moved from only when admitted — on kRejected it is left
  /// intact for the caller to resolve.
  AdmitResult Push(Entry& entry, double now, Entry* evicted,
                   std::vector<Entry>& expired) {
    if (size() >= capacity_) SweepExpired(now, expired);
    if (size() < capacity_) {
      entries_.push_back(std::move(entry));
      return AdmitResult::kAdmitted;
    }
    // Full of live requests: shed the latest-deadline one iff the incoming
    // request is strictly more urgent.
    std::size_t latest = 0;
    for (std::size_t i = 1; i < entries_.size(); ++i) {
      if (entries_[i].deadline_s > entries_[latest].deadline_s) latest = i;
    }
    if (entry.deadline_s < entries_[latest].deadline_s) {
      HDNN_CHECK(evicted != nullptr) << "eviction needs an out slot";
      *evicted = std::move(entries_[latest]);
      entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(latest));
      entries_.push_back(std::move(entry));
      return AdmitResult::kEvicted;
    }
    return AdmitResult::kRejected;
  }

  /// True when a batch should dispatch at `now` (size or timeout trigger).
  bool DispatchReady(double now) const {
    if (entries_.empty()) return false;
    if (size() >= max_batch_) return true;
    // Same expression as ReadyTime()'s timeout trigger: comparing `now`
    // against the rounded sum keeps the two agreeing at the trigger instant,
    // where the algebraically equal `now - enqueue >= delay` can round false
    // and livelock a virtual-time loop that advanced to that instant.
    return now >= entries_.front().enqueue_s + max_queue_delay_s_;
  }

  /// Earliest instant a batch may dispatch, seen at `now` with no further
  /// admissions: kNeverTriggers when empty, `now` once the size trigger has
  /// fired, else the timeout trigger (oldest enqueue + max_queue_delay). The
  /// one dispatch-time rule of every virtual-time drainer.
  double ReadyTime(double now) const {
    if (entries_.empty()) return kNeverTriggers;
    if (size() >= max_batch_) return now;
    return entries_.front().enqueue_s + max_queue_delay_s_;
  }

  /// Pops the FIFO prefix of at most `max_batch` entries.
  std::vector<Entry> TakeBatch() {
    std::vector<Entry> batch;
    const int n = std::min(size(), max_batch_);
    batch.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      batch.push_back(std::move(entries_.front()));
      entries_.pop_front();
    }
    return batch;
  }

 private:
  int capacity_;
  int max_batch_;
  double max_queue_delay_s_;
  std::deque<Entry> entries_;
};

}  // namespace hdnn

#endif  // HDNN_COMMON_DEADLINE_QUEUE_H_
