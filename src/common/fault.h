// Deterministic fault injection for chaos testing (DESIGN.md Sec. 12).
//
// A FaultPlan is an explicit, seeded list of fault events against fleet
// shards: board crashes, dispatch stalls, transient clock slowdowns
// (device-pacing derates) and DRAM word corruption. Every randomized field
// of the injected schedule (which word a corruption flips, with which mask)
// is drawn from Prng(seed).Fork(event_index) — a pure function of
// (seed, event list). The materialized schedule is therefore byte-identical
// across reruns, machines, threads and router decision volumes,
// which is what lets a chaos run replay bit-identically and lets the chaos
// bench self-check its own determinism.
//
// This header also owns the CRC32 integrity tag used to detect corruption
// of fmap SAVE slabs at collection time (runtime/runtime.h).
#ifndef HDNN_COMMON_FAULT_H_
#define HDNN_COMMON_FAULT_H_

#include <cstdint>
#include <span>
#include <vector>

namespace hdnn {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a run of
/// 16-bit DRAM words, each contributed little-endian byte first. `crc`
/// chains partial computations: Crc32(b, Crc32(a)) == Crc32(a ++ b).
std::uint32_t Crc32(std::span<const std::int16_t> words,
                    std::uint32_t crc = 0);

enum class FaultKind {
  kCrash,       ///< board dies at T: in-flight work lost, never recovers
  kStall,       ///< board dispatches nothing during [T, T + duration)
  kSlowdown,    ///< clock derate: device pacing x derate in [T, T + duration)
  kCorruption,  ///< the next `items` results on the shard are corrupted
};

/// One fault as authored by the caller (randomized fields unresolved).
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  int shard = 0;
  double at_seconds = 0;
  double duration_seconds = 0;  ///< stall / slowdown window
  double derate = 1.0;          ///< slowdown: device seconds multiplier (>= 1)
  int items = 0;                ///< corruption: results corrupted from T on
};

/// One materialized schedule entry: the authored event plus its resolved
/// per-event random draw (used for corruption word offsets / xor masks; the
/// draw is carried for every kind so the schedule bytes pin Fork stability
/// even for kinds that ignore it).
struct InjectedFault {
  FaultEvent event;
  std::uint64_t draw = 0;
};

class FaultPlan {
 public:
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  void AddCrash(int shard, double at_seconds);
  void AddStall(int shard, double at_seconds, double duration_seconds);
  void AddSlowdown(int shard, double at_seconds, double duration_seconds,
                   double derate);
  /// From `at_seconds`, the next `items` results completed by the shard are
  /// corrupted (a DRAM word flip in the output slab's at-rest window).
  void AddCorruption(int shard, double at_seconds, int items);

  std::uint64_t seed() const { return seed_; }
  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// The injected-event schedule: time-ordered (stable on ties, preserving
  /// insertion order), with every random field resolved from
  /// Prng(seed).Fork(insertion_index). Pure function of (seed, events).
  std::vector<InjectedFault> Materialize() const;

  /// Canonical little-endian byte serialization of Materialize() — the
  /// replay pin: two plans are guaranteed to inject identically iff their
  /// schedule bytes are equal.
  std::vector<std::uint8_t> SerializeSchedule() const;

  /// FNV-1a digest of SerializeSchedule() (cheap equality witness).
  std::uint64_t ScheduleDigest() const;

 private:
  std::uint64_t seed_;
  std::vector<FaultEvent> events_;
};

}  // namespace hdnn

#endif  // HDNN_COMMON_FAULT_H_
