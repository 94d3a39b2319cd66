// A fleet of simulated accelerator boards serving open-loop traffic
// (ROADMAP item 5, tentpole of the fleet PR).
//
// SimulateFleet is a single-threaded virtual-time event simulation of the
// whole fleet: per-shard per-class DeadlineQueues (the same policy object as
// InferenceServer::ServeTrace), NI worker instances per shard paced on
// caller-supplied device seconds, the weighted drain scan (PickReadyQueue)
// for intra-shard cross-class fairness, and the deterministic Router for
// dispatch. No wall clock enters, so the decision vector and every statistic
// are bit-identical across reruns — the fleet bench pins this, and validates
// the planner's modeled capacity against the simulated measurement.
//
// Tie rule (mirrors InferenceServer::ServeTrace): when a dispatch and an
// arrival fall on the same virtual instant, the dispatch happens first and
// the arrival joins the next batch. A batch goes to the shard's earliest-
// free worker, lowest index on ties, as a ServeTrace batch goes to its
// earliest-free drainer. Dispatch ties across shards break toward the
// lowest shard index; within the shard, the weighted drain scan picks the
// class.
#ifndef HDNN_FLEET_FLEET_H_
#define HDNN_FLEET_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/fault.h"
#include "fleet/health.h"
#include "fleet/portfolio.h"
#include "fleet/router.h"

namespace hdnn {

struct FleetOptions {
  /// Per-class queue policy on every shard (same meaning as ServerOptions).
  int max_batch = 8;
  double max_queue_delay_seconds = 0.0005;
  int max_queue_depth = 64;
  RouterOptions router;
  /// Drain-scan weight per latency class within a shard (PickReadyQueue);
  /// empty = uniform (legacy round-robin).
  std::vector<double> class_weights;

  // --- Self-healing knobs (DESIGN.md Sec. 12).
  /// Detection thresholds for the per-shard HealthTracker. Used when
  /// SimulateFleet is handed a FaultPlan (even an empty one) or hedging is
  /// on; with neither, the tripwires stay disarmed so a fault-free run is
  /// never rerouted by detection.
  HealthOptions health;
  /// Hedge a request to the router's backup shard when its predicted
  /// completion (backlog + one item) eats more than
  /// (1 - hedge_slack_fraction) of the remaining deadline. 0 = off.
  double hedge_slack_fraction = 0.0;
  /// Client-visible failures (results lost to a crash, CRC-rejected
  /// corruption) are re-routed up to this many times, `retry_backoff_seconds`
  /// apart, while the request's original deadline still allows it.
  int max_retries = 2;
  double retry_backoff_seconds = 0.0005;
  /// Verify the CRC32 integrity tag at collection: injected corruption is
  /// detected (and retried) instead of served. Off = corruption is served
  /// silently and only the corrupted_served counter knows.
  bool crc_enabled = true;
  /// Start of the goodput tail window (recovery measurement): ok_tail
  /// counts clean completions at/after this instant. 0 = whole run.
  double tail_window_start_seconds = 0;
};

/// One open-loop arrival: a request of `class_index` at virtual time
/// `at_seconds` (deadline comes from the class).
struct FleetTraceArrival {
  double at_seconds = 0;
  int class_index = 0;
};

/// Drain-scan pick: which ready class queue does a shard serve next?
///
/// With uniform weights this is the legacy rotation — the first ready queue
/// at or after `scan_start`. With non-uniform weights it is smooth weighted
/// round-robin over the READY set: every ready queue earns `weight` credits,
/// the highest-credit queue wins (ties break in rotation order from
/// `scan_start`) and pays back the credits issued this round, so
/// continuously-backlogged queues are served in proportion to their weights
/// while an idle queue never accumulates an unbounded burst claim.
/// `credits` is the policy's persistent state (one slot per queue); the
/// function is deterministic in (ready, weights, credits, scan_start).
/// Returns -1 when nothing is ready.
int PickReadyQueue(const std::vector<bool>& ready,
                   const std::vector<double>& weights,
                   std::vector<double>& credits, std::size_t scan_start);

/// Seeded open-loop Poisson trace for every class over [0, duration), merged
/// in time order (ties by class index). Class c draws from
/// Prng(seed).Fork(c), so one class's arrivals are independent of how many
/// other classes exist. Deterministic.
std::vector<FleetTraceArrival> MakePoissonTrace(
    const std::vector<LatencyClass>& classes, double duration_seconds,
    std::uint64_t seed);

struct FleetClassStats {
  std::int64_t submitted = 0;
  std::int64_t ok = 0;
  std::int64_t rejected = 0;    ///< shed at admission (incl. evictions)
  std::int64_t expired = 0;     ///< deadline passed while queued
  std::int64_t unroutable = 0;  ///< no feasible shard; shed at the router
  /// Terminal failures under fault injection: every copy was lost to a
  /// crash or rejected by the CRC check and the retry budget or deadline
  /// ran out. Always 0 with no FaultPlan and hedging off (health is then
  /// disarmed, so no shard is ever declared down). Conservation:
  /// submitted == ok + rejected + expired + unroutable + failed.
  std::int64_t failed = 0;
  /// Clean (non-corrupted) completions inside the tail window
  /// [tail_window_start_seconds, horizon) — the recovery numerator.
  std::int64_t ok_tail = 0;
  double achieved_qps = 0;      ///< ok / horizon
  double p50_ms = 0;            ///< over ok requests, arrival -> completion
  double p99_ms = 0;
};

/// Fleet-wide chaos counters (all zero with no FaultPlan and hedging off).
struct FleetChaosStats {
  std::int64_t hedges = 0;        ///< hedge copies admitted
  std::int64_t hedge_wasted = 0;  ///< duplicate executions of settled requests
  std::int64_t retries = 0;       ///< re-routes after loss/corruption
  std::int64_t corrupted_detected = 0;  ///< CRC caught at collection
  std::int64_t corrupted_served = 0;    ///< served corrupted (CRC off)
  std::int64_t degraded_shed = 0;  ///< shed by the post-loss admission gate
  int replans = 0;                 ///< ReplanAfterLoss invocations
  int shards_down = 0;             ///< shards the tracker declared kDown
  int health_transitions = 0;      ///< HealthTracker::transitions() at end
  double first_down_seconds = -1;  ///< first kDown instant (-1 = never)
};

struct FleetShardStats {
  int candidate_index = -1;
  std::int64_t items = 0;   ///< executed requests
  std::int64_t batches = 0;
  double busy_seconds = 0;  ///< summed device-busy time over NI instances
  double utilization = 0;   ///< busy / (ni * horizon)
  double measured_qps = 0;  ///< items / horizon
  double energy_joules = 0; ///< PowerModel::EnergyJoules over the horizon
};

struct FleetSimResult {
  /// Routing decision per arrival, in trace order (-1 = unroutable). The
  /// determinism pin: identical across reruns for identical inputs.
  std::vector<int> decisions;
  std::vector<FleetClassStats> classes;
  std::vector<FleetShardStats> shards;
  double horizon_seconds = 0;  ///< last arrival/completion; rate denominator
  double total_ok_qps = 0;
  double energy_joules = 0;    ///< fleet total over the horizon
  /// Served requests per joule of fleet energy (the bench's efficiency
  /// headline; equivalently sustained QPS per watt of fleet draw).
  double qps_per_joule = 0;

  FleetChaosStats chaos;
  /// Clean serves per second: (ok - corrupted_served) / horizon.
  double goodput_qps = 0;
  /// Clean serves per second inside the tail window (0 when the window is
  /// empty); the chaos bench's recovery metric.
  double tail_goodput_qps = 0;
  double tail_seconds = 0;  ///< tail window length actually measured
};

/// Runs `arrivals` (non-decreasing at_seconds) through the virtual-time
/// fleet: shard s is a board of candidates[shard_candidates[s]], and
/// device_seconds[candidate][model] paces its instances (use measured
/// cycle-sim latencies for validation, or BoardCandidate::item_seconds for
/// pure modeling). Pure function of its arguments.
///
/// `faults` (optional) injects the plan's seeded board faults into the
/// virtual timeline. The self-healing machinery is always in the loop:
/// HealthTracker detection (heartbeat silence, consecutive deadline misses),
/// router masking of unhealthy shards, deadline hedging, capped retry with
/// backoff, CRC rejection of corrupted results, and degradation-aware
/// re-planning on permanent board loss (ReplanAfterLoss over the survivors
/// at the planner's default capacity derate; each class then admits only
/// its servable fraction, so the bulk tail degrades first). Passing nullptr with hedging
/// off disarms the health tripwires, so nothing in that machinery fires;
/// an EMPTY plan keeps `options.health` armed, and on a healthy fleet
/// still matches the nullptr run bit for bit (the chaos bench checks
/// this). A pure function: same arguments -> bit-identical result, faults
/// included.
FleetSimResult SimulateFleet(
    const std::vector<BoardCandidate>& candidates,
    const std::vector<int>& shard_candidates,
    const std::vector<LatencyClass>& classes,
    const std::vector<std::vector<double>>& device_seconds,
    const std::vector<FleetTraceArrival>& arrivals,
    const FleetOptions& options, const FaultPlan* faults = nullptr);

}  // namespace hdnn

#endif  // HDNN_FLEET_FLEET_H_
