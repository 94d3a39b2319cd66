#include "fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "common/check.h"
#include "common/deadline_queue.h"
#include "common/prng.h"
#include "platform/power_model.h"

namespace hdnn {
namespace {

/// Nearest-rank percentile of an ascending-sorted sample (q in [0,1]).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank > 0) --rank;
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

std::vector<double> ClassWeights(const FleetOptions& options,
                                 std::size_t num_classes) {
  if (options.class_weights.empty())
    return std::vector<double>(num_classes, 1.0);
  HDNN_CHECK(options.class_weights.size() == num_classes)
      << "class_weights must match the class count: "
      << options.class_weights.size() << " vs " << num_classes;
  for (double w : options.class_weights)
    HDNN_CHECK(w > 0) << "class weight must be positive, got " << w;
  return options.class_weights;
}

}  // namespace

int PickReadyQueue(const std::vector<bool>& ready,
                   const std::vector<double>& weights,
                   std::vector<double>& credits, std::size_t scan_start) {
  const std::size_t n = ready.size();
  HDNN_CHECK(weights.size() == n && credits.size() == n)
      << "policy state size mismatch: " << n << " queues, " << weights.size()
      << " weights, " << credits.size() << " credits";
  if (n == 0) return -1;
  bool any_ready = false;
  bool uniform = true;
  for (std::size_t i = 0; i < n; ++i) {
    any_ready = any_ready || ready[i];
    uniform = uniform && weights[i] == weights[0];
  }
  if (!any_ready) return -1;
  if (uniform) {
    // Legacy rotation: first ready queue at or after scan_start.
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t idx = (scan_start + k) % n;
      if (ready[idx]) return static_cast<int>(idx);
    }
  }
  // Smooth weighted round-robin over the ready set. Strict > keeps the
  // earliest rotation position on credit ties.
  double issued = 0;
  std::size_t best = n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (scan_start + k) % n;
    if (!ready[idx]) continue;
    credits[idx] += weights[idx];
    issued += weights[idx];
    if (best == n || credits[idx] > credits[best]) best = idx;
  }
  credits[best] -= issued;
  return static_cast<int>(best);
}

/// The fleet's one virtual-time event loop (DESIGN.md Sec. 11-12). Events,
/// in tie order at one instant:
///   * per-item completions (a min-heap; results commit at finish time, so
///     a crash can lose in-flight work),
///   * injected faults from the plan's materialized schedule,
///   * HealthTracker deadlines (detection fires without traffic),
///   * batch dispatches (lowest shard first),
///   * arrivals,
///   * client retries with backoff after a lost or CRC-rejected result.
FleetSimResult SimulateFleet(
    const std::vector<BoardCandidate>& candidates,
    const std::vector<int>& shard_candidates,
    const std::vector<LatencyClass>& classes,
    const std::vector<std::vector<double>>& device_seconds,
    const std::vector<FleetTraceArrival>& arrivals,
    const FleetOptions& options, const FaultPlan* faults) {
  HDNN_CHECK(!shard_candidates.empty()) << "fleet has no shards";
  HDNN_CHECK(!classes.empty()) << "fleet has no latency classes";
  HDNN_CHECK(device_seconds.size() == candidates.size())
      << "device_seconds must have one row per candidate";
  HDNN_CHECK(options.hedge_slack_fraction >= 0 &&
             options.hedge_slack_fraction <= 1.0)
      << "hedge_slack_fraction must be in [0,1], got "
      << options.hedge_slack_fraction;
  HDNN_CHECK(options.max_retries >= 0)
      << "max_retries must be non-negative, got " << options.max_retries;
  HDNN_CHECK(options.retry_backoff_seconds >= 0)
      << "retry backoff must be non-negative, got "
      << options.retry_backoff_seconds;
  const std::size_t num_shards = shard_candidates.size();
  const std::size_t num_classes = classes.size();
  const std::vector<double> weights = ClassWeights(options, num_classes);

  const std::vector<InjectedFault> schedule =
      faults != nullptr ? faults->Materialize() : std::vector<InjectedFault>{};
  for (const InjectedFault& f : schedule) {
    HDNN_CHECK(f.event.shard < static_cast<int>(num_shards))
        << "fault targets shard " << f.event.shard << " but the fleet has "
        << num_shards;
  }

  struct DerateWindow {
    double from = 0;
    double until = 0;
    double derate = 1.0;
  };
  struct Inflight {
    int req = 0;
    double finish = 0;
    double item_s = 0;
  };
  struct ShardSim {
    int cand = 0;
    std::vector<double> item_s;              // device seconds per class
    std::vector<double> worker_free;         // per NI instance
    std::vector<DeadlineQueue<int>> queues;  // per class
    std::vector<double> credits;
    std::size_t scan_start = 0;
    std::int64_t items = 0;
    std::int64_t batches = 0;
    double busy_seconds = 0;
    // Chaos state.
    bool alive = true;
    int epoch = 0;  ///< bumped on crash; stale completion events are void
    double stalled_until = 0;
    std::vector<DerateWindow> derates;
    std::int64_t corrupt_pending = 0;
    std::vector<Inflight> inflight;
    std::vector<int> lost;  ///< in-flight requests a crash swallowed
  };
  std::vector<ShardSim> shards(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    const int cand = shard_candidates[s];
    HDNN_CHECK(cand >= 0 && cand < static_cast<int>(candidates.size()))
        << "shard candidate index " << cand << " out of range";
    HDNN_CHECK(device_seconds[static_cast<std::size_t>(cand)].size() ==
               candidates[static_cast<std::size_t>(cand)].item_seconds.size())
        << "device_seconds row " << cand << " must have one entry per model";
    ShardSim& sim = shards[s];
    sim.cand = cand;
    const int ni = candidates[static_cast<std::size_t>(cand)].config.ni;
    sim.worker_free.assign(static_cast<std::size_t>(ni), 0.0);
    sim.credits.assign(num_classes, 0.0);
    sim.queues.reserve(num_classes);
    for (std::size_t c = 0; c < num_classes; ++c) {
      sim.item_s.push_back(device_seconds[static_cast<std::size_t>(cand)]
                               [static_cast<std::size_t>(
                                   classes[c].model_index)]);
      sim.queues.emplace_back(options.max_queue_depth, options.max_batch,
                              options.max_queue_delay_seconds);
    }
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const bool hedging = options.hedge_slack_fraction > 0;
  // Without a plan or hedging the tripwires stay disarmed: an overloaded
  // but fault-free fleet would otherwise trip them and reroute its traffic.
  HealthOptions health = options.health;
  if (faults == nullptr && !hedging) {
    health.heartbeat_timeout_seconds = kInf;
    health.down_after_seconds = kInf;
    health.max_consecutive_misses = 0;
  }
  Router router(static_cast<int>(num_shards), options.router);
  HealthTracker tracker(static_cast<int>(num_shards), health);
  FleetSimResult result;
  result.decisions.reserve(arrivals.size());
  result.classes.assign(num_classes, {});
  std::vector<std::vector<double>> latencies(num_classes);

  std::vector<double> arrival_time(arrivals.size());
  std::vector<int> arrival_class(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrival_time[i] = arrivals[i].at_seconds;
    arrival_class[i] = arrivals[i].class_index;
    HDNN_CHECK(arrival_class[i] >= 0 &&
               arrival_class[i] < static_cast<int>(num_classes))
        << "arrival class " << arrival_class[i] << " out of range";
    HDNN_CHECK(i == 0 || arrival_time[i] >= arrival_time[i - 1])
        << "trace arrivals must be time-ordered";
  }

  // Per-request terminal-state tracking: each submitted request gets
  // EXACTLY one of ok/rejected/expired/unroutable/failed, no matter how
  // many copies (hedges) or attempts (retries) it spawns.
  struct Req {
    double arrival_s = 0;
    double deadline_abs = kNoDeadline;
    int cls = 0;
    int attempts = 0;  ///< routing attempts (initial + retries)
    int copies = 0;    ///< live copies: queued or in flight
    bool done = false;
    bool counted = false;
    bool any_expired = false;
    bool any_faulted = false;  ///< a copy was lost or CRC-rejected
  };
  std::vector<Req> reqs(arrivals.size());

  struct CompEvent {
    double finish = 0;
    std::size_t shard = 0;
    int req = 0;
    int epoch = 0;
    std::int64_t seq = 0;
  };
  struct CompLater {
    bool operator()(const CompEvent& a, const CompEvent& b) const {
      if (a.finish != b.finish) return a.finish > b.finish;
      if (a.shard != b.shard) return a.shard > b.shard;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<CompEvent, std::vector<CompEvent>, CompLater> comps;

  struct RetryEvent {
    double at = 0;
    int req = 0;
    std::int64_t seq = 0;
  };
  struct RetryLater {
    bool operator()(const RetryEvent& a, const RetryEvent& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<RetryEvent, std::vector<RetryEvent>, RetryLater> retries;

  std::size_t next_arrival = 0;
  std::size_t fault_idx = 0;
  double now = 0;
  std::int64_t seq = 0;
  std::int64_t open = 0;  ///< submitted requests without a terminal state
  std::vector<char> known_down(num_shards, 0);
  std::vector<double> admit_fraction(num_classes, 1.0);
  std::vector<double> admit_credit(num_classes, 0.0);
  std::vector<DeadlineQueue<int>::Entry> scratch;
  const double tail_start = options.tail_window_start_seconds;

  auto min_free = [](const ShardSim& sim) {
    return *std::min_element(sim.worker_free.begin(), sim.worker_free.end());
  };
  // ready_at[s]: the earliest instant shard s can dispatch without further
  // admissions — the minimum over its non-empty queues of max(trigger,
  // earliest free worker, stall end); +inf when the shard is dead or idle.
  // Refreshed wherever the shard's queues, workers, stall or liveness
  // change. A size-ready queue's trigger is the refresh instant, which the
  // event scan's later `now` dominates, so max(ready_at[s], now) equals the
  // per-class scan exactly.
  std::vector<double> ready_at(num_shards, kInf);
  auto refresh_ready = [&](std::size_t s) {
    const ShardSim& sim = shards[s];
    double trigger = kInf;
    if (sim.alive) {
      for (const auto& q : sim.queues)
        trigger = std::min(trigger, q.ReadyTime(now));
    }
    ready_at[s] = std::max({trigger, min_free(sim), sim.stalled_until});
  };
  auto shard_is_busy = [](const ShardSim& sim) {
    if (!sim.inflight.empty()) return true;
    for (const auto& q : sim.queues)
      if (!q.empty()) return true;
    return false;
  };
  auto update_busy = [&](std::size_t s) {
    tracker.SetBusy(static_cast<int>(s), shard_is_busy(shards[s]), now);
  };

  // Terminal bookkeeping. finalize() runs when a request has no live
  // copies left: faulted requests re-route after a backoff while the retry
  // budget and the original deadline allow; everything else settles.
  auto finalize = [&](int i) {
    Req& r = reqs[static_cast<std::size_t>(i)];
    if (r.done || r.counted || r.copies > 0) return;
    if (r.any_faulted && r.attempts < 1 + options.max_retries) {
      const double t = now + options.retry_backoff_seconds;
      if (r.deadline_abs == kNoDeadline || t < r.deadline_abs) {
        retries.push({t, i, seq++});
        ++result.chaos.retries;
        return;
      }
    }
    r.counted = true;
    --open;
    FleetClassStats& cs = result.classes[static_cast<std::size_t>(r.cls)];
    if (r.any_faulted) {
      ++cs.failed;
    } else if (r.any_expired) {
      ++cs.expired;
    } else {
      ++cs.rejected;
    }
  };
  // kind: 'e' expired, 'r' rejected/evicted, 'f' lost or CRC-rejected.
  auto copy_gone = [&](int i, char kind) {
    Req& r = reqs[static_cast<std::size_t>(i)];
    --r.copies;
    if (kind == 'e') r.any_expired = true;
    if (kind == 'f') r.any_faulted = true;
    if (!r.done) finalize(i);
  };
  auto admit_to = [&](std::size_t s, std::size_t c, int i) {
    Req& r = reqs[static_cast<std::size_t>(i)];
    ShardSim& sim = shards[s];
    DeadlineQueue<int>::Entry entry;
    entry.value = i;
    entry.enqueue_s = now;
    entry.deadline_s = r.deadline_abs;
    scratch.clear();
    DeadlineQueue<int>::Entry evicted;
    const AdmitResult admit = sim.queues[c].Push(entry, now, &evicted, scratch);
    for (const auto& e : scratch) {
      copy_gone(e.value, 'e');
      tracker.OnDeadlineMiss(static_cast<int>(s), now, /*made_progress=*/false);
    }
    if (admit == AdmitResult::kEvicted) copy_gone(evicted.value, 'r');
    refresh_ready(s);
    if (admit == AdmitResult::kRejected) {
      update_busy(s);
      return false;
    }
    ++r.copies;
    update_busy(s);
    return true;
  };

  // Routing shared by initial arrivals and retries: the deadline-aware
  // least-loaded policy, with unhealthy shards masked and (optionally) a
  // hedge copy on the router's backup shard when the primary's predicted
  // completion eats too much of the deadline. The buffers below are reused
  // by every call.
  std::vector<double> load(num_shards);
  std::vector<bool> mask_static(num_shards);
  std::vector<bool> mask_dyn(num_shards);
  auto route_request = [&](int i, bool initial) {
    Req& r = reqs[static_cast<std::size_t>(i)];
    ++r.attempts;
    const auto c = static_cast<std::size_t>(r.cls);
    const LatencyClass& cls = classes[c];
    mask_static.assign(num_shards, false);
    mask_dyn.assign(num_shards, false);
    bool any_dyn = false;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const ShardSim& sim = shards[s];
      double backlog = 0;
      for (double wf : sim.worker_free) backlog += std::max(0.0, wf - now);
      for (std::size_t c2 = 0; c2 < num_classes; ++c2) {
        backlog += sim.queues[c2].size() * sim.item_s[c2];
      }
      load[s] = backlog / static_cast<double>(sim.worker_free.size());
      // Static feasibility: one item's device time fits the deadline.
      if (!(sim.item_s[c] <= cls.deadline_seconds)) continue;
      if (!tracker.routable(static_cast<int>(s))) continue;
      mask_static[s] = true;
      if (load[s] + sim.item_s[c] <= cls.deadline_seconds) {
        mask_dyn[s] = true;
        any_dyn = true;
      }
    }
    const RouteDecision rd =
        router.RoutePair(load, any_dyn ? mask_dyn : mask_static);
    if (initial) result.decisions.push_back(rd.primary);
    if (rd.primary < 0) {
      if (initial) {
        r.counted = true;
        --open;
        ++result.classes[c].unroutable;
      } else {
        // Retry found nothing routable (detection window, total loss):
        // finalize() backs off again while the budget allows, else fails.
        finalize(i);
      }
      return;
    }
    const auto p = static_cast<std::size_t>(rd.primary);
    admit_to(p, c, i);
    if (hedging && rd.hedge >= 0 && cls.deadline_seconds != kNoDeadline) {
      const double remaining =
          r.deadline_abs == kNoDeadline ? kNoDeadline : r.deadline_abs - now;
      const double predicted = load[p] + shards[p].item_s[c];
      if (predicted > (1.0 - options.hedge_slack_fraction) * remaining) {
        if (admit_to(static_cast<std::size_t>(rd.hedge), c, i)) {
          ++result.chaos.hedges;
        }
      }
    }
    if (r.copies == 0 && !r.done) finalize(i);
  };

  // Shard s stops: its dispatcher dies and in-flight work is voided (the
  // requests wait in `lost` until the fleet notices). Crashing a dead shard
  // again changes nothing.
  auto crash = [&](std::size_t s) {
    ShardSim& sim = shards[s];
    sim.alive = false;
    ++sim.epoch;
    for (auto& wf : sim.worker_free) wf = std::min(wf, now);
    for (const auto& fl : sim.inflight) {
      sim.busy_seconds -= std::max(0.0, std::min(fl.item_s, fl.finish - now));
      sim.lost.push_back(fl.req);
    }
    sim.inflight.clear();
    refresh_ready(s);
  };

  // Permanent loss of shard s: crash it, hand everything the shard still
  // holds back to the retry layer, and re-plan admission over the
  // survivors.
  auto on_shard_down = [&](std::size_t s) {
    known_down[s] = 1;
    ++result.chaos.shards_down;
    if (result.chaos.first_down_seconds < 0)
      result.chaos.first_down_seconds = now;
    crash(s);
    ShardSim& sim = shards[s];
    for (std::size_t c2 = 0; c2 < num_classes; ++c2) {
      while (!sim.queues[c2].empty()) {
        for (auto& e : sim.queues[c2].TakeBatch()) {
          copy_gone(e.value, e.deadline_s < now ? 'e' : 'f');
        }
      }
    }
    for (int req : sim.lost) copy_gone(req, 'f');
    sim.lost.clear();
    update_busy(s);
    std::vector<int> surviving;
    for (std::size_t s2 = 0; s2 < num_shards; ++s2) {
      if (!known_down[s2]) surviving.push_back(shard_candidates[s2]);
    }
    if (surviving.empty()) return;  // total loss; nothing left to plan over
    PortfolioOptions popts;  // the planner's default capacity derate
    popts.max_boards =
        std::max(64, static_cast<int>(surviving.size()));
    popts.power_budget_watts = 1;
    for (int b : surviving) {
      popts.power_budget_watts +=
          candidates[static_cast<std::size_t>(b)].power_watts;
    }
    const PortfolioPlan plan =
        ReplanAfterLoss(candidates, surviving, classes, popts);
    admit_fraction = DegradedAdmitFractions(plan, classes);
    ++result.chaos.replans;
  };

  for (;;) {
    // Lazily discard completion events voided by a crash (their loss was
    // accounted at crash time).
    while (!comps.empty() &&
           comps.top().epoch != shards[comps.top().shard].epoch) {
      comps.pop();
    }
    const double comp_t = comps.empty() ? kInf : comps.top().finish;
    const double fault_t = fault_idx < schedule.size()
                               ? schedule[fault_idx].event.at_seconds
                               : kInf;
    const double health_t = tracker.NextDeadline();
    double dispatch_t = kInf;
    std::size_t dispatch_s = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
      const double t = std::max(ready_at[s], now);
      if (t < dispatch_t) {
        dispatch_t = t;
        dispatch_s = s;
      }
    }
    const double arrival_t =
        next_arrival < arrivals.size() ? arrival_time[next_arrival] : kInf;
    const double retry_t = retries.empty() ? kInf : retries.top().at;

    const double best = std::min(
        {comp_t, fault_t, health_t, dispatch_t, arrival_t, retry_t});
    if (best == kInf) {
      HDNN_CHECK(open == 0)
          << "chaos simulation deadlocked with " << open
          << " unresolved requests and no pending event";
      break;
    }

    if (comp_t <= best) {
      // Commit one completed item. Results materialize here, not at
      // dispatch — that is what a crash can take away.
      const CompEvent ev = comps.top();
      comps.pop();
      now = ev.finish;
      ShardSim& sim = shards[ev.shard];
      for (std::size_t k = 0; k < sim.inflight.size(); ++k) {
        if (sim.inflight[k].req == ev.req &&
            sim.inflight[k].finish == ev.finish) {
          sim.inflight.erase(sim.inflight.begin() +
                             static_cast<std::ptrdiff_t>(k));
          break;
        }
      }
      ++sim.items;
      bool corrupted = false;
      if (sim.corrupt_pending > 0) {
        --sim.corrupt_pending;
        corrupted = true;
      }
      Req& r = reqs[static_cast<std::size_t>(ev.req)];
      if (r.done) {
        // The hedge twin (or an earlier retry) already won; this duplicate
        // execution was the price of the insurance.
        ++result.chaos.hedge_wasted;
        --r.copies;
        tracker.OnProgress(static_cast<int>(ev.shard), now);
      } else if (corrupted && options.crc_enabled) {
        ++result.chaos.corrupted_detected;
        tracker.OnProgress(static_cast<int>(ev.shard), now);
        copy_gone(ev.req, 'f');
      } else {
        r.done = true;
        --r.copies;
        --open;
        FleetClassStats& cs = result.classes[static_cast<std::size_t>(r.cls)];
        ++cs.ok;
        latencies[static_cast<std::size_t>(r.cls)].push_back(now -
                                                             r.arrival_s);
        if (corrupted) {
          ++result.chaos.corrupted_served;
        } else if (now >= tail_start) {
          ++cs.ok_tail;
        }
        if (r.deadline_abs != kNoDeadline && now > r.deadline_abs) {
          tracker.OnDeadlineMiss(static_cast<int>(ev.shard), now,
                                 /*made_progress=*/true);
        } else {
          tracker.OnProgress(static_cast<int>(ev.shard), now);
        }
      }
      update_busy(ev.shard);
      continue;
    }

    if (fault_t <= best) {
      const InjectedFault& f = schedule[fault_idx++];
      now = f.event.at_seconds;
      const auto s = static_cast<std::size_t>(f.event.shard);
      ShardSim& sim = shards[s];
      switch (f.event.kind) {
        case FaultKind::kCrash:
          // Queued entries stay in limbo: the fleet only learns of the
          // loss through the health tripwires, and re-routes then.
          if (sim.alive) crash(s);
          break;
        case FaultKind::kStall:
          sim.stalled_until =
              std::max(sim.stalled_until, now + f.event.duration_seconds);
          refresh_ready(s);
          break;
        case FaultKind::kSlowdown:
          sim.derates.push_back(
              {now, now + f.event.duration_seconds, f.event.derate});
          break;
        case FaultKind::kCorruption:
          sim.corrupt_pending += f.event.items;
          break;
      }
      continue;
    }

    if (health_t <= best) {
      now = health_t;
      const bool changed = tracker.Tick(now);
      HDNN_CHECK(changed) << "health deadline fired without a transition";
      for (std::size_t s = 0; s < num_shards; ++s) {
        if (!known_down[s] && !tracker.alive(static_cast<int>(s))) {
          on_shard_down(s);
        }
      }
      continue;
    }

    if (dispatch_t <= best) {
      now = dispatch_t;
      ShardSim& sim = shards[dispatch_s];
      std::vector<bool> ready(num_classes, false);
      for (std::size_t c = 0; c < num_classes; ++c)
        ready[c] = sim.queues[c].DispatchReady(now);
      const int picked =
          PickReadyQueue(ready, weights, sim.credits, sim.scan_start);
      if (picked < 0) continue;  // the trigger moved; recompute events
      DeadlineQueue<int>& q = sim.queues[static_cast<std::size_t>(picked)];
      scratch.clear();
      q.SweepExpired(now, scratch);
      for (const auto& e : scratch) {
        copy_gone(e.value, 'e');
        tracker.OnDeadlineMiss(static_cast<int>(dispatch_s), now,
                               /*made_progress=*/false);
      }
      if (!q.DispatchReady(now)) {  // sweep cancelled the trigger
        refresh_ready(dispatch_s);
        update_busy(dispatch_s);
        continue;
      }
      std::vector<DeadlineQueue<int>::Entry> batch = q.TakeBatch();
      sim.scan_start = (static_cast<std::size_t>(picked) + 1) % num_classes;
      const auto w = static_cast<std::size_t>(
          std::min_element(sim.worker_free.begin(), sim.worker_free.end()) -
          sim.worker_free.begin());
      double item_s = sim.item_s[static_cast<std::size_t>(picked)];
      for (const auto& win : sim.derates) {
        if (now >= win.from && now < win.until) item_s *= win.derate;
      }
      double finish = now;
      for (const auto& e : batch) {
        finish += item_s;
        comps.push({finish, dispatch_s, e.value, sim.epoch, seq++});
        sim.inflight.push_back({e.value, finish, item_s});
      }
      sim.worker_free[w] = finish;
      sim.busy_seconds += finish - now;
      ++sim.batches;
      refresh_ready(dispatch_s);
      update_busy(dispatch_s);
      continue;
    }

    if (arrival_t <= best) {
      now = arrival_t;
      const std::size_t idx = next_arrival++;
      const auto c = static_cast<std::size_t>(arrival_class[idx]);
      const LatencyClass& cls = classes[c];
      FleetClassStats& cs = result.classes[c];
      ++cs.submitted;
      Req& r = reqs[idx];
      r.arrival_s = now;
      r.cls = static_cast<int>(c);
      r.deadline_abs = cls.deadline_seconds == kNoDeadline
                           ? kNoDeadline
                           : now + cls.deadline_seconds;
      ++open;
      // Degradation-aware admission: after a re-plan, each class admits
      // only the fraction of its offered load the surviving fleet can
      // carry, via a deterministic credit counter. Fraction 1 (the
      // no-loss state) admits everything with exact arithmetic.
      admit_credit[c] += admit_fraction[c];
      if (admit_credit[c] >= 1.0) {
        admit_credit[c] -= 1.0;
      } else {
        result.decisions.push_back(-1);
        r.counted = true;
        --open;
        ++cs.rejected;
        ++result.chaos.degraded_shed;
        continue;
      }
      route_request(static_cast<int>(idx), /*initial=*/true);
      continue;
    }

    // Retry: the client re-submits after a backoff; the request routes
    // again with its ORIGINAL deadline.
    const RetryEvent rv = retries.top();
    retries.pop();
    now = rv.at;
    if (!reqs[static_cast<std::size_t>(rv.req)].done &&
        !reqs[static_cast<std::size_t>(rv.req)].counted) {
      route_request(rv.req, /*initial=*/false);
    }
  }

  // Horizon and rates.
  double horizon = arrivals.empty() ? 0 : arrival_time.back();
  for (const ShardSim& sim : shards)
    for (double wf : sim.worker_free) horizon = std::max(horizon, wf);
  horizon = std::max(horizon, now);
  result.horizon_seconds = horizon;
  std::int64_t total_ok = 0;
  std::int64_t total_ok_tail = 0;
  for (std::size_t c = 0; c < num_classes; ++c) {
    FleetClassStats& cs = result.classes[c];
    total_ok += cs.ok;
    total_ok_tail += cs.ok_tail;
    if (horizon > 0)
      cs.achieved_qps = static_cast<double>(cs.ok) / horizon;
    std::sort(latencies[c].begin(), latencies[c].end());
    cs.p50_ms = Percentile(latencies[c], 0.50) * 1e3;
    cs.p99_ms = Percentile(latencies[c], 0.99) * 1e3;
  }
  result.shards.assign(num_shards, {});
  for (std::size_t s = 0; s < num_shards; ++s) {
    const ShardSim& sim = shards[s];
    const BoardCandidate& cand =
        candidates[static_cast<std::size_t>(sim.cand)];
    FleetShardStats& ss = result.shards[s];
    ss.candidate_index = sim.cand;
    ss.items = sim.items;
    ss.batches = sim.batches;
    ss.busy_seconds = sim.busy_seconds;
    if (horizon > 0) {
      const double capacity =
          horizon * static_cast<double>(sim.worker_free.size());
      ss.utilization = std::min(1.0, sim.busy_seconds / capacity);
      ss.measured_qps = static_cast<double>(sim.items) / horizon;
      ss.energy_joules = DefaultPowerModel().EnergyJoules(
          cand.spec, cand.implementation.AsUsage(), horizon, ss.utilization);
    }
    result.energy_joules += ss.energy_joules;
  }
  if (horizon > 0)
    result.total_ok_qps = static_cast<double>(total_ok) / horizon;
  if (result.energy_joules > 0)
    result.qps_per_joule =
        static_cast<double>(total_ok) / result.energy_joules;
  result.chaos.health_transitions = tracker.transitions();
  if (horizon > 0) {
    result.goodput_qps =
        static_cast<double>(total_ok - result.chaos.corrupted_served) /
        horizon;
  }
  result.tail_seconds = std::max(0.0, horizon - tail_start);
  if (result.tail_seconds > 0) {
    result.tail_goodput_qps =
        static_cast<double>(total_ok_tail) / result.tail_seconds;
  }
  return result;
}

std::vector<FleetTraceArrival> MakePoissonTrace(
    const std::vector<LatencyClass>& classes, double duration_seconds,
    std::uint64_t seed) {
  HDNN_CHECK(duration_seconds > 0)
      << "trace duration must be positive, got " << duration_seconds;
  std::vector<FleetTraceArrival> trace;
  const Prng root(seed);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const double rate = classes[c].offered_qps;
    if (rate <= 0) continue;
    Prng stream = root.Fork(static_cast<std::uint64_t>(c));
    double t = 0;
    for (;;) {
      t += -std::log1p(-stream.NextDouble()) / rate;
      if (t >= duration_seconds) break;
      trace.push_back({t, static_cast<int>(c)});
    }
  }
  std::stable_sort(trace.begin(), trace.end(),
                   [](const FleetTraceArrival& a, const FleetTraceArrival& b) {
                     if (a.at_seconds != b.at_seconds)
                       return a.at_seconds < b.at_seconds;
                     return a.class_index < b.class_index;
                   });
  return trace;
}

}  // namespace hdnn
