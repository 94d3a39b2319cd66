// fleet_chaos: the fleet layers with no simulator work in the reps. Set-up
// plans a 64-board portfolio over VU9P and PYNQ-Z1 for a TinyCnn
// interactive class and a TinyResidualBlock bulk class, with device seconds
// from timing-only simulation of every deployed board. Each rep runs
// SimulateFleet twice on one trace: fault-free on the legacy path,
// then with hedging and a composed seeded FaultPlan (crash, stall,
// slowdown, corruption). Both passes are checked for per-class
// conservation and for the first rep's decision vector, bit for bit; the
// chaos pass must serve no corrupted result.
//
// The arrival trace (kTraceSeed) and the router's decision streams
// (kRouterSeed) are fixed, so every run simulates the same requests on the
// same boards and the modeled metrics repeat exactly; the run seed drives
// the fault plan's draws. A seeded trace moved the served GOP per virtual
// second by about 3% from one seed to the next, a seeded router by about 2%.
//
// The fleet has 64 boards, not 128: the 128-board per-event rate was the
// least steady rate measured on a shared host.
#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "common/fault.h"
#include "fleet/fleet.h"
#include "fleet/portfolio.h"
#include "nn/builders.h"
#include "workloads.h"

namespace perfbench {

using namespace hdnn;

namespace {

constexpr int kBoards = 64;
constexpr double kTraceSeconds = 0.003;  ///< virtual seconds per pass
constexpr std::uint64_t kTraceSeed = 2026;
constexpr std::uint64_t kRouterSeed = 7;

struct State {
  Model tiny = BuildTinyCnn();
  Model resid = BuildTinyResidualBlock();
  std::vector<const Model*> models{&tiny, &resid};
  std::vector<LatencyClass> classes;
  std::vector<BoardCandidate> candidates;
  PortfolioPlan plan;
  std::vector<std::vector<double>> device_s;  ///< [candidate][model]
  double capacity_err_pct = 0;
  std::vector<FleetTraceArrival> trace;
  FleetOptions legacy_opts;
  FleetOptions chaos_opts;
  std::unique_ptr<FaultPlan> faults;
  FleetSimResult legacy;  ///< warm-up rep: the reference every rep matches
  FleetSimResult chaos;
};

std::unique_ptr<State> SetUp(std::uint64_t seed, Tracer& tracer) {
  ScopedSpan setup(tracer, "bench.setup", -1);
  auto st = std::make_unique<State>();
  st->classes = {
      {"interactive", 0, 2.4e6, 0.0005},
      {"bulk", 1, 4.8e6, 0.025},
  };
  PortfolioOptions popts;
  popts.power_budget_watts = 1100;
  popts.max_boards = kBoards;
  {
    ScopedSpan span(tracer, "fleet.plan", -1);
    st->candidates = BuildBoardCandidates({&Vu9pSpec(), &PynqZ1Spec()},
                                          st->models, SingleThreadDse());
    st->plan = PlanPortfolio(st->candidates, st->classes, popts);
  }

  // Device seconds: a timing-only simulation of each deployed board and
  // model; boards never deployed keep the estimator's figure.
  for (const BoardCandidate& cand : st->candidates) {
    st->device_s.push_back(cand.item_seconds);
  }
  std::vector<int> deployed = st->plan.boards;
  deployed.erase(std::unique(deployed.begin(), deployed.end()),
                 deployed.end());
  for (const int b : deployed) {
    const BoardCandidate& cand = st->candidates[static_cast<std::size_t>(b)];
    for (std::size_t m = 0; m < st->models.size(); ++m) {
      CompiledModel cm;
      {
        ScopedSpan span(tracer, "compiler.compile", -1);
        cm = Compiler(cand.config, cand.spec)
                 .Compile(*st->models[m], cand.mappings[m]);
      }
      ScopedSpan span(tracer, "runtime.first_execute", -1);
      Runtime runtime(cand.config, cand.spec);
      const RunReport report = runtime.Execute(*st->models[m], cm, {}, {},
                                               /*functional=*/false);
      st->device_s[static_cast<std::size_t>(b)][m] =
          report.stats.Seconds(cand.spec.freq_mhz);
    }
  }
  double err_sum = 0;
  for (const int b : st->plan.boards) {
    const auto bi = static_cast<std::size_t>(b);
    for (std::size_t m = 0; m < st->models.size(); ++m) {
      const double sim = st->device_s[bi][m];
      err_sum += 100 * std::abs(st->candidates[bi].item_seconds[m] - sim) / sim;
    }
  }
  st->capacity_err_pct =
      err_sum / static_cast<double>(st->plan.boards.size() * st->models.size());

  st->trace = MakePoissonTrace(st->classes, kTraceSeconds, kTraceSeed);
  FleetOptions& lo = st->legacy_opts;
  lo.max_batch = 8;
  lo.max_queue_delay_seconds = 0.00002;
  lo.max_queue_depth = 64;
  lo.router.seed = kRouterSeed;
  lo.router.choices = 2;
  lo.class_weights = {2.0, 1.0};
  FleetOptions& co = st->chaos_opts;
  co = lo;
  co.hedge_slack_fraction = 0.25;
  co.health.heartbeat_timeout_seconds = 0.0002;
  co.health.down_after_seconds = 0.0003;
  co.health.max_consecutive_misses = 0;
  co.max_retries = 2;
  co.retry_backoff_seconds = 0.00002;
  co.tail_window_start_seconds = kTraceSeconds / 2;

  // Faults land on fixed positions of the (seed-independent) plan; the
  // seed draws the corruption words.
  const int shards = static_cast<int>(st->plan.boards.size());
  st->faults = std::make_unique<FaultPlan>(seed);
  st->faults->AddCrash(0, 0.25 * kTraceSeconds);
  st->faults->AddStall(shards / 4, 0.30 * kTraceSeconds, 0.05 * kTraceSeconds);
  st->faults->AddSlowdown(shards / 2, 0.40 * kTraceSeconds,
                          0.20 * kTraceSeconds, 3.0);
  st->faults->AddCorruption(3 * shards / 4, 0.50 * kTraceSeconds, 20);

  st->legacy = SimulateFleet(st->candidates, st->plan.boards, st->classes,
                             st->device_s, st->trace, st->legacy_opts);
  st->chaos = SimulateFleet(st->candidates, st->plan.boards, st->classes,
                            st->device_s, st->trace, st->chaos_opts,
                            st->faults.get());
  return st;
}

/// Simulated requests of one pass that broke an invariant: per-class
/// conservation, a decision that differs from the reference pass, or a
/// corrupted result served with CRC on.
std::int64_t Violations(const FleetSimResult& r, const FleetSimResult& ref) {
  std::int64_t bad = 0;
  for (const FleetClassStats& c : r.classes) {
    bad += std::abs(c.submitted - (c.ok + c.rejected + c.expired +
                                   c.unroutable + c.failed));
  }
  if (r.decisions.size() != ref.decisions.size()) {
    return bad + static_cast<std::int64_t>(ref.decisions.size());
  }
  for (std::size_t k = 0; k < r.decisions.size(); ++k) {
    if (r.decisions[k] != ref.decisions[k]) ++bad;
  }
  return bad + r.chaos.corrupted_served;
}

std::int64_t Clean(const FleetSimResult& r) {
  std::int64_t ok = 0;
  for (const FleetClassStats& c : r.classes) ok += c.ok;
  return ok - r.chaos.corrupted_served;
}

double Events(const FleetSimResult& r, std::size_t arrivals) {
  double batches = 0;
  for (const FleetShardStats& s : r.shards) {
    batches += static_cast<double>(s.batches);
  }
  return static_cast<double>(arrivals) + batches +
         static_cast<double>(r.chaos.hedges + r.chaos.retries);
}

}  // namespace

Result RunFleetChaos(const RunConfig& cfg, Tracer& tracer) {
  double setup_s = 0;
  const std::unique_ptr<State> st = SetUpRepeatedly<State>(
      [&] { return SetUp(cfg.seed, tracer); }, &setup_s);
  if (static_cast<int>(st->plan.boards.size()) != kBoards) {
    std::cerr << "fleet_chaos: plan has " << st->plan.boards.size()
              << " boards, expected " << kBoards << "\n";
  }

  Result result;
  const std::size_t arrivals = st->trace.size();
  if (Violations(st->legacy, st->legacy) + Violations(st->chaos, st->chaos) !=
      0) {
    std::cerr << "fleet_chaos: warm-up rep broke an invariant\n";
    result.correct = false;
  }
  FleetSimResult legacy, chaos;
  bool threw = false;
  std::int64_t clean = 0;
  const RepTimes reps = MeasureReps(
      cfg, tracer, /*min_reps=*/5,
      [&](std::int64_t i) {
        try {
          {
            ScopedSpan span(tracer, "fleet.legacy", i);
            legacy = SimulateFleet(st->candidates, st->plan.boards,
                                   st->classes, st->device_s, st->trace,
                                   st->legacy_opts);
          }
          ScopedSpan span(tracer, "fleet.chaos", i);
          chaos = SimulateFleet(st->candidates, st->plan.boards, st->classes,
                                st->device_s, st->trace, st->chaos_opts,
                                st->faults.get());
          threw = false;
        } catch (const std::exception& e) {
          std::cerr << "fleet_chaos rep " << i << ": " << e.what() << "\n";
          threw = true;
        }
      },
      [&](std::int64_t) {
        result.attempted += 2 * static_cast<std::int64_t>(arrivals);
        if (threw) {
          result.failed += 2 * static_cast<std::int64_t>(arrivals);
          return;
        }
        const auto n = static_cast<std::int64_t>(arrivals);
        result.failed += std::min(n, Violations(legacy, st->legacy)) +
                         std::min(n, Violations(chaos, st->chaos));
        clean += Clean(legacy) + Clean(chaos);
      });
  result.correct = result.correct && result.failed == 0;

  if (!cfg.trace) {
    double served_ops = 0;
    for (std::size_t c = 0; c < st->classes.size(); ++c) {
      const Model& model = *st->models[static_cast<std::size_t>(
          st->classes[c].model_index)];
      served_ops += static_cast<double>(st->legacy.classes[c].ok) *
                    static_cast<double>(model.TotalOps());
    }
    result.Add("setup_s", setup_s, "s");
    result.Add("work_per_s",
               WorkPerSecond(2.0 * static_cast<double>(arrivals), reps),
               "1/s");
    result.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    result.Add("sim_gops", served_ops / st->legacy.horizon_seconds / 1e9,
               "GOPS");
    result.Add("est_err_pct", st->capacity_err_pct, "%");
    result.Add("goodput_frac",
               Ratio(static_cast<double>(clean),
                     static_cast<double>(result.attempted)),
               "ratio");
    return result;
  }

  LayerValues layers;
  const FleetChaosStats& cs = st->chaos.chaos;
  const double legacy_events = Events(st->legacy, arrivals);
  const double chaos_events = Events(st->chaos, arrivals);
  layers["runtime.first_execute_ns"] = tracer.SelfNs("runtime.first_execute");
  layers["compiler.compile_ns"] = tracer.SelfNs("compiler.compile");
  layers["fleet.plan_ns"] = tracer.SelfNs("fleet.plan");
  layers["fleet.legacy_ns_per_event"] =
      tracer.SelfNs("fleet.legacy") / legacy_events;
  layers["fleet.chaos_ns_per_event"] =
      tracer.SelfNs("fleet.chaos") / chaos_events;
  layers["fleet.events"] = legacy_events + chaos_events;
  layers["fleet.hedges"] = static_cast<double>(cs.hedges);
  layers["fleet.hedge_useful_frac"] =
      Ratio(static_cast<double>(cs.hedges - cs.hedge_wasted),
            static_cast<double>(cs.hedges));
  layers["fleet.retries"] = static_cast<double>(cs.retries);
  layers["fleet.replans"] = cs.replans;
  layers["fleet.shards_down"] = cs.shards_down;
  layers["fleet.health_transitions"] = cs.health_transitions;
  layers["fleet.interactive_p99_ms"] = st->chaos.classes[0].p99_ms;
  layers["fleet.bulk_p99_ms"] = st->chaos.classes[1].p99_ms;
  layers["fleet.capacity_err_pct"] = st->capacity_err_pct;
  SetBenchMetrics(reps, layers);
  AddPerLayer(layers, result);
  return result;
}

}  // namespace perfbench
