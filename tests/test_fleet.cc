#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "compiler/compiler.h"
#include "estimator/latency_cache.h"
#include "fleet/portfolio.h"
#include "fleet/router.h"
#include "nn/builders.h"
#include "runtime/runtime.h"
#include "tests/testing_util.h"

namespace hdnn {
namespace {

using testing::TestConfig;
using testing::TestSpec;

// Hand-built candidate for planner/router/sim tests: the planner only reads
// spec, config.ni, power and the modeled capacity vectors, so no DSE run is
// needed to exercise its decisions.
BoardCandidate MakeCandidate(const std::string& name, int ni,
                             double power_watts,
                             std::vector<double> item_seconds) {
  BoardCandidate cand;
  cand.spec = TestSpec();
  cand.spec.name = name;
  cand.config = TestConfig();
  cand.config.ni = ni;
  cand.power_watts = power_watts;
  cand.item_seconds = std::move(item_seconds);
  for (double s : cand.item_seconds)
    cand.board_qps.push_back(static_cast<double>(ni) / s);
  cand.mappings.resize(cand.item_seconds.size());
  return cand;
}

LatencyClass MakeClass(const std::string& name, int model, double qps,
                       double deadline = kNoDeadline) {
  return LatencyClass{name, model, qps, deadline};
}

// --- router ---

TEST(RouterTest, FullScanPicksLeastLoadedTiesToLowestShard) {
  RouterOptions opts;
  opts.choices = 0;  // scan every feasible shard
  Router router(4, opts);
  const std::vector<bool> all(4, true);
  EXPECT_EQ(router.RoutePair({3.0, 1.0, 2.0, 1.5}, all).primary, 1);
  EXPECT_EQ(router.RoutePair({2.0, 1.0, 1.0, 1.0}, all).primary, 1)
      << "tie -> lowest";
  EXPECT_EQ(router.RoutePair({0.0, 0.0, 0.0, 0.0}, all).primary, 0);
  EXPECT_EQ(
      router.RoutePair({1.0, 1.0, 1.0, 1.0}, {false, false, true, true})
          .primary,
      2)
      << "infeasible shards never win";
  EXPECT_EQ(
      router.RoutePair({1.0, 1.0, 1.0, 1.0}, std::vector<bool>(4, false))
          .primary,
      -1);
  EXPECT_EQ(router.decisions(), 5);
}

TEST(RouterTest, PowerOfTwoChoicesStaysInsideFeasibleSet) {
  Router router(6, RouterOptions{/*seed=*/3, /*choices=*/2});
  const std::vector<double> load(6, 1.0);
  std::vector<bool> feasible(6, false);
  feasible[1] = feasible[3] = feasible[4] = true;
  for (int i = 0; i < 200; ++i) {
    const int s = router.RoutePair(load, feasible).primary;
    EXPECT_TRUE(s == 1 || s == 3 || s == 4) << "decision " << i;
  }
}

TEST(RouterTest, DecisionIsPureFunctionOfSeedAndIndex) {
  // Decision k draws from Prng(seed).Fork(k): the sampled pair depends only
  // on (seed, k, load, feasible), never on what earlier decisions consumed.
  const std::vector<double> load{5.0, 1.0, 4.0, 2.0, 3.0};
  const std::vector<bool> all(5, true);
  const std::vector<bool> none(5, false);

  Router a(5, RouterOptions{/*seed=*/7, /*choices=*/2});
  Router b(5, RouterOptions{/*seed=*/7, /*choices=*/2});
  std::vector<int> seq_a, seq_b;
  for (int i = 0; i < 64; ++i) {
    seq_a.push_back(a.RoutePair(load, all).primary);
  }
  for (int i = 0; i < 64; ++i) {
    seq_b.push_back(b.RoutePair(load, all).primary);
  }
  EXPECT_EQ(seq_a, seq_b);

  // An unroutable call consumes its decision slot, keeping later decisions
  // aligned with the replay.
  Router c(5, RouterOptions{/*seed=*/7, /*choices=*/2});
  EXPECT_EQ(c.RoutePair(load, none).primary, -1);
  EXPECT_EQ(c.decisions(), 1);
  for (int i = 1; i < 64; ++i)
    EXPECT_EQ(c.RoutePair(load, all).primary,
              seq_a[static_cast<std::size_t>(i)])
        << "decision " << i;

  // A different seed must not replay the same decision vector.
  Router d(5, RouterOptions{/*seed=*/8, /*choices=*/2});
  std::vector<int> seq_d;
  for (int i = 0; i < 64; ++i) {
    seq_d.push_back(d.RoutePair(load, all).primary);
  }
  EXPECT_NE(seq_a, seq_d);
}

// --- poisson trace ---

TEST(FleetTraceTest, PoissonTraceIsDeterministicAndTimeOrdered) {
  const std::vector<LatencyClass> classes{
      MakeClass("a", 0, 5000.0, 0.002), MakeClass("b", 0, 2000.0)};
  const auto t1 = MakePoissonTrace(classes, 0.05, 11);
  const auto t2 = MakePoissonTrace(classes, 0.05, 11);
  ASSERT_EQ(t1.size(), t2.size());
  ASSERT_FALSE(t1.empty());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].at_seconds, t2[i].at_seconds);
    EXPECT_EQ(t1[i].class_index, t2[i].class_index);
    if (i > 0) {
      EXPECT_GE(t1[i].at_seconds, t1[i - 1].at_seconds);
    }
  }
  const auto t3 = MakePoissonTrace(classes, 0.05, 12);
  ASSERT_FALSE(t3.empty());
  EXPECT_NE(t3[0].at_seconds, t1[0].at_seconds)
      << "different seed should give a different trace";
}

TEST(FleetTraceTest, ClassStreamsAreIndependentOfOtherClasses) {
  // Class c draws from Fork(c): adding another class must not perturb the
  // first class's arrival times.
  const LatencyClass a = MakeClass("a", 0, 4000.0);
  const LatencyClass b = MakeClass("b", 1, 9000.0);
  const auto solo = MakePoissonTrace({a}, 0.05, 5);
  const auto both = MakePoissonTrace({a, b}, 0.05, 5);
  std::vector<double> solo_times, both_class0_times;
  for (const auto& e : solo) solo_times.push_back(e.at_seconds);
  for (const auto& e : both)
    if (e.class_index == 0) both_class0_times.push_back(e.at_seconds);
  EXPECT_EQ(solo_times, both_class0_times);
}

// --- portfolio planning ---

TEST(PortfolioTest, ClassFeasibleComparesItemLatencyToDeadline) {
  const BoardCandidate cand = MakeCandidate("x", 2, 10.0, {0.010, 0.002});
  EXPECT_TRUE(ClassFeasible(cand, MakeClass("loose", 0, 1.0, 0.020)));
  EXPECT_TRUE(ClassFeasible(cand, MakeClass("exact", 0, 1.0, 0.010)));
  EXPECT_FALSE(ClassFeasible(cand, MakeClass("tight", 0, 1.0, 0.005)));
  EXPECT_TRUE(ClassFeasible(cand, MakeClass("none", 1, 1.0)));
}

TEST(PortfolioTest, EvaluatePortfolioFillsStrictestClassFirst) {
  // Board 0 is the only one fast enough for the tight class; the evaluator
  // must allocate its capacity to the tight class before the loose class
  // can claim it.
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("fast", 1, 10.0, {0.001}));  // 1000 qps
  cands.push_back(MakeCandidate("slow", 1, 5.0, {0.004}));   // 250 qps
  const std::vector<LatencyClass> classes{
      MakeClass("loose", 0, 2000.0, 1.0),
      MakeClass("tight", 0, 800.0, 0.002),
  };
  PortfolioOptions opts;
  opts.power_budget_watts = 100.0;
  opts.capacity_derate = 1.0;

  const PortfolioPlan plan =
      EvaluatePortfolio(cands, {1, 0}, classes, opts);
  ASSERT_EQ(plan.boards, (std::vector<int>{0, 1})) << "canonicalized";
  EXPECT_DOUBLE_EQ(plan.class_qps[1], 800.0) << "tight served fully";
  // Remaining fast capacity (200) plus all slow capacity (250) go loose.
  EXPECT_DOUBLE_EQ(plan.class_qps[0], 450.0);
  EXPECT_DOUBLE_EQ(plan.planned_qps, 1250.0);
  EXPECT_DOUBLE_EQ(plan.power_watts, 15.0);
  EXPECT_DOUBLE_EQ(plan.shard_class_qps[0][1], 800.0);
  EXPECT_DOUBLE_EQ(plan.shard_class_qps[0][0], 200.0);
  EXPECT_DOUBLE_EQ(plan.shard_class_qps[1][0], 250.0);
  EXPECT_DOUBLE_EQ(plan.shard_class_qps[1][1], 0.0);
}

TEST(PortfolioTest, CapacityDerateScalesPlannedCapacity) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 1, 10.0, {0.001}));  // 1000 qps raw
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 5000.0)};
  PortfolioOptions opts;
  opts.power_budget_watts = 10.0;
  opts.capacity_derate = 0.85;
  const PortfolioPlan plan = EvaluatePortfolio(cands, {0}, classes, opts);
  EXPECT_DOUBLE_EQ(plan.planned_qps, 850.0);
}

TEST(PortfolioTest, PlanPortfolioRespectsBudgetAndIsDeterministic) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("big", 4, 40.0, {0.001}));    // 100 qps/W
  cands.push_back(MakeCandidate("mid", 2, 10.0, {0.001}));    // 200 qps/W
  cands.push_back(MakeCandidate("small", 1, 3.0, {0.002}));   // 167 qps/W
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 1e9)};
  PortfolioOptions opts;
  opts.power_budget_watts = 27.0;
  opts.capacity_derate = 1.0;

  const PortfolioPlan p1 = PlanPortfolio(cands, classes, opts);
  const PortfolioPlan p2 = PlanPortfolio(cands, classes, opts);
  EXPECT_EQ(p1.boards, p2.boards);
  EXPECT_EQ(p1.planned_qps, p2.planned_qps);
  EXPECT_LE(p1.power_watts, opts.power_budget_watts + 1e-9);
  // Unbounded demand, mid dominates on qps/W: 2x mid (20 W) + small (3 W)
  // fills 23 of 27 W for 2000 + 500 qps; any third mid would bust the
  // budget. Another small fits the 4 W residue.
  EXPECT_EQ(p1.boards, (std::vector<int>{1, 1, 2, 2}));
  EXPECT_DOUBLE_EQ(p1.planned_qps, 5000.0);

  PortfolioOptions capped = opts;
  capped.max_boards = 2;
  EXPECT_LE(PlanPortfolio(cands, classes, capped).boards.size(), 2u);
}

TEST(PortfolioTest, LocalSwapNeverHurtsGreedy) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 2, 12.0, {0.001, 0.004}));
  cands.push_back(MakeCandidate("b", 1, 5.0, {0.002, 0.001}));
  cands.push_back(MakeCandidate("c", 1, 2.0, {0.010, 0.008}));
  const std::vector<LatencyClass> classes{
      MakeClass("x", 0, 3000.0, 0.005), MakeClass("y", 1, 2000.0, 0.006)};
  PortfolioOptions no_swap;
  no_swap.power_budget_watts = 25.0;
  no_swap.local_swap_passes = 0;
  PortfolioOptions swap = no_swap;
  swap.local_swap_passes = 2;
  EXPECT_GE(PlanPortfolio(cands, classes, swap).planned_qps,
            PlanPortfolio(cands, classes, no_swap).planned_qps);
}

TEST(PortfolioTest, HomogeneousReplicatesAndStrandsTheResidue) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 1, 10.0, {0.001}));
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 1e9)};
  PortfolioOptions opts;
  opts.power_budget_watts = 35.0;
  opts.capacity_derate = 1.0;
  const PortfolioPlan plan = PlanHomogeneous(cands, 0, classes, opts);
  EXPECT_EQ(plan.boards, (std::vector<int>{0, 0, 0}));
  EXPECT_DOUBLE_EQ(plan.power_watts, 30.0) << "5 W residue stranded";
  EXPECT_DOUBLE_EQ(plan.planned_qps, 3000.0);
}

TEST(PortfolioTest, NaiveBestCandidateNeedsAllClassesAndBreaksTiesByPower) {
  std::vector<BoardCandidate> cands;
  // Highest throughput but too slow for the tight class.
  cands.push_back(MakeCandidate("fat", 8, 40.0, {0.001}));
  cands.push_back(MakeCandidate("ok_hot", 2, 20.0, {0.001}));
  cands.push_back(MakeCandidate("ok_cool", 2, 10.0, {0.001}));
  cands[0].item_seconds[0] = 0.004;
  cands[0].board_qps[0] = 8 / 0.004;
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 1000.0, 0.002)};
  // fat is infeasible; ok_hot and ok_cool tie on throughput -> lower power.
  EXPECT_EQ(NaiveBestCandidate(cands, classes), 2);
  const std::vector<LatencyClass> impossible{MakeClass("c", 0, 1.0, 1e-9)};
  EXPECT_THROW(NaiveBestCandidate(cands, impossible), InvalidArgument);
}

// --- weighted drain scan ---

TEST(PickReadyQueueTest, UniformWeightsMatchLegacyRotation) {
  const std::vector<double> weights(3, 1.0);
  std::vector<double> credits(3, 0.0);
  const std::vector<bool> ready{true, false, true};

  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/0), 0);
  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/1), 2);
  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/2), 2);
  // The uniform path must not accumulate credit state.
  for (double c : credits) EXPECT_EQ(c, 0.0);

  const std::vector<bool> none(3, false);
  EXPECT_EQ(PickReadyQueue(none, weights, credits, 0), -1);
}

TEST(PickReadyQueueTest, WeightedSharesOverBackloggedQueues) {
  // Two always-ready queues at 3:1 must be drained 3:1 over any window,
  // with the smooth round-robin never letting either starve.
  const std::vector<double> weights{3.0, 1.0};
  std::vector<double> credits(2, 0.0);
  const std::vector<bool> ready{true, true};
  int picks[2] = {0, 0};
  int longest_starve = 0, since_q1 = 0;
  for (int i = 0; i < 400; ++i) {
    const int p = PickReadyQueue(ready, weights, credits, 0);
    ASSERT_TRUE(p == 0 || p == 1);
    ++picks[p];
    since_q1 = p == 1 ? 0 : since_q1 + 1;
    longest_starve = std::max(longest_starve, since_q1);
  }
  EXPECT_EQ(picks[0], 300);
  EXPECT_EQ(picks[1], 100);
  EXPECT_LE(longest_starve, 3) << "smooth WRR interleaves, not bursts";
}

TEST(PickReadyQueueTest, DeterministicInStateAndBreaksTiesByRotation) {
  const std::vector<double> weights{2.0, 1.0, 2.0};
  const std::vector<bool> ready(3, true);
  std::vector<double> a(3, 0.0), b(3, 0.0);
  for (std::size_t start = 0; start < 3; ++start) {
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(PickReadyQueue(ready, weights, a, start),
                PickReadyQueue(ready, weights, b, start));
    }
    EXPECT_EQ(a, b);
  }
  // Fresh credits, queues 0 and 2 tied at weight 2: the earliest rotation
  // position from scan_start wins the tie.
  std::vector<double> credits(3, 0.0);
  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/2), 2);
  credits.assign(3, 0.0);
  EXPECT_EQ(PickReadyQueue(ready, weights, credits, /*scan_start=*/0), 0);
}

// --- virtual-time fleet simulation ---

TEST(FleetSimTest, SingleShardTimeoutAndSizeTriggersMatchHandComputation) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 1, 10.0, {0.010}));
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 100.0)};
  FleetOptions opts;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0.005;

  // Lone arrival: dispatches on the timeout trigger at t = 0.005 and
  // finishes at 0.015.
  {
    const auto res = SimulateFleet(cands, {0}, classes,
                                   {cands[0].item_seconds},
                                   {{0.0, 0}}, opts);
    ASSERT_EQ(res.decisions, (std::vector<int>{0}));
    EXPECT_EQ(res.classes[0].ok, 1);
    EXPECT_DOUBLE_EQ(res.classes[0].p50_ms, 15.0);
    EXPECT_DOUBLE_EQ(res.horizon_seconds, 0.015);
    EXPECT_EQ(res.shards[0].batches, 1);
  }

  // Two arrivals inside the delay window: the size trigger fires at the
  // second arrival (t = 0.001); items finish back-to-back at 0.011/0.021.
  {
    const auto res = SimulateFleet(cands, {0}, classes,
                                   {cands[0].item_seconds},
                                   {{0.0, 0}, {0.001, 0}}, opts);
    EXPECT_EQ(res.classes[0].ok, 2);
    EXPECT_EQ(res.shards[0].batches, 1);
    EXPECT_DOUBLE_EQ(res.horizon_seconds, 0.021);
    EXPECT_DOUBLE_EQ(res.classes[0].p50_ms, 11.0);   // first item
    EXPECT_DOUBLE_EQ(res.classes[0].p99_ms, 20.0);   // second item
    EXPECT_DOUBLE_EQ(res.shards[0].busy_seconds, 0.020);
    EXPECT_NEAR(res.shards[0].utilization, 0.020 / 0.021, 1e-12);
  }
}

TEST(FleetSimTest, InfeasibleEverywhereIsUnroutable) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("slow", 1, 5.0, {0.050}));
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 100.0, 0.001)};
  const auto res = SimulateFleet(cands, {0, 0}, classes,
                                 {cands[0].item_seconds},
                                 {{0.0, 0}, {0.01, 0}}, FleetOptions{});
  EXPECT_EQ(res.decisions, (std::vector<int>{-1, -1}));
  EXPECT_EQ(res.classes[0].unroutable, 2);
  EXPECT_EQ(res.classes[0].ok, 0);
}

TEST(FleetSimTest, RerunsAreBitIdentical) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("big", 2, 20.0, {0.0005, 0.0002}));
  cands.push_back(MakeCandidate("small", 1, 4.0, {0.002, 0.0008}));
  const std::vector<LatencyClass> classes{
      MakeClass("tight", 0, 3000.0, 0.004),
      MakeClass("loose", 1, 4000.0, 0.020)};
  const std::vector<std::vector<double>> dev{cands[0].item_seconds,
                                             cands[1].item_seconds};
  FleetOptions opts;
  opts.max_batch = 4;
  opts.max_queue_delay_seconds = 0.001;
  opts.class_weights = {2.0, 1.0};
  const auto trace = MakePoissonTrace(classes, 0.25, 99);
  ASSERT_GT(trace.size(), 500u);

  const auto a = SimulateFleet(cands, {0, 0, 1}, classes, dev, trace, opts);
  const auto b = SimulateFleet(cands, {0, 0, 1}, classes, dev, trace, opts);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.horizon_seconds, b.horizon_seconds);
  EXPECT_EQ(a.total_ok_qps, b.total_ok_qps);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    EXPECT_EQ(a.classes[c].ok, b.classes[c].ok);
    EXPECT_EQ(a.classes[c].rejected, b.classes[c].rejected);
    EXPECT_EQ(a.classes[c].expired, b.classes[c].expired);
    EXPECT_EQ(a.classes[c].p99_ms, b.classes[c].p99_ms);
  }
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].items, b.shards[s].items);
    EXPECT_EQ(a.shards[s].busy_seconds, b.shards[s].busy_seconds);
  }
  // Conservation: every submitted request is accounted for exactly once.
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto& cs = a.classes[c];
    EXPECT_EQ(cs.submitted,
              cs.ok + cs.rejected + cs.expired + cs.unroutable)
        << "class " << c;
  }
  // Both shards of the big board see traffic (the router spreads load).
  EXPECT_GT(a.shards[0].items, 0);
  EXPECT_GT(a.shards[1].items, 0);
}

// --- chaos: fault injection and self-healing (DESIGN.md Sec. 12) ---

TEST(RouterTest, RoutePairPrimaryMatchesRouteAndHedgeIsDistinct) {
  // Asking for a hedge never perturbs primary routing: a same-seed replay
  // reads the same primaries, and the hedge is another shard of the sample
  // that is loaded no less than the primary.
  const std::vector<double> load{5.0, 1.0, 4.0, 2.0, 3.0};
  const std::vector<bool> all(5, true);
  Router plain(5, RouterOptions{/*seed=*/21, /*choices=*/2});
  Router paired(5, RouterOptions{/*seed=*/21, /*choices=*/2});
  for (int i = 0; i < 128; ++i) {
    const int p = plain.RoutePair(load, all).primary;
    const RouteDecision rd = paired.RoutePair(load, all);
    ASSERT_EQ(rd.primary, p) << "decision " << i;
    if (rd.hedge >= 0) {
      EXPECT_NE(rd.hedge, rd.primary) << "decision " << i;
      EXPECT_GE(load[static_cast<std::size_t>(rd.hedge)],
                load[static_cast<std::size_t>(rd.primary)])
          << "hedge must be the second-least-loaded of the sample";
    }
  }
  // Full scan of two shards: the hedge is always the other shard.
  Router two(2, RouterOptions{/*seed=*/1, /*choices=*/0});
  const RouteDecision rd = two.RoutePair({1.0, 2.0}, {true, true});
  EXPECT_EQ(rd.primary, 0);
  EXPECT_EQ(rd.hedge, 1);
  // A single feasible shard has no backup.
  EXPECT_EQ(two.RoutePair({1.0, 2.0}, {true, false}).hedge, -1);
}

// The chaos event loop with an EMPTY plan must reproduce the legacy
// simulator bit for bit (fault hooks off = zero behavior change). Health
// wires are opened wide so detection cannot fire on this healthy workload.
TEST(FleetChaosSimTest, EmptyPlanIsBitIdenticalToLegacyPath) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("big", 2, 20.0, {0.0005, 0.0002}));
  cands.push_back(MakeCandidate("small", 1, 4.0, {0.002, 0.0008}));
  const std::vector<LatencyClass> classes{
      MakeClass("tight", 0, 3000.0, 0.004),
      MakeClass("loose", 1, 4000.0, 0.020)};
  const std::vector<std::vector<double>> dev{cands[0].item_seconds,
                                             cands[1].item_seconds};
  FleetOptions opts;
  opts.max_batch = 4;
  opts.max_queue_delay_seconds = 0.001;
  opts.class_weights = {2.0, 1.0};
  opts.health.heartbeat_timeout_seconds = 10.0;
  opts.health.down_after_seconds = 10.0;
  opts.health.max_consecutive_misses = 0;
  const auto trace = MakePoissonTrace(classes, 0.25, 99);

  const auto legacy =
      SimulateFleet(cands, {0, 0, 1}, classes, dev, trace, opts, nullptr);
  const FaultPlan empty(42);
  ASSERT_TRUE(empty.empty());
  const auto chaos =
      SimulateFleet(cands, {0, 0, 1}, classes, dev, trace, opts, &empty);

  EXPECT_EQ(chaos.decisions, legacy.decisions);
  EXPECT_EQ(chaos.horizon_seconds, legacy.horizon_seconds);
  EXPECT_EQ(chaos.total_ok_qps, legacy.total_ok_qps);
  EXPECT_EQ(chaos.energy_joules, legacy.energy_joules);
  EXPECT_EQ(chaos.goodput_qps, legacy.goodput_qps);
  for (std::size_t c = 0; c < classes.size(); ++c) {
    EXPECT_EQ(chaos.classes[c].ok, legacy.classes[c].ok) << "class " << c;
    EXPECT_EQ(chaos.classes[c].rejected, legacy.classes[c].rejected);
    EXPECT_EQ(chaos.classes[c].expired, legacy.classes[c].expired);
    EXPECT_EQ(chaos.classes[c].unroutable, legacy.classes[c].unroutable);
    EXPECT_EQ(chaos.classes[c].failed, legacy.classes[c].failed);
    EXPECT_EQ(chaos.classes[c].ok_tail, legacy.classes[c].ok_tail);
    EXPECT_EQ(chaos.classes[c].p50_ms, legacy.classes[c].p50_ms);
    EXPECT_EQ(chaos.classes[c].p99_ms, legacy.classes[c].p99_ms);
  }
  for (std::size_t s = 0; s < legacy.shards.size(); ++s) {
    EXPECT_EQ(chaos.shards[s].items, legacy.shards[s].items) << "shard " << s;
    EXPECT_EQ(chaos.shards[s].batches, legacy.shards[s].batches);
    EXPECT_EQ(chaos.shards[s].busy_seconds, legacy.shards[s].busy_seconds);
    EXPECT_EQ(chaos.shards[s].energy_joules, legacy.shards[s].energy_joules);
  }
  EXPECT_EQ(chaos.chaos.hedges, 0);
  EXPECT_EQ(chaos.chaos.retries, 0);
  EXPECT_EQ(chaos.chaos.shards_down, 0);
  EXPECT_EQ(chaos.chaos.health_transitions, 0);
}

// Everything a replay must pin, folded into one 64-bit value: the decision
// vector, every class, shard and chaos counter, and the bit patterns of the
// horizon, latency percentiles, busy time and energy.
std::uint64_t ResultDigest(const FleetSimResult& r) {
  std::uint64_t h = 0;
  auto add = [&h](std::int64_t v) {
    h = HashCombine(h, static_cast<std::uint64_t>(v));
  };
  auto add_bits = [&h](double v) {
    h = HashCombine(h, std::bit_cast<std::uint64_t>(v));
  };
  add(static_cast<std::int64_t>(r.decisions.size()));
  for (int d : r.decisions) add(d);
  for (const FleetClassStats& c : r.classes) {
    for (std::int64_t v : {c.submitted, c.ok, c.rejected, c.expired,
                           c.unroutable, c.failed, c.ok_tail}) {
      add(v);
    }
    add_bits(c.p50_ms);
    add_bits(c.p99_ms);
  }
  for (const FleetShardStats& s : r.shards) {
    add(s.candidate_index);
    add(s.items);
    add(s.batches);
    add_bits(s.busy_seconds);
    add_bits(s.energy_joules);
  }
  const FleetChaosStats& x = r.chaos;
  for (std::int64_t v : {x.hedges, x.hedge_wasted, x.retries,
                         x.corrupted_detected, x.corrupted_served,
                         x.degraded_shed}) {
    add(v);
  }
  for (int v : {x.replans, x.shards_down, x.health_transitions}) add(v);
  add_bits(x.first_down_seconds);
  add_bits(r.horizon_seconds);
  add_bits(r.energy_joules);
  return h;
}

// Digests of an overloaded fleet (the RerunsAreBitIdentical fleet at
// 9000/8000 QPS, default HealthOptions) captured before the fleet sim was
// reduced to one event loop: with no plan, with hedging only, and under a
// composed fault plan with hedging and retries. Any change to the loop's
// event order, accounting or arithmetic moves at least one of them.
TEST(FleetChaosSimTest, OverloadedFleetMatchesCapturedDigests) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("big", 2, 20.0, {0.0005, 0.0002}));
  cands.push_back(MakeCandidate("small", 1, 4.0, {0.002, 0.0008}));
  const std::vector<LatencyClass> classes{
      MakeClass("tight", 0, 9000.0, 0.004),
      MakeClass("loose", 1, 8000.0, 0.020)};
  const std::vector<std::vector<double>> dev{cands[0].item_seconds,
                                             cands[1].item_seconds};
  const std::vector<int> shards{0, 0, 1};
  FleetOptions opts;
  opts.max_batch = 4;
  opts.max_queue_delay_seconds = 0.001;
  opts.class_weights = {2.0, 1.0};
  const auto trace = MakePoissonTrace(classes, 0.25, 99);
  ASSERT_EQ(trace.size(), 4222u);

  const auto plain = SimulateFleet(cands, shards, classes, dev, trace, opts);
  EXPECT_EQ(plain.classes[0].ok, 1772);
  EXPECT_EQ(plain.classes[0].expired, 449);
  EXPECT_EQ(plain.classes[1].ok, 1045);
  EXPECT_EQ(plain.classes[1].rejected, 321);
  EXPECT_EQ(plain.classes[1].expired, 635);
  EXPECT_EQ(plain.chaos.health_transitions, 0);
  EXPECT_EQ(ResultDigest(plain), 2404377634066318188ULL);

  FleetOptions hedged = opts;
  hedged.hedge_slack_fraction = 0.25;
  const auto hedge_only =
      SimulateFleet(cands, shards, classes, dev, trace, hedged);
  EXPECT_GT(hedge_only.chaos.hedges, 0);
  EXPECT_EQ(ResultDigest(hedge_only), 13399309517582675913ULL);

  FaultPlan plan(15);
  plan.AddCrash(1, 0.10);
  plan.AddStall(2, 0.05, 0.01);
  plan.AddSlowdown(0, 0.12, 0.04, 3.0);
  plan.AddCorruption(0, 0.15, 10);
  const auto faulted =
      SimulateFleet(cands, shards, classes, dev, trace, hedged, &plan);
  EXPECT_GT(faulted.chaos.retries, 0);
  EXPECT_EQ(faulted.chaos.corrupted_detected, 10);
  EXPECT_EQ(ResultDigest(faulted), 15742065137463748746ULL);

  // An armed tracker is not inert on this overloaded trace: the empty plan
  // keeps options.health and trips it, so the no-plan run above must keep
  // health disarmed to hold its digest.
  const FaultPlan empty(15);
  const auto armed =
      SimulateFleet(cands, shards, classes, dev, trace, opts, &empty);
  EXPECT_EQ(armed.chaos.health_transitions, 186);
  EXPECT_NE(ResultDigest(armed), ResultDigest(plain));
}

TEST(FleetChaosSimTest, CrashIsDetectedRetriedAndReplanned) {
  // Two identical shards at ~50% load; shard 0 crashes mid-run. The
  // heartbeat tripwire must declare it down, queued/in-flight work must be
  // re-routed to the survivor, and the portfolio re-plan must keep the
  // (fully servable) class whole.
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 1, 10.0, {0.001}));  // 1000 qps/shard
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 800.0)};
  FleetOptions opts;
  opts.max_queue_delay_seconds = 0;
  opts.health.heartbeat_timeout_seconds = 0.004;
  opts.health.down_after_seconds = 0.004;
  const auto trace = MakePoissonTrace(classes, 0.2, 5);
  ASSERT_GT(trace.size(), 100u);

  FaultPlan plan(7);
  plan.AddCrash(0, 0.05);
  const auto res = SimulateFleet(cands, {0, 0}, classes,
                                 {cands[0].item_seconds}, trace, opts, &plan);

  const auto& cs = res.classes[0];
  EXPECT_EQ(cs.submitted, static_cast<std::int64_t>(trace.size()));
  EXPECT_EQ(cs.submitted,
            cs.ok + cs.rejected + cs.expired + cs.unroutable + cs.failed)
      << "conservation under faults";
  EXPECT_EQ(res.chaos.shards_down, 1);
  EXPECT_GE(res.chaos.first_down_seconds, 0.05) << "detection is not psychic";
  EXPECT_EQ(res.chaos.replans, 1);
  EXPECT_GT(res.chaos.retries, 0) << "lost work must be re-routed";
  EXPECT_EQ(res.chaos.degraded_shed, 0)
      << "survivor capacity (850 qps derated) covers the 800 qps class";
  EXPECT_EQ(cs.failed, 0) << "no deadline, so every retry eventually lands";
  EXPECT_EQ(cs.ok, cs.submitted);
  EXPECT_GT(res.chaos.health_transitions, 0);
  // The dead shard executes nothing after the crash: every post-crash item
  // lands on the survivor.
  EXPECT_GT(res.shards[1].items, res.shards[0].items);

  // Chaos runs replay bit-identically, faults included.
  const auto rerun = SimulateFleet(cands, {0, 0}, classes,
                                   {cands[0].item_seconds}, trace, opts,
                                   &plan);
  EXPECT_EQ(rerun.decisions, res.decisions);
  EXPECT_EQ(rerun.classes[0].ok, res.classes[0].ok);
  EXPECT_EQ(rerun.horizon_seconds, res.horizon_seconds);
  EXPECT_EQ(rerun.chaos.retries, res.chaos.retries);
  EXPECT_EQ(rerun.chaos.first_down_seconds, res.chaos.first_down_seconds);
}

TEST(FleetChaosSimTest, CorruptionIsCaughtByCrcAndServedWithoutIt) {
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 1, 10.0, {0.001}));
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 100.0)};
  FleetOptions opts;
  opts.max_queue_delay_seconds = 0;
  opts.max_batch = 1;
  std::vector<FleetTraceArrival> trace;
  for (int i = 0; i < 6; ++i) trace.push_back({0.002 * i, 0});

  FaultPlan plan(3);
  plan.AddCorruption(0, 0.0, 3);

  // CRC on (default): the three corrupted results are rejected at
  // collection and re-executed; nothing corrupted reaches a client.
  {
    const auto res = SimulateFleet(cands, {0}, classes,
                                   {cands[0].item_seconds}, trace, opts,
                                   &plan);
    EXPECT_EQ(res.chaos.corrupted_detected, 3);
    EXPECT_EQ(res.chaos.corrupted_served, 0);
    EXPECT_EQ(res.chaos.retries, 3);
    EXPECT_EQ(res.classes[0].ok, 6);
    EXPECT_EQ(res.classes[0].failed, 0);
    EXPECT_EQ(res.goodput_qps, res.total_ok_qps);
  }
  // CRC off: the same three results are served silently — only the
  // corrupted_served counter (and the goodput gap) knows.
  {
    FleetOptions no_crc = opts;
    no_crc.crc_enabled = false;
    const auto res = SimulateFleet(cands, {0}, classes,
                                   {cands[0].item_seconds}, trace, no_crc,
                                   &plan);
    EXPECT_EQ(res.chaos.corrupted_detected, 0);
    EXPECT_EQ(res.chaos.corrupted_served, 3);
    EXPECT_EQ(res.chaos.retries, 0);
    EXPECT_EQ(res.classes[0].ok, 6);
    EXPECT_LT(res.goodput_qps, res.total_ok_qps)
        << "goodput must discount silently corrupted serves";
  }
}

TEST(FleetChaosSimTest, StallTripsSuspectThenRecoversWithoutReplan) {
  // Shard 0 stalls past the heartbeat: it must go suspect (masked), drain
  // its backlog when the stall lifts, and recover — no permanent loss, no
  // re-plan, nothing failed.
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 1, 10.0, {0.001}));
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 100.0)};
  FleetOptions opts;
  opts.max_queue_delay_seconds = 0;
  opts.health.heartbeat_timeout_seconds = 0.01;
  opts.health.down_after_seconds = 0.2;  // far beyond the stall
  std::vector<FleetTraceArrival> trace;
  for (int i = 0; i < 20; ++i) trace.push_back({0.003 * i, 0});

  FaultPlan plan(9);
  plan.AddStall(0, 0.0, 0.05);
  const auto res = SimulateFleet(cands, {0, 0}, classes,
                                 {cands[0].item_seconds}, trace, opts, &plan);
  EXPECT_EQ(res.classes[0].ok, 20) << "every request survives the stall";
  EXPECT_EQ(res.classes[0].failed, 0);
  EXPECT_EQ(res.chaos.shards_down, 0);
  EXPECT_EQ(res.chaos.replans, 0);
  EXPECT_GE(res.chaos.health_transitions, 2)
      << "suspect on silence, healthy again on progress";
  EXPECT_GT(res.shards[0].items, 0) << "the stalled backlog still drains";
}

TEST(FleetChaosSimTest, SlowdownDeratesDevicePacing) {
  // One shard, one arrival inside a 4x derate window: the item takes
  // 4 x 0.001 s. A second arrival after the window runs at full speed.
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 1, 10.0, {0.001}));
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 100.0)};
  FleetOptions opts;
  opts.max_queue_delay_seconds = 0;
  opts.max_batch = 1;
  opts.health.heartbeat_timeout_seconds = 10.0;
  opts.health.down_after_seconds = 10.0;
  opts.health.max_consecutive_misses = 0;

  FaultPlan plan(1);
  plan.AddSlowdown(0, 0.0, 0.01, 4.0);
  const auto res = SimulateFleet(cands, {0}, classes,
                                 {cands[0].item_seconds},
                                 {{0.0, 0}, {0.02, 0}}, opts, &plan);
  EXPECT_EQ(res.classes[0].ok, 2);
  EXPECT_DOUBLE_EQ(res.classes[0].p50_ms, 1.0) << "post-window item at speed";
  EXPECT_DOUBLE_EQ(res.classes[0].p99_ms, 4.0) << "derated item took 4x";
  EXPECT_DOUBLE_EQ(res.horizon_seconds, 0.021);
}

TEST(FleetChaosSimTest, HedgingDuplicatesNearDeadlineRequestsFirstWinWins) {
  // hedge_slack_fraction = 1 makes every request hedge-eligible; with a
  // full-scan router over two shards the backup always exists, so every
  // arrival runs twice and the duplicate is counted as waste — but each
  // request is served exactly once.
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 1, 10.0, {0.001}));
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 100.0, 0.010)};
  FleetOptions opts;
  opts.max_queue_delay_seconds = 0;
  opts.max_batch = 1;
  opts.router.choices = 0;
  opts.hedge_slack_fraction = 1.0;
  opts.health.heartbeat_timeout_seconds = 10.0;
  opts.health.down_after_seconds = 10.0;
  opts.health.max_consecutive_misses = 0;
  std::vector<FleetTraceArrival> trace;
  for (int i = 0; i < 10; ++i) trace.push_back({0.005 * i, 0});

  const auto res = SimulateFleet(cands, {0, 0}, classes,
                                 {cands[0].item_seconds}, trace, opts,
                                 nullptr);
  EXPECT_EQ(res.classes[0].ok, 10);
  EXPECT_EQ(res.chaos.hedges, 10);
  EXPECT_EQ(res.chaos.hedge_wasted, 10)
      << "both copies ran; exactly one settled the request";
  EXPECT_EQ(res.classes[0].submitted,
            res.classes[0].ok + res.classes[0].rejected +
                res.classes[0].expired + res.classes[0].unroutable +
                res.classes[0].failed);
}

TEST(FleetChaosSimTest, TotalLossWithDeadlinesFailsClosed) {
  // Every shard dies with work outstanding and the class deadline forbids
  // waiting: requests must settle as failed/expired — never hang, never
  // serve. Exercises the open-request conservation check at loop exit.
  std::vector<BoardCandidate> cands;
  cands.push_back(MakeCandidate("a", 1, 10.0, {0.001}));
  const std::vector<LatencyClass> classes{MakeClass("c", 0, 100.0, 0.02)};
  FleetOptions opts;
  opts.max_queue_delay_seconds = 0;
  opts.health.heartbeat_timeout_seconds = 0.005;
  opts.health.down_after_seconds = 0.005;
  std::vector<FleetTraceArrival> trace;
  for (int i = 0; i < 8; ++i) trace.push_back({0.001 * i, 0});

  FaultPlan plan(4);
  plan.AddCrash(0, 0.0015);
  plan.AddCrash(1, 0.0015);
  const auto res = SimulateFleet(cands, {0, 0}, classes,
                                 {cands[0].item_seconds}, trace, opts, &plan);
  const auto& cs = res.classes[0];
  EXPECT_EQ(cs.submitted, 8);
  EXPECT_EQ(cs.submitted,
            cs.ok + cs.rejected + cs.expired + cs.unroutable + cs.failed);
  EXPECT_EQ(res.chaos.shards_down, 2);
  EXPECT_GT(cs.failed + cs.expired + cs.unroutable, 0);
  EXPECT_LT(cs.ok, 8) << "a fleet-wide crash cannot serve everything";
}

// --- the fleet benches' scenarios (bench/fleet_qps, bench/fleet_chaos) ---

// One item's modeled seconds on a candidate: compile, then one timing-only
// cycle simulation.
double MeasureDeviceSeconds(const BoardCandidate& cand, const Model& model,
                            const std::vector<LayerMapping>& mapping) {
  const CompiledModel cm =
      Compiler(cand.config, cand.spec).Compile(model, mapping);
  Runtime runtime(cand.config, cand.spec);
  const RunReport report =
      runtime.Execute(model, cm, {}, {}, /*functional=*/false);
  return report.stats.total_cycles / (cand.spec.freq_mhz * 1e6);
}

// bench/fleet_qps at its --smoke size: a 76 W fleet over {VU9P, PYNQ-Z1}
// for an interactive (TinyCnn, 2 ms) and a bulk (residual block, 25 ms)
// class, overloaded, on measured cycle-sim latencies. Reruns must replay
// bit-identically, and the portfolio must beat naive champion replication
// by 1.3x on QPS or on QPS per joule.
TEST(FleetSimTest, PortfolioScenarioIsStableAndBeatsNaive) {
  const Model tiny = BuildTinyCnn();
  const Model resid = BuildTinyResidualBlock();
  const std::vector<const Model*> models{&tiny, &resid};
  const std::vector<const FpgaSpec*> platforms{&Vu9pSpec(), &PynqZ1Spec()};
  const std::vector<LatencyClass> classes{
      MakeClass("interactive", 0, 180000.0, 0.002),
      MakeClass("bulk", 1, 420000.0, 0.025)};
  PortfolioOptions popts;
  popts.power_budget_watts = 76.0;
  popts.max_boards = 16;

  const std::vector<BoardCandidate> candidates =
      BuildBoardCandidates(platforms, models);
  const PortfolioPlan naive = PlanHomogeneous(
      candidates, NaiveBestCandidate(candidates, classes), classes, popts);
  const PortfolioPlan het = PlanPortfolio(candidates, classes, popts);

  // Deployed boards run on measured seconds; the rest keep the estimate.
  std::vector<std::vector<double>> device_seconds;
  for (const BoardCandidate& cand : candidates) {
    device_seconds.push_back(cand.item_seconds);
  }
  std::set<int> used(naive.boards.begin(), naive.boards.end());
  used.insert(het.boards.begin(), het.boards.end());
  for (int b : used) {
    const BoardCandidate& cand = candidates[static_cast<std::size_t>(b)];
    for (std::size_t m = 0; m < models.size(); ++m) {
      device_seconds[static_cast<std::size_t>(b)][m] =
          MeasureDeviceSeconds(cand, *models[m], cand.mappings[m]);
    }
  }

  const auto trace = MakePoissonTrace(classes, 0.04, 2026);
  FleetOptions fopts;
  fopts.max_batch = 8;
  fopts.max_queue_delay_seconds = 0.0002;
  fopts.max_queue_depth = 64;
  fopts.router.seed = 7;
  fopts.router.choices = 2;
  fopts.class_weights = {2.0, 1.0};
  const auto het_sim = SimulateFleet(candidates, het.boards, classes,
                                     device_seconds, trace, fopts);
  const auto het_rerun = SimulateFleet(candidates, het.boards, classes,
                                       device_seconds, trace, fopts);
  EXPECT_EQ(het_rerun.decisions, het_sim.decisions);
  EXPECT_EQ(het_rerun.total_ok_qps, het_sim.total_ok_qps);
  EXPECT_EQ(het_rerun.energy_joules, het_sim.energy_joules);

  const auto naive_sim = SimulateFleet(candidates, naive.boards, classes,
                                       device_seconds, trace, fopts);
  ASSERT_GT(naive_sim.total_ok_qps, 0);
  ASSERT_GT(naive_sim.qps_per_joule, 0);
  const double qps_ratio = het_sim.total_ok_qps / naive_sim.total_ok_qps;
  const double qpj_ratio = het_sim.qps_per_joule / naive_sim.qps_per_joule;
  EXPECT_TRUE(qps_ratio >= 1.3 || qpj_ratio >= 1.3)
      << "portfolio vs naive: " << qps_ratio << "x QPS, " << qpj_ratio
      << "x QPS/joule";
}

std::int64_t TotalOf(const FleetSimResult& sim,
                     std::int64_t FleetClassStats::*field) {
  std::int64_t total = 0;
  for (const FleetClassStats& c : sim.classes) total += c.*field;
  return total;
}

// bench/fleet_chaos at its --smoke size: five 1000-QPS boards, 2800 QPS
// offered over 0.4 s, one Poisson trace replayed under each fault plan.
TEST(FleetChaosSimTest, BenchScenariosReplayDetectAndRecover) {
  BoardCandidate board = MakeCandidate("chaos-board", 1, 10.0, {0.001});
  board.spec = PynqZ1Spec();
  board.spec.name = "chaos-board";
  board.config = AccelConfig{};
  const std::vector<BoardCandidate> cands{board};
  const std::vector<int> shards(5, 0);
  const std::vector<LatencyClass> classes{
      MakeClass("interactive", 0, 800.0, 0.005), MakeClass("bulk", 0, 2000.0)};
  const double duration = 0.4;
  const double crash_at = 0.25 * duration;
  const auto trace = MakePoissonTrace(classes, duration, 4242);

  FleetOptions opts;
  opts.max_batch = 8;
  opts.max_queue_delay_seconds = 0.0005;
  opts.max_queue_depth = 64;
  opts.router.seed = 7;
  opts.router.choices = 2;
  opts.class_weights = {2.0, 1.0};
  opts.health.heartbeat_timeout_seconds = 0.02;
  opts.health.down_after_seconds = 0.05;
  opts.health.max_consecutive_misses = 0;
  opts.max_retries = 2;
  opts.retry_backoff_seconds = 0.0005;
  opts.crc_enabled = true;
  opts.tail_window_start_seconds = 0.5 * duration;

  auto same = [](const FleetSimResult& a, const FleetSimResult& b) {
    return ResultDigest(a) == ResultDigest(b) &&
           a.total_ok_qps == b.total_ok_qps &&
           a.goodput_qps == b.goodput_qps &&
           a.tail_goodput_qps == b.tail_goodput_qps;
  };
  // Every scenario replays bit-identically and settles every request once.
  auto run = [&](const char* name, const FleetOptions& o,
                 const FaultPlan* plan) {
    SCOPED_TRACE(name);
    const auto res = SimulateFleet(cands, shards, classes, {{0.001}}, trace,
                                   o, plan);
    EXPECT_TRUE(same(res, SimulateFleet(cands, shards, classes, {{0.001}},
                                        trace, o, plan)))
        << "rerun diverged";
    EXPECT_EQ(TotalOf(res, &FleetClassStats::submitted),
              TotalOf(res, &FleetClassStats::ok) +
                  TotalOf(res, &FleetClassStats::rejected) +
                  TotalOf(res, &FleetClassStats::expired) +
                  TotalOf(res, &FleetClassStats::unroutable) +
                  TotalOf(res, &FleetClassStats::failed));
    return res;
  };

  // No plan (health disarmed) and the empty plan (health armed) agree.
  const auto baseline = run("baseline", opts, nullptr);
  const FaultPlan empty_plan(4242);
  EXPECT_TRUE(same(run("empty_plan", opts, &empty_plan), baseline));

  // Crash: board 0 dies; it is declared down once, after the crash, the
  // survivors are re-planned, and tail goodput recovers to >= 0.8x.
  FaultPlan crash_plan(4242);
  crash_plan.AddCrash(0, crash_at);
  FleetOptions crash_opts = opts;
  crash_opts.hedge_slack_fraction = 0.25;
  const auto crash = run("crash", crash_opts, &crash_plan);
  FaultPlan again(4242);
  again.AddCrash(0, crash_at);
  EXPECT_EQ(again.ScheduleDigest(), crash_plan.ScheduleDigest());
  EXPECT_EQ(again.SerializeSchedule(), crash_plan.SerializeSchedule());
  EXPECT_EQ(crash.chaos.shards_down, 1);
  EXPECT_EQ(crash.chaos.replans, 1);
  EXPECT_GE(crash.chaos.first_down_seconds, crash_at);
  ASSERT_GT(baseline.tail_goodput_qps, 0);
  EXPECT_GE(crash.tail_goodput_qps / baseline.tail_goodput_qps, 0.8);

  // Transients: a 30 ms stall and a 40 ms 3x slowdown take no board down.
  FaultPlan transient_plan(4242);
  transient_plan.AddStall(1, 0.30 * duration, 0.030);
  transient_plan.AddSlowdown(2, 0.50 * duration, 0.040, 3.0);
  const auto transients = run("transients", opts, &transient_plan);
  EXPECT_EQ(transients.chaos.shards_down, 0);
  EXPECT_EQ(transients.chaos.replans, 0);

  // Corruption: 25 results flipped on board 3; the CRC catches every one,
  // and without it every one is served and dents goodput.
  FaultPlan corrupt_plan(4242);
  corrupt_plan.AddCorruption(3, 0.30 * duration, 25);
  const auto crc_on = run("corruption_crc", opts, &corrupt_plan);
  EXPECT_EQ(crc_on.chaos.corrupted_detected, 25);
  EXPECT_EQ(crc_on.chaos.corrupted_served, 0);
  FleetOptions no_crc = opts;
  no_crc.crc_enabled = false;
  const auto crc_off = run("corruption_served", no_crc, &corrupt_plan);
  EXPECT_EQ(crc_off.chaos.corrupted_served, 25);
  EXPECT_LT(crc_off.goodput_qps, crc_off.total_ok_qps);

  // End to end on a real TinyCnn run: a DRAM flip inside the collection
  // integrity window throws IntegrityError, and a retry reproduces the
  // golden output and CRC (see test_fault.cc for the threshold).
  const Model model = BuildTinyCnn();
  const AccelConfig cfg;
  const std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(model.num_layers()),
      LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
  const ModelWeightsQ weights = SyntheticWeights(model, 7);
  const CompiledModel cm = Compiler(cfg, PynqZ1Spec()).Compile(model, mapping);
  const FmapShape in = model.InputOf(0);
  Tensor<std::int16_t> input(Shape{in.channels, in.height, in.width});
  Prng prng(11);
  input.FillRandomInt(prng, -128, 127);
  Runtime rt(cfg, PynqZ1Spec());
  rt.set_integrity_check(true);
  const RunReport golden = rt.Execute(model, cm, weights, input);
  const std::int64_t threshold = rt.dram()->words_read() +
                                 rt.dram()->words_written() -
                                 golden.output.elements() + 1;
  rt.dram()->ArmFault(
      {threshold, cm.output_region(model.num_layers() - 1), 0x0001});
  EXPECT_THROW(rt.Execute(model, cm, weights, input), IntegrityError);
  const RunReport retry = rt.Execute(model, cm, weights, input);
  EXPECT_EQ(retry.output, golden.output);
  EXPECT_EQ(retry.output_crc32, golden.output_crc32);
}

}  // namespace
}  // namespace hdnn
