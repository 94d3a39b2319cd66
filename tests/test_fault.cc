// Fault injection, integrity tagging and health detection (DESIGN.md
// Sec. 12): CRC32 correctness, FaultPlan schedule determinism (independent
// of thread count and router decision volume), the DramModel corruption
// hook, end-to-end integrity detection in Runtime::Execute, and the
// HealthTracker tripwires.
#include "common/fault.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/prng.h"
#include "compiler/compiler.h"
#include "fleet/health.h"
#include "fleet/portfolio.h"
#include "fleet/router.h"
#include "mem/dram_model.h"
#include "nn/builders.h"
#include "runtime/runtime.h"
#include "testing_util.h"

namespace hdnn {
namespace {

using ::hdnn::testing::TestConfig;
using ::hdnn::testing::TestSpec;

// --- Crc32 ---

// Bitwise reference (reflected 0xEDB88320) over a byte stream.
std::uint32_t RefCrc32Bytes(const std::vector<std::uint8_t>& bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : bytes) {
    c ^= b;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (~(c & 1u) + 1u));
    }
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBitwiseReferenceWithLittleEndianByteOrder) {
  Prng prng(42);
  std::vector<std::int16_t> words(257);
  for (auto& w : words)
    w = static_cast<std::int16_t>(prng.NextInt(-32768, 32767));
  std::vector<std::uint8_t> bytes;
  for (std::int16_t w : words) {
    const auto u = static_cast<std::uint16_t>(w);
    bytes.push_back(static_cast<std::uint8_t>(u & 0xFF));  // low byte first
    bytes.push_back(static_cast<std::uint8_t>(u >> 8));
  }
  EXPECT_EQ(Crc32(words), RefCrc32Bytes(bytes));
  EXPECT_EQ(Crc32(std::span<const std::int16_t>{}), 0u);
}

TEST(Crc32Test, ChainsAndDetectsSingleBitFlips) {
  std::vector<std::int16_t> words{12, -345, 6789, 0, 32767, -32768, 1};
  const std::uint32_t whole = Crc32(words);
  const std::uint32_t part =
      Crc32(std::span<const std::int16_t>(words).subspan(3),
            Crc32(std::span<const std::int16_t>(words).first(3)));
  EXPECT_EQ(part, whole) << "chained partials must equal the whole";
  for (std::size_t i = 0; i < words.size(); ++i) {
    std::vector<std::int16_t> flipped = words;
    flipped[i] = static_cast<std::int16_t>(
        static_cast<std::uint16_t>(flipped[i]) ^ 0x0400u);
    EXPECT_NE(Crc32(flipped), whole) << "flip at word " << i;
  }
}

// --- FaultPlan ---

FaultPlan MakePlan(std::uint64_t seed) {
  FaultPlan plan(seed);
  plan.AddCorruption(2, 0.050, 3);
  plan.AddCrash(0, 0.010);
  plan.AddStall(1, 0.010, 0.005);  // same instant: insertion order ties
  plan.AddSlowdown(3, 0.002, 0.020, 4.0);
  return plan;
}

TEST(FaultPlanTest, MaterializeIsTimeOrderedWithStableTies) {
  const auto sched = MakePlan(7).Materialize();
  ASSERT_EQ(sched.size(), 4u);
  EXPECT_EQ(sched[0].event.kind, FaultKind::kSlowdown);
  EXPECT_EQ(sched[1].event.kind, FaultKind::kCrash);
  EXPECT_EQ(sched[2].event.kind, FaultKind::kStall) << "tie keeps insertion";
  EXPECT_EQ(sched[3].event.kind, FaultKind::kCorruption);
  // Draws come from Fork(insertion_index), so sorting must not reassign
  // them: the crash (inserted second) carries Fork(1)'s first draw.
  EXPECT_EQ(sched[1].draw, Prng(7).Fork(1).NextU64());
  EXPECT_EQ(sched[3].draw, Prng(7).Fork(0).NextU64());
}

TEST(FaultPlanTest, RejectsInvalidEvents) {
  FaultPlan plan(1);
  EXPECT_THROW(plan.AddCrash(-1, 0.0), InvalidArgument);
  EXPECT_THROW(plan.AddCrash(0, -0.1), InvalidArgument);
  EXPECT_THROW(plan.AddStall(0, 0.0, 0.0), InvalidArgument);
  EXPECT_THROW(plan.AddSlowdown(0, 0.0, 0.1, 0.5), InvalidArgument);
  EXPECT_THROW(plan.AddCorruption(0, 0.0, 0), InvalidArgument);
  EXPECT_TRUE(plan.empty()) << "rejected events must not be recorded";
}

TEST(FaultPlanTest, SeedChangesScheduleBytes) {
  EXPECT_NE(MakePlan(7).ScheduleDigest(), MakePlan(8).ScheduleDigest());
  EXPECT_EQ(MakePlan(7).SerializeSchedule(), MakePlan(7).SerializeSchedule());
}

// The injected-event schedule is a pure function of (seed, events) —
// byte-identical no matter how many router decisions the process has
// consumed or how many threads materialize plans concurrently: a FaultPlan
// holds no shared mutable state.
TEST(FaultPlanTest, ScheduleBytesAreStableAcrossThreadsAndRouterVolume) {
  const std::vector<std::uint8_t> golden = MakePlan(99).SerializeSchedule();

  // Heavy router decision volume (its own forked streams) between plan
  // constructions must not perturb the schedule.
  Router router(8, RouterOptions{/*seed=*/99, /*choices=*/2});
  const std::vector<double> load(8, 1.0);
  const std::vector<bool> all(8, true);
  for (int i = 0; i < 5000; ++i) router.RoutePair(load, all);
  EXPECT_EQ(MakePlan(99).SerializeSchedule(), golden);

  // Concurrent materialization on many threads: every thread sees the same
  // bytes.
  std::vector<std::future<std::vector<std::uint8_t>>> futs;
  for (int t = 0; t < 8; ++t) {
    futs.push_back(std::async(std::launch::async, [] {
      std::vector<std::uint8_t> last;
      for (int i = 0; i < 50; ++i) last = MakePlan(99).SerializeSchedule();
      return last;
    }));
  }
  for (auto& f : futs) EXPECT_EQ(f.get(), golden);
}

// --- DramModel corruption hook ---

TEST(DramFaultTest, FiresOnceAtThresholdWithModuloAddressing) {
  DramModel dram(64);
  dram.WriteRun(5, 1)[0] = 100;
  const std::int64_t base_traffic = dram.words_read() + dram.words_written();
  // addr 69 % 64 = 5; fires once the cumulative count reaches the
  // threshold, on the next access of any kind.
  dram.ArmFault({/*after_total_words=*/base_traffic + 2, /*addr=*/69,
                 /*xor_mask=*/0x0001});
  EXPECT_EQ(dram.armed_faults(), 1);
  EXPECT_EQ(dram.Read(5), 100) << "below threshold: untouched";
  EXPECT_EQ(dram.Read(5), 101) << "threshold reached: bit flipped";
  EXPECT_EQ(dram.armed_faults(), 0);
  EXPECT_EQ(dram.injected_faults(), 1);
  EXPECT_EQ(dram.Read(5), 101) << "fires exactly once";
}

TEST(DramFaultTest, SurvivesResetAndCountsPerEpoch) {
  DramModel dram(32);
  dram.ArmFault({/*after_total_words=*/3, /*addr=*/0, /*xor_mask=*/0x8000});
  dram.Reset(32);  // faults belong to the device, not its contents
  EXPECT_EQ(dram.armed_faults(), 1);
  dram.Read(1);
  dram.Read(1);
  dram.Read(1);  // counter reaches threshold in the NEW epoch
  EXPECT_EQ(dram.injected_faults(), 1);
  EXPECT_EQ(static_cast<std::uint16_t>(dram.Read(0)), 0x8000u);
  dram.ArmFault({/*after_total_words=*/1000, /*addr=*/0, /*xor_mask=*/1});
  dram.ClearFaults();
  EXPECT_EQ(dram.armed_faults(), 0);
}

TEST(DramFaultTest, RejectsInvalidFaults) {
  DramModel dram(16);
  EXPECT_THROW(dram.ArmFault({-1, 0, 1}), InvalidArgument);
  EXPECT_THROW(dram.ArmFault({0, -1, 1}), InvalidArgument);
  EXPECT_THROW(dram.ArmFault({0, 0, 0}), InvalidArgument);
}

// --- Runtime integrity tagging ---

struct IntegrityFixture {
  Model model = BuildTinyCnn();
  AccelConfig cfg = TestConfig();
  std::vector<LayerMapping> mapping;
  ModelWeightsQ weights;
  CompiledModel cm;
  Tensor<std::int16_t> input;

  IntegrityFixture()
      : mapping(static_cast<std::size_t>(model.num_layers()),
                LayerMapping{ConvMode::kSpatial,
                             Dataflow::kInputStationary}),
        weights(SyntheticWeights(model, 7)),
        cm(Compiler(cfg, TestSpec()).Compile(model, mapping)),
        input(::hdnn::testing::MakeInput(model.InputOf(0), 11)) {}
};

TEST(RuntimeIntegrityTest, CorruptionInCollectionWindowThrowsOrServesSilently) {
  IntegrityFixture fx;

  // Clean run: measure the epoch's functional traffic and pin the golden
  // output and its CRC.
  Runtime clean(fx.cfg, TestSpec());
  clean.set_integrity_check(true);
  const RunReport golden =
      clean.Execute(fx.model, fx.cm, fx.weights, fx.input);
  ASSERT_TRUE(golden.integrity_checked);
  const std::int64_t total =
      clean.dram()->words_read() + clean.dram()->words_written();
  const std::int64_t slab_base =
      fx.cm.output_region(fx.model.num_layers() - 1);
  // Collection reads exactly the real-channel words back (the only counted
  // reads after the final SAVE), so this threshold makes the fault fire on
  // collection's FIRST read transaction — inside the at-rest window
  // between the SAVE tag and the collection re-check, and before the first
  // slab word (a real channel in either layout) is copied out.
  const std::int64_t threshold = total - golden.output.elements() + 1;
  ASSERT_GT(threshold, 0);

  // Integrity ON: the flip is caught at collection -> IntegrityError.
  // (dram() exists only after the first functional Execute; Reset restarts
  // the access counters each epoch but armed faults survive, so the
  // epoch-relative threshold is exact.)
  {
    Runtime rt(fx.cfg, TestSpec());
    rt.set_integrity_check(true);
    rt.Execute(fx.model, fx.cm, fx.weights, fx.input);  // builds the DRAM
    rt.dram()->ArmFault({/*after_total_words=*/threshold,
                         /*addr=*/slab_base, /*xor_mask=*/0x0001});
    EXPECT_THROW(rt.Execute(fx.model, fx.cm, fx.weights, fx.input),
                 IntegrityError);
    EXPECT_EQ(rt.dram()->injected_faults(), 1);
    // The fault fired once; a retry on the same runtime is clean and must
    // reproduce the golden output (inference is pure).
    const RunReport retry =
        rt.Execute(fx.model, fx.cm, fx.weights, fx.input);
    EXPECT_EQ(retry.output, golden.output);
    EXPECT_EQ(retry.output_crc32, golden.output_crc32);
  }

  // Same fault, integrity OFF: the corrupted fmap is served silently —
  // exactly the failure mode the tag exists to close.
  {
    Runtime rt(fx.cfg, TestSpec());
    rt.Execute(fx.model, fx.cm, fx.weights, fx.input);
    rt.dram()->ArmFault({/*after_total_words=*/threshold,
                         /*addr=*/slab_base, /*xor_mask=*/0x0001});
    const RunReport served =
        rt.Execute(fx.model, fx.cm, fx.weights, fx.input);
    EXPECT_FALSE(served.integrity_checked);
    EXPECT_NE(served.output, golden.output) << "silent corruption served";
  }
}

TEST(RuntimeIntegrityTest, DisabledCheckIsStatsIdenticalToLegacy) {
  IntegrityFixture fx;
  Runtime off(fx.cfg, TestSpec());
  Runtime on(fx.cfg, TestSpec());
  on.set_integrity_check(true);
  const RunReport a = off.Execute(fx.model, fx.cm, fx.weights, fx.input);
  const RunReport b = on.Execute(fx.model, fx.cm, fx.weights, fx.input);
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.stats.total_cycles, b.stats.total_cycles);
  // The tag reads use ViewRun: functional traffic counters must agree.
  EXPECT_EQ(off.dram()->words_read(), on.dram()->words_read());
  EXPECT_EQ(off.dram()->words_written(), on.dram()->words_written());
  EXPECT_FALSE(a.integrity_checked);
  EXPECT_TRUE(b.integrity_checked);
}

// --- HealthTracker ---

TEST(HealthTest, HeartbeatTripsSuspectThenDownAndRecoversOnProgress) {
  HealthOptions opts;
  opts.heartbeat_timeout_seconds = 0.02;
  opts.down_after_seconds = 0.05;
  HealthTracker t(2, opts);
  EXPECT_TRUE(t.routable(0));
  EXPECT_EQ(t.NextDeadline(), std::numeric_limits<double>::infinity())
      << "idle shards owe no progress";

  t.SetBusy(0, true, 1.0);  // busy edge re-anchors the heartbeat
  EXPECT_DOUBLE_EQ(t.NextDeadline(), 1.02);
  EXPECT_FALSE(t.Tick(1.019));
  EXPECT_TRUE(t.Tick(1.02));
  EXPECT_EQ(t.health(0), ShardHealth::kSuspect);
  EXPECT_FALSE(t.routable(0));
  EXPECT_TRUE(t.alive(0));
  EXPECT_DOUBLE_EQ(t.NextDeadline(), 1.07) << "down_after arms next";

  // Progress while suspect: full recovery.
  t.OnProgress(0, 1.03);
  EXPECT_EQ(t.health(0), ShardHealth::kHealthy);
  EXPECT_TRUE(t.routable(0));

  // Silence through the whole window: permanent loss.
  EXPECT_TRUE(t.Tick(1.06));  // suspect again (anchor moved to 1.03)
  EXPECT_TRUE(t.Tick(1.12));
  EXPECT_EQ(t.health(0), ShardHealth::kDown);
  EXPECT_FALSE(t.alive(0));
  t.OnProgress(0, 1.2);
  EXPECT_EQ(t.health(0), ShardHealth::kDown) << "kDown is permanent";
  EXPECT_FALSE(t.routable(0));
  EXPECT_TRUE(t.routable(1));
}

TEST(HealthTest, ConsecutiveMissWireTripsAndLateCompletionsAnchorHeartbeat) {
  HealthOptions opts;
  opts.max_consecutive_misses = 3;
  HealthTracker t(1, opts);
  t.OnDeadlineMiss(0, 0.001);
  t.OnDeadlineMiss(0, 0.002);
  t.OnProgress(0, 0.003);  // on-time completion resets the streak
  t.OnDeadlineMiss(0, 0.004);
  t.OnDeadlineMiss(0, 0.005);
  EXPECT_EQ(t.health(0), ShardHealth::kHealthy);
  t.OnDeadlineMiss(0, 0.006);
  EXPECT_EQ(t.health(0), ShardHealth::kSuspect) << "third straight miss";

  // A LATE completion is liveness (made_progress): the heartbeat anchor
  // moves even though the miss streak grows.
  HealthTracker t2(1, HealthOptions{});
  t2.SetBusy(0, true, 0.0);
  t2.OnDeadlineMiss(0, 0.015, /*made_progress=*/true);
  EXPECT_DOUBLE_EQ(t2.NextDeadline(), 0.015 + 0.02);
  t2.OnDeadlineMiss(0, 0.016, /*made_progress=*/false);
  EXPECT_DOUBLE_EQ(t2.NextDeadline(), 0.015 + 0.02)
      << "an expiry is not progress";
}

// --- Degradation-aware re-planning ---

TEST(DegradeTest, AdmitFractionsFollowTheDegradedPlan) {
  // One fast board dies; the survivor covers the tight class fully and the
  // bulk class only partially (strictest-deadline-first allocation).
  std::vector<BoardCandidate> cands;
  BoardCandidate fast;
  fast.spec = TestSpec();
  fast.spec.name = "fast";
  fast.config = TestConfig();
  fast.config.ni = 1;
  fast.power_watts = 10.0;
  fast.item_seconds = {0.001};
  fast.board_qps = {1000.0};
  cands.push_back(fast);

  const std::vector<LatencyClass> classes{
      LatencyClass{"tight", 0, 300.0, 0.004},
      LatencyClass{"bulk", 0, 1200.0, kNoDeadline}};
  PortfolioOptions popts;
  popts.power_budget_watts = 100.0;
  popts.capacity_derate = 1.0;

  const PortfolioPlan full =
      EvaluatePortfolio(cands, {0, 0}, classes, popts);
  EXPECT_DOUBLE_EQ(full.class_qps[0], 300.0);
  EXPECT_DOUBLE_EQ(full.class_qps[1], 1200.0);  // 2000 - 300 covers bulk

  const PortfolioPlan degraded = ReplanAfterLoss(cands, {0}, classes, popts);
  EXPECT_DOUBLE_EQ(degraded.class_qps[0], 300.0) << "interactive kept whole";
  EXPECT_DOUBLE_EQ(degraded.class_qps[1], 700.0) << "bulk sheds the loss";

  const auto fractions = DegradedAdmitFractions(degraded, classes);
  EXPECT_DOUBLE_EQ(fractions[0], 1.0);
  EXPECT_DOUBLE_EQ(fractions[1], 700.0 / 1200.0);
  EXPECT_THROW(ReplanAfterLoss(cands, {}, classes, popts), InvalidArgument);

  // The credit counter realizes the fraction exactly over any run length.
  double credit = 0;
  int admitted = 0;
  for (int i = 0; i < 1200; ++i) {
    credit += fractions[1];
    if (credit >= 1.0) {
      credit -= 1.0;
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 700);
}

}  // namespace
}  // namespace hdnn
