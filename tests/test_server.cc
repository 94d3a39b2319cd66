#include "runtime/server.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/deadline_queue.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "runtime/runtime.h"
#include "tests/testing_util.h"

namespace hdnn {
namespace {

using testing::MakeInput;
using testing::TestConfig;
using testing::TestSpec;

std::vector<LayerMapping> UniformMapping(const Model& model, ConvMode mode,
                                         Dataflow flow) {
  return std::vector<LayerMapping>(
      static_cast<std::size_t>(model.num_layers()), LayerMapping{mode, flow});
}

std::vector<Tensor<std::int16_t>> MakeInputs(const Model& model, int n,
                                             std::uint64_t seed) {
  std::vector<Tensor<std::int16_t>> inputs;
  inputs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    inputs.push_back(
        MakeInput(model.InputOf(0), seed + static_cast<std::uint64_t>(i)));
  }
  return inputs;
}

// --- deadline queue policy ---

TEST(DeadlineQueueTest, SizeAndTimeoutTriggers) {
  DeadlineQueue<int> q(/*capacity=*/8, /*max_batch=*/3,
                       /*max_queue_delay_s=*/0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;

  auto push = [&](int v, double at, double deadline = kNoDeadline) {
    DeadlineQueue<int>::Entry e{v, at, deadline};
    return q.Push(e, at, &evicted, expired);
  };

  EXPECT_FALSE(q.DispatchReady(0.0));
  EXPECT_EQ(q.ReadyTime(0.0), kNeverTriggers) << "empty queue";
  EXPECT_EQ(push(1, 0.000), AdmitResult::kAdmitted);
  EXPECT_FALSE(q.DispatchReady(0.005)) << "one waiter, delay not reached";
  EXPECT_DOUBLE_EQ(q.ReadyTime(0.005), 0.010) << "timeout gates";
  EXPECT_TRUE(q.DispatchReady(q.ReadyTime(0.005)))
      << "ready at its own trigger instant";
  EXPECT_TRUE(q.DispatchReady(0.010)) << "timeout trigger";

  EXPECT_EQ(push(2, 0.001), AdmitResult::kAdmitted);
  EXPECT_EQ(push(3, 0.002), AdmitResult::kAdmitted);
  EXPECT_TRUE(q.DispatchReady(0.002)) << "size trigger at max_batch";
  EXPECT_EQ(q.ReadyTime(0.002), 0.002) << "size-ready dispatches now";

  const auto batch = q.TakeBatch();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].value, 1);  // FIFO prefix
  EXPECT_EQ(batch[1].value, 2);
  EXPECT_EQ(batch[2].value, 3);
  EXPECT_TRUE(q.empty());
}

TEST(DeadlineQueueTest, DeadlineAwareEviction) {
  DeadlineQueue<int> q(/*capacity=*/2, /*max_batch=*/8, 0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;

  DeadlineQueue<int>::Entry a{1, 0.0, /*deadline=*/0.100};
  DeadlineQueue<int>::Entry b{2, 0.0, /*deadline=*/0.050};
  ASSERT_EQ(q.Push(a, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(b, 0.0, &evicted, expired), AdmitResult::kAdmitted);

  // Full. A later-deadline arrival is rejected outright...
  DeadlineQueue<int>::Entry lax{3, 0.001, /*deadline=*/0.200};
  EXPECT_EQ(q.Push(lax, 0.001, &evicted, expired), AdmitResult::kRejected);
  EXPECT_EQ(lax.value, 3) << "rejected entry stays with the caller";

  // ...while a more urgent one evicts the latest-deadline waiter (value 1).
  DeadlineQueue<int>::Entry urgent{4, 0.001, /*deadline=*/0.020};
  EXPECT_EQ(q.Push(urgent, 0.001, &evicted, expired), AdmitResult::kEvicted);
  EXPECT_EQ(evicted.value, 1);
  ASSERT_EQ(q.size(), 2);

  // Expired entries are swept before anything is evicted or rejected: by
  // t=0.060 both waiters (deadlines 0.050 and 0.020) have expired.
  DeadlineQueue<int>::Entry late{5, 0.060, kNoDeadline};
  EXPECT_EQ(q.Push(late, /*now=*/0.060, &evicted, expired),
            AdmitResult::kAdmitted)
      << "expired waiters are swept, freeing slots";
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].value, 2);
  EXPECT_EQ(expired[1].value, 4);
  EXPECT_EQ(q.size(), 1);
}

TEST(DeadlineQueueTest, EqualDeadlineArrivalIsRejectedNotEvicted) {
  // Eviction requires the incoming request to be STRICTLY more urgent than
  // the latest-deadline waiter; an equal-deadline arrival must be rejected
  // (FIFO wins the tie — the waiter keeps its slot).
  DeadlineQueue<int> q(/*capacity=*/2, /*max_batch=*/8, 0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;

  DeadlineQueue<int>::Entry a{1, 0.0, /*deadline=*/0.050};
  DeadlineQueue<int>::Entry b{2, 0.0, /*deadline=*/0.100};
  ASSERT_EQ(q.Push(a, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(b, 0.0, &evicted, expired), AdmitResult::kAdmitted);

  DeadlineQueue<int>::Entry tie{3, 0.001, /*deadline=*/0.100};
  EXPECT_EQ(q.Push(tie, 0.001, &evicted, expired), AdmitResult::kRejected);
  EXPECT_EQ(tie.value, 3) << "rejected entry stays with the caller";
  ASSERT_EQ(q.size(), 2);

  // Just-barely-earlier flips the outcome to eviction of the 0.100 waiter.
  DeadlineQueue<int>::Entry urgent{4, 0.001, /*deadline=*/0.099};
  EXPECT_EQ(q.Push(urgent, 0.001, &evicted, expired), AdmitResult::kEvicted);
  EXPECT_EQ(evicted.value, 2);
}

TEST(DeadlineQueueTest, EvictionTieAmongEqualLatestDeadlinesShedsOldest) {
  // When several waiters share the latest deadline, the scan keeps the
  // first maximum it sees, so the OLDEST of the tied waiters is shed —
  // deterministically, regardless of how the tie arose.
  DeadlineQueue<int> q(/*capacity=*/3, /*max_batch=*/8, 0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;

  DeadlineQueue<int>::Entry a{1, 0.0, /*deadline=*/0.100};
  DeadlineQueue<int>::Entry b{2, 0.0, /*deadline=*/0.050};
  DeadlineQueue<int>::Entry c{3, 0.0, /*deadline=*/0.100};
  ASSERT_EQ(q.Push(a, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(b, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(c, 0.0, &evicted, expired), AdmitResult::kAdmitted);

  DeadlineQueue<int>::Entry urgent{4, 0.001, /*deadline=*/0.020};
  EXPECT_EQ(q.Push(urgent, 0.001, &evicted, expired), AdmitResult::kEvicted);
  EXPECT_EQ(evicted.value, 1) << "earliest-queued of the tied waiters";

  // Survivors keep FIFO order: 2, 3, then the admitted 4.
  const auto batch = q.TakeBatch();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].value, 2);
  EXPECT_EQ(batch[1].value, 3);
  EXPECT_EQ(batch[2].value, 4);
}

TEST(DeadlineQueueTest, ShedCountersAreExactAndMonotonic) {
  DeadlineQueue<int> q(/*capacity=*/3, /*max_batch=*/8, 0.010);
  std::vector<DeadlineQueue<int>::Entry> expired;
  DeadlineQueue<int>::Entry evicted;

  // Fill to capacity.
  DeadlineQueue<int>::Entry a{1, 0.0, /*deadline=*/0.100};
  DeadlineQueue<int>::Entry b{2, 0.0, /*deadline=*/0.050};
  DeadlineQueue<int>::Entry c{3, 0.0, /*deadline=*/0.200};
  ASSERT_EQ(q.Push(a, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(b, 0.0, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(c, 0.0, &evicted, expired), AdmitResult::kAdmitted);

  // A strictly-more-urgent arrival evicts the latest-deadline waiter.
  DeadlineQueue<int>::Entry urgent{4, 0.001, /*deadline=*/0.020};
  ASSERT_EQ(q.Push(urgent, 0.001, &evicted, expired), AdmitResult::kEvicted);
  EXPECT_EQ(evicted.value, 3);

  // A no-earlier-deadline arrival is rejected without a shed: the waiter
  // keeps its slot.
  DeadlineQueue<int>::Entry tie{5, 0.002, /*deadline=*/0.100};
  ASSERT_EQ(q.Push(tie, 0.002, &evicted, expired), AdmitResult::kRejected);
  EXPECT_TRUE(expired.empty());

  // A standalone sweep past two deadlines (0.020 and 0.050) sheds exactly
  // those two; the 0.100 waiter survives.
  expired.clear();
  EXPECT_EQ(q.SweepExpired(0.060, expired), 2);
  EXPECT_EQ(expired.size(), 2u);
  ASSERT_EQ(q.size(), 1);

  // The full-queue Push path sweeps the same way: refill, then push at a
  // time past one waiter's deadline.
  DeadlineQueue<int>::Entry d{6, 0.060, /*deadline=*/0.070};
  DeadlineQueue<int>::Entry e{7, 0.060, /*deadline=*/0.300};
  ASSERT_EQ(q.Push(d, 0.060, &evicted, expired), AdmitResult::kAdmitted);
  ASSERT_EQ(q.Push(e, 0.060, &evicted, expired), AdmitResult::kAdmitted);
  DeadlineQueue<int>::Entry f{8, 0.080, /*deadline=*/0.250};
  expired.clear();
  ASSERT_EQ(q.Push(f, 0.080, &evicted, expired), AdmitResult::kAdmitted)
      << "the expired waiter's slot is reused";
  EXPECT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].value, 6);

  // Survivors keep FIFO order through the sweeps.
  const auto batch = q.TakeBatch();
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].value, 1);
  EXPECT_EQ(batch[1].value, 7);
  EXPECT_EQ(batch[2].value, 8);
}

// --- server fixture ---

struct ServerFixture {
  explicit ServerFixture(FpgaSpec platform = TestSpec())
      : spec(std::move(platform)) {}

  Model model = BuildTinyCnn();
  AccelConfig cfg = TestConfig();
  FpgaSpec spec;
  std::vector<LayerMapping> mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  ModelWeightsQ weights = SyntheticWeights(model, 7);
  InferenceEngine engine{spec, 1};
};

// --- deterministic trace mode ---

TEST(InferenceServerTraceTest, BatchCompositionIsDeterministic) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 4;
  opts.max_queue_delay_seconds = 0.010;
  opts.mode = ExecMode::kDevicePaced;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const double dev = server.device_seconds_per_item(h);
  ASSERT_GT(dev, 0);

  const auto inputs = MakeInputs(f.model, 1, 10);
  // Four arrivals in one delay window (size trigger at 4), then two
  // stragglers that only the timeout trigger can dispatch.
  std::vector<InferenceServer::TraceArrival> trace = {
      {0.000, 0}, {0.001, 0}, {0.002, 0}, {0.003, 0},
      {0.100, 0}, {0.101, 0},
  };
  const auto a = server.ServeTrace(h, inputs, trace);
  const auto b = server.ServeTrace(h, inputs, trace);

  ASSERT_EQ(a.batch_sizes, (std::vector<int>{4, 2}));
  ASSERT_EQ(b.batch_sizes, a.batch_sizes) << "composition must be stable";
  ASSERT_EQ(a.items.size(), trace.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].outcome, ServeOutcome::kOk);
    EXPECT_DOUBLE_EQ(a.items[i].total_seconds, b.items[i].total_seconds)
        << "item " << i;
    EXPECT_EQ(a.items[i].batch_seq, b.items[i].batch_seq);
  }
  // First batch dispatches on the size trigger at t=0.003: item 0 waited
  // 3ms and completes after one device quantum.
  EXPECT_DOUBLE_EQ(a.items[0].queue_seconds, 0.003);
  EXPECT_NEAR(a.items[0].service_seconds, dev, 1e-12);
  // Second batch dispatches when the 0.100 arrival's delay elapses.
  EXPECT_DOUBLE_EQ(a.items[4].queue_seconds, opts.max_queue_delay_seconds);
}

// Serves `n` arrivals `spacing` seconds apart twice in functional mode on
// `opts.num_workers` drainers: the batch composition must repeat, and every
// output must be bit- and cycle-identical to sequential Runtime execution.
void ExpectTraceMatchesSequential(ServerFixture& f, ServerOptions opts, int n,
                                  std::uint64_t seed, double spacing) {
  opts.mode = ExecMode::kFunctional;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  const auto inputs = MakeInputs(f.model, n, seed);
  std::vector<InferenceServer::TraceArrival> trace;
  for (int i = 0; i < n; ++i) {
    trace.push_back({spacing * i, i, kNoDeadline});
  }
  const auto a = server.ServeTrace(h, inputs, trace);
  const auto b = server.ServeTrace(h, inputs, trace);
  EXPECT_EQ(a.batch_sizes, b.batch_sizes) << "composition must be stable";

  const Compiler compiler(f.cfg, f.spec);
  const CompiledModel cm = compiler.Compile(f.model, f.mapping);
  Runtime runtime(f.cfg, f.spec);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(a.items[i].outcome, ServeOutcome::kOk) << "item " << i;
    ASSERT_EQ(b.items[i].outcome, ServeOutcome::kOk) << "item " << i;
    const RunReport seq =
        runtime.Execute(f.model, cm, f.weights, inputs[i]);
    EXPECT_EQ(a.items[i].run.output, seq.output) << "item " << i;
    EXPECT_EQ(b.items[i].run.output, seq.output) << "item " << i;
    EXPECT_EQ(a.items[i].run.stats.total_cycles,
              seq.stats.total_cycles)
        << "item " << i;
  }
}

TEST(InferenceServerTraceTest, FunctionalTraceBitIdenticalToSequential) {
  ServerFixture f;
  ServerOptions opts;
  opts.max_batch = 3;
  opts.max_queue_delay_seconds = 0.005;
  ExpectTraceMatchesSequential(f, opts, 5, 60, 0.001);

  // The DSE's PYNQ-Z1 deployment under the serve_latency bench's replay.
  ServerFixture pynq(PynqZ1Spec());
  const DseResult dse = DseEngine(pynq.spec).Explore(pynq.model);
  pynq.cfg = dse.config;
  pynq.mapping = dse.mapping;
  opts.max_batch = 4;
  opts.max_queue_delay_seconds = 0.002;
  ExpectTraceMatchesSequential(pynq, opts, 6, 9000, 0.0005);
}

TEST(InferenceServerTraceTest,
     FunctionalTwoDrainerTraceBitIdenticalToSequential) {
  // Seven same-instant arrivals in batches of two: both drainers start a
  // batch at t=0 and take turns from there, whatever the device time.
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0.0005;
  ExpectTraceMatchesSequential(f, opts, 7, 70, 0.0);
}

TEST(InferenceServerTraceTest, BatchesGoToTheEarliestFreeDrainer) {
  // Four single-item batches arrive at t=0. One drainer serves them back to
  // back; two drainers take two each, in dispatch order on ties.
  ServerFixture f;
  ServerOptions opts;
  opts.max_batch = 1;
  opts.max_queue_delay_seconds = 0.0;
  opts.mode = ExecMode::kDevicePaced;
  const auto inputs = MakeInputs(f.model, 1, 30);
  const std::vector<InferenceServer::TraceArrival> trace = {
      {0.0, 0}, {0.0, 0}, {0.0, 0}, {0.0, 0}};
  const auto serve = [&](int drainers) {
    opts.num_workers = drainers;
    InferenceServer server(f.engine, opts);
    const ModelHandle h =
        server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
    return std::make_pair(server.device_seconds_per_item(h),
                          server.ServeTrace(h, inputs, trace));
  };

  const auto [dev, one] = serve(1);
  ASSERT_GT(dev, 0);
  EXPECT_EQ(one.batch_sizes, (std::vector<int>{1, 1, 1, 1}));
  const double one_drainer[] = {dev, 2 * dev, 3 * dev, 4 * dev};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(one.items[i].outcome, ServeOutcome::kOk) << "item " << i;
    EXPECT_DOUBLE_EQ(one.items[i].total_seconds, one_drainer[i])
        << "item " << i;
    EXPECT_EQ(one.items[i].batch_seq, static_cast<std::int64_t>(i));
  }

  const auto [dev2, two] = serve(2);
  ASSERT_EQ(dev2, dev);
  EXPECT_EQ(two.batch_sizes, (std::vector<int>{1, 1, 1, 1}));
  const double two_drainers[] = {dev, dev, 2 * dev, 2 * dev};
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(two.items[i].outcome, ServeOutcome::kOk) << "item " << i;
    EXPECT_DOUBLE_EQ(two.items[i].total_seconds, two_drainers[i])
        << "item " << i;
    EXPECT_EQ(two.items[i].batch_seq, static_cast<std::int64_t>(i));
  }
}

TEST(InferenceServerTraceTest, DeadlinesShedDeterministically) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0.001;
  opts.max_queue_depth = 2;
  opts.mode = ExecMode::kDevicePaced;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const double dev = server.device_seconds_per_item(h);

  const auto inputs = MakeInputs(f.model, 1, 20);
  // A same-instant burst far beyond one device's capacity (all outcomes
  // below hold for any positive device quantum `dev`): items 0/1 dispatch
  // immediately as a full batch, occupying the drainer until 2*dev. Items
  // 2/3 fill the two-slot queue. Item 4's deadline (1*dev) makes it more
  // urgent than the deadline-less waiters, so it EVICTS the latest-deadline
  // one (item 2 -> kRejected) — but it still cannot start before the
  // drainer frees at 2*dev, so it expires at dispatch. Item 5 (no deadline)
  // finds the queue full of no-later-deadline work -> kRejected.
  std::vector<InferenceServer::TraceArrival> trace = {
      {0.0, 0, kNoDeadline}, {0.0, 0, kNoDeadline},  // batch 0
      {0.0, 0, kNoDeadline}, {0.0, 0, kNoDeadline},  // fill the queue
      {0.0, 0, 1.0 * dev},                           // evicts 2, then expires
      {0.0, 0, kNoDeadline},                         // rejected: queue full
  };
  const auto a = server.ServeTrace(h, inputs, trace);
  const auto b = server.ServeTrace(h, inputs, trace);

  EXPECT_EQ(a.items[0].outcome, ServeOutcome::kOk);
  EXPECT_EQ(a.items[1].outcome, ServeOutcome::kOk);
  EXPECT_EQ(a.items[2].outcome, ServeOutcome::kRejected)
      << "evicted by the strictly-more-urgent item 4";
  EXPECT_EQ(a.items[3].outcome, ServeOutcome::kOk);
  EXPECT_EQ(a.items[4].outcome, ServeOutcome::kExpired)
      << "deadline passed while the first batch held the drainer";
  EXPECT_EQ(a.items[5].outcome, ServeOutcome::kRejected);
  EXPECT_EQ(a.batch_sizes, (std::vector<int>{2, 1}));
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].outcome, b.items[i].outcome) << "item " << i;
  }
  EXPECT_EQ(a.batch_sizes, b.batch_sizes);
}

// --- multi-model serving and overload ---

TEST(InferenceServerTest, MultiModelServingSharesTheProgramCache) {
  ServerFixture f;
  const Model second = BuildTinyResidualBlock();
  std::vector<LayerMapping> second_mapping =
      UniformMapping(second, ConvMode::kSpatial, Dataflow::kInputStationary);
  const ModelWeightsQ second_weights = SyntheticWeights(second, 21);

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0.001;
  opts.mode = ExecMode::kFunctional;
  InferenceServer server(f.engine, opts);
  const ModelHandle h1 =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  const ModelHandle h2 =
      server.RegisterModel(second, f.cfg, second_mapping, second_weights);
  ASSERT_NE(h1, h2);
  EXPECT_EQ(f.engine.cache_misses(), 2);

  // Re-registering an identical deployment hits the engine's program cache.
  server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);
  EXPECT_EQ(f.engine.cache_misses(), 2);
  EXPECT_GE(f.engine.cache_hits(), 1);

  const auto in1 = MakeInputs(f.model, 3, 40);
  const auto in2 = MakeInputs(second, 3, 41);
  const std::vector<InferenceServer::TraceArrival> trace = {
      {0.0, 0}, {0.0, 1}, {0.0, 2}};
  const auto r1 = server.ServeTrace(h1, in1, trace);
  const auto r2 = server.ServeTrace(h2, in2, trace);

  const Compiler compiler(f.cfg, f.spec);
  const CompiledModel cm1 = compiler.Compile(f.model, f.mapping);
  const CompiledModel cm2 = compiler.Compile(second, second_mapping);
  Runtime runtime(f.cfg, f.spec);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(r1.items[i].outcome, ServeOutcome::kOk);
    ASSERT_EQ(r2.items[i].outcome, ServeOutcome::kOk);
    EXPECT_EQ(r1.items[i].run.output,
              runtime.Execute(f.model, cm1, f.weights, in1[i]).output);
    EXPECT_EQ(r2.items[i].run.output,
              runtime.Execute(second, cm2, second_weights, in2[i]).output);
  }
}

TEST(InferenceServerTest, OverloadShedsInsteadOfQueueingUnboundedly) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0.0;
  opts.max_queue_depth = 4;
  opts.mode = ExecMode::kDevicePaced;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  // Flood far past the queue bound in one burst. The bound caps what can
  // ever be in flight; everything else must resolve as shed.
  const int kArrivals = 64;
  const auto inputs = MakeInputs(f.model, 1, 5);
  const std::vector<InferenceServer::TraceArrival> trace(
      kArrivals, {0.0, 0, /*deadline_seconds=*/0.250});
  const auto report = server.ServeTrace(h, inputs, trace);

  ASSERT_EQ(report.items.size(), trace.size()) << "one outcome per arrival";
  int ok = 0, shed = 0;
  for (const ItemReport& r : report.items) {
    if (r.outcome == ServeOutcome::kOk) {
      ++ok;
    } else if (r.outcome == ServeOutcome::kRejected ||
               r.outcome == ServeOutcome::kExpired) {
      ++shed;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "a bounded queue must reject under a burst";
  EXPECT_EQ(ok + shed, kArrivals);
  int served = 0;
  for (int size : report.batch_sizes) {
    EXPECT_LE(size, opts.max_batch);
    served += size;
  }
  EXPECT_EQ(served, ok);
}

// --- integrity checking under injected corruption ---

TEST(InferenceServerTest, IntegrityRetryRecoversFromInjectedCorruption) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  opts.max_queue_delay_seconds = 0.0;
  opts.mode = ExecMode::kFunctional;
  opts.integrity_check = true;
  opts.max_execute_retries = 1;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  // Reference run: golden output plus the per-execute DRAM traffic that
  // positions the fault inside the collection integrity window (see
  // test_fault.cc for the threshold derivation).
  const Compiler compiler(f.cfg, f.spec);
  const CompiledModel cm = compiler.Compile(f.model, f.mapping);
  Runtime ref(f.cfg, f.spec);
  const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 11);
  const RunReport golden = ref.Execute(f.model, cm, f.weights, input);
  const std::int64_t total =
      ref.dram()->words_read() + ref.dram()->words_written();
  const std::int64_t threshold = total - golden.output.elements() + 1;
  ASSERT_GT(threshold, 0);
  const std::int64_t slab_base = cm.output_region(f.model.num_layers() - 1);

  // The first execute trips the CRC check; one in-place retry (the armed
  // fault is single-shot) serves the clean result. Registration profiled
  // timing-only, so one functional run builds the engine Runtime's DRAM.
  f.engine.RuntimeFor(f.cfg).Execute(f.model, cm, f.weights, input);
  DramModel* dram = f.engine.RuntimeFor(f.cfg).dram();
  ASSERT_NE(dram, nullptr);
  dram->ArmFault({threshold, slab_base, 0x0001});
  const std::vector<Tensor<std::int16_t>> inputs{input};
  const std::vector<InferenceServer::TraceArrival> trace{{0.0, 0}};
  const auto replay = server.ServeTrace(h, inputs, trace);
  ASSERT_EQ(replay.items[0].outcome, ServeOutcome::kOk);
  EXPECT_EQ(replay.items[0].run.output, golden.output);
  // The fault did fire, so the clean output came from the retry.
  EXPECT_EQ(dram->injected_faults(), 1);
}

TEST(InferenceServerTest, IntegrityFailureWithoutRetryBudgetFailsClosed) {
  ServerFixture f;
  ServerOptions opts;
  opts.num_workers = 1;
  opts.max_batch = 1;
  opts.max_queue_delay_seconds = 0.0;
  opts.mode = ExecMode::kFunctional;
  opts.integrity_check = true;
  opts.max_execute_retries = 0;
  InferenceServer server(f.engine, opts);
  const ModelHandle h =
      server.RegisterModel(f.model, f.cfg, f.mapping, f.weights);

  const Compiler compiler(f.cfg, f.spec);
  const CompiledModel cm = compiler.Compile(f.model, f.mapping);
  Runtime ref(f.cfg, f.spec);
  const Tensor<std::int16_t> input = MakeInput(f.model.InputOf(0), 11);
  const RunReport golden = ref.Execute(f.model, cm, f.weights, input);
  const std::int64_t total =
      ref.dram()->words_read() + ref.dram()->words_written();
  const std::int64_t threshold = total - golden.output.elements() + 1;
  const std::int64_t slab_base = cm.output_region(f.model.num_layers() - 1);

  // Zero retry budget: the detected corruption is a terminal kFailed, never
  // a silently-served bad result, and the trace goes on: the second arrival
  // runs on the same runtime, clean again once the fault was consumed. One
  // functional run builds the engine Runtime's DRAM to arm.
  f.engine.RuntimeFor(f.cfg).Execute(f.model, cm, f.weights, input);
  DramModel* dram = f.engine.RuntimeFor(f.cfg).dram();
  ASSERT_NE(dram, nullptr);
  dram->ArmFault({threshold, slab_base, 0x0001});
  const std::vector<Tensor<std::int16_t>> inputs{input};
  const std::vector<InferenceServer::TraceArrival> trace{{0.0, 0}, {0.0, 0}};
  const auto replay = server.ServeTrace(h, inputs, trace);
  EXPECT_EQ(replay.items[0].outcome, ServeOutcome::kFailed);
  ASSERT_EQ(replay.items[1].outcome, ServeOutcome::kOk);
  EXPECT_EQ(replay.items[1].run.output, golden.output);
}

}  // namespace
}  // namespace hdnn
