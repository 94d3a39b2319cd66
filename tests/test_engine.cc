#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "nn/builders.h"
#include "runtime/runtime.h"
#include "runtime/server.h"
#include "tests/testing_util.h"

namespace hdnn {
namespace {

using testing::MakeInput;
using testing::TestConfig;
using testing::TestSpec;

std::vector<Tensor<std::int16_t>> MakeBatch(const Model& model, int n,
                                            std::uint64_t seed) {
  std::vector<Tensor<std::int16_t>> batch;
  batch.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    batch.push_back(
        MakeInput(model.InputOf(0), seed + static_cast<std::uint64_t>(i)));
  }
  return batch;
}

std::vector<LayerMapping> UniformMapping(const Model& model, ConvMode mode,
                                         Dataflow flow) {
  return std::vector<LayerMapping>(
      static_cast<std::size_t>(model.num_layers()), LayerMapping{mode, flow});
}

// --- thread pool ---

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.Submit([i] { return i * i; }));
  }
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expect = 0;
  for (int i = 0; i < 64; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto f = pool.Submit([]() -> int { throw InvalidArgument("boom"); });
  EXPECT_THROW(f.get(), InvalidArgument);
}

TEST(ThreadPoolTest, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadPool(0), InvalidArgument);
  EXPECT_THROW(ThreadPool(-3), InvalidArgument);
}

// --- inference engine ---

TEST(InferenceEngineTest, BatchBitIdenticalToSequentialExecute) {
  const Model model = BuildTinyCnn();
  const AccelConfig cfg = TestConfig();
  const FpgaSpec spec = TestSpec();
  const auto mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  const ModelWeightsQ weights = SyntheticWeights(model, 7);
  const auto batch = MakeBatch(model, 6, 100);

  InferenceEngine engine(spec, 3);
  const BatchReport report =
      engine.ExecuteBatch(model, cfg, mapping, weights, batch);
  ASSERT_EQ(report.items.size(), batch.size());

  // Sequential reference through the plain single-shot runtime.
  const Compiler compiler(cfg, spec);
  const CompiledModel compiled = compiler.Compile(model, mapping);
  Runtime runtime(cfg, spec);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const RunReport seq =
        runtime.Execute(model, compiled, weights, batch[i]);
    EXPECT_EQ(report.items[i].output, seq.output) << "item " << i;
    EXPECT_EQ(report.items[i].stats.total_cycles, seq.stats.total_cycles)
        << "item " << i;
  }
}

TEST(InferenceEngineTest, ProgramCacheHitsSkipRecompilation) {
  const Model model = BuildTinyCnn();
  const AccelConfig cfg = TestConfig();
  const auto mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  const ModelWeightsQ weights = SyntheticWeights(model, 7);
  const auto batch = MakeBatch(model, 2, 5);

  InferenceEngine engine(TestSpec(), 2);
  const auto p1 = engine.GetOrCompile(model, cfg, mapping);
  EXPECT_EQ(engine.cache_misses(), 1);
  EXPECT_EQ(engine.cache_hits(), 0);

  const auto p2 = engine.GetOrCompile(model, cfg, mapping);
  EXPECT_EQ(p1.get(), p2.get()) << "second lookup must reuse the program";
  EXPECT_EQ(engine.cache_misses(), 1);
  EXPECT_EQ(engine.cache_hits(), 1);

  const BatchReport first =
      engine.ExecuteBatch(model, cfg, mapping, weights, batch);
  EXPECT_TRUE(first.cache_hit);
  EXPECT_EQ(engine.cache_misses(), 1) << "ExecuteBatch must not recompile";
  EXPECT_EQ(engine.cache_size(), 1u);

  // A different config is a different deployment: one more miss.
  AccelConfig other = cfg;
  other.pt = 6;
  engine.ExecuteBatch(model, other, mapping, weights, batch);
  EXPECT_EQ(engine.cache_misses(), 2);
  EXPECT_EQ(engine.cache_size(), 2u);

  // A different mapping also re-keys the cache.
  const auto wino =
      UniformMapping(model, ConvMode::kWinograd, Dataflow::kInputStationary);
  engine.GetOrCompile(model, cfg, wino);
  EXPECT_EQ(engine.cache_misses(), 3);
}

TEST(InferenceEngineTest, FourWorkerRunIsDeterministicAcrossRepeats) {
  const Model model = BuildTinyCnn();
  const AccelConfig cfg = TestConfig();
  const auto mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  const ModelWeightsQ weights = SyntheticWeights(model, 9);
  const auto batch = MakeBatch(model, 9, 40);  // deliberately not % 4 == 0

  InferenceEngine engine(TestSpec(), 4);
  const BatchReport a = engine.ExecuteBatch(model, cfg, mapping, weights, batch);
  const BatchReport b = engine.ExecuteBatch(model, cfg, mapping, weights, batch);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].output, b.items[i].output) << "item " << i;
    EXPECT_EQ(a.items[i].stats.total_cycles, b.items[i].stats.total_cycles);
  }
  EXPECT_EQ(a.sim_makespan_seconds, b.sim_makespan_seconds);
  EXPECT_EQ(a.aggregate_effective_gops, b.aggregate_effective_gops);
}

TEST(InferenceEngineTest, AggregateThroughputScalesWithWorkerInstances) {
  const Model model = BuildTinyCnn();
  const AccelConfig cfg = TestConfig();
  const auto mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  const ModelWeightsQ weights = SyntheticWeights(model, 7);
  const auto batch = MakeBatch(model, 8, 70);

  InferenceEngine one(TestSpec(), 1);
  InferenceEngine four(TestSpec(), 4);
  const BatchReport r1 = one.ExecuteBatch(model, cfg, mapping, weights, batch);
  const BatchReport r4 = four.ExecuteBatch(model, cfg, mapping, weights, batch);

  // Identical per-item simulated latency; 4 share-nothing instances cut the
  // batch makespan 4x exactly (8 equal items, round-robin 2 per worker).
  EXPECT_GT(r1.sim_makespan_seconds, 0);
  EXPECT_NEAR(r4.sim_makespan_seconds, r1.sim_makespan_seconds / 4,
              r1.sim_makespan_seconds * 1e-9);
  EXPECT_GT(r4.aggregate_effective_gops,
            1.8 * r1.aggregate_effective_gops);
}

// Batch serving of a residual network: the compiled-program cache, the
// share-nothing workers and the SAVE_RES fused add must compose — every
// batch item must equal both a sequential Runtime::Execute and the
// graph-aware golden forward.
TEST(InferenceEngineTest, ResidualNetworkBatchMatchesSequentialAndGolden) {
  const Model model = BuildTinyResidualBlock();
  const AccelConfig cfg = TestConfig();
  std::vector<LayerMapping> mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  mapping[0].mode = ConvMode::kWinograd;  // stem is stride-1
  const ModelWeightsQ weights = SyntheticWeights(model, 21);
  const auto batch = MakeBatch(model, 6, 500);

  InferenceEngine engine(TestSpec(), 3);
  const BatchReport report =
      engine.ExecuteBatch(model, cfg, mapping, weights, batch);
  ASSERT_EQ(report.items.size(), batch.size());

  const Compiler compiler(cfg, TestSpec());
  const CompiledModel cm = compiler.Compile(model, mapping);
  Runtime runtime(cfg, TestSpec());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const RunReport seq = runtime.Execute(model, cm, weights, batch[i]);
    EXPECT_EQ(report.items[i].output, seq.output) << "item " << i;
    std::vector<LayerMapping> effective;
    for (const LayerPlan& plan : cm.plans) effective.push_back(plan.mapping);
    const Tensor<std::int16_t> golden = testing::GoldenForward(
        model, weights, batch[i], effective, cfg, cm.base_shift);
    EXPECT_EQ(report.items[i].output, golden) << "item " << i;
  }
}

// Two models with identical layer stacks but different wiring must never
// share a compiled program: the structural hash covers the graph edges.
TEST(ModelStructuralHashTest, DistinguishesGraphEdges) {
  auto build = [](bool with_add) {
    Model m("m", FmapShape{4, 8, 8});
    ConvLayer a;
    a.name = "a";
    a.in_channels = 4;
    a.out_channels = 8;
    m.Append(a);
    ConvLayer b;
    b.name = "b";
    b.in_channels = 8;
    b.out_channels = 8;
    m.Append(b);
    ConvLayer c;
    c.name = "c";
    c.in_channels = 8;
    c.out_channels = 8;
    if (with_add) c.add = "a";
    m.Append(c);
    return m;
  };
  const Model chain = build(false);
  const Model skip = build(true);
  const auto mapping =
      UniformMapping(chain, ConvMode::kSpatial, Dataflow::kInputStationary);
  EXPECT_NE(ModelStructuralHash(chain, mapping),
            ModelStructuralHash(skip, mapping));

  // Different `from` wiring with identical layer fields also separates.
  Model branch("m", FmapShape{4, 8, 8});
  ConvLayer a;
  a.name = "a";
  a.in_channels = 4;
  a.out_channels = 4;
  branch.Append(a);
  ConvLayer b = a;
  b.name = "b";
  branch.Append(b);
  Model branch2 = branch;
  ConvLayer c = a;
  c.name = "c";
  branch.Append(c);          // from previous (b)
  ConvLayer c2 = c;
  c2.from = "a";
  branch2.Append(c2);        // from a
  // The from string differs, and so does the resolved edge — but the hash
  // must differ even though per-layer geometry fields are identical.
  EXPECT_NE(ModelStructuralHash(branch, mapping),
            ModelStructuralHash(branch2, mapping));
}

TEST(InferenceEngineTest, EmptyBatchIsANoOp) {
  const Model model = BuildTinyCnn();
  const AccelConfig cfg = TestConfig();
  const auto mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  InferenceEngine engine(TestSpec(), 2);
  const BatchReport report = engine.ExecuteBatch(
      model, cfg, mapping, SyntheticWeights(model, 7), {});
  EXPECT_TRUE(report.items.empty());
  EXPECT_EQ(report.sim_makespan_seconds, 0);
}

// --- program-cache key audit ---
//
// Every AccelConfig field affects compilation (tiling, buffer budgets,
// quantisation, instance bandwidth share), so two deployments differing in
// ANY field must occupy distinct cache entries. This audit exercises the
// private CacheKey equality + CacheKeyHash through the engine: for each
// field, a mutated config must produce a fresh cache miss, never a hit on
// the base entry.
TEST(InferenceEngineTest, CacheKeyCoversEveryAccelConfigField) {
  // Compile-time tripwire: if AccelConfig grows a field, this sizeof
  // changes — update AccelConfigHashValue in runtime_pool.cc (which
  // CacheKeyHash mixes in) AND the mutation list below, then adjust the
  // expected size.
  static_assert(sizeof(AccelConfig) == 9 * sizeof(int),
                "AccelConfig changed: audit AccelConfigHashValue "
                "and this test's mutation list");

  const Model model = BuildTinyCnn();
  const auto mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);

  // One mutation per field, each keeping the config valid and compilable
  // for the tiny model.
  const AccelConfig base = TestConfig();
  std::vector<std::pair<const char*, AccelConfig>> mutations;
  {
    AccelConfig c = base;
    c.pi = 8;
    mutations.emplace_back("pi", c);
  }
  {
    AccelConfig c = base;
    c.pi = 8;
    c.po = 8;
    mutations.emplace_back("po", c);
  }
  {
    AccelConfig c = base;
    c.pt = 6;
    mutations.emplace_back("pt", c);
  }
  {
    AccelConfig c = base;
    c.ni = 2;
    mutations.emplace_back("ni", c);
  }
  {
    AccelConfig c = base;
    c.data_width = 10;
    mutations.emplace_back("data_width", c);
  }
  {
    AccelConfig c = base;
    c.wgt_width = 6;
    mutations.emplace_back("wgt_width", c);
  }
  {
    AccelConfig c = base;
    c.input_buffer_vectors /= 2;
    mutations.emplace_back("input_buffer_vectors", c);
  }
  {
    AccelConfig c = base;
    c.weight_buffer_vectors /= 2;
    mutations.emplace_back("weight_buffer_vectors", c);
  }
  {
    AccelConfig c = base;
    c.output_buffer_vectors /= 2;
    mutations.emplace_back("output_buffer_vectors", c);
  }
  ASSERT_EQ(mutations.size(), 9u) << "one mutation per AccelConfig field";

  InferenceEngine engine(TestSpec(), 1);
  bool hit = true;
  engine.GetOrCompile(model, base, mapping, &hit);
  EXPECT_FALSE(hit);

  std::int64_t expected_misses = 1;
  for (const auto& [field, cfg] : mutations) {
    SCOPED_TRACE(field);
    ASSERT_FALSE(cfg == base) << "mutation did not change the config";
    engine.GetOrCompile(model, cfg, mapping, &hit);
    EXPECT_FALSE(hit) << "config differing in '" << field
                      << "' collided with the base cache entry";
    EXPECT_EQ(engine.cache_misses(), ++expected_misses);
    // The same mutated deployment must now be served from the cache (the
    // key is stable, not merely unequal).
    engine.GetOrCompile(model, cfg, mapping, &hit);
    EXPECT_TRUE(hit) << "re-lookup of '" << field << "' mutation missed";
  }
  EXPECT_EQ(engine.cache_size(), 1u + mutations.size());
}

// N client threads hammering ONE engine with distinct models: with the
// engine-wide batch lock gone (runtime-pool checkout + per-call leases),
// every thread's results must still be bit-identical to a sequential run of
// its own model, and the shared program cache must account exactly one miss
// per distinct deployment no matter how the threads interleave.
TEST(InferenceEngineTest, ConcurrentCallersWithDistinctModelsStayIsolated) {
  const FpgaSpec spec = TestSpec();
  const AccelConfig cfg = TestConfig();

  struct Client {
    Model model;
    std::vector<LayerMapping> mapping;
    ModelWeightsQ weights;
    std::vector<Tensor<std::int16_t>> batch;
  };
  std::vector<Client> clients;
  {
    Client a{BuildTinyCnn(), {}, {}, {}};
    a.mapping =
        UniformMapping(a.model, ConvMode::kSpatial, Dataflow::kInputStationary);
    a.weights = SyntheticWeights(a.model, 7);
    a.batch = MakeBatch(a.model, 5, 100);
    clients.push_back(std::move(a));

    Client b{BuildTinyResidualBlock(), {}, {}, {}};
    b.mapping =
        UniformMapping(b.model, ConvMode::kSpatial, Dataflow::kInputStationary);
    b.weights = SyntheticWeights(b.model, 21);
    b.batch = MakeBatch(b.model, 5, 200);
    clients.push_back(std::move(b));

    Client c{BuildTinyCnn(), {}, {}, {}};
    c.mapping =
        UniformMapping(c.model, ConvMode::kWinograd, Dataflow::kInputStationary);
    c.weights = SyntheticWeights(c.model, 7);
    c.batch = MakeBatch(c.model, 5, 300);
    clients.push_back(std::move(c));
  }

  InferenceEngine engine(spec, 2);
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  std::vector<std::vector<BatchReport>> reports(clients.size());
  for (std::size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        const Client& cl = clients[t];
        reports[t].push_back(engine.ExecuteBatch(cl.model, cfg, cl.mapping,
                                                 cl.weights, cl.batch));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // One miss per distinct deployment; every other lookup hit the cache.
  EXPECT_EQ(engine.cache_misses(), static_cast<std::int64_t>(clients.size()));
  EXPECT_EQ(engine.cache_size(), clients.size());
  EXPECT_EQ(engine.cache_hits(),
            static_cast<std::int64_t>(clients.size() * kRounds) -
                engine.cache_misses());

  // Each client's outputs match a private sequential run of its model.
  for (std::size_t t = 0; t < clients.size(); ++t) {
    const Client& cl = clients[t];
    const Compiler compiler(cfg, spec);
    const CompiledModel cm = compiler.Compile(cl.model, cl.mapping);
    Runtime runtime(cfg, spec);
    std::vector<RunReport> seq;
    for (const auto& input : cl.batch) {
      seq.push_back(runtime.Execute(cl.model, cm, cl.weights, input));
    }
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_EQ(reports[t][static_cast<std::size_t>(r)].items.size(),
                cl.batch.size());
      for (std::size_t i = 0; i < cl.batch.size(); ++i) {
        const RunReport& item =
            reports[t][static_cast<std::size_t>(r)].items[i];
        EXPECT_EQ(item.output, seq[i].output)
            << "client " << t << " round " << r << " item " << i;
        EXPECT_EQ(item.stats.total_cycles, seq[i].stats.total_cycles)
            << "client " << t << " round " << r << " item " << i;
      }
    }
  }
}

TEST(RuntimePoolTest, CheckoutReusesIdleRuntimesPerConfig) {
  RuntimePool pool(TestSpec());
  const AccelConfig base = TestConfig();
  AccelConfig other = base;
  other.pt = 6;

  {
    RuntimePool::Lease a = pool.Checkout(base);
    RuntimePool::Lease b = pool.Checkout(base);
    RuntimePool::Lease c = pool.Checkout(other);
    EXPECT_EQ(pool.built_count(), 3u);
    EXPECT_EQ(pool.idle_count(), 0u);
  }
  EXPECT_EQ(pool.idle_count(), 3u) << "leases return runtimes on destruction";

  {
    RuntimePool::Lease a = pool.Checkout(base);
    RuntimePool::Lease b = pool.Checkout(other);
    EXPECT_EQ(pool.built_count(), 3u) << "idle runtimes are reused, not rebuilt";
    EXPECT_EQ(pool.idle_count(), 1u);
  }
  EXPECT_EQ(pool.idle_count(), 3u);
}

TEST(RuntimePoolTest, ServersSharingAnEngineReuseOnePooledRuntime) {
  // Two servers share one engine — and therefore one RuntimePool. Many
  // interleaved ServeTraces through both must stay bit-identical to
  // sequential execution, and each trace must check the one idle Runtime
  // out again (weight image resident) instead of building its own.
  Model model = BuildTinyCnn();
  const AccelConfig cfg = TestConfig();
  auto mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  ModelWeightsQ weights = SyntheticWeights(model, 7);
  InferenceEngine engine(TestSpec(), /*num_workers=*/2);

  constexpr int kItems = 24;
  const auto inputs = MakeBatch(model, kItems, 11);
  const auto cm = engine.GetOrCompile(model, cfg, mapping);
  Runtime sequential(cfg, TestSpec());  // outside the pool
  std::vector<RunReport> golden;
  for (const auto& input : inputs) {
    golden.push_back(sequential.Execute(model, *cm, weights, input));
  }

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 3;
  opts.max_queue_delay_seconds = 0;  // dispatch as soon as a drainer frees
  opts.mode = ExecMode::kFunctional;
  InferenceServer server_a(engine, opts);
  InferenceServer server_b(engine, opts);
  const ModelHandle ha = server_a.RegisterModel(model, cfg, mapping, weights);
  const ModelHandle hb = server_b.RegisterModel(model, cfg, mapping, weights);
  std::vector<InferenceServer::TraceArrival> trace;
  for (int i = 0; i < kItems; ++i) trace.push_back({0.0, i});

  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    const auto ra = server_a.ServeTrace(ha, inputs, trace);
    const auto rb = server_b.ServeTrace(hb, inputs, trace);
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(ra.items[i].outcome, ServeOutcome::kOk);
      ASSERT_EQ(rb.items[i].outcome, ServeOutcome::kOk);
      EXPECT_EQ(ra.items[i].run.output, golden[i].output)
          << "server A round " << round << " item " << i;
      EXPECT_EQ(rb.items[i].run.output, golden[i].output)
          << "server B round " << round << " item " << i;
      EXPECT_EQ(ra.items[i].run.stats.total_cycles,
                golden[i].stats.total_cycles);
    }
  }
  EXPECT_EQ(engine.runtime_pool().built_count(), 1)
      << "every registration and trace must reuse the one idle Runtime";
}

TEST(InferenceEngineTest, StructuralHashIgnoresNameButNotGeometry) {
  Model a("net_a", FmapShape{3, 8, 8});
  Model b("net_b", FmapShape{3, 8, 8});
  ConvLayer layer;
  layer.name = "c1";
  layer.in_channels = 3;
  layer.out_channels = 4;
  a.Append(layer);
  layer.name = "other_name";
  b.Append(layer);
  const std::vector<LayerMapping> mapping(1);
  EXPECT_EQ(ModelStructuralHash(a, mapping), ModelStructuralHash(b, mapping));

  Model c("net_c", FmapShape{3, 8, 8});
  layer.out_channels = 8;
  c.Append(layer);
  EXPECT_NE(ModelStructuralHash(a, mapping), ModelStructuralHash(c, mapping));

  std::vector<LayerMapping> wino(1);
  wino[0].mode = ConvMode::kWinograd;
  EXPECT_NE(ModelStructuralHash(a, mapping), ModelStructuralHash(a, wino));
}

}  // namespace
}  // namespace hdnn
