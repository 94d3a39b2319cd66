#include "runtime/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

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

// --- inference engine ---

TEST(InferenceEngineTest, ProgramCacheHitsSkipRecompilation) {
  const Model model = BuildTinyCnn();
  const AccelConfig cfg = TestConfig();
  const auto mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);

  InferenceEngine engine(TestSpec());
  const auto p1 = engine.GetOrCompile(model, cfg, mapping);
  EXPECT_EQ(engine.cache_misses(), 1);
  EXPECT_EQ(engine.cache_hits(), 0);

  const auto p2 = engine.GetOrCompile(model, cfg, mapping);
  EXPECT_EQ(p1.get(), p2.get()) << "second lookup must reuse the program";
  EXPECT_EQ(engine.cache_misses(), 1);
  EXPECT_EQ(engine.cache_hits(), 1);

  // A different config is a different deployment: one more miss.
  AccelConfig other = cfg;
  other.pt = 6;
  const auto p3 = engine.GetOrCompile(model, other, mapping);
  EXPECT_NE(p1.get(), p3.get());
  EXPECT_EQ(engine.cache_misses(), 2);

  // A different mapping also re-keys the cache.
  const auto wino =
      UniformMapping(model, ConvMode::kWinograd, Dataflow::kInputStationary);
  engine.GetOrCompile(model, cfg, wino);
  EXPECT_EQ(engine.cache_misses(), 3);
  EXPECT_EQ(engine.cache_hits(), 1);
}

TEST(InferenceEngineTest, RuntimeForKeepsOneRuntimePerConfig) {
  InferenceEngine engine(TestSpec());
  const AccelConfig cfg = TestConfig();
  AccelConfig other = cfg;
  other.pt = 6;
  Runtime& first = engine.RuntimeFor(cfg);
  EXPECT_EQ(&engine.RuntimeFor(cfg), &first) << "built once, then reused";
  EXPECT_NE(&engine.RuntimeFor(other), &first) << "one Runtime per config";
  EXPECT_EQ(&engine.RuntimeFor(cfg), &first)
      << "a second config does not displace the first";
}

TEST(InferenceEngineTest, RejectsAnyWorkerCountButOne) {
  EXPECT_THROW(InferenceEngine(TestSpec(), 0), InvalidArgument);
  EXPECT_THROW(InferenceEngine(TestSpec(), 2), InvalidArgument);
  EXPECT_NO_THROW(InferenceEngine(TestSpec(), 1));
}

// Serving a residual network: the compiled-program cache, the engine's
// Runtime and the SAVE_RES fused add must compose — every served item must
// equal both a sequential Runtime::Execute and the graph-aware golden
// forward.
TEST(InferenceEngineTest, ResidualNetworkBatchMatchesSequentialAndGolden) {
  const Model model = BuildTinyResidualBlock();
  const AccelConfig cfg = TestConfig();
  std::vector<LayerMapping> mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  mapping[0].mode = ConvMode::kWinograd;  // stem is stride-1
  const ModelWeightsQ weights = SyntheticWeights(model, 21);
  const auto batch = MakeBatch(model, 6, 500);

  InferenceEngine engine(TestSpec());
  ServerOptions opts;
  opts.num_workers = 3;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0;
  InferenceServer server(engine, opts);
  const ModelHandle h = server.RegisterModel(model, cfg, mapping, weights);
  std::vector<InferenceServer::TraceArrival> trace;
  for (int i = 0; i < static_cast<int>(batch.size()); ++i) {
    trace.push_back({0.0, i});
  }
  const auto report = server.ServeTrace(h, batch, trace);
  ASSERT_EQ(report.items.size(), batch.size());

  const Compiler compiler(cfg, TestSpec());
  const CompiledModel cm = compiler.Compile(model, mapping);
  Runtime runtime(cfg, TestSpec());
  std::vector<LayerMapping> effective;
  for (const LayerPlan& plan : cm.plans) effective.push_back(plan.mapping);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(report.items[i].outcome, ServeOutcome::kOk) << "item " << i;
    const RunReport seq = runtime.Execute(model, cm, weights, batch[i]);
    EXPECT_EQ(report.items[i].run.output, seq.output) << "item " << i;
    const Tensor<std::int16_t> golden = testing::GoldenForward(
        model, weights, batch[i], effective, cfg, cm.base_shift);
    EXPECT_EQ(report.items[i].run.output, golden) << "item " << i;
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
  // changes — update AccelConfigHashValue in engine.cc (which CacheKeyHash
  // mixes in) AND the mutation list below, then adjust the expected size.
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

  InferenceEngine engine(TestSpec());
  engine.GetOrCompile(model, base, mapping);
  EXPECT_EQ(engine.cache_misses(), 1);

  std::int64_t expected_misses = 1;
  for (const auto& [field, cfg] : mutations) {
    SCOPED_TRACE(field);
    ASSERT_FALSE(cfg == base) << "mutation did not change the config";
    engine.GetOrCompile(model, cfg, mapping);
    EXPECT_EQ(engine.cache_misses(), ++expected_misses)
        << "config differing in '" << field
        << "' collided with the base cache entry";
    // The same mutated deployment must now be served from the cache (the
    // key is stable, not merely unequal).
    engine.GetOrCompile(model, cfg, mapping);
    EXPECT_EQ(engine.cache_misses(), expected_misses)
        << "re-lookup of '" << field << "' mutation missed";
  }
  EXPECT_EQ(engine.cache_hits(),
            static_cast<std::int64_t>(mutations.size()));
}

TEST(InferenceEngineTest, ServersSharingAnEngineRunOnItsOneRuntime) {
  // Two servers share one engine — and therefore the engine's one Runtime
  // for the config, with its resident weight image. Many interleaved
  // ServeTraces through both must stay bit-identical to sequential
  // execution, and each must run on engine.RuntimeFor(cfg): server A
  // checks integrity and server B does not, so the shared Runtime's flag
  // and each item's report show whose trace ran on it.
  Model model = BuildTinyCnn();
  const AccelConfig cfg = TestConfig();
  auto mapping =
      UniformMapping(model, ConvMode::kSpatial, Dataflow::kInputStationary);
  ModelWeightsQ weights = SyntheticWeights(model, 7);
  InferenceEngine engine(TestSpec());

  constexpr int kItems = 24;
  const auto inputs = MakeBatch(model, kItems, 11);
  const auto cm = engine.GetOrCompile(model, cfg, mapping);
  Runtime sequential(cfg, TestSpec());  // not the engine's
  std::vector<RunReport> golden;
  for (const auto& input : inputs) {
    golden.push_back(sequential.Execute(model, *cm, weights, input));
  }

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 3;
  opts.max_queue_delay_seconds = 0;  // dispatch as soon as a drainer frees
  opts.mode = ExecMode::kFunctional;
  ServerOptions checked = opts;
  checked.integrity_check = true;
  InferenceServer server_a(engine, checked);
  InferenceServer server_b(engine, opts);
  const ModelHandle ha = server_a.RegisterModel(model, cfg, mapping, weights);
  const ModelHandle hb = server_b.RegisterModel(model, cfg, mapping, weights);
  Runtime& shared = engine.RuntimeFor(cfg);
  std::vector<InferenceServer::TraceArrival> trace;
  for (int i = 0; i < kItems; ++i) trace.push_back({0.0, i});

  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    const auto ra = server_a.ServeTrace(ha, inputs, trace);
    EXPECT_TRUE(shared.integrity_check()) << "server A ran on the shared one";
    const auto rb = server_b.ServeTrace(hb, inputs, trace);
    EXPECT_FALSE(shared.integrity_check()) << "server B ran on the shared one";
    for (std::size_t i = 0; i < trace.size(); ++i) {
      ASSERT_EQ(ra.items[i].outcome, ServeOutcome::kOk);
      ASSERT_EQ(rb.items[i].outcome, ServeOutcome::kOk);
      EXPECT_TRUE(ra.items[i].run.integrity_checked);
      EXPECT_FALSE(rb.items[i].run.integrity_checked);
      EXPECT_EQ(ra.items[i].run.output, golden[i].output)
          << "server A round " << round << " item " << i;
      EXPECT_EQ(rb.items[i].run.output, golden[i].output)
          << "server B round " << round << " item " << i;
      EXPECT_EQ(ra.items[i].run.stats.total_cycles,
                golden[i].stats.total_cycles);
    }
  }
  EXPECT_EQ(&engine.RuntimeFor(cfg), &shared);
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
