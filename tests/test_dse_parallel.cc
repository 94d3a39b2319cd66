// The memoized, multi-objective DSE subsystem:
//   * Explore returns ExploreFrontier's best point;
//   * Pareto properties — no frontier point dominates another, every point
//     fits its platform, and the frontier contains the legacy single-
//     objective winner on both paper platforms;
//   * memo-cache correctness — warm (cached), cold and uncached results
//     are bit-identical on both paper platforms for {VGG16 conv, full
//     VGG16, ResNet-18 with residuals}, and the cache actually gets hits.
#include <gtest/gtest.h>

#include "dse/search.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"

namespace hdnn {
namespace {

void ExpectSameResult(const DseResult& a, const DseResult& b) {
  EXPECT_EQ(a.config, b.config);
  EXPECT_EQ(a.mapping, b.mapping);
  EXPECT_EQ(a.estimated_cycles, b.estimated_cycles);  // bit-exact
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.power_watts, b.power_watts);
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
}

void ExpectSameFrontier(const DseFrontier& a, const DseFrontier& b) {
  ExpectSameResult(a.best, b.best);
  EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    const ParetoPoint& pa = a.points[i];
    const ParetoPoint& pb = b.points[i];
    EXPECT_EQ(pa.config, pb.config) << "point " << i;
    EXPECT_EQ(pa.mapping, pb.mapping) << "point " << i;
    EXPECT_EQ(pa.estimated_cycles, pb.estimated_cycles) << "point " << i;
    EXPECT_EQ(pa.objective, pb.objective) << "point " << i;
    EXPECT_EQ(pa.lut_utilization, pb.lut_utilization) << "point " << i;
    EXPECT_EQ(pa.dsp_utilization, pb.dsp_utilization) << "point " << i;
    EXPECT_EQ(pa.bram_utilization, pb.bram_utilization) << "point " << i;
    EXPECT_EQ(pa.power_watts, pb.power_watts) << "point " << i;
  }
}

TEST(DseParallelTest, ExploreMatchesFrontierBest) {
  const DseEngine engine(Vu9pSpec());
  const DseResult best = engine.Explore(BuildTinyCnn());
  const DseFrontier frontier = engine.ExploreFrontier(BuildTinyCnn());
  ExpectSameResult(best, frontier.best);
}

TEST(DseParallelTest, FrontierHasNoDominatedPoint) {
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseFrontier f =
        DseEngine(*spec).ExploreFrontier(BuildVgg16ConvOnly());
    ASSERT_FALSE(f.points.empty()) << spec->name;
    for (std::size_t i = 0; i < f.points.size(); ++i) {
      for (std::size_t j = 0; j < f.points.size(); ++j) {
        if (i == j) continue;
        EXPECT_FALSE(Dominates(f.points[i], f.points[j]))
            << spec->name << ": point " << i << " ("
            << f.points[i].config.ToString() << ") dominates point " << j
            << " (" << f.points[j].config.ToString() << ")";
      }
    }
  }
}

TEST(DseParallelTest, FrontierPointsAreFeasibleAndSorted) {
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseFrontier f =
        DseEngine(*spec).ExploreFrontier(BuildVgg16ConvOnly());
    for (std::size_t i = 0; i < f.points.size(); ++i) {
      const ParetoPoint& p = f.points[i];
      EXPECT_NO_THROW(p.config.Validate());
      EXPECT_TRUE(FitsDeviceLimits(p.implementation, *spec))
          << p.config.ToString();
      EXPECT_TRUE(FitsPerDie(p.implementation, p.config, *spec))
          << p.config.ToString();
      EXPECT_GT(p.power_watts, 0);
      if (i > 0) {
        EXPECT_GE(p.objective, f.points[i - 1].objective) << "sort order";
      }
    }
  }
}

TEST(DseParallelTest, FrontierContainsLegacyWinner) {
  // Acceptance: multi-objective search must not lose the best-throughput
  // design — the paper's published config stays on the frontier for both
  // evaluation platforms.
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseEngine engine(*spec);
    const DseFrontier f = engine.ExploreFrontier(BuildVgg16ConvOnly());
    bool found = false;
    for (const ParetoPoint& p : f.points) {
      if (p.config == f.best.config) {
        found = true;
        EXPECT_EQ(p.estimated_cycles, f.best.estimated_cycles);
        EXPECT_EQ(p.mapping, f.best.mapping);
      }
    }
    EXPECT_TRUE(found) << spec->name
                       << ": legacy winner missing from the frontier";
  }
}

// The reference every memoized result must reproduce bit for bit: a fresh
// engine with memoization off, which never consults its cache.
DseFrontier ExploreUncached(const FpgaSpec& spec, const Model& model) {
  DseOptions opts;
  opts.use_memo = false;
  DseEngine engine(spec);
  const DseFrontier f = engine.ExploreFrontier(model, opts);
  EXPECT_EQ(engine.cache_stats().hits + engine.cache_stats().misses, 0);
  return f;
}

DseOptions MemoOptions() {
  DseOptions opts;
  opts.use_memo = true;
  return opts;
}

TEST(DseParallelTest, MemoCacheWarmVsColdIdentical) {
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    for (const Model& model : {BuildResNet18Style(), BuildResNet18()}) {
      SCOPED_TRACE(::testing::Message() << spec->name << " " << model.name());
      DseEngine engine(*spec);
      const DseFrontier cold = engine.ExploreFrontier(model, MemoOptions());
      EXPECT_GT(engine.cache_stats().misses, 0);
      // ResNet stages repeat layer geometries, so even a cold exploration
      // hits.
      const auto after_cold = engine.cache_stats();
      EXPECT_GT(after_cold.hits, 0);

      // The per-layer memo answers a re-exploration: every query hits, and
      // no Eq. 12-15 evaluation runs again.
      const DseFrontier warm = engine.ExploreFrontier(model, MemoOptions());
      EXPECT_GT(engine.cache_stats().hits, after_cold.hits);
      EXPECT_EQ(engine.cache_stats().misses, after_cold.misses);
      ExpectSameFrontier(cold, warm);
      ExpectSameFrontier(ExploreUncached(*spec, model), cold);
    }
  }
}

TEST(DseParallelTest, MemoCacheSharesLayersAcrossModels) {
  // One engine per platform explores the model family in turn, as a
  // portfolio service would: vgg16_full extends vgg16_conv, so the full
  // model's conv layers are pure cache hits. Every shared-cache result
  // must match the uncached reference.
  const Model vgg_conv = BuildVgg16ConvOnly();
  const Model vgg_full = BuildVgg16();
  const Model resnet = BuildResNet18();
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    SCOPED_TRACE(spec->name);
    DseEngine engine(*spec);
    ExpectSameFrontier(ExploreUncached(*spec, vgg_conv),
                       engine.ExploreFrontier(vgg_conv, MemoOptions()));
    const auto before = engine.cache_stats();
    const DseFrontier full = engine.ExploreFrontier(vgg_full, MemoOptions());
    EXPECT_GT(engine.cache_stats().hits, before.hits);
    ExpectSameFrontier(ExploreUncached(*spec, vgg_full), full);
    ExpectSameFrontier(ExploreUncached(*spec, resnet),
                       engine.ExploreFrontier(resnet, MemoOptions()));
  }
}

TEST(DseParallelTest, ResNetStyleExploresOnBothPlatforms) {
  // The new workload (1x1/3x3/7x7 kernels, stride-2 downsampling) must be
  // schedulable end-to-end on both paper platforms, with the stride-2
  // layers mapped to Spatial mode (Winograd requires stride 1).
  const Model model = BuildResNet18Style();
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseResult r = DseEngine(*spec).Explore(model);
    ASSERT_EQ(static_cast<int>(r.mapping.size()), model.num_layers());
    for (int i = 0; i < model.num_layers(); ++i) {
      if (model.layer(i).stride > 1) {
        EXPECT_EQ(r.mapping[static_cast<std::size_t>(i)].mode,
                  ConvMode::kSpatial)
            << spec->name << " layer " << model.layer(i).name;
      }
    }
  }
}

}  // namespace
}  // namespace hdnn
