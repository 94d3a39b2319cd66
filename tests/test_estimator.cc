#include <gtest/gtest.h>

#include "estimator/latency_model.h"
#include "estimator/resource_model.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"
#include "platform/power_model.h"
#include "platform/profile_constants.h"

namespace hdnn {
namespace {

AccelConfig Vu9pConfig() {
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 6;
  cfg.ni = 6;
  cfg.input_buffer_vectors = 16384;
  cfg.weight_buffer_vectors = 4608;
  cfg.output_buffer_vectors = 8192;
  return cfg;
}

AccelConfig PynqConfig() {
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 4;
  cfg.ni = 1;
  cfg.input_buffer_vectors = 8192;
  cfg.weight_buffer_vectors = 2304;
  cfg.output_buffer_vectors = 8192;
  return cfg;
}

// --- resource models at the paper's two design points (Table 3) ---

TEST(ResourceModelTest, Vu9pDspCloseToPaper) {
  const auto est = ImplementationResources(Vu9pConfig(), Vu9pSpec(),
                                           DefaultProfile());
  EXPECT_NEAR(est.dsps, 5163, 5163 * 0.01);  // paper: 5163
}

TEST(ResourceModelTest, PynqDspMatchesPaperExactly) {
  const auto est = ImplementationResources(PynqConfig(), PynqZ1Spec(),
                                           DefaultProfile());
  EXPECT_EQ(est.dsps, 220);  // paper: 220 (100% of the part)
}

TEST(ResourceModelTest, Vu9pLutCloseToPaper) {
  const auto est = ImplementationResources(Vu9pConfig(), Vu9pSpec(),
                                           DefaultProfile());
  EXPECT_NEAR(est.luts, 706353, 706353 * 0.03);  // paper: 706353
}

TEST(ResourceModelTest, PynqLutCloseToPaper) {
  const auto est = ImplementationResources(PynqConfig(), PynqZ1Spec(),
                                           DefaultProfile());
  EXPECT_NEAR(est.luts, 37034, 37034 * 0.05);  // paper: 37034
}

TEST(ResourceModelTest, Vu9pBramCloseToPaper) {
  const auto est = ImplementationResources(Vu9pConfig(), Vu9pSpec(),
                                           DefaultProfile());
  EXPECT_NEAR(est.bram18, 3169, 3169 * 0.10);  // paper: 3169
}

TEST(ResourceModelTest, PynqBramCloseToPaper) {
  const auto est = ImplementationResources(PynqConfig(), PynqZ1Spec(),
                                           DefaultProfile());
  EXPECT_NEAR(est.bram18, 277, 277 * 0.10);  // paper: 277
}

TEST(ResourceModelTest, AnalyticalTracksImplementationWithin15Percent) {
  // The Eq. 3-5 analytical model must be close enough to drive the DSE.
  for (const auto& [cfg, spec] :
       {std::pair{Vu9pConfig(), Vu9pSpec()},
        std::pair{PynqConfig(), PynqZ1Spec()}}) {
    const auto ana = AnalyticalResources(cfg, spec, DefaultProfile());
    const auto impl = ImplementationResources(cfg, spec, DefaultProfile());
    EXPECT_NEAR(ana.dsps, impl.dsps, impl.dsps * 0.15) << spec.name;
    EXPECT_NEAR(ana.luts, impl.luts, impl.luts * 0.15) << spec.name;
  }
}

TEST(ResourceModelTest, HybridLutOverheadMatches26Percent) {
  // Paper Sec. 6.1: hybrid support costs 26.4% extra LUTs, no extra DSPs.
  const auto hybrid = ImplementationResources(Vu9pConfig(), Vu9pSpec(),
                                              DefaultProfile(), true);
  const auto spatial = ImplementationResources(Vu9pConfig(), Vu9pSpec(),
                                               DefaultProfile(), false);
  const double overhead = hybrid.luts / spatial.luts - 1.0;
  EXPECT_NEAR(overhead, 0.264, 0.03);
  EXPECT_EQ(hybrid.dsps, spatial.dsps);
}

TEST(ResourceModelTest, ResourcesScaleWithParallelism) {
  AccelConfig small = PynqConfig();
  AccelConfig big = PynqConfig();
  big.pi = 8;
  const auto s = AnalyticalResources(small, PynqZ1Spec(), DefaultProfile());
  const auto b = AnalyticalResources(big, PynqZ1Spec(), DefaultProfile());
  EXPECT_GT(b.dsps, s.dsps);
  EXPECT_GT(b.luts, s.luts);
  EXPECT_GT(b.bram18, s.bram18);
}

TEST(ResourceModelTest, FitsPerDieRespectsDies) {
  AccelConfig cfg = Vu9pConfig();
  const auto est = ImplementationResources(cfg, Vu9pSpec(), DefaultProfile());
  EXPECT_TRUE(FitsDeviceLimits(est, Vu9pSpec()) &&
              FitsPerDie(est, cfg, Vu9pSpec()));
  // An instance bigger than a die must fail even if the total fits.
  ResourceEstimate monster = est;
  monster.dsps = Vu9pSpec().dsps_per_die() * 1.5;
  AccelConfig one = cfg;
  one.ni = 1;
  EXPECT_TRUE(FitsDeviceLimits(monster, Vu9pSpec()));
  EXPECT_FALSE(FitsPerDie(monster, one, Vu9pSpec()));
}

// --- power model (Table 4 measurement substitute) ---

TEST(PowerModelTest, CalibratedAtPaperDesignPoints) {
  const PowerModel pm;
  const ResourceUsage vu9p{706353, 5163, 3169};
  EXPECT_NEAR(pm.TotalWatts(Vu9pSpec(), vu9p), 45.9, 1.5);  // paper 45.9 W
  const ResourceUsage pynq{37034, 220, 277};
  EXPECT_NEAR(pm.TotalWatts(PynqZ1Spec(), pynq), 2.6, 0.2);  // paper 2.6 W
}

// --- partitioning (Sec. 4.2.4) ---

TEST(GroupsTest, SpatialGroupsAreRows) {
  const Model m = BuildSingleConv(16, 16, 32, 32, 3);
  const auto g = ComputeGroups(m.layer(0), m.InputOf(0), ConvMode::kSpatial,
                               PynqConfig());
  EXPECT_EQ(g.rows_per_group, 1);
  EXPECT_EQ(g.num_groups, 32);  // H groups
}

TEST(GroupsTest, WinogradGroupsAreMRows) {
  const Model m = BuildSingleConv(16, 16, 32, 32, 3);
  AccelConfig cfg = Vu9pConfig();  // m = 4
  const auto g =
      ComputeGroups(m.layer(0), m.InputOf(0), ConvMode::kWinograd, cfg);
  EXPECT_EQ(g.rows_per_group, 4);
  EXPECT_EQ(g.num_groups, 8);  // H/m groups
}

TEST(GroupsTest, PoolEnlargesGroups) {
  Model m("m", FmapShape{16, 32, 32});
  ConvLayer l;
  l.name = "l";
  l.in_channels = 16;
  l.out_channels = 16;
  l.pool = 2;
  m.Append(l);
  const auto g = ComputeGroups(m.layer(0), m.InputOf(0), ConvMode::kSpatial,
                               PynqConfig());
  EXPECT_EQ(g.rows_per_group, 2);  // pool window must stay in one group
}

TEST(GroupsTest, SlicesFollowKernelDecomposition) {
  const Model m = BuildSingleConv(8, 8, 16, 16, 5);
  const auto g = ComputeGroups(m.layer(0), m.InputOf(0), ConvMode::kWinograd,
                               PynqConfig());
  EXPECT_EQ(g.slices, 4);
}

TEST(GroupsTest, TinyBufferThrowsCapacityError) {
  const Model m = BuildSingleConv(512, 512, 224, 224, 3);
  AccelConfig cfg = PynqConfig();
  cfg.input_buffer_vectors = 8;
  EXPECT_THROW(
      ComputeGroups(m.layer(0), m.InputOf(0), ConvMode::kSpatial, cfg),
      CapacityError);
}

// --- latency model (Eqs. 6-15) ---

TEST(LatencyTest, WinogradComputeIsFasterFor3x3) {
  // Dimensions divisible by PI*PT = 24 and the m = 4 tile, so the Eq. 6/7
  // ratio is exactly the per-tile multiplication reduction.
  const Model m = BuildSingleConv(96, 96, 48, 48, 3);
  const auto spat =
      EstimateLayerLatency(m.layer(0), m.InputOf(0), ConvMode::kSpatial,
                           Dataflow::kInputStationary, Vu9pConfig(), Vu9pSpec());
  const auto wino =
      EstimateLayerLatency(m.layer(0), m.InputOf(0), ConvMode::kWinograd,
                           Dataflow::kInputStationary, Vu9pConfig(), Vu9pSpec());
  // Eq. 6 vs Eq. 7: 4x fewer compute cycles for F(4x4,3x3).
  EXPECT_NEAR(spat.t_cp / wino.t_cp, 4.0, 0.1);
  // Eq. 8 vs Eq. 9: Winograd loads 4x more weight data.
  EXPECT_NEAR(wino.t_ldw / spat.t_ldw, 4.0, 0.1);
}

TEST(LatencyTest, WinogradWeightTrafficFor5x5Is576Over25) {
  // Paper Sec. 5.2 example: 5x5 kernel => 2*2*36/25 = 5.76x load latency.
  const Model m = BuildSingleConv(32, 32, 28, 28, 5);
  const auto spat =
      EstimateLayerLatency(m.layer(0), m.InputOf(0), ConvMode::kSpatial,
                           Dataflow::kInputStationary, Vu9pConfig(), Vu9pSpec());
  const auto wino =
      EstimateLayerLatency(m.layer(0), m.InputOf(0), ConvMode::kWinograd,
                           Dataflow::kInputStationary, Vu9pConfig(), Vu9pSpec());
  EXPECT_NEAR(wino.t_ldw / spat.t_ldw, 5.76, 0.05);
}

TEST(LatencyTest, MemoryBoundWinogradLosesItsAdvantage) {
  // With tiny DRAM bandwidth the Winograd weight stream (4x more data for
  // PT=6, Eq. 9) dominates: comparing each mode's *best* dataflow, Spatial
  // wins (the paper's IoT discussion, Sec. 6.2).
  FpgaSpec starved = Vu9pSpec();
  starved.dram_bandwidth_gbps = 0.1;
  AccelConfig cfg = Vu9pConfig();
  cfg.ni = 1;
  const Model m = BuildSingleConv(128, 128, 14, 14, 3);
  auto best = [&](ConvMode mode) {
    const auto is =
        EstimateLayerLatency(m.layer(0), m.InputOf(0), mode,
                             Dataflow::kInputStationary, cfg, starved);
    const auto ws =
        EstimateLayerLatency(m.layer(0), m.InputOf(0), mode,
                             Dataflow::kWeightStationary, cfg, starved);
    return std::min(is.total, ws.total);
  };
  EXPECT_GT(best(ConvMode::kWinograd), best(ConvMode::kSpatial));
}

TEST(LatencyTest, IsPreferredForLargeFmapsWsForSmall) {
  // Paper Sec. 4.2.5: "IS prefers larger feature maps compared to WS".
  const AccelConfig cfg = PynqConfig();
  const FpgaSpec spec = PynqZ1Spec();
  const Model big = BuildSingleConv(64, 64, 112, 112, 3);
  const auto big_is =
      EstimateLayerLatency(big.layer(0), big.InputOf(0), ConvMode::kSpatial,
                           Dataflow::kInputStationary, cfg, spec);
  const auto big_ws =
      EstimateLayerLatency(big.layer(0), big.InputOf(0), ConvMode::kSpatial,
                           Dataflow::kWeightStationary, cfg, spec);
  EXPECT_LE(big_is.total, big_ws.total);

  const Model small = BuildSingleConv(512, 512, 7, 7, 3);
  const auto small_is =
      EstimateLayerLatency(small.layer(0), small.InputOf(0),
                           ConvMode::kSpatial, Dataflow::kInputStationary, cfg,
                           spec);
  const auto small_ws =
      EstimateLayerLatency(small.layer(0), small.InputOf(0),
                           ConvMode::kSpatial, Dataflow::kWeightStationary, cfg,
                           spec);
  EXPECT_LE(small_ws.total, small_is.total);
}

TEST(LatencyTest, TotalIsMaxPlusPenalty) {
  const Model m = BuildSingleConv(32, 32, 28, 28, 3);
  const auto lb =
      EstimateLayerLatency(m.layer(0), m.InputOf(0), ConvMode::kSpatial,
                           Dataflow::kInputStationary, PynqConfig(),
                           PynqZ1Spec());
  EXPECT_GE(lb.total, lb.t_cp);
  EXPECT_GE(lb.total, lb.t_sv);
  EXPECT_GT(lb.penalty, 0);
  EXPECT_LT(lb.penalty, lb.total);
}

TEST(LatencyTest, WinogradRequiresStride1) {
  const Model m = BuildSingleConv(8, 8, 16, 16, 3, 2);
  EXPECT_FALSE(WinogradApplicable(m.layer(0)));
  EXPECT_THROW(
      EstimateLayerLatency(m.layer(0), m.InputOf(0), ConvMode::kWinograd,
                           Dataflow::kInputStationary, PynqConfig(),
                           PynqZ1Spec()),
      InvalidArgument);
}

}  // namespace
}  // namespace hdnn
