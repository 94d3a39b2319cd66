#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dse/search.h"
#include "frontend/parser.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"

namespace hdnn {
namespace {

TEST(DseCandidatesTest, AllCandidatesSatisfyConstraints) {
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseEngine dse(*spec);
    const auto candidates = dse.EnumerateCandidates();
    ASSERT_FALSE(candidates.empty()) << spec->name;
    for (const AccelConfig& cfg : candidates) {
      EXPECT_NO_THROW(cfg.Validate());
      EXPECT_GE(cfg.pi, cfg.po);  // Table 2: PI >= PO >= 1
      EXPECT_TRUE(cfg.pt == 4 || cfg.pt == 6);
      const auto impl =
          ImplementationResources(cfg, *spec, DefaultProfile());
      EXPECT_TRUE(FitsDeviceLimits(impl, *spec)) << cfg.ToString();
      EXPECT_TRUE(FitsPerDie(impl, cfg, *spec)) << cfg.ToString();
    }
  }
}

TEST(DseCandidatesTest, PynqHasFewerCandidatesThanVu9p) {
  const auto small = DseEngine(PynqZ1Spec()).EnumerateCandidates();
  const auto big = DseEngine(Vu9pSpec()).EnumerateCandidates();
  EXPECT_LT(small.size(), big.size());
}

TEST(DseExploreTest, Vu9pReproducesPaperDesignPoint) {
  // Paper Sec. 6.1: six instances with PI=4, PO=4, PT=6 on the VU9P.
  const DseEngine dse(Vu9pSpec());
  const DseResult r = dse.Explore(BuildVgg16ConvOnly());
  EXPECT_EQ(r.config.pi, 4);
  EXPECT_EQ(r.config.po, 4);
  EXPECT_EQ(r.config.pt, 6);
  EXPECT_EQ(r.config.ni, 6);
}

TEST(DseExploreTest, PynqReproducesPaperDesignPoint) {
  // Paper Sec. 6.1: one instance with PI=4, PO=4, PT=4 on the PYNQ-Z1.
  const DseEngine dse(PynqZ1Spec());
  const DseResult r = dse.Explore(BuildVgg16ConvOnly());
  EXPECT_EQ(r.config.pi, 4);
  EXPECT_EQ(r.config.po, 4);
  EXPECT_EQ(r.config.pt, 4);
  EXPECT_EQ(r.config.ni, 1);
}

TEST(DseExploreTest, Vgg16SelectsWinogradEverywhere) {
  // Paper Sec. 6.2: "the DSE selects all CONV layers of VGG16 to be
  // implemented in Winograd mode due to the sufficient memory bandwidth".
  for (const auto* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
    const DseResult r = DseEngine(*spec).Explore(BuildVgg16ConvOnly());
    for (const LayerMapping& m : r.mapping) {
      EXPECT_EQ(m.mode, ConvMode::kWinograd) << spec->name;
    }
  }
}

TEST(DseExploreTest, BandwidthStarvationFlipsToSpatial) {
  // Paper Sec. 6.2: "in other scenarios (e.g., IoT applications) where the
  // available memory bandwidth is limited ... Spatial CONV may outperform
  // Winograd."
  FpgaSpec iot = PynqZ1Spec();
  iot.dram_bandwidth_gbps = 0.08;
  const DseResult r = DseEngine(iot).Explore(BuildVgg16ConvOnly());
  int spatial = 0;
  for (const LayerMapping& m : r.mapping) {
    spatial += m.mode == ConvMode::kSpatial;
  }
  EXPECT_GT(spatial, 0) << "starved bandwidth should favour Spatial somewhere";
}

TEST(DseExploreTest, SpatialOnlyOptionDisablesWinograd) {
  DseOptions opts;
  opts.allow_winograd = false;
  const DseResult r = DseEngine(Vu9pSpec()).Explore(BuildVgg16ConvOnly(), opts);
  for (const LayerMapping& m : r.mapping) {
    EXPECT_EQ(m.mode, ConvMode::kSpatial);
  }
}

TEST(DseExploreTest, StridedLayersNeverWinograd) {
  const DseResult r = DseEngine(Vu9pSpec()).Explore(BuildAlexNetStyle());
  EXPECT_EQ(r.mapping[0].mode, ConvMode::kSpatial);  // conv1 stride 4
}

TEST(DseExploreTest, ObjectiveIsCyclesOverInstances) {
  const DseResult r = DseEngine(Vu9pSpec()).Explore(BuildTinyCnn());
  EXPECT_NEAR(r.objective, r.estimated_cycles / r.config.ni, 1e-6);
}

TEST(DseExploreTest, BestMappingMatchesPerLayerMinimum) {
  const Model m = BuildTinyCnn();
  const DseEngine dse(PynqZ1Spec());
  AccelConfig cfg;
  cfg.pi = cfg.po = 4;
  cfg.pt = 4;
  double total = 0;
  // The brute force below prices every layer unfused, so the fused-segment
  // pass (which beats per-layer minima by construction) must stay off.
  DseOptions opts;
  opts.fuse_segments = false;
  const auto mapping = dse.BestMapping(m, cfg, opts, &total);
  ASSERT_EQ(static_cast<int>(mapping.size()), m.num_layers());
  // Recompute each layer's best by brute force.
  double brute = 0;
  for (int i = 0; i < m.num_layers(); ++i) {
    double best = 1e300;
    for (ConvMode mode : {ConvMode::kSpatial, ConvMode::kWinograd}) {
      if (mode == ConvMode::kWinograd && !WinogradApplicable(m.layer(i))) {
        continue;
      }
      GroupCounts g;
      try {
        g = ComputeGroups(m.layer(i), m.InputOf(i), mode, cfg);
      } catch (const CapacityError&) {
        continue;
      }
      for (Dataflow flow :
           {Dataflow::kInputStationary, Dataflow::kWeightStationary}) {
        if (g.slices > 1 && flow != Dataflow::kInputStationary) continue;
        if (g.cb > 1 &&
            (flow != Dataflow::kWeightStationary || g.fmap_groups() != 1)) {
          continue;
        }
        best = std::min(best, EstimateLayerLatency(m.layer(i), m.InputOf(i),
                                                   mode, flow, cfg,
                                                   PynqZ1Spec())
                                  .total);
      }
    }
    brute += best;
  }
  EXPECT_NEAR(total, brute, brute * 1e-9);
}

TEST(DseOptionsTest, InvalidOptionsThrowInsteadOfEmptySearch) {
  const DseEngine dse(Vu9pSpec());
  const Model m = BuildTinyCnn();

  DseOptions bad_threads;
  bad_threads.num_threads = -1;
  EXPECT_THROW(dse.Explore(m, bad_threads), InvalidArgument);
  EXPECT_THROW(dse.ExploreFrontier(m, bad_threads), InvalidArgument);

  AccelConfig cfg;
  double cycles = 0;
  EXPECT_THROW(dse.BestMapping(m, cfg, bad_threads, &cycles),
               InvalidArgument);
}

TEST(DseOptionsTest, ValidOptionsPassValidation) {
  DseOptions opts;  // defaults
  EXPECT_NO_THROW(opts.Validate());
  // The search is single-threaded: any thread count but 1 is rejected.
  for (int threads : {0, 2}) {
    opts.num_threads = threads;
    EXPECT_THROW(opts.Validate(), InvalidArgument) << threads;
  }
}

TEST(DseExploreTest, InfeasibleModelThrows) {
  // A model whose minimal working set exceeds any candidate's buffers.
  Model m("monster", FmapShape{4, 1000, 1000});
  ConvLayer l;
  l.name = "wide";
  l.in_channels = 4;
  l.out_channels = 4;
  l.pool = 1;
  m.Append(l);
  FpgaSpec tiny = PynqZ1Spec();
  tiny.bram18 = 16;
  tiny.luts = 2000;
  tiny.dsps = 40;
  EXPECT_THROW(DseEngine(tiny).Explore(m), Error);
}

TEST(DseExploreTest, PlatformWithoutCandidatesIsACapacityError) {
  // The smallest candidate (PI = PO = 1, PT 4, NI 1, the last buffer rung)
  // needs about 2.3k analytical / 8.6k implementation LUTs, 57 DSPs and
  // 35 / 24 BRAM18. The message names the platform and only the resources
  // that candidate exceeds; on two dies at 0.8 utilisation, 9000 LUTs leave
  // each die 3600.
  const struct {
    const char* text;
    std::vector<const char*> named, absent;
  } cases[] = {
      {"fpga tiny\nluts 2000\ndsps 40\nbram18 16\n",
       {"platform tiny", "LUTs", "DSPs", "BRAM18"},
       {"dies"}},
      {"fpga dsponly\nluts 200000\ndsps 40\nbram18 1000\n",
       {"platform dsponly", "DSPs"},
       {"LUTs", "BRAM18"}},
      {"fpga twodie\nluts 9000\ndsps 200\nbram18 1000\ndies 2\n"
       "max_utilization 0.8\n",
       {"platform twodie", "LUTs", "2 dies, max_utilization 0.80"},
       {"DSPs", "BRAM18"}},
  };
  for (const auto& c : cases) {
    const FpgaSpec spec = ParseFpgaSpecText(
        std::string(c.text) + "bandwidth_gbps 1\nfreq_mhz 100\n");
    try {
      DseEngine(spec).Explore(BuildTinyCnn());
      ADD_FAILURE() << spec.name << ": a platform no candidate fits explored";
    } catch (const CapacityError& e) {
      const std::string what = e.what();
      for (const char* needle : c.named) {
        EXPECT_NE(what.find(needle), std::string::npos)
            << needle << ": " << what;
      }
      for (const char* needle : c.absent) {
        EXPECT_EQ(what.find(needle), std::string::npos)
            << needle << ": " << what;
      }
    }
  }
}

}  // namespace
}  // namespace hdnn
