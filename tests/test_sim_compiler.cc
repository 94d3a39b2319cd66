// End-to-end correctness of compiler + simulator against the golden
// references: every (CONV mode x dataflow) combination across layer shapes,
// kernel sizes, strides, padding, fused ReLU/pool, FC layers and multi-layer
// models with mode switches (which exercise all four SAVE layout
// transforms of paper Fig. 5).
#include <gtest/gtest.h>

#include "dse/search.h"
#include "frontend/parser.h"
#include "nn/builders.h"
#include "testing_util.h"
#include "winograd/decompose.h"

namespace hdnn {
namespace {

using ::hdnn::testing::EndToEndResult;
using ::hdnn::testing::MakeInput;
using ::hdnn::testing::RunEndToEnd;
using ::hdnn::testing::RunSingleLayer;
using ::hdnn::testing::TestConfig;
using ::hdnn::testing::TestSpec;

struct ConvCase {
  int c, k, h, w, kernel, stride, pad;
  bool relu;
  int pool;
  const char* label;
};

std::ostream& operator<<(std::ostream& os, const ConvCase& cc) {
  return os << cc.label;
}

/// A PE geometry: the GEMM-core grid PT and the PI x PO MAC array.
struct Geometry {
  int pt, pi, po;
};

class SingleConvTest
    : public ::testing::TestWithParam<std::tuple<ConvCase, Geometry>> {
 protected:
  EndToEndResult Run(ConvMode mode, Dataflow flow) const {
    const auto& [cc, g] = GetParam();
    const Model m = BuildSingleConv(cc.c, cc.k, cc.h, cc.w, cc.kernel,
                                    cc.stride, cc.pad, cc.relu);
    return RunSingleLayer(m, mode, flow, TestConfig(g.pt, g.pi, g.po));
  }
};

TEST_P(SingleConvTest, SpatialMatchesGoldenIS) {
  auto r = Run(ConvMode::kSpatial, Dataflow::kInputStationary);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

TEST_P(SingleConvTest, SpatialMatchesGoldenWS) {
  auto r = Run(ConvMode::kSpatial, Dataflow::kWeightStationary);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

TEST_P(SingleConvTest, WinogradMatchesGoldenIS) {
  const ConvCase& cc = std::get<0>(GetParam());
  if (cc.stride != 1) GTEST_SKIP() << "Winograd requires stride 1";
  auto r = Run(ConvMode::kWinograd, Dataflow::kInputStationary);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

TEST_P(SingleConvTest, WinogradMatchesGoldenWS) {
  const ConvCase& cc = std::get<0>(GetParam());
  if (cc.stride != 1) GTEST_SKIP() << "Winograd requires stride 1";
  if (NumKernelSlices(cc.kernel, cc.kernel) > 1) {
    GTEST_SKIP() << "decomposed kernels are IS-only";
  }
  auto r = Run(ConvMode::kWinograd, Dataflow::kWeightStationary);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

constexpr ConvCase kConvCases[] = {
    {8, 8, 8, 8, 3, 1, 1, false, 1, "c8k8_8x8_3x3"},
    {4, 16, 12, 12, 3, 1, 1, true, 1, "relu_c4k16_12x12"},
    {16, 4, 10, 14, 3, 1, 1, false, 1, "rect_c16k4_10x14"},
    {8, 8, 16, 16, 3, 1, 1, true, 2, "pool2_c8k8_16x16"},
    {3, 8, 9, 9, 3, 1, 1, false, 1, "oddchan_c3k8_9x9"},
    {8, 8, 8, 8, 1, 1, 0, false, 1, "k1_c8k8_8x8"},
    {8, 8, 12, 12, 5, 1, 2, false, 1, "k5_c8k8_12x12"},
    {4, 4, 15, 15, 7, 1, 3, true, 1, "k7_c4k4_15x15"},
    {8, 8, 12, 12, 3, 2, 1, false, 1, "stride2_c8k8"},
    {4, 8, 23, 23, 3, 1, 1, false, 1, "odd_hw_23x23"},
    {8, 8, 8, 8, 3, 1, 0, false, 1, "nopad_c8k8"},
    {32, 32, 6, 6, 3, 1, 1, true, 1, "deep_c32k32_6x6"},
    {8, 8, 11, 11, 11, 1, 5, false, 1, "k11_full"},
};

// Every PE geometry the DSE enumerates (dse/search.cc: PI a power of two
// with PI * PT <= 32, PO <= PI a power of two), each of which the simulator
// runs on kernels compiled for it, plus PI 6 / PO 3, which the DSE never
// proposes, on the kernels with runtime trip counts.
constexpr Geometry kGeometries[] = {
    {4, 1, 1}, {4, 2, 1}, {4, 2, 2}, {4, 4, 1}, {4, 4, 2}, {4, 4, 4},
    {4, 8, 1}, {4, 8, 2}, {4, 8, 4}, {4, 8, 8}, {6, 1, 1}, {6, 2, 1},
    {6, 2, 2}, {6, 4, 1}, {6, 4, 2}, {6, 4, 4}, {4, 6, 3}, {6, 6, 3},
};

INSTANTIATE_TEST_SUITE_P(
    Shapes, SingleConvTest,
    ::testing::Combine(::testing::ValuesIn(kConvCases),
                       ::testing::ValuesIn(kGeometries)),
    [](const ::testing::TestParamInfo<SingleConvTest::ParamType>& info) {
      const Geometry& g = std::get<1>(info.param);
      return std::string(std::get<0>(info.param).label) + "_pt" +
             std::to_string(g.pt) + "_pi" + std::to_string(g.pi) + "_po" +
             std::to_string(g.po);
    });

// --- Extreme operands ---

// Every input at an int16 rail (32767, -32767 or -32768) and every weight
// at an int8 rail (127 or -128), at data_width 16. Half the input channels
// hold one sign throughout, and half the kernels match those signs, so
// their sums pass 2^31; the other operands are random rails, which drive
// the PT 6 input transform towards 100 * 2^15. This pins the int64
// accumulators and the int32 transform bound in both modes.
class RailOperandTest
    : public ::testing::TestWithParam<std::tuple<ConvMode, int>> {};

TEST_P(RailOperandTest, MatchesGolden) {
  const auto& [mode, pt] = GetParam();
  constexpr int kC = 128, kK = 8;
  const Model m = BuildSingleConv(kC, kK, 6, 6, 3, 1, 1, false);
  AccelConfig cfg = TestConfig(pt);
  cfg.data_width = 16;
  Prng prng(11);
  const auto rail = [&](int sign) -> std::int16_t {
    if (sign > 0) return 32767;
    return prng.NextInt(0, 1) == 0 ? -32767 : -32768;
  };
  const auto random_sign = [&] { return prng.NextInt(0, 1) == 0 ? 1 : -1; };
  std::vector<int> channel_sign(kC);
  for (int& sign : channel_sign) sign = random_sign();
  Tensor<std::int16_t> input = MakeInput(m.InputOf(0), 8);
  for (int c = 0; c < kC; ++c) {
    for (int y = 0; y < 6; ++y) {
      for (int x = 0; x < 6; ++x) {
        input.at(c, y, x) =
            rail(c < kC / 2 ? channel_sign[static_cast<std::size_t>(c)]
                            : random_sign());
      }
    }
  }
  ModelWeightsQ weights = SyntheticWeights(m, 7);
  Tensor<std::int8_t>& w = weights[0].weights;
  for (int k = 0; k < kK; ++k) {
    for (int c = 0; c < kC; ++c) {
      const bool aligned = k < kK / 2 && c < kC / 2;
      for (int r = 0; r < 3; ++r) {
        for (int s = 0; s < 3; ++s) {
          const int sign = aligned ? channel_sign[static_cast<std::size_t>(c)]
                                   : random_sign();
          w.at(k, c, r, s) = sign > 0 ? 127 : -128;
        }
      }
    }
  }
  const auto r = RunEndToEnd(
      m, cfg, TestSpec(), {LayerMapping{mode, Dataflow::kInputStationary}},
      weights, input);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, RailOperandTest,
    ::testing::Combine(::testing::Values(ConvMode::kSpatial,
                                         ConvMode::kWinograd),
                       ::testing::Values(4, 6)),
    [](const auto& info) {
      return std::string(ToString(std::get<0>(info.param))) + "_pt" +
             std::to_string(std::get<1>(info.param));
    });

// --- Layout-transform coverage: consecutive layers with different modes ---

class ModeSwitchTest
    : public ::testing::TestWithParam<std::tuple<ConvMode, ConvMode, int>> {};

TEST_P(ModeSwitchTest, TwoLayerPipelines) {
  const auto& [mode0, mode1, pt] = GetParam();
  Model m("two_layer", FmapShape{8, 12, 12});
  ConvLayer l1;
  l1.name = "l1";
  l1.in_channels = 8;
  l1.out_channels = 16;
  l1.relu = true;
  m.Append(l1);
  ConvLayer l2;
  l2.name = "l2";
  l2.in_channels = 16;
  l2.out_channels = 8;
  m.Append(l2);
  std::vector<LayerMapping> mapping{
      {mode0, Dataflow::kInputStationary},
      {mode1, Dataflow::kWeightStationary},
  };
  auto r = RunEndToEnd(m, TestConfig(pt), TestSpec(), mapping);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

INSTANTIATE_TEST_SUITE_P(
    AllFourTransforms, ModeSwitchTest,
    ::testing::Combine(::testing::Values(ConvMode::kSpatial,
                                         ConvMode::kWinograd),
                       ::testing::Values(ConvMode::kSpatial,
                                         ConvMode::kWinograd),
                       ::testing::Values(4, 6)),
    [](const auto& info) {
      return std::string(ToString(std::get<0>(info.param))) + "_to_" +
             ToString(std::get<1>(info.param)) + "_pt" +
             std::to_string(std::get<2>(info.param));
    });

// --- FC layers (flatten + channel blocking paths) ---

TEST(FcLayerTest, SmallFcAfterConv) {
  Model m("conv_fc", FmapShape{4, 8, 8});
  ConvLayer c;
  c.name = "c";
  c.in_channels = 4;
  c.out_channels = 8;
  c.relu = true;
  c.pool = 2;
  m.Append(c);
  m.AppendFullyConnected("fc", 10, false);
  std::vector<LayerMapping> mapping{
      {ConvMode::kSpatial, Dataflow::kInputStationary},
      {ConvMode::kSpatial, Dataflow::kWeightStationary},
  };
  auto r = RunEndToEnd(m, TestConfig(4), TestSpec(), mapping);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

TEST(FcLayerTest, FcAfterWinogradConv) {
  Model m("wino_fc", FmapShape{8, 8, 8});
  ConvLayer c;
  c.name = "c";
  c.in_channels = 8;
  c.out_channels = 8;
  c.relu = true;
  m.Append(c);
  m.AppendFullyConnected("fc", 12, true);
  std::vector<LayerMapping> mapping{
      {ConvMode::kWinograd, Dataflow::kInputStationary},
      {ConvMode::kSpatial, Dataflow::kWeightStationary},
  };
  auto r = RunEndToEnd(m, TestConfig(4), TestSpec(), mapping);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

TEST(FcLayerTest, LargeFcUsesChannelBlocking) {
  // Small weight buffer forces CB > 1 on the FC layer: even a PO-sized
  // K-group over all 512 channels (4*512 = 2048 elements) exceeds the half.
  Model m("big_fc", FmapShape{512, 1, 1});
  m.AppendFullyConnected("fc", 32, false);
  AccelConfig cfg = TestConfig(4);
  cfg.weight_buffer_vectors = 72;  // 72*16 = 1152 elements per half
  std::vector<LayerMapping> mapping{
      {ConvMode::kSpatial, Dataflow::kWeightStationary}};
  auto r = RunEndToEnd(m, cfg, TestSpec(), mapping);
  const GroupCounts& g = r.compiled.plans[0].groups;
  EXPECT_GT(g.cb, 1) << "test intent: channel blocking must engage";
  EXPECT_EQ(r.sim_out, r.golden_out);
}

// --- Column tiling (wide rows that exceed the input buffer) ---

TEST(ColumnTilingTest, WideLayerSplitsColumns) {
  AccelConfig cfg = TestConfig(4);
  cfg.input_buffer_vectors = 256;  // force W-splitting
  const Model m = BuildSingleConv(8, 8, 12, 60, 3, 1, 1, true);
  std::vector<LayerMapping> mapping{
      {ConvMode::kSpatial, Dataflow::kInputStationary}};
  auto r = RunEndToEnd(m, cfg, TestSpec(), mapping);
  EXPECT_GT(r.compiled.plans[0].groups.wg, 1)
      << "test intent: column tiling must engage";
  EXPECT_EQ(r.sim_out, r.golden_out);
}

TEST(ColumnTilingTest, WideWinogradLayerSplitsColumns) {
  AccelConfig cfg = TestConfig(4);
  cfg.input_buffer_vectors = 256;
  const Model m = BuildSingleConv(8, 8, 12, 60, 3, 1, 1, false);
  std::vector<LayerMapping> mapping{
      {ConvMode::kWinograd, Dataflow::kInputStationary}};
  auto r = RunEndToEnd(m, cfg, TestSpec(), mapping);
  EXPECT_GT(r.compiled.plans[0].groups.wg, 1);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

// --- Whole small networks ---

TEST(NetworkTest, TinyCnnAllSpatial) {
  const Model m = BuildTinyCnn();
  std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(m.num_layers()),
      LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
  auto r = RunEndToEnd(m, TestConfig(4), TestSpec(), mapping);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

TEST(NetworkTest, TinyCnnAllWinogradPt4) {
  const Model m = BuildTinyCnn();
  std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(m.num_layers()),
      LayerMapping{ConvMode::kWinograd, Dataflow::kInputStationary});
  mapping.back().mode = ConvMode::kSpatial;  // FC layer
  auto r = RunEndToEnd(m, TestConfig(4), TestSpec(), mapping);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

TEST(NetworkTest, TinyCnnMixedModesPt6) {
  const Model m = BuildTinyCnn();
  std::vector<LayerMapping> mapping{
      {ConvMode::kWinograd, Dataflow::kInputStationary},
      {ConvMode::kSpatial, Dataflow::kWeightStationary},
      {ConvMode::kWinograd, Dataflow::kWeightStationary},
      {ConvMode::kSpatial, Dataflow::kWeightStationary},
  };
  auto r = RunEndToEnd(m, TestConfig(6), TestSpec(), mapping);
  EXPECT_EQ(r.sim_out, r.golden_out);
}

// --- Timing sanity on the same runs ---

// --- liveness-interval DRAM allocation ---

TEST(DramAllocationTest, ChainModelsKeepThePingPongLayout) {
  // For a linear chain the liveness allocator must degenerate to exactly the
  // historical two-slot even/odd ping-pong: same slot count, same bases,
  // same total map size.
  const Model m = BuildTinyCnn();
  const Compiler compiler(TestConfig(4), TestSpec());
  const CompiledModel cm = compiler.Compile(
      m, std::vector<LayerMapping>(
             static_cast<std::size_t>(m.num_layers()),
             LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary}));
  EXPECT_EQ(cm.fmap_slots, 2);
  EXPECT_EQ(cm.total_dram_words, cm.fmap_base + 2 * cm.fmap_region_words);
  for (int i = 0; i < m.num_layers(); ++i) {
    const std::int64_t expect_in =
        cm.fmap_base + (i % 2 == 0 ? 0 : cm.fmap_region_words);
    const std::int64_t expect_out =
        cm.fmap_base + (i % 2 == 0 ? cm.fmap_region_words : 0);
    EXPECT_EQ(cm.input_region(i), expect_in) << "layer " << i;
    EXPECT_EQ(cm.output_region(i), expect_out) << "layer " << i;
  }
}

TEST(DramAllocationTest, ResidualSkipGetsAThirdSlotAndNoAliasing) {
  const Model m = BuildTinyResidualBlock();
  const Compiler compiler(TestConfig(4), TestSpec());
  const CompiledModel cm = compiler.Compile(
      m, std::vector<LayerMapping>(
             static_cast<std::size_t>(m.num_layers()),
             LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary}));
  EXPECT_EQ(cm.fmap_slots, 3);
  const int b = m.IndexOf("bodyb");
  const LayerPlan& plan = cm.plans[static_cast<std::size_t>(b)];
  ASSERT_GE(plan.res_dram_base, 0);
  // The skip tensor, the layer input and the layer output must occupy three
  // distinct slots while all live through bodyb.
  EXPECT_NE(plan.res_dram_base, plan.in_dram_base);
  EXPECT_NE(plan.res_dram_base, plan.out_dram_base);
  EXPECT_NE(plan.in_dram_base, plan.out_dram_base);
  // proj's recorded output slot is the slot bodyb reads its residual from.
  const int proj = m.IndexOf("proj");
  EXPECT_EQ(cm.output_region(proj), plan.res_dram_base);
}

TEST(TimingTest, CompletionTimesAreMonotonicPerModule) {
  const Model m = BuildTinyCnn();
  std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(m.num_layers()),
      LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
  auto r = RunEndToEnd(m, TestConfig(4), TestSpec(), mapping);
  EXPECT_GT(r.report.stats.total_cycles, 0);
  EXPECT_EQ(static_cast<std::int64_t>(r.report.stats.completion.size()),
            r.report.stats.instructions);
  // Per-layer cycles must be non-negative and sum to ~total.
  double sum = 0;
  for (double c : r.report.layer_cycles) {
    EXPECT_GE(c, 0);
    sum += c;
  }
  EXPECT_NEAR(sum, r.report.stats.total_cycles,
              0.01 * r.report.stats.total_cycles + 10);
}

TEST(CodegenFieldTest, OversizedGeometryIsATypedErrorNotATruncation) {
  // Each geometry overflows an instruction field's C++ type (a 16-bit fmap
  // width or height, an 8-bit stride). Wrapped, the value would fit the
  // codec's bit width and compile a program that computes something else.
  // The stride fails at parse (kMaxStride), the extents in codegen.
  for (const char* text : {
           "model x\ninput 4 3 65540\nconv name=a out=4 k=3\n",
           "model x\ninput 4 65540 3\nconv name=a out=4 k=3\n",
           "model x\ninput 4 600 600\nconv name=a out=4 k=3 s=257 p=0\n",
       }) {
    SCOPED_TRACE(text);
    try {
      const Model m = ParseModelText(text);
      const DseResult r = DseEngine(PynqZ1Spec()).Explore(m);
      Compiler(r.config, PynqZ1Spec()).Compile(m, r.mapping);
      ADD_FAILURE() << "compiled a geometry its instruction fields cannot hold";
    } catch (const InternalError& e) {
      ADD_FAILURE() << "internal invariant instead of a typed error: "
                    << e.what();
    } catch (const Error&) {
    }
  }
}

TEST(TimingTest, WinogradFasterThanSpatialFor3x3) {
  const Model m = BuildSingleConv(32, 32, 32, 32, 3, 1, 1, false);
  auto spat = RunSingleLayer(m, ConvMode::kSpatial,
                             Dataflow::kInputStationary, TestConfig(4));
  auto wino = RunSingleLayer(m, ConvMode::kWinograd,
                             Dataflow::kInputStationary, TestConfig(4));
  EXPECT_LT(wino.report.stats.total_cycles, spat.report.stats.total_cycles);
}

}  // namespace
}  // namespace hdnn
