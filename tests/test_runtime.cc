#include <gtest/gtest.h>

#include <algorithm>

#include "frontend/parser.h"
#include "isa/codec.h"
#include "nn/builders.h"
#include "runtime/design_flow.h"
#include "runtime/runtime.h"
#include "testing_util.h"

namespace hdnn {
namespace {

using ::hdnn::testing::TestSpec;

TEST(RuntimeTest, StageAndCollectRoundTrip) {
  DramModel dram(4096);
  Prng prng(3);
  Tensor<std::int16_t> fmap(Shape{3, 5, 7});
  fmap.FillRandomInt(prng, -100, 100);
  for (ConvMode layout : {ConvMode::kSpatial, ConvMode::kWinograd}) {
    StageInputFmap(dram, 64, layout, fmap, /*padded_channels=*/4);
    const auto back =
        CollectOutputFmap(dram, 64, layout, FmapShape{3, 5, 7}, 4);
    EXPECT_EQ(back, fmap);
  }
}

TEST(RuntimeTest, PaddedChannelsAreZero) {
  DramModel dram(4096);
  Tensor<std::int16_t> fmap(Shape{2, 3, 3}, 5);
  StageInputFmap(dram, 0, ConvMode::kWinograd, fmap, 4);
  // Channels 2..3 must read back zero.
  const auto padded =
      CollectOutputFmap(dram, 0, ConvMode::kWinograd, FmapShape{4, 3, 3}, 4);
  for (int h = 0; h < 3; ++h) {
    for (int w = 0; w < 3; ++w) {
      EXPECT_EQ(padded.at(2, h, w), 0);
      EXPECT_EQ(padded.at(3, h, w), 0);
    }
  }
}

TEST(DesignFlowTest, EndToEndTinyCnnFunctional) {
  const DesignFlow flow(TestSpec());
  const DesignFlowResult r = flow.Run(BuildTinyCnn(), /*functional=*/true);
  EXPECT_GT(r.report.stats.total_cycles, 0);
  EXPECT_GT(r.report.gops, 0);
  EXPECT_EQ(r.report.output.shape(), Shape({10, 1, 1}));
  // The functional output must match the golden model under the DSE's
  // chosen mapping.
  std::vector<LayerMapping> effective;
  for (const LayerPlan& plan : r.compiled.plans) {
    effective.push_back(plan.mapping);
  }
  const ModelWeightsQ weights = SyntheticWeights(BuildTinyCnn(), 1);
  Tensor<std::int16_t> input(Shape{3, 32, 32});
  Prng prng(1 ^ 0x9e3779b9u);
  input.FillRandomInt(prng, -128, 127);
  const auto golden = ::hdnn::testing::GoldenForward(
      BuildTinyCnn(), weights, input, effective, r.dse.config,
      r.compiled.base_shift);
  EXPECT_EQ(r.report.output, golden);
}

TEST(DesignFlowTest, TimingOnlyRunIsFastAndConsistent) {
  const DesignFlow flow(TestSpec());
  const DesignFlowResult a = flow.Run(BuildTinyCnn(), /*functional=*/false);
  const DesignFlowResult b = flow.Run(BuildTinyCnn(), /*functional=*/true);
  // Timing does not depend on data values.
  EXPECT_DOUBLE_EQ(a.report.stats.total_cycles, b.report.stats.total_cycles);
}

TEST(DesignFlowTest, RunFromTextMatchesProgrammatic) {
  const DesignFlow flow(TestSpec());
  const std::string text = WriteModelText(BuildTinyCnn());
  const DesignFlowResult a = flow.RunFromText(text, /*functional=*/false);
  const DesignFlowResult b = flow.Run(BuildTinyCnn(), /*functional=*/false);
  EXPECT_DOUBLE_EQ(a.report.stats.total_cycles, b.report.stats.total_cycles);
  EXPECT_EQ(a.dse.config, b.dse.config);
}

TEST(RuntimeTest, LayerCyclesSumToTotal) {
  const DesignFlow flow(TestSpec());
  const DesignFlowResult r = flow.Run(BuildTinyCnn(), /*functional=*/false);
  double sum = 0;
  for (double c : r.report.layer_cycles) sum += c;
  EXPECT_NEAR(sum, r.report.stats.total_cycles,
              0.01 * r.report.stats.total_cycles + 10);
}

TEST(RuntimeTest, MismatchedConfigRejected) {
  const Model m = BuildTinyCnn();
  AccelConfig cfg = ::hdnn::testing::TestConfig(4);
  const Compiler compiler(cfg, TestSpec());
  std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(m.num_layers()),
      LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
  CompiledModel cm = compiler.Compile(m, mapping);
  AccelConfig other = cfg;
  other.pi = 8;
  Runtime runtime(other, TestSpec());
  EXPECT_THROW(runtime.Execute(m, cm, {}, {}, false), InvalidArgument);
}

// --- Resident weight image ---
//
// A Runtime stages the weight and bias image [0, cm.fmap_base) once and
// keeps it across functional Executes of the same deployment and weights.
// Every test here checks that keeping it is invisible: same outputs,
// SimStats and DRAM image as staging from scratch, and a re-stage whenever
// the weights, the deployment, or the device's health change.

struct ResidentFixture {
  Model model;
  AccelConfig cfg = ::hdnn::testing::TestConfig(4);
  ModelWeightsQ weights;
  CompiledModel cm;
  std::vector<Tensor<std::int16_t>> inputs;

  /// TinyCnn with Winograd and Spatial layers in both dataflows.
  ResidentFixture()
      : ResidentFixture(
            BuildTinyCnn(),
            {{ConvMode::kWinograd, Dataflow::kInputStationary},
             {ConvMode::kSpatial, Dataflow::kInputStationary},
             {ConvMode::kWinograd, Dataflow::kWeightStationary},
             {ConvMode::kSpatial, Dataflow::kWeightStationary}}) {}

  ResidentFixture(Model m, const std::vector<LayerMapping>& mapping)
      : model(std::move(m)),
        weights(SyntheticWeights(model, 5)),
        cm(Compiler(cfg, TestSpec()).Compile(model, mapping)) {
    for (std::uint64_t k = 0; k < 3; ++k) {
      inputs.push_back(::hdnn::testing::MakeInput(model.InputOf(0), 20 + k));
    }
  }

  Tensor<std::int16_t> Golden(const CompiledModel& c,
                              const Tensor<std::int16_t>& input) const {
    std::vector<LayerMapping> effective;
    for (const LayerPlan& plan : c.plans) effective.push_back(plan.mapping);
    return ::hdnn::testing::GoldenForward(model, weights, input, effective,
                                          cfg, c.base_shift);
  }

  std::vector<std::int16_t> Image(Runtime& rt) const {
    const auto view = rt.dram()->ViewRun(0, rt.dram()->size_words());
    return {view.begin(), view.end()};
  }
};

// LayerWeightsQ::bias may be empty: staging writes a zero bias, as the
// golden reference assumes.
TEST(RuntimeTest, BiasLessLayersMatchGolden) {
  ResidentFixture fx;
  for (LayerWeightsQ& lw : fx.weights) lw.bias = Tensor<std::int32_t>();
  Runtime rt(fx.cfg, TestSpec());
  const RunReport r = rt.Execute(fx.model, fx.cm, fx.weights, fx.inputs[0]);
  EXPECT_EQ(r.output, fx.Golden(fx.cm, fx.inputs[0]));
}

TEST(RuntimeTest, WrongLengthBiasIsRejected) {
  ResidentFixture fx;
  fx.weights[1].bias =
      Tensor<std::int32_t>(Shape{fx.model.layer(1).out_channels - 1});
  Runtime rt(fx.cfg, TestSpec());
  EXPECT_THROW(rt.Execute(fx.model, fx.cm, fx.weights, fx.inputs[0]),
               InvalidArgument);
}

TEST(ResidentWeightsTest, WarmRuntimeMatchesFreshRuntimePerInput) {
  ResidentFixture fx;
  Runtime warm(fx.cfg, TestSpec());
  for (int round = 0; round < 2; ++round) {
    for (const auto& input : fx.inputs) {
      const RunReport w = warm.Execute(fx.model, fx.cm, fx.weights, input);
      Runtime fresh(fx.cfg, TestSpec());
      const RunReport f = fresh.Execute(fx.model, fx.cm, fx.weights, input);
      EXPECT_EQ(w.output, f.output);
      EXPECT_EQ(w.output, fx.Golden(fx.cm, input));
      EXPECT_TRUE(w.stats == f.stats) << "SimStats differ";
      EXPECT_EQ(fx.Image(warm), fx.Image(fresh)) << "DRAM images differ";
    }
  }
}

TEST(ResidentWeightsTest, WarmExecuteStagesNothing) {
  ResidentFixture fx;
  const auto& input = fx.inputs[0];
  Runtime cold(fx.cfg, TestSpec());
  cold.Execute(fx.model, fx.cm, fx.weights, input);
  const std::int64_t cold_written = cold.dram()->words_written();

  Runtime rt(fx.cfg, TestSpec());
  rt.Execute(fx.model, fx.cm, fx.weights, input);
  EXPECT_EQ(rt.dram()->words_written(), cold_written);
  rt.Execute(fx.model, fx.cm, fx.weights, input);
  EXPECT_EQ(rt.dram()->words_written(), cold_written - fx.cm.fmap_base)
      << "a warm Execute writes its input and fmaps, no weight words";

  // A timing-only run touches no DRAM, so the next functional run stays
  // warm, even after a timing-only run of a different model.
  rt.Execute(fx.model, fx.cm, {}, {}, /*functional=*/false);
  rt.Execute(fx.model, fx.cm, fx.weights, input);
  EXPECT_EQ(rt.dram()->words_written(), cold_written - fx.cm.fmap_base);
  const Model other = BuildTinyResidualBlock();
  const CompiledModel other_cm =
      Compiler(fx.cfg, TestSpec())
          .Compile(other, std::vector<LayerMapping>(
                              static_cast<std::size_t>(other.num_layers()),
                              {ConvMode::kSpatial, Dataflow::kInputStationary}));
  rt.Execute(other, other_cm, {}, {}, /*functional=*/false);
  const RunReport warm = rt.Execute(fx.model, fx.cm, fx.weights, input);
  EXPECT_EQ(rt.dram()->words_written(), cold_written - fx.cm.fmap_base);
  EXPECT_EQ(warm.output, fx.Golden(fx.cm, input));

  // Any exception in a functional run drops the claim, here a bad input
  // shape thrown after the reset.
  EXPECT_THROW(rt.Execute(fx.model, fx.cm, fx.weights,
                          Tensor<std::int16_t>(Shape{1, 1, 1})),
               InvalidArgument);
  const RunReport after = rt.Execute(fx.model, fx.cm, fx.weights, input);
  EXPECT_EQ(rt.dram()->words_written(), cold_written);
  EXPECT_EQ(after.output, fx.Golden(fx.cm, input));

  // A write through dram() between runs is seen too.
  const std::int16_t word0 = rt.dram()->ViewRun(0, 1)[0];
  rt.dram()->WriteRun(0, 1)[0] = word0;
  rt.Execute(fx.model, fx.cm, fx.weights, input);
  EXPECT_EQ(rt.dram()->words_written(), cold_written);
}

// A hand-built stream (no cached decode) is stream-checked on every Execute:
// with no DRAM behind a timing-only run, the check is its only guard. The
// last SAVE is moved into the weight image, as the stream-check tests build
// it. A functional throw drops the resident claim; a timing-only throw
// leaves it, since that run touched no DRAM.
TEST(ResidentWeightsTest, HandBuiltStreamIsCheckedInBothModes) {
  ResidentFixture fx;
  CompiledModel bad = fx.cm;
  bad.decoded.reset();
  const auto save = std::find_if(
      bad.program.rbegin(), bad.program.rend(), [](const Instruction& instr) {
        return PeekOpcode(instr) == Opcode::kSave;
      });
  ASSERT_NE(save, bad.program.rend());
  auto f = std::get<SaveFields>(Decode(*save));
  f.dram_base = static_cast<std::uint32_t>(bad.fmap_base - 1);
  *save = Encode(f);

  const auto& input = fx.inputs[0];
  Runtime rt(fx.cfg, TestSpec());
  EXPECT_THROW(rt.Execute(fx.model, bad, {}, {}, /*functional=*/false),
               InternalError);
  EXPECT_EQ(rt.dram(), nullptr);
  EXPECT_THROW(rt.Execute(fx.model, bad, fx.weights, input), InternalError);

  rt.Execute(fx.model, fx.cm, fx.weights, input);
  const std::int64_t cold_written = rt.dram()->words_written();
  EXPECT_THROW(rt.Execute(fx.model, bad, {}, {}, /*functional=*/false),
               InternalError);
  const RunReport warm = rt.Execute(fx.model, fx.cm, fx.weights, input);
  EXPECT_EQ(rt.dram()->words_written(), cold_written - fx.cm.fmap_base)
      << "a timing-only throw dropped the resident claim";
  EXPECT_EQ(warm.output, fx.Golden(fx.cm, input));

  EXPECT_THROW(rt.Execute(fx.model, bad, fx.weights, input), InternalError);
  rt.Execute(fx.model, fx.cm, fx.weights, input);
  EXPECT_EQ(rt.dram()->words_written(), cold_written);
}

TEST(ResidentWeightsTest, WeightsMutatedInPlaceAreRestaged) {
  ResidentFixture fx;
  const auto& input = fx.inputs[1];
  Runtime rt(fx.cfg, TestSpec());
  const Tensor<std::int16_t> before = fx.Golden(fx.cm, input);
  EXPECT_EQ(rt.Execute(fx.model, fx.cm, fx.weights, input).output, before);

  // Same tensor objects, one new weight value (a Winograd layer's, so the
  // key must see through the offline transform to the raw weights).
  fx.weights[0].weights.at(3, 1, 1, 1) += 7;
  const Tensor<std::int16_t> after_weight = fx.Golden(fx.cm, input);
  ASSERT_NE(after_weight, before);
  EXPECT_EQ(rt.Execute(fx.model, fx.cm, fx.weights, input).output,
            after_weight);

  fx.weights[3].bias.flat(2) += 1000;
  const Tensor<std::int16_t> after_bias = fx.Golden(fx.cm, input);
  ASSERT_NE(after_bias, after_weight);
  EXPECT_EQ(rt.Execute(fx.model, fx.cm, fx.weights, input).output,
            after_bias);
}

TEST(ResidentWeightsTest, AlternatingDeploymentsStayGolden) {
  // Two identical layers with their modes swapped: both deployments pack
  // the same weights into an image of the same extent, so only the
  // per-layer plans tell the two images apart.
  Model twin("twin", FmapShape{16, 12, 12});
  ConvLayer layer;
  layer.in_channels = 16;
  layer.out_channels = 16;
  layer.relu = true;
  layer.name = "a";
  twin.Append(layer);
  layer.name = "b";
  twin.Append(layer);
  const LayerMapping wino{ConvMode::kWinograd, Dataflow::kInputStationary};
  const LayerMapping spat{ConvMode::kSpatial, Dataflow::kInputStationary};
  const ResidentFixture fx(twin, {wino, spat});
  const CompiledModel swapped =
      Compiler(fx.cfg, TestSpec()).Compile(twin, {spat, wino});
  ASSERT_EQ(swapped.fmap_base, fx.cm.fmap_base);
  ASSERT_EQ(swapped.total_dram_words, fx.cm.total_dram_words);
  Runtime rt(fx.cfg, TestSpec());
  for (int i = 0; i < 6; ++i) {
    const CompiledModel& cm = i % 2 == 0 ? fx.cm : swapped;
    const auto& input = fx.inputs[static_cast<std::size_t>(i % 3)];
    EXPECT_EQ(rt.Execute(fx.model, cm, fx.weights, input).output,
              fx.Golden(cm, input))
        << "execute " << i;
  }
}

TEST(ResidentWeightsTest, FaultInWeightImageOnWarmRuntimeDoesNotPersist) {
  ResidentFixture fx;
  const auto& input = fx.inputs[2];
  const Tensor<std::int16_t> golden = fx.Golden(fx.cm, input);
  Runtime rt(fx.cfg, TestSpec());
  rt.Execute(fx.model, fx.cm, fx.weights, input);
  rt.Execute(fx.model, fx.cm, fx.weights, input);  // warm

  // Fire on the simulator's first access, after the full re-stage (weight
  // image plus input) that an armed fault forces, flipping the last
  // layer's first bias word before its LOAD_BIAS reads it.
  const LayerPlan& first = fx.cm.plans.front();
  const std::int64_t staged =
      fx.cm.fmap_base + static_cast<std::int64_t>(first.cp_in) *
                            first.in_shape.height * first.in_shape.width;
  const std::int64_t addr = fx.cm.plans.back().bias_dram_base;
  ASSERT_LT(addr, fx.cm.fmap_base);
  rt.dram()->ArmFault({/*after_total_words=*/staged + 1, addr,
                       /*xor_mask=*/0x1000});
  const RunReport hit = rt.Execute(fx.model, fx.cm, fx.weights, input);
  EXPECT_EQ(rt.dram()->injected_faults(), 1);
  EXPECT_EQ(rt.dram()->armed_faults(), 0);
  EXPECT_NE(hit.output, golden) << "the flipped bias reached the output";

  // The fault is consumed, and its run left no resident claim: the next
  // Execute re-stages the image and is golden again.
  EXPECT_EQ(rt.Execute(fx.model, fx.cm, fx.weights, input).output, golden);
  EXPECT_EQ(rt.Execute(fx.model, fx.cm, fx.weights, input).output, golden);
}

}  // namespace
}  // namespace hdnn
