// Tests for the post-training quantization flow: calibration statistics,
// scale selection, QuantConfig validation, compiler QUAN_PARAM wiring
// (per-layer and per-channel), parameter quantization, and bit-identity of
// the simulator against the quantized golden reference at calibrated
// precision points.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "nn/builders.h"
#include "quant/calibration.h"
#include "quant/golden.h"
#include "quant/quant_config.h"
#include "quant/scale_select.h"
#include "runtime/runtime.h"
#include "testing_util.h"

namespace hdnn {
namespace {

using testing::TestConfig;
using testing::TestSpec;

std::vector<LayerMapping> SpatialMapping(const Model& model) {
  return std::vector<LayerMapping>(
      static_cast<std::size_t>(model.num_layers()),
      LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
}

/// Calibrate + select scales + compile + quantize + run sim and quantized
/// golden; returns true when the sim output is bit-identical to the golden.
struct FlowResult {
  CompiledModel cm;
  QuantConfig qc;
  bool bit_identical = false;
};

FlowResult RunQuantFlow(const Model& model,
                        const std::vector<LayerMapping>& mapping,
                        const AccelConfig& cfg, const ScaleOptions& options,
                        const ModelWeightsF* weights = nullptr) {
  const ModelWeightsF weightsF =
      weights != nullptr ? *weights : SyntheticWeightsF(model, 11);
  std::vector<Tensor<float>> batches;
  for (int i = 0; i < 3; ++i) {
    batches.push_back(MakeCalibrationInput(model.input(), 40 + i));
  }
  const CalibrationResult calib = Calibrate(model, weightsF, batches);

  FlowResult r;
  r.qc = SelectScales(model, cfg, calib, weightsF, options);
  const Compiler compiler(cfg, TestSpec());
  r.cm = compiler.Compile(model, mapping, &r.qc);
  const ModelWeightsQ wq = QuantizeParams(model, weightsF, r.cm);

  const Tensor<float> input = MakeCalibrationInput(model.input(), 99);
  const Tensor<std::int16_t> qin = QuantizeInputFmap(input, r.cm);
  const std::vector<Tensor<std::int16_t>> golden =
      QuantGoldenForward(model, r.cm, wq, qin);

  Runtime runtime(cfg, TestSpec());
  const RunReport report = runtime.Execute(model, r.cm, wq, qin);
  r.bit_identical = report.output.shape() == golden.back().shape() &&
                    report.output.storage() == golden.back().storage();
  return r;
}

// ---------------------------------------------------------------- RangeStats

TEST(RangeStatsTest, TracksMinMaxAndCount) {
  Tensor<float> t(Shape{4});
  t.flat(0) = -2.0f;
  t.flat(1) = 0.5f;
  t.flat(2) = 3.0f;
  t.flat(3) = 0.0f;
  RangeStats s;
  s.Observe(t);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.max_abs(), 3.0);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 3.0);
}

TEST(RangeStatsTest, PercentileShedsOutliers) {
  // 999 values at ~1.0 and a single 100.0 outlier: the 99% bound must stay
  // near 1, the 100% bound must be the outlier.
  Tensor<float> t(Shape{1000});
  for (std::int64_t i = 0; i < 999; ++i) t.flat(i) = 1.0f;
  t.flat(999) = 100.0f;
  RangeStats s;
  s.Observe(t);
  EXPECT_DOUBLE_EQ(s.Percentile(1.0), 100.0);
  EXPECT_LT(s.Percentile(0.99), 2.0);
  EXPECT_GE(s.Percentile(0.99), 1.0);
}

TEST(RangeStatsTest, ObservationOrderDoesNotChangePercentiles) {
  // The histogram grows by doubling with exact 2:1 merges, so seeing the
  // large value first or last must give the same bins.
  Tensor<float> small(Shape{100});
  for (std::int64_t i = 0; i < 100; ++i) {
    small.flat(i) = 0.01f * static_cast<float>(i + 1);
  }
  Tensor<float> big(Shape{1});
  big.flat(0) = 57.0f;
  RangeStats ab;
  ab.Observe(small);
  ab.Observe(big);
  RangeStats ba;
  ba.Observe(big);
  ba.Observe(small);
  for (double p : {0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(ab.Percentile(p), ba.Percentile(p)) << "p=" << p;
  }
}

TEST(RangeStatsTest, RejectsNonFiniteActivations) {
  Tensor<float> t(Shape{1});
  t.flat(0) = std::numeric_limits<float>::infinity();
  RangeStats s;
  EXPECT_THROW(s.Observe(t), InvalidArgument);
}

// ----------------------------------------------------------- Fp32 reference

TEST(CalibrationTest, Fp32ForwardMatchesGraphSemantics) {
  // On the residual model the FP32 path must branch/add exactly like the
  // integer golden: same shapes, ReLU after the add (non-negative output).
  const Model model = BuildTinyResidualBlock();
  const ModelWeightsF weightsF = SyntheticWeightsF(model, 3);
  const Tensor<float> input = MakeCalibrationInput(model.input(), 5);
  const std::vector<Tensor<float>> acts = Fp32Forward(model, weightsF, input);
  ASSERT_EQ(static_cast<int>(acts.size()), model.num_layers());
  for (int i = 0; i < model.num_layers(); ++i) {
    const FmapShape want = model.OutputOf(i);
    EXPECT_EQ(acts[static_cast<std::size_t>(i)].shape(),
              Shape({want.channels, want.height, want.width}));
  }
  for (std::int64_t e = 0; e < acts.back().elements(); ++e) {
    EXPECT_GE(acts.back().flat(e), 0.0f);  // final layer ReLUs after add
  }
}

TEST(CalibrationTest, CoversEveryTensor) {
  const Model model = BuildTinyCnn();
  const ModelWeightsF weightsF = SyntheticWeightsF(model, 3);
  std::vector<Tensor<float>> batches;
  batches.push_back(MakeCalibrationInput(model.input(), 1));
  batches.push_back(MakeCalibrationInput(model.input(), 2));
  const CalibrationResult calib = Calibrate(model, weightsF, batches);
  ASSERT_EQ(static_cast<int>(calib.tensors.size()), model.num_layers() + 1);
  EXPECT_EQ(calib.batches, 2);
  for (const RangeStats& s : calib.tensors) {
    EXPECT_GT(s.count(), 0);
    EXPECT_GT(s.max_abs(), 0.0);
  }
}

// ------------------------------------------------------------- QuantConfig

TEST(QuantConfigTest, UniformValidates) {
  const Model model = BuildTinyCnn();
  const QuantConfig a = QuantConfig::Uniform(model);
  EXPECT_NO_THROW(a.Validate(model));
}

TEST(QuantConfigTest, ValidateRejectsNegativeShift) {
  const Model model = BuildTinyCnn();
  QuantConfig qc = QuantConfig::Uniform(model);
  // out_frac finer than in_frac + wgt_frac would need a LEFT shift.
  qc.act_frac[1] = qc.act_frac[0] + qc.wgt_frac[0] + 1;
  EXPECT_THROW(qc.Validate(model), InvalidArgument);
}

TEST(QuantConfigTest, ValidateRejectsMismatchedResidualGrids) {
  const Model model = BuildTinyResidualBlock();
  QuantConfig qc = QuantConfig::Uniform(model);
  // Last layer adds the projection (layer 2): force differing grids.
  qc.act_frac[static_cast<std::size_t>(model.num_layers())] = 5;
  EXPECT_THROW(qc.Validate(model), InvalidArgument);
}

// ------------------------------------------------------------ SelectScales

TEST(SelectScalesTest, RespectsDatapathConstraints) {
  const Model model = BuildTinyResidualBlock();
  const AccelConfig cfg = TestConfig();
  const ModelWeightsF weightsF = SyntheticWeightsF(model, 11);
  std::vector<Tensor<float>> batches;
  batches.push_back(MakeCalibrationInput(model.input(), 1));
  const CalibrationResult calib = Calibrate(model, weightsF, batches);
  const QuantConfig qc = SelectScales(model, cfg, calib, weightsF);
  // Validate() enforces shift >= 0 and residual-grid equality; re-check the
  // residual rule explicitly for the skip edge of the last layer.
  const int last = model.num_layers() - 1;
  const int res = model.residual_index(last);
  ASSERT_GE(res, 0);
  EXPECT_EQ(qc.out_frac(last), qc.out_frac(res));
  for (int t = 0; t <= model.num_layers(); ++t) {
    EXPECT_GT(qc.act_frac[static_cast<std::size_t>(t)], 0);
    EXPECT_LT(qc.act_frac[static_cast<std::size_t>(t)], cfg.data_width);
  }
}

// -------------------------------------------------------- Compiler wiring

TEST(QuantCompileTest, UniformConfigIsBitIdenticalToLegacyCompile) {
  const Model model = BuildTinyCnn();
  const AccelConfig cfg = TestConfig();
  const Compiler compiler(cfg, TestSpec());
  const std::vector<LayerMapping> mapping = SpatialMapping(model);
  const CompiledModel legacy = compiler.Compile(model, mapping);
  const QuantConfig uniform = QuantConfig::Uniform(model);
  const CompiledModel quant = compiler.Compile(model, mapping, &uniform);
  ASSERT_EQ(legacy.program.size(), quant.program.size());
  for (std::size_t i = 0; i < legacy.program.size(); ++i) {
    EXPECT_EQ(legacy.program[i].lo, quant.program[i].lo) << "instr " << i;
    EXPECT_EQ(legacy.program[i].hi, quant.program[i].hi) << "instr " << i;
  }
}

/// K=512 with C=16 exceeds the test weight buffer, so the compiler splits
/// the layer into two 256-channel weight blocks — the smallest geometry
/// where per-block shifts can actually differ.
Model TwoBlockConv() { return BuildSingleConv(16, 512, 8, 8, 3, 1, 1, true); }

/// Scales channels [256, 512) down so the second weight block wants a
/// finer grid than the first.
void ShrinkSecondBlock(ModelWeightsF& weightsF) {
  Tensor<float>& w = weightsF[0].weights;
  const std::int64_t per_k = w.elements() / w.shape().dim(0);
  for (int k = 256; k < 512; ++k) {
    for (std::int64_t e = 0; e < per_k; ++e) {
      w.flat(k * per_k + e) *= 0.05f;
    }
  }
}

TEST(QuantCompileTest, PerChannelShiftsAreConstantWithinWeightBlocks) {
  const Model model = TwoBlockConv();
  const AccelConfig cfg = TestConfig();
  ModelWeightsF weightsF = SyntheticWeightsF(model, 11);
  ShrinkSecondBlock(weightsF);
  std::vector<Tensor<float>> batches;
  batches.push_back(MakeCalibrationInput(model.input(), 1));
  const CalibrationResult calib = Calibrate(model, weightsF, batches);
  const QuantConfig qc = SelectScales(model, cfg, calib, weightsF);
  ASSERT_FALSE(qc.wgt_frac_ch[0].empty());

  const Compiler compiler(cfg, TestSpec());
  const CompiledModel cm = compiler.Compile(model, SpatialMapping(model), &qc);
  const LayerPlan& plan = cm.plans[0];
  ASSERT_EQ(static_cast<int>(plan.quan_shift_ch.size()), 512);
  // Block-constant: channels 0-255 share one shift, 256-511 another, and
  // the small-magnitude block gets the larger shift (finer weight grid).
  for (int k = 1; k < 256; ++k) {
    EXPECT_EQ(plan.quan_shift_ch[static_cast<std::size_t>(k)],
              plan.quan_shift_ch[0]);
    EXPECT_EQ(plan.quan_shift_ch[static_cast<std::size_t>(256 + k)],
              plan.quan_shift_ch[256]);
  }
  EXPECT_GT(plan.quan_shift_ch[256], plan.quan_shift_ch[0]);
}

TEST(QuantCompileTest, WinogradLayersStayUniform) {
  const Model model = BuildSingleConv(4, 8, 8, 8, 3, 1, 1, true);
  const AccelConfig cfg = TestConfig();
  const ModelWeightsF weightsF = SyntheticWeightsF(model, 11);
  std::vector<Tensor<float>> batches;
  batches.push_back(MakeCalibrationInput(model.input(), 1));
  const CalibrationResult calib = Calibrate(model, weightsF, batches);
  QuantConfig qc = SelectScales(model, cfg, calib, weightsF);
  qc.wgt_frac_ch[0].assign(8, qc.wgt_frac[0]);
  qc.wgt_frac_ch[0][0] += 2;  // per-channel request the mode cannot honour
  const Compiler compiler(cfg, TestSpec());
  const std::vector<LayerMapping> wino(
      1, LayerMapping{ConvMode::kWinograd, Dataflow::kInputStationary});
  const CompiledModel cm = compiler.Compile(model, wino, &qc);
  EXPECT_TRUE(cm.plans[0].quan_shift_ch.empty());
  EXPECT_EQ(cm.plans[0].quan_shift,
            cm.plans[0].in_frac + cm.plans[0].wgt_frac +
                cm.plans[0].u_shift - cm.plans[0].out_frac);
}

// --------------------------------------------- end-to-end bit-identity

TEST(QuantEndToEndTest, TinyCnnSimMatchesQuantGolden) {
  const Model model = BuildTinyCnn();
  const FlowResult r =
      RunQuantFlow(model, SpatialMapping(model), TestConfig(), ScaleOptions{});
  EXPECT_TRUE(r.bit_identical);
}

TEST(QuantEndToEndTest, ResidualModelSimMatchesQuantGolden) {
  const Model model = BuildTinyResidualBlock();
  const FlowResult r =
      RunQuantFlow(model, SpatialMapping(model), TestConfig(), ScaleOptions{});
  EXPECT_TRUE(r.bit_identical);
}

TEST(QuantEndToEndTest, PerChannelPathSimMatchesQuantGolden) {
  const Model model = TwoBlockConv();
  ModelWeightsF weightsF = SyntheticWeightsF(model, 11);
  ShrinkSecondBlock(weightsF);
  ScaleOptions options;
  options.per_channel = true;
  const FlowResult r = RunQuantFlow(model, SpatialMapping(model), TestConfig(),
                                    options, &weightsF);
  // The point of this test is the per-channel COMP path: the plan must
  // actually carry per-block shifts, and the sim must still match exactly.
  EXPECT_FALSE(r.cm.plans[0].quan_shift_ch.empty());
  EXPECT_TRUE(r.bit_identical);
}

TEST(QuantEndToEndTest, WinogradModeSimMatchesQuantGolden) {
  const Model model = BuildSingleConv(4, 8, 8, 8, 3, 1, 1, true);
  const std::vector<LayerMapping> wino(
      1, LayerMapping{ConvMode::kWinograd, Dataflow::kInputStationary});
  const FlowResult r = RunQuantFlow(model, wino, TestConfig(), ScaleOptions{});
  EXPECT_TRUE(r.bit_identical);
}

TEST(QuantEndToEndTest, CalibratedShiftsDifferFromHandAssigned) {
  // The whole point of calibration: with He-scaled float weights the
  // adopted shifts must NOT be the hand-assigned base_shift everywhere.
  const Model model = BuildTinyCnn();
  const FlowResult r =
      RunQuantFlow(model, SpatialMapping(model), TestConfig(), ScaleOptions{});
  bool any_differs = false;
  for (const LayerPlan& plan : r.cm.plans) {
    any_differs |= plan.quan_shift != r.cm.base_shift + plan.u_shift;
  }
  EXPECT_TRUE(any_differs);
}

// The quant_error bench's models at its --smoke size on the PYNQ-Z1 design
// point (TestConfig() is that point: PI=PO=PT=4, NI=1, and its buffers):
// weights seed 7, calibration batches 100-101, held-out eval input 900. The
// simulator must match the quantized golden under both the uniform and the
// calibrated scales.
TEST(QuantEndToEndTest, BenchModelsOnPynqMatchQuantGolden) {
  const AccelConfig cfg = TestConfig();
  const Compiler compiler(cfg, PynqZ1Spec());
  for (const Model& model : {BuildTinyCnn(), BuildVgg16Style(32, 4),
                             BuildResNet18Scaled(64, 4)}) {
    const ModelWeightsF weightsF = SyntheticWeightsF(model, 7);
    const std::vector<Tensor<float>> calib_inputs{
        MakeCalibrationInput(model.input(), 100),
        MakeCalibrationInput(model.input(), 101)};
    const CalibrationResult calib = Calibrate(model, weightsF, calib_inputs);
    const Tensor<float> input = MakeCalibrationInput(model.input(), 900);
    const QuantConfig configs[] = {
        QuantConfig::Uniform(model),
        SelectScales(model, cfg, calib, weightsF, ScaleOptions{})};
    for (const QuantConfig& qc : configs) {
      SCOPED_TRACE(::testing::Message()
                   << model.name() << (&qc == configs ? " uniform"
                                                      : " calibrated"));
      const CompiledModel cm =
          compiler.Compile(model, SpatialMapping(model), &qc);
      const ModelWeightsQ wq = QuantizeParams(model, weightsF, cm);
      const Tensor<std::int16_t> qin = QuantizeInputFmap(input, cm);
      const std::vector<Tensor<std::int16_t>> golden =
          QuantGoldenForward(model, cm, wq, qin);
      Runtime runtime(cfg, PynqZ1Spec());
      const RunReport run = runtime.Execute(model, cm, wq, qin);
      EXPECT_EQ(run.output.shape(), golden.back().shape());
      EXPECT_EQ(run.output.storage(), golden.back().storage());
    }
  }
}

}  // namespace
}  // namespace hdnn
