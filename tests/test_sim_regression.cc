// Bit-exactness regression tests for the flat-scratch simulator COMP
// datapath: a mixed Spatial/Winograd model runs through the optimized
// simulator and must match (a) the golden refconv/winograd references
// computed fresh each run, and (b) output vectors captured from the
// pre-refactor simulator (vector-of-vectors scratch, per-element slab
// checks), plus the modeled cycles and DRAM traffic of the same run. (b)
// pins the exact integer semantics and the cycle model: if a change is
// "consistently wrong" — altering the simulator and reference together —
// the captured constants still catch it.
#include <gtest/gtest.h>

#include <cstdint>

#include "nn/builders.h"
#include "tests/testing_util.h"

namespace hdnn {
namespace {

using ::hdnn::testing::RunEndToEnd;
using ::hdnn::testing::TestConfig;
using ::hdnn::testing::TestSpec;

/// FNV-1a over the output tensor's int16 elements, low byte first.
std::uint64_t Fnv1a(const Tensor<std::int16_t>& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const std::uint16_t v = static_cast<std::uint16_t>(t.flat(i));
    for (int b = 0; b < 2; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Three layers covering both CONV modes, both dataflows, ReLU, pooling and
/// the Winograd<->Spatial layout transforms between consecutive layers.
Model MixedModel() {
  Model m("regression_mixed", FmapShape{8, 14, 14});
  ConvLayer l1;
  l1.name = "wino_is";
  l1.in_channels = 8;
  l1.out_channels = 16;
  l1.relu = true;
  m.Append(l1);
  ConvLayer l2;
  l2.name = "spat_ws";
  l2.in_channels = 16;
  l2.out_channels = 16;
  l2.pool = 2;
  m.Append(l2);
  ConvLayer l3;
  l3.name = "wino_ws";
  l3.in_channels = 16;
  l3.out_channels = 8;
  l3.relu = true;
  m.Append(l3);
  return m;
}

std::vector<LayerMapping> MixedMapping() {
  return {
      {ConvMode::kWinograd, Dataflow::kInputStationary},
      {ConvMode::kSpatial, Dataflow::kWeightStationary},
      {ConvMode::kWinograd, Dataflow::kWeightStationary},
  };
}

/// Captured from the pre-refactor simulator (seed 11, TestConfig geometry).
/// Do NOT regenerate these from a current build to make a failure go away:
/// they are the contract that optimisation work preserves the original
/// integer semantics.
/// The modeled timing (cycles, DRAM traffic) was captured later, from the
/// same configuration; it pins the cycle model the same way.
struct CapturedOutput {
  std::int64_t elements;
  std::uint64_t fnv1a;
  std::int16_t first8[8];
  std::int16_t last4[4];
  double total_cycles;
  std::int64_t dram_words_read;
  std::int64_t dram_words_written;
};

constexpr CapturedOutput kCapturedPt4 = {
    392,
    0xbe6daf022dc5627eull,
    {268, 62, 187, 165, 235, 105, 0, 0},
    {177, 0, 0, 0},
    3411.25,
    24448,
    4312,
};
constexpr CapturedOutput kCapturedPt6 = {
    392,
    0x919159783e8f94a5ull,
    {272, 46, 200, 174, 251, 111, 0, 0},
    {153, 0, 0, 0},
    3206.25,
    31008,
    4312,
};

class MixedModelRegression : public ::testing::TestWithParam<int> {};

TEST_P(MixedModelRegression, MatchesGoldenAndCapturedVectors) {
  const int pt = GetParam();
  const CapturedOutput& captured = pt == 4 ? kCapturedPt4 : kCapturedPt6;
  auto r = RunEndToEnd(MixedModel(), TestConfig(pt), TestSpec(),
                       MixedMapping(), /*seed=*/11);

  // (a) Fresh golden reference.
  EXPECT_EQ(r.sim_out, r.golden_out);

  // (b) Pre-refactor captured vectors.
  ASSERT_EQ(r.sim_out.elements(), captured.elements);
  EXPECT_EQ(Fnv1a(r.sim_out), captured.fnv1a)
      << "simulator output diverged from the pre-refactor capture";
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(r.sim_out.flat(i), captured.first8[i]) << "element " << i;
  }
  for (int i = 0; i < 4; ++i) {
    const std::int64_t idx = captured.elements - 4 + i;
    EXPECT_EQ(r.sim_out.flat(idx), captured.last4[i]) << "element " << idx;
  }
  EXPECT_EQ(r.report.stats.total_cycles, captured.total_cycles);
  EXPECT_EQ(r.report.stats.dram_words_read, captured.dram_words_read);
  EXPECT_EQ(r.report.stats.dram_words_written, captured.dram_words_written);
}

INSTANTIATE_TEST_SUITE_P(BothTileSizes, MixedModelRegression,
                         ::testing::Values(4, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "pt" + std::to_string(info.param);
                         });

// The Runtime now keeps its DramModel and Accelerator (with all COMP
// scratch arenas) alive across Execute calls. Repeated executions must be
// bit- and cycle-identical to the first — i.e. arena reuse must be
// invisible.
TEST(RuntimeReuseTest, RepeatedExecutesAreBitAndCycleIdentical) {
  const Model m = MixedModel();
  const AccelConfig cfg = TestConfig(4);
  const FpgaSpec spec = TestSpec();
  const Compiler compiler(cfg, spec);
  const CompiledModel cm = compiler.Compile(m, MixedMapping());
  const ModelWeightsQ weights = SyntheticWeights(m, 11);
  const Tensor<std::int16_t> input =
      ::hdnn::testing::MakeInput(m.InputOf(0), 12);

  Runtime runtime(cfg, spec);
  const RunReport first = runtime.Execute(m, cm, weights, input);
  for (int i = 0; i < 3; ++i) {
    const RunReport again = runtime.Execute(m, cm, weights, input);
    EXPECT_EQ(again.output, first.output) << "repeat " << i;
    EXPECT_EQ(again.stats.total_cycles, first.stats.total_cycles);
    EXPECT_EQ(again.stats.dram_words_read, first.stats.dram_words_read);
    EXPECT_EQ(again.stats.macs_executed, first.stats.macs_executed);
  }

  // Interleaving a different program through the same Runtime must not
  // perturb a later re-run of the original (stale buffer/arena contents
  // must never leak between programs).
  const Model other = ::hdnn::BuildSingleConv(4, 8, 10, 10, 3);
  const std::vector<LayerMapping> other_map{
      {ConvMode::kSpatial, Dataflow::kInputStationary}};
  const CompiledModel other_cm = compiler.Compile(other, other_map);
  runtime.Execute(other, other_cm, SyntheticWeights(other, 3),
                  ::hdnn::testing::MakeInput(other.InputOf(0), 4));
  const RunReport after = runtime.Execute(m, cm, weights, input);
  EXPECT_EQ(after.output, first.output);
  EXPECT_EQ(after.stats.total_cycles, first.stats.total_cycles);
}

TEST(DramModelResetTest, ResetZeroesAndResizesReusingStorage) {
  DramModel dram(64);
  dram.WriteRun(10, 1)[0] = 1234;

  dram.Reset(128);
  EXPECT_EQ(dram.size_words(), 128);
  EXPECT_EQ(dram.words_written(), 0);
  EXPECT_EQ(dram.Read(10), 0) << "Reset must zero previous contents";

  dram.Reset(16);
  EXPECT_EQ(dram.size_words(), 16);
  EXPECT_THROW(dram.Read(16), Error);
  EXPECT_THROW(dram.Reset(0), Error);
}

}  // namespace
}  // namespace hdnn
