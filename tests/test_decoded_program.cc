// Decode-once program cache: a DecodedProgram is a pure function of the
// program bytes, and executing it — repeatedly, across DramModel::Reset,
// from the compiler's cached copy or from a fresh decode — must be bit- and
// cycle-identical every time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "nn/builders.h"
#include "runtime/runtime.h"
#include "sim/decoded_program.h"
#include "tests/testing_util.h"

namespace hdnn {
namespace {

using ::hdnn::testing::MakeInput;
using ::hdnn::testing::TestConfig;
using ::hdnn::testing::TestSpec;

/// Two layers covering both CONV modes, a fused pool and a layout
/// transform — enough to populate all four module queues.
Model SmallMixedModel() {
  Model m("decoded_mixed", FmapShape{8, 14, 14});
  ConvLayer l1;
  l1.name = "wino";
  l1.in_channels = 8;
  l1.out_channels = 16;
  l1.relu = true;
  m.Append(l1);
  ConvLayer l2;
  l2.name = "spat";
  l2.in_channels = 16;
  l2.out_channels = 8;
  l2.pool = 2;
  m.Append(l2);
  return m;
}

std::vector<LayerMapping> SmallMixedMapping() {
  return {
      {ConvMode::kWinograd, Dataflow::kInputStationary},
      {ConvMode::kSpatial, Dataflow::kInputStationary},
  };
}

void ExpectStatsIdentical(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.total_cycles, b.total_cycles);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.ldi_busy, b.ldi_busy);
  EXPECT_EQ(a.ldw_busy, b.ldw_busy);
  EXPECT_EQ(a.comp_busy, b.comp_busy);
  EXPECT_EQ(a.save_busy, b.save_busy);
  EXPECT_EQ(a.port_busy, b.port_busy);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.dram_words_read, b.dram_words_read);
  EXPECT_EQ(a.dram_words_written, b.dram_words_written);
  EXPECT_EQ(a.macs_executed, b.macs_executed);
}

TEST(DecodedProgramTest, MatchesPerInstructionDecode) {
  const AccelConfig cfg = TestConfig(4);
  const Compiler compiler(cfg, TestSpec());
  const CompiledModel cm =
      compiler.Compile(SmallMixedModel(), SmallMixedMapping());

  const DecodedProgram prog = DecodeProgram(cm.program);
  ASSERT_EQ(prog.size(), cm.program.size());
  std::size_t queued = 0;
  for (const auto& queue : prog.queues) queued += queue.size();
  std::size_t arch = 0;
  for (std::size_t i = 0; i < cm.program.size(); ++i) {
    const InstrFields fresh = Decode(cm.program[i]);
    EXPECT_EQ(prog.fields[i], fresh) << "instruction " << i;
    const Opcode op = OpcodeOf(fresh);
    if (op == Opcode::kNop || op == Opcode::kEnd) continue;
    ++arch;
    // The instruction must sit in exactly its module's queue, in order.
    const auto& queue = prog.queues[SimModuleOf(op)];
    EXPECT_TRUE(std::find(queue.begin(), queue.end(),
                          static_cast<std::uint32_t>(i)) != queue.end())
        << "instruction " << i << " missing from its module queue";
  }
  EXPECT_EQ(queued, arch);
  for (const auto& queue : prog.queues) {
    EXPECT_TRUE(std::is_sorted(queue.begin(), queue.end()))
        << "module queues must preserve program order";
  }
}

TEST(DecodedProgramTest, CompilerAttachesTheDecodeOnceCache) {
  const AccelConfig cfg = TestConfig(4);
  const Compiler compiler(cfg, TestSpec());
  const CompiledModel cm =
      compiler.Compile(SmallMixedModel(), SmallMixedMapping());
  ASSERT_NE(cm.decoded, nullptr);
  ASSERT_EQ(cm.decoded->size(), cm.program.size());
  for (std::size_t i = 0; i < cm.program.size(); ++i) {
    EXPECT_EQ(cm.decoded->fields[i], Decode(cm.program[i]));
  }
}

// One DecodedProgram executed repeatedly on a persistent Accelerator —
// across DramModel::Reset, interleaved with fresh per-run decodes — must
// produce bit-identical DRAM contents and cycle-identical SimStats every
// time. This is the serving steady state (the engine's workers run the
// compiler's cached decode for every batch item).
TEST(DecodedProgramTest, ReuseAcrossResetIsBitAndCycleIdentical) {
  const Model model = SmallMixedModel();
  const AccelConfig cfg = TestConfig(4);
  const FpgaSpec spec = TestSpec();
  const Compiler compiler(cfg, spec);
  const CompiledModel cm = compiler.Compile(model, SmallMixedMapping());
  const ModelWeightsQ weights = SyntheticWeights(model, 21);
  const Tensor<std::int16_t> input = MakeInput(model.InputOf(0), 22);
  const LayerPlan& first = cm.plans.front();
  const LayerPlan& last = cm.plans.back();

  const std::int64_t dram_words = cm.total_dram_words + 1024;
  DramModel dram(dram_words);
  Accelerator accel(cfg, spec);

  const auto run = [&](bool use_decoded) {
    dram.Reset(dram_words);
    WriteWeightImages(cm, model, weights, dram);
    StageInputFmap(dram, cm.input_region(0), first.input_layout, input,
                   first.cp_in);
    SimStats stats = use_decoded ? accel.Run(*cm.decoded, &dram)
                                 : accel.Run(DecodeProgram(cm.program), &dram);
    Tensor<std::int16_t> out =
        CollectOutputFmap(dram, cm.output_region(model.num_layers() - 1),
                          last.output_layout, last.out_shape, last.cp_out);
    return std::make_pair(std::move(stats), std::move(out));
  };

  const auto [stats_fresh, out_fresh] = run(/*use_decoded=*/false);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto [stats_cached, out_cached] = run(/*use_decoded=*/true);
    ExpectStatsIdentical(stats_cached, stats_fresh);
    EXPECT_EQ(out_cached, out_fresh) << "repeat " << repeat;
  }
  // And a fresh decode after the cached runs: no hidden state in either
  // direction.
  const auto [stats_again, out_again] = run(/*use_decoded=*/false);
  ExpectStatsIdentical(stats_again, stats_fresh);
  EXPECT_EQ(out_again, out_fresh);
}

// The Runtime consumes the cached decode when present and falls back to
// validate + decode per run when it is absent; both paths must agree.
TEST(DecodedProgramTest, RuntimeWithAndWithoutCachedDecodeAgree) {
  const Model model = SmallMixedModel();
  const AccelConfig cfg = TestConfig(4);
  const FpgaSpec spec = TestSpec();
  const Compiler compiler(cfg, spec);
  const CompiledModel cm = compiler.Compile(model, SmallMixedMapping());
  CompiledModel plain = cm;
  plain.decoded.reset();

  const ModelWeightsQ weights = SyntheticWeights(model, 5);
  const Tensor<std::int16_t> input = MakeInput(model.InputOf(0), 6);
  Runtime cached_rt(cfg, spec);
  Runtime plain_rt(cfg, spec);
  const RunReport cached = cached_rt.Execute(model, cm, weights, input);
  const RunReport fresh = plain_rt.Execute(model, plain, weights, input);
  ExpectStatsIdentical(cached.stats, fresh.stats);
  EXPECT_EQ(cached.output, fresh.output);
}

}  // namespace
}  // namespace hdnn
