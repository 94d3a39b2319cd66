// The compiler QA pass: every program the compiler emits must be clean, and
// deliberately corrupted programs must be flagged.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <variant>

#include "compiler/stream_check.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "sim/accelerator.h"
#include "testing_util.h"

namespace hdnn {
namespace {

using ::hdnn::testing::TestConfig;
using ::hdnn::testing::TestSpec;

CompiledModel CompileTiny(ConvMode mode, Dataflow flow, int pt = 4) {
  const Model m = BuildTinyCnn();
  std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(m.num_layers()), LayerMapping{mode, flow});
  mapping.back() = {ConvMode::kSpatial, Dataflow::kWeightStationary};  // FC
  return Compiler(TestConfig(pt), TestSpec()).Compile(m, mapping);
}

class CompiledStreamTest
    : public ::testing::TestWithParam<std::tuple<ConvMode, Dataflow, int>> {};

TEST_P(CompiledStreamTest, CompilerOutputIsAlwaysClean) {
  const auto& [mode, flow, pt] = GetParam();
  const CompiledModel cm = CompileTiny(mode, flow, pt);
  const StreamCheckReport report = CheckInstructionStream(cm);
  EXPECT_TRUE(report.ok()) << report.violations.front();
  EXPECT_GT(report.comps, 0);
  EXPECT_EQ(report.loads_wgt, report.loads_bias);  // bias rides every block
  EXPECT_NO_THROW(RequireValidStream(cm));
}

INSTANTIATE_TEST_SUITE_P(
    ModesFlows, CompiledStreamTest,
    ::testing::Combine(::testing::Values(ConvMode::kSpatial,
                                         ConvMode::kWinograd),
                       ::testing::Values(Dataflow::kInputStationary,
                                         Dataflow::kWeightStationary),
                       ::testing::Values(4, 6)),
    [](const auto& info) {
      return std::string(ToString(std::get<0>(info.param))) + "_" +
             ToString(std::get<1>(info.param)) + "_pt" +
             std::to_string(std::get<2>(info.param));
    });

TEST(StreamCheckTest, BigModelsAreClean) {
  for (const Model& m : {BuildVgg16ConvOnly(), BuildAlexNetStyle()}) {
    const FpgaSpec spec = Vu9pSpec();
    const DseEngine dse(spec);
    const DseResult r = dse.Explore(m);
    const CompiledModel cm = Compiler(r.config, spec).Compile(m, r.mapping);
    const auto report = CheckInstructionStream(cm);
    EXPECT_TRUE(report.ok()) << m.name() << ": " << report.violations.front();
  }
}

TEST(StreamCheckTest, DetectsDroppedCredit) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  // Strip the input-credit release from the last COMP that has one.
  for (auto it = cm.program.rbegin(); it != cm.program.rend(); ++it) {
    if (PeekOpcode(*it) != Opcode::kComp) continue;
    auto f = std::get<CompFields>(Decode(*it));
    if (!(f.dept & kEmitCredit0)) continue;
    f.dept &= static_cast<std::uint8_t>(~kEmitCredit0);
    *it = Encode(f);
    break;
  }
  const auto report = CheckInstructionStream(cm);
  EXPECT_FALSE(report.ok());
}

TEST(StreamCheckTest, DetectsDoubleEmit) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  for (auto& instr : cm.program) {
    if (PeekOpcode(instr) != Opcode::kLoadInp) continue;
    auto f = std::get<LoadFields>(Decode(instr));
    f.dept &= static_cast<std::uint8_t>(~kWaitCredit);  // never take credit
    instr = Encode(f);
  }
  const auto report = CheckInstructionStream(cm);
  EXPECT_FALSE(report.ok());  // credits over-restored at the end
}

TEST(StreamCheckTest, DetectsWrongSaveHalf) {
  CompiledModel cm = CompileTiny(ConvMode::kWinograd,
                                 Dataflow::kInputStationary);
  for (auto& instr : cm.program) {
    if (PeekOpcode(instr) != Opcode::kSave) continue;
    auto f = std::get<SaveFields>(Decode(instr));
    f.buff_id ^= 1;  // flip the ping-pong half
    instr = Encode(f);
    break;
  }
  const auto report = CheckInstructionStream(cm);
  EXPECT_FALSE(report.ok());
}

TEST(StreamCheckTest, DetectsDramOverrun) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  for (auto& instr : cm.program) {
    if (PeekOpcode(instr) != Opcode::kSave) continue;
    auto f = std::get<SaveFields>(Decode(instr));
    f.dram_base = static_cast<std::uint32_t>(cm.total_dram_words + 100);
    instr = Encode(f);
    break;
  }
  const auto report = CheckInstructionStream(cm);
  EXPECT_FALSE(report.ok());
}

TEST(StreamCheckTest, DetectsSaveIntoWeightImage) {
  // Plain SAVE, SAVE_RES and keep-resident SAVE alike.
  for (const auto& [res_add, keep_resident] :
       {std::pair{false, false}, std::pair{true, false},
        std::pair{false, true}}) {
    CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                   Dataflow::kInputStationary);
    ASSERT_GT(cm.fmap_base, 0);
    // The last SAVE targets the output slot; move it to the last word of
    // the weight/bias image, one below the first fmap slot.
    auto it = std::find_if(cm.program.rbegin(), cm.program.rend(),
                           [](const Instruction& instr) {
                             return PeekOpcode(instr) == Opcode::kSave;
                           });
    ASSERT_NE(it, cm.program.rend());
    auto f = std::get<SaveFields>(Decode(*it));
    f.res_add = res_add;
    f.keep_resident = keep_resident;
    f.dram_base = static_cast<std::uint32_t>(cm.fmap_base - 1);
    *it = Encode(f);
    const auto report = CheckInstructionStream(cm);
    const bool flagged = std::any_of(
        report.violations.begin(), report.violations.end(),
        [](const std::string& v) {
          return v.find("SAVE writes into the weight image") !=
                 std::string::npos;
        });
    EXPECT_TRUE(flagged) << "opcode " << static_cast<int>(PeekOpcode(*it));
    EXPECT_THROW(RequireValidStream(cm), InternalError);
  }
}

// The checker and the simulator read one handshake table, so a stream the
// checker passes is one the simulator can run to the end.

/// `cm`'s program with DEPT_FLAG `bit` of instruction `i` flipped.
CompiledModel FlipDeptBit(CompiledModel cm, std::size_t i, std::uint8_t bit) {
  InstrFields f = Decode(cm.program[i]);
  std::visit([bit](auto& x) { x.dept ^= bit; }, f);
  cm.program[i] = Encode(f);
  return cm;
}

TEST(StreamCheckTest, LoadBiasCreditIsCountedAsTheSimulatorTakesIt) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  int biases = 0;
  for (std::size_t i = 0; i < cm.program.size(); ++i) {
    if (PeekOpcode(cm.program[i]) != Opcode::kLoadBias) continue;
    cm = FlipDeptBit(std::move(cm), i, kWaitCredit);
    ++biases;
  }
  ASSERT_GT(biases, 0);
  EXPECT_FALSE(CheckInstructionStream(cm).ok());
  EXPECT_THROW(RequireValidStream(cm), InternalError);
  Accelerator acc(cm.cfg, TestSpec());
  EXPECT_THROW(acc.Run(DecodeProgram(cm.program), nullptr), InternalError);
}

TEST(StreamCheckTest, EverySingleDeptFlipTheCheckerPassesRuns) {
  int flips = 0, clean = 0;
  for (const ConvMode mode : {ConvMode::kSpatial, ConvMode::kWinograd}) {
    for (const Dataflow flow :
         {Dataflow::kInputStationary, Dataflow::kWeightStationary}) {
      const CompiledModel cm = CompileTiny(mode, flow);
      Accelerator acc(cm.cfg, TestSpec());
      for (std::size_t i = 0; i + 1 < cm.program.size(); ++i) {  // not END
        for (int b = 0; b < 6; ++b) {
          const CompiledModel flipped =
              FlipDeptBit(cm, i, static_cast<std::uint8_t>(1 << b));
          ++flips;
          if (!CheckInstructionStream(flipped).ok()) continue;
          ++clean;
          SCOPED_TRACE(std::string(ToString(mode)) + "/" + ToString(flow) +
                       " instr " + std::to_string(i) + " bit " +
                       std::to_string(b));
          EXPECT_NO_THROW(acc.Run(DecodeProgram(flipped.program), nullptr));
        }
      }
    }
  }
  EXPECT_GT(clean, 0);
  EXPECT_LT(clean, flips);
}

TEST(StreamCheckTest, DetectsMissingEnd) {
  CompiledModel cm = CompileTiny(ConvMode::kSpatial,
                                 Dataflow::kInputStationary);
  cm.program.pop_back();
  EXPECT_THROW(CheckInstructionStream(cm), InvalidArgument);
}

}  // namespace
}  // namespace hdnn
