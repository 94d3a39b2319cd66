#include <gtest/gtest.h>

#include "common/prng.h"
#include "isa/assembler.h"
#include "isa/codec.h"

namespace hdnn {
namespace {

LoadFields SampleLoad(Prng& prng, Opcode op) {
  LoadFields f;
  f.op = op;
  f.dept = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 3));
  f.buff_base = static_cast<std::uint32_t>(prng.NextInt(0, (1 << 14) - 1));
  f.dram_base = static_cast<std::uint32_t>(prng.NextInt(0, (1 << 28) - 1));
  f.rows = static_cast<std::uint16_t>(prng.NextInt(0, 255));
  f.cols = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.chan_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.aux = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.pitch = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.pad_t = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.pad_b = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.pad_l = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.pad_r = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.wino = prng.NextInt(0, 1) != 0;
  f.wino_offset = static_cast<std::uint8_t>(prng.NextInt(0, 7));
  return f;
}

CompFields SampleComp(Prng& prng) {
  CompFields f;
  f.dept = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.inp_buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 1));
  f.wgt_buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 1));
  f.out_buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 1));
  f.inp_buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.out_buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.wgt_buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.iw_num = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.ow_num = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.oh_num = static_cast<std::uint8_t>(prng.NextInt(0, 7));
  f.ic_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.oc_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.stride = static_cast<std::uint8_t>(prng.NextInt(1, 4));
  f.relu = prng.NextInt(0, 1) != 0;
  f.quan = static_cast<std::uint8_t>(prng.NextInt(0, 31));
  f.wino = prng.NextInt(0, 1) != 0;
  f.wino_offset = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.kh = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.kw = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.base_row = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.base_col = static_cast<std::uint8_t>(prng.NextInt(0, 15));
  f.accum_clear = prng.NextInt(0, 1) != 0;
  f.accum_emit = prng.NextInt(0, 1) != 0;
  return f;
}

SaveFields SampleSave(Prng& prng) {
  SaveFields f;
  f.dept = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 3));
  f.buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.dram_base = static_cast<std::uint32_t>(prng.NextInt(0, (1u << 31) - 1));
  f.rows = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.cols = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.oc_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.layout = static_cast<SaveLayout>(prng.NextInt(0, 3));
  f.pool = static_cast<std::uint8_t>(prng.NextInt(1, 4));
  f.out_h = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.out_w = static_cast<std::uint16_t>(prng.NextInt(0, 4095));
  f.oc_pitch = static_cast<std::uint16_t>(prng.NextInt(0, 8191));
  return f;
}

/// SAVE_RES narrows the geometry fields to fit the residual address; sample
/// within its tighter limits (see codec.cc save_res).
SaveFields SampleSaveRes(Prng& prng) {
  SaveFields f;
  f.dept = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.buff_id = static_cast<std::uint8_t>(prng.NextInt(0, 3));
  f.buff_base = static_cast<std::uint16_t>(prng.NextInt(0, 15));
  f.dram_base = static_cast<std::uint32_t>(prng.NextInt(0, (1 << 28) - 1));
  f.rows = static_cast<std::uint8_t>(prng.NextInt(0, 63));
  f.cols = static_cast<std::uint16_t>(prng.NextInt(0, 511));
  f.oc_vecs = static_cast<std::uint16_t>(prng.NextInt(0, 127));
  f.layout = static_cast<SaveLayout>(prng.NextInt(0, 3));
  f.pool = 1;  // residual saves cannot pool
  f.out_h = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.out_w = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.oc_pitch = static_cast<std::uint16_t>(prng.NextInt(0, 1023));
  f.res_add = true;
  f.res_wino = prng.NextInt(0, 1) != 0;
  f.relu = prng.NextInt(0, 1) != 0;
  f.res_dram_base = static_cast<std::uint32_t>(prng.NextInt(0, (1 << 28) - 1));
  return f;
}

class RoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundTripTest, LoadInstructionsRoundTrip) {
  Prng prng(GetParam());
  for (int i = 0; i < 100; ++i) {
    for (Opcode op :
         {Opcode::kLoadInp, Opcode::kLoadWgt, Opcode::kLoadBias}) {
      const LoadFields f = SampleLoad(prng, op);
      const InstrFields decoded = Decode(Encode(InstrFields{f}));
      ASSERT_TRUE(std::holds_alternative<LoadFields>(decoded));
      EXPECT_EQ(std::get<LoadFields>(decoded), f);
    }
  }
}

TEST_P(RoundTripTest, CompInstructionsRoundTrip) {
  Prng prng(GetParam() + 100);
  for (int i = 0; i < 200; ++i) {
    const CompFields f = SampleComp(prng);
    const InstrFields decoded = Decode(Encode(InstrFields{f}));
    ASSERT_TRUE(std::holds_alternative<CompFields>(decoded));
    EXPECT_EQ(std::get<CompFields>(decoded), f);
  }
}

TEST_P(RoundTripTest, SaveInstructionsRoundTrip) {
  Prng prng(GetParam() + 200);
  for (int i = 0; i < 200; ++i) {
    const SaveFields f = SampleSave(prng);
    const InstrFields decoded = Decode(Encode(InstrFields{f}));
    ASSERT_TRUE(std::holds_alternative<SaveFields>(decoded));
    EXPECT_EQ(std::get<SaveFields>(decoded), f);
  }
}

TEST_P(RoundTripTest, SaveResInstructionsRoundTrip) {
  Prng prng(GetParam() + 400);
  for (int i = 0; i < 200; ++i) {
    const SaveFields f = SampleSaveRes(prng);
    const Instruction encoded = Encode(InstrFields{f});
    EXPECT_EQ(PeekOpcode(encoded), Opcode::kSaveRes);
    const InstrFields decoded = Decode(encoded);
    ASSERT_TRUE(std::holds_alternative<SaveFields>(decoded));
    EXPECT_EQ(std::get<SaveFields>(decoded), f);
  }
}

TEST(SaveResEncodingTest, OversizedFieldsRejected) {
  Prng prng(9);
  SaveFields base = SampleSaveRes(prng);
  SaveFields wide_pitch = base;
  wide_pitch.oc_pitch = 1024;  // > 10 bits
  EXPECT_THROW(Encode(InstrFields{wide_pitch}), InvalidArgument);
  SaveFields pooled = base;
  pooled.pool = 2;
  EXPECT_THROW(Encode(InstrFields{pooled}), InvalidArgument);
  // Plain SAVE cannot carry the deferred ReLU (COMP fuses it there).
  SaveFields plain_relu = base;
  plain_relu.res_add = false;
  plain_relu.relu = true;
  EXPECT_THROW(Encode(InstrFields{plain_relu}), InvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         ::testing::Values(1, 2, 3, 42, 1234));

TEST(CodecTest, FieldOverflowThrows) {
  LoadFields f;
  f.op = Opcode::kLoadInp;
  f.chan_vecs = 5000;  // 12-bit field
  EXPECT_THROW(Encode(InstrFields{f}), InvalidArgument);
}

TEST(CodecTest, CompStrideRangeEnforced) {
  CompFields f;
  f.stride = 5;
  EXPECT_THROW(Encode(InstrFields{f}), InvalidArgument);
  f.stride = 0;
  EXPECT_THROW(Encode(InstrFields{f}), InvalidArgument);
}

/// One instruction per opcode, keep-resident variants included. Every payload
/// field holds a distinct value with its top bit set, so a field that moves,
/// shrinks or swaps with a neighbour changes the word.
std::vector<InstrFields> GoldenInstructions() {
  std::vector<InstrFields> out;
  LoadFields load;
  load.dept = 0x2d;
  load.buff_id = 2;
  load.buff_base = 0x2abc;
  load.dram_base = 0x9a5c3e1;
  load.rows = 0xa7;
  load.cols = 0x2d3;
  load.chan_vecs = 0xb59;
  load.aux = 0xc6a;
  load.pitch = 0x97b;
  load.pad_t = 0x9;
  load.pad_b = 0xa;
  load.pad_l = 0xb;
  load.pad_r = 0xd;
  load.wino = true;
  load.wino_offset = 5;
  for (Opcode op : {Opcode::kLoadInp, Opcode::kLoadWgt, Opcode::kLoadBias}) {
    load.op = op;
    out.push_back(load);
  }
  load.op = Opcode::kLoadInp;
  load.keep_resident = true;
  out.push_back(load);

  CompFields comp;
  comp.dept = 0x3a;
  comp.inp_buff_id = 1;
  comp.wgt_buff_id = 1;
  comp.out_buff_id = 1;
  comp.inp_buff_base = 0x8d1;
  comp.out_buff_base = 0x9e2;
  comp.wgt_buff_base = 0xaf3;
  comp.iw_num = 0x2c4;
  comp.ow_num = 0x3b5;
  comp.oh_num = 6;
  comp.ic_vecs = 0xc17;
  comp.oc_vecs = 0xd28;
  comp.stride = 3;  // encoded as stride - 1 = 0b10
  comp.relu = true;
  comp.quan = 0x17;
  comp.wino = true;
  comp.wino_offset = 0xb;
  comp.kh = 0xd;
  comp.kw = 0xe;
  comp.base_row = 0x9;
  comp.base_col = 0xc;
  comp.accum_clear = true;
  comp.accum_emit = true;
  out.push_back(comp);

  SaveFields save;
  save.dept = 0x25;
  save.buff_id = 3;
  save.buff_base = 0xa5b;
  save.dram_base = 0xc3a59e17;
  save.rows = 0x2b;
  save.cols = 0xe4d;
  save.oc_vecs = 0x8f6;
  save.layout = SaveLayout::kWinoToSpat;
  save.pool = 6;
  save.out_h = 0x9c1;
  save.out_w = 0xbd2;
  save.oc_pitch = 0x1e37;
  out.push_back(save);
  save.keep_resident = true;
  out.push_back(save);

  SaveFields res;
  res.res_add = true;
  res.dept = 0x31;
  res.buff_id = 2;
  res.buff_base = 0xb;
  res.dram_base = 0xd2c4b5a;
  res.res_dram_base = 0xe1f3a69;
  res.rows = 0x35;
  res.cols = 0x1a7;
  res.oc_vecs = 0x5c;
  res.layout = SaveLayout::kWinoToWino;
  res.res_wino = true;
  res.relu = true;
  res.out_h = 0x2e9;
  res.out_w = 0x3a4;
  res.oc_pitch = 0x25d;
  out.push_back(res);
  res.keep_resident = true;
  out.push_back(res);

  out.push_back(CtrlFields{Opcode::kNop, 0x21});
  out.push_back(CtrlFields{Opcode::kEnd, 0x22});
  return out;
}

// Pins every field's bit position: the round trips above would still pass
// if encode and decode moved a field together.
TEST(CodecTest, GoldenWordsPerOpcode) {
  struct Golden {
    Opcode op;
    std::uint64_t hi, lo;
  };
  const Golden golden[] = {
      {Opcode::kLoadInp, 0x1b6aaf26970f869eull, 0xd3b59c6a97b9abddull},
      {Opcode::kLoadWgt, 0x2b6aaf26970f869eull, 0xd3b59c6a97b9abddull},
      {Opcode::kLoadBias, 0x3b6aaf26970f869eull, 0xd3b59c6a97b9abddull},
      {Opcode::kLoadInpKr, 0xab6aaf26970f869eull, 0xd3b59c6a97b9abddull},
      {Opcode::kComp, 0x4eb8d19e2af3b13bull, 0x5d82fa516fbde9ceull},
      {Opcode::kSave, 0x597a5bc3a59e17afull, 0x9363dad3837a5e37ull},
      {Opcode::kSaveKr, 0x897a5bc3a59e17afull, 0x9363dad3837a5e37ull},
      {Opcode::kSaveRes, 0x6c6bd2c4b5ae1f3aull, 0x69d74f73ee9e925dull},
      {Opcode::kSaveResKr, 0x9c6bd2c4b5ae1f3aull, 0x69d74f73ee9e925dull},
      {Opcode::kNop, 0x0840000000000000ull, 0x0000000000000000ull},
      {Opcode::kEnd, 0x7880000000000000ull, 0x0000000000000000ull},
  };
  const std::vector<InstrFields> fields = GoldenInstructions();
  ASSERT_EQ(fields.size(), std::size(golden));
  for (std::size_t i = 0; i < fields.size(); ++i) {
    SCOPED_TRACE(OpcodeName(golden[i].op));
    EXPECT_EQ(OpcodeOf(fields[i]), golden[i].op);
    const Instruction word = Encode(fields[i]);
    EXPECT_EQ(word.hi, golden[i].hi);
    EXPECT_EQ(word.lo, golden[i].lo);
    EXPECT_EQ(PeekOpcode(word), golden[i].op);
    EXPECT_EQ(Decode(Instruction{golden[i].lo, golden[i].hi}), fields[i]);
  }
}

TEST(CodecTest, OpcodeNames) {
  EXPECT_STREQ(OpcodeName(Opcode::kLoadInp), "LOAD_INP");
  EXPECT_STREQ(OpcodeName(Opcode::kComp), "COMP");
  EXPECT_STREQ(OpcodeName(Opcode::kEnd), "END");
}

TEST(CodecTest, PeekOpcodeRejectsInvalid) {
  Word128 w;
  SetField(w, 124, 4, 13);  // not a defined opcode (11-15 are unassigned)
  EXPECT_THROW(PeekOpcode(w), InvalidArgument);
}

TEST(ValidateProgramTest, AcceptsEndTerminated) {
  std::vector<Instruction> p{Encode(InstrFields{CtrlFields{Opcode::kNop, 0}}),
                             Encode(InstrFields{CtrlFields{Opcode::kEnd, 0}})};
  EXPECT_NO_THROW(ValidateProgram(p));
}

TEST(ValidateProgramTest, RejectsMissingEnd) {
  std::vector<Instruction> p{Encode(InstrFields{CtrlFields{Opcode::kNop, 0}})};
  EXPECT_THROW(ValidateProgram(p), InvalidArgument);
}

TEST(ValidateProgramTest, RejectsTrailingAfterEnd) {
  std::vector<Instruction> p{Encode(InstrFields{CtrlFields{Opcode::kEnd, 0}}),
                             Encode(InstrFields{CtrlFields{Opcode::kNop, 0}})};
  EXPECT_THROW(ValidateProgram(p), InvalidArgument);
}

TEST(ValidateProgramTest, RejectsEmpty) {
  EXPECT_THROW(ValidateProgram({}), InvalidArgument);
}

// Pins Disassemble's text, which examples/instruction_trace prints, for one
// instruction of each payload kind: LOAD, COMP, SAVE and control.
TEST(DisassembleTest, GoldenTextPerInstructionKind) {
  LoadFields load;
  load.op = Opcode::kLoadInp;
  load.keep_resident = true;
  load.dept = kWaitCredit | kEmitData;
  load.buff_id = 1;
  load.buff_base = 96;
  load.dram_base = 4096;
  load.rows = 6;
  load.cols = 58;
  load.chan_vecs = 16;
  load.aux = 56;
  load.pitch = 56;
  load.pad_t = 1;
  load.pad_l = 1;
  load.pad_r = 1;
  load.wino = true;
  load.wino_offset = 2;
  EXPECT_EQ(Disassemble(Encode(InstrFields{load})),
            "LOAD_INP_KR dept=0xc buff=1 base=96 dram=4096 rows=6 cols=58 "
            "cv=16 aux=56 pitch=56 pad=1,0,1,1 wino=1 woff=2");

  CompFields comp;
  comp.dept = kWaitData0 | kWaitData1 | kWaitCredit | kEmitData |
              kEmitCredit0 | kEmitCredit1;
  comp.inp_buff_id = 1;
  comp.out_buff_id = 1;
  comp.inp_buff_base = 12;
  comp.out_buff_base = 34;
  comp.wgt_buff_base = 56;
  comp.iw_num = 58;
  comp.ow_num = 14;
  comp.oh_num = 2;
  comp.ic_vecs = 16;
  comp.oc_vecs = 8;
  comp.relu = true;
  comp.quan = 6;
  comp.wino = true;
  comp.wino_offset = 3;
  comp.base_row = 1;
  comp.base_col = 2;
  comp.accum_clear = true;
  comp.accum_emit = true;
  EXPECT_EQ(Disassemble(Encode(InstrFields{comp})),
            "COMP dept=0x3f ib=1 wb=0 ob=1 ibase=12 obase=34 wbase=56 iw=58 "
            "ow=14 oh=2 icv=16 ocv=8 stride=1 relu=1 quan=6 wino=1 woff=3 "
            "kh=3 kw=3 brow=1 bcol=2 aclr=1 aemit=1");

  SaveFields save;
  save.dept = kWaitData0 | kEmitCredit0;
  save.buff_id = 1;
  save.buff_base = 7;
  save.dram_base = 123456;
  save.rows = 2;
  save.cols = 56;
  save.oc_vecs = 16;
  save.layout = SaveLayout::kWinoToSpat;
  save.out_h = 56;
  save.out_w = 56;
  save.oc_pitch = 64;
  save.res_add = true;
  save.res_dram_base = 654321;
  save.res_wino = true;
  save.relu = true;
  EXPECT_EQ(Disassemble(Encode(InstrFields{save})),
            "SAVE_RES dept=0x11 buff=1 base=7 dram=123456 rows=2 cols=56 "
            "ocv=16 layout=2 pool=1 oh=56 ow=56 ocp=64 rdram=654321 rwino=1 "
            "relu=1");

  EXPECT_EQ(Disassemble(Encode(InstrFields{CtrlFields{Opcode::kEnd, 0}})),
            "END");
}

}  // namespace
}  // namespace hdnn
