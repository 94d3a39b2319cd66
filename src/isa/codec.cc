#include "isa/codec.h"

#include "common/check.h"

namespace hdnn {
namespace {

// Common header.
constexpr int kOpcodePos = 124, kOpcodeBits = 4;
constexpr int kDeptPos = 118, kDeptBits = 6;
constexpr int kBuffIdPos = 116, kBuffIdBits = 2;

// LOAD payload (116 bits below the header, fully used).
namespace load {
constexpr int kBuffBasePos = 102, kBuffBaseBits = 14;
constexpr int kDramBasePos = 74, kDramBaseBits = 28;
constexpr int kRowsPos = 66, kRowsBits = 8;
constexpr int kColsPos = 56, kColsBits = 10;
constexpr int kChanVecsPos = 44, kChanVecsBits = 12;
constexpr int kAuxPos = 32, kAuxBits = 12;
constexpr int kPitchPos = 20, kPitchBits = 12;
constexpr int kPadTPos = 16, kPadBPos = 12, kPadLPos = 8, kPadRPos = 4;
constexpr int kPadBits = 4;
constexpr int kWinoPos = 3;
constexpr int kWinoOffsetPos = 0, kWinoOffsetBits = 3;
}  // namespace load

// COMP payload.
namespace comp {
constexpr int kInpBasePos = 104, kBaseBits = 12;
constexpr int kOutBasePos = 92;
constexpr int kWgtBasePos = 80;
constexpr int kIwNumPos = 70, kIwNumBits = 10;
constexpr int kOwNumPos = 60, kOwNumBits = 10;
constexpr int kOhNumPos = 57, kOhNumBits = 3;
constexpr int kIcVecsPos = 45, kIcVecsBits = 12;
constexpr int kOcVecsPos = 33, kOcVecsBits = 12;
constexpr int kStridePos = 31, kStrideBits = 2;  // encodes stride-1
constexpr int kReluPos = 30;
constexpr int kQuanPos = 25, kQuanBits = 5;
constexpr int kWinoPos = 24;
constexpr int kWinoOffsetPos = 20, kWinoOffsetBits = 4;
constexpr int kKhPos = 16, kKBits = 4;
constexpr int kKwPos = 12;
constexpr int kBaseRowPos = 8, kBaseRcBits = 4;
constexpr int kBaseColPos = 4;
constexpr int kAccumClearPos = 3;
constexpr int kAccumEmitPos = 2;
constexpr int kOutBuffIdPos = 1;
}  // namespace comp

// SAVE payload.
namespace save {
constexpr int kBuffBasePos = 104, kBuffBaseBits = 12;
constexpr int kDramBasePos = 72, kDramBaseBits = 32;
constexpr int kRowsPos = 66, kRowsBits = 6;
constexpr int kColsPos = 54, kColsBits = 12;
constexpr int kOcVecsPos = 42, kOcVecsBits = 12;
constexpr int kLayoutPos = 40, kLayoutBits = 2;
constexpr int kPoolPos = 37, kPoolBits = 3;
constexpr int kOutHPos = 25, kDimBits = 12;
constexpr int kOutWPos = 13;
constexpr int kOcPitchPos = 0, kOcPitchBits = 13;
}  // namespace save

// SAVE_RES payload: the legacy SAVE layout is fully packed, so the residual
// variant narrows the geometry fields (residual layers are conv-scale, never
// FC-scale, and cannot fuse a pool) to fit the 28-bit residual source
// address plus its layout flag and the deferred-ReLU flag.
namespace save_res {
constexpr int kBuffBasePos = 112, kBuffBaseBits = 4;
constexpr int kDramBasePos = 84, kDramBaseBits = 28;
constexpr int kResDramBasePos = 56, kResDramBaseBits = 28;
constexpr int kRowsPos = 50, kRowsBits = 6;
constexpr int kColsPos = 41, kColsBits = 9;
constexpr int kOcVecsPos = 34, kOcVecsBits = 7;
constexpr int kLayoutPos = 32, kLayoutBits = 2;
constexpr int kResWinoPos = 31;
constexpr int kReluPos = 30;
constexpr int kOutHPos = 20, kDimBits = 10;
constexpr int kOutWPos = 10;
constexpr int kOcPitchPos = 0, kOcPitchBits = 10;
}  // namespace save_res

void EncodeHeader(Word128& w, Opcode op, std::uint8_t dept,
                  std::uint8_t buff_id) {
  SetField(w, kOpcodePos, kOpcodeBits, static_cast<std::uint64_t>(op));
  SetField(w, kDeptPos, kDeptBits, dept);
  SetField(w, kBuffIdPos, kBuffIdBits, buff_id);
}

Instruction EncodeLoad(const LoadFields& f) {
  HDNN_CHECK(f.op == Opcode::kLoadInp || f.op == Opcode::kLoadWgt ||
             f.op == Opcode::kLoadBias)
      << "EncodeLoad with non-load opcode";
  HDNN_CHECK(!f.keep_resident || f.op == Opcode::kLoadInp)
      << "keep_resident applies to LOAD_INP only";
  Word128 w;
  EncodeHeader(w, f.keep_resident ? Opcode::kLoadInpKr : f.op, f.dept,
               f.buff_id);
  SetField(w, load::kBuffBasePos, load::kBuffBaseBits, f.buff_base);
  SetField(w, load::kDramBasePos, load::kDramBaseBits, f.dram_base);
  SetField(w, load::kRowsPos, load::kRowsBits, f.rows);
  SetField(w, load::kColsPos, load::kColsBits, f.cols);
  SetField(w, load::kChanVecsPos, load::kChanVecsBits, f.chan_vecs);
  SetField(w, load::kAuxPos, load::kAuxBits, f.aux);
  SetField(w, load::kPitchPos, load::kPitchBits, f.pitch);
  SetField(w, load::kPadTPos, load::kPadBits, f.pad_t);
  SetField(w, load::kPadBPos, load::kPadBits, f.pad_b);
  SetField(w, load::kPadLPos, load::kPadBits, f.pad_l);
  SetField(w, load::kPadRPos, load::kPadBits, f.pad_r);
  SetField(w, load::kWinoPos, 1, f.wino ? 1 : 0);
  SetField(w, load::kWinoOffsetPos, load::kWinoOffsetBits, f.wino_offset);
  return w;
}

LoadFields DecodeLoad(const Word128& w, Opcode op) {
  LoadFields f;
  // The residency flag lives in the opcode (the payload is fully packed);
  // `op` stays the architectural LOAD_INP.
  f.keep_resident = op == Opcode::kLoadInpKr;
  f.op = f.keep_resident ? Opcode::kLoadInp : op;
  f.dept = static_cast<std::uint8_t>(GetField(w, kDeptPos, kDeptBits));
  f.buff_id = static_cast<std::uint8_t>(GetField(w, kBuffIdPos, kBuffIdBits));
  f.buff_base =
      static_cast<std::uint32_t>(GetField(w, load::kBuffBasePos, load::kBuffBaseBits));
  f.dram_base =
      static_cast<std::uint32_t>(GetField(w, load::kDramBasePos, load::kDramBaseBits));
  f.rows = static_cast<std::uint16_t>(GetField(w, load::kRowsPos, load::kRowsBits));
  f.cols = static_cast<std::uint16_t>(GetField(w, load::kColsPos, load::kColsBits));
  f.chan_vecs = static_cast<std::uint16_t>(
      GetField(w, load::kChanVecsPos, load::kChanVecsBits));
  f.aux = static_cast<std::uint16_t>(GetField(w, load::kAuxPos, load::kAuxBits));
  f.pitch =
      static_cast<std::uint16_t>(GetField(w, load::kPitchPos, load::kPitchBits));
  f.pad_t = static_cast<std::uint8_t>(GetField(w, load::kPadTPos, load::kPadBits));
  f.pad_b = static_cast<std::uint8_t>(GetField(w, load::kPadBPos, load::kPadBits));
  f.pad_l = static_cast<std::uint8_t>(GetField(w, load::kPadLPos, load::kPadBits));
  f.pad_r = static_cast<std::uint8_t>(GetField(w, load::kPadRPos, load::kPadBits));
  f.wino = GetField(w, load::kWinoPos, 1) != 0;
  f.wino_offset = static_cast<std::uint8_t>(
      GetField(w, load::kWinoOffsetPos, load::kWinoOffsetBits));
  return f;
}

Instruction EncodeComp(const CompFields& f) {
  Word128 w;
  HDNN_CHECK(f.stride >= 1 && f.stride <= 4) << "COMP stride " << int{f.stride};
  HDNN_CHECK(f.inp_buff_id <= 1 && f.wgt_buff_id <= 1 && f.out_buff_id <= 1)
      << "buffer halves are 0/1";
  const std::uint8_t buff_id =
      static_cast<std::uint8_t>(f.inp_buff_id | (f.wgt_buff_id << 1));
  EncodeHeader(w, Opcode::kComp, f.dept, buff_id);
  SetField(w, comp::kInpBasePos, comp::kBaseBits, f.inp_buff_base);
  SetField(w, comp::kOutBasePos, comp::kBaseBits, f.out_buff_base);
  SetField(w, comp::kWgtBasePos, comp::kBaseBits, f.wgt_buff_base);
  SetField(w, comp::kIwNumPos, comp::kIwNumBits, f.iw_num);
  SetField(w, comp::kOwNumPos, comp::kOwNumBits, f.ow_num);
  SetField(w, comp::kOhNumPos, comp::kOhNumBits, f.oh_num);
  SetField(w, comp::kIcVecsPos, comp::kIcVecsBits, f.ic_vecs);
  SetField(w, comp::kOcVecsPos, comp::kOcVecsBits, f.oc_vecs);
  SetField(w, comp::kStridePos, comp::kStrideBits,
           static_cast<std::uint64_t>(f.stride - 1));
  SetField(w, comp::kReluPos, 1, f.relu ? 1 : 0);
  SetField(w, comp::kQuanPos, comp::kQuanBits, f.quan);
  SetField(w, comp::kWinoPos, 1, f.wino ? 1 : 0);
  SetField(w, comp::kWinoOffsetPos, comp::kWinoOffsetBits, f.wino_offset);
  SetField(w, comp::kKhPos, comp::kKBits, f.kh);
  SetField(w, comp::kKwPos, comp::kKBits, f.kw);
  SetField(w, comp::kBaseRowPos, comp::kBaseRcBits, f.base_row);
  SetField(w, comp::kBaseColPos, comp::kBaseRcBits, f.base_col);
  SetField(w, comp::kAccumClearPos, 1, f.accum_clear ? 1 : 0);
  SetField(w, comp::kAccumEmitPos, 1, f.accum_emit ? 1 : 0);
  SetField(w, comp::kOutBuffIdPos, 1, f.out_buff_id);
  return w;
}

CompFields DecodeComp(const Word128& w) {
  CompFields f;
  f.dept = static_cast<std::uint8_t>(GetField(w, kDeptPos, kDeptBits));
  const auto buff_id = GetField(w, kBuffIdPos, kBuffIdBits);
  f.inp_buff_id = static_cast<std::uint8_t>(buff_id & 1);
  f.wgt_buff_id = static_cast<std::uint8_t>((buff_id >> 1) & 1);
  f.inp_buff_base =
      static_cast<std::uint16_t>(GetField(w, comp::kInpBasePos, comp::kBaseBits));
  f.out_buff_base =
      static_cast<std::uint16_t>(GetField(w, comp::kOutBasePos, comp::kBaseBits));
  f.wgt_buff_base =
      static_cast<std::uint16_t>(GetField(w, comp::kWgtBasePos, comp::kBaseBits));
  f.iw_num = static_cast<std::uint16_t>(GetField(w, comp::kIwNumPos, comp::kIwNumBits));
  f.ow_num = static_cast<std::uint16_t>(GetField(w, comp::kOwNumPos, comp::kOwNumBits));
  f.oh_num = static_cast<std::uint8_t>(GetField(w, comp::kOhNumPos, comp::kOhNumBits));
  f.ic_vecs =
      static_cast<std::uint16_t>(GetField(w, comp::kIcVecsPos, comp::kIcVecsBits));
  f.oc_vecs =
      static_cast<std::uint16_t>(GetField(w, comp::kOcVecsPos, comp::kOcVecsBits));
  f.stride = static_cast<std::uint8_t>(
      GetField(w, comp::kStridePos, comp::kStrideBits) + 1);
  f.relu = GetField(w, comp::kReluPos, 1) != 0;
  f.quan = static_cast<std::uint8_t>(GetField(w, comp::kQuanPos, comp::kQuanBits));
  f.wino = GetField(w, comp::kWinoPos, 1) != 0;
  f.wino_offset = static_cast<std::uint8_t>(
      GetField(w, comp::kWinoOffsetPos, comp::kWinoOffsetBits));
  f.kh = static_cast<std::uint8_t>(GetField(w, comp::kKhPos, comp::kKBits));
  f.kw = static_cast<std::uint8_t>(GetField(w, comp::kKwPos, comp::kKBits));
  f.base_row =
      static_cast<std::uint8_t>(GetField(w, comp::kBaseRowPos, comp::kBaseRcBits));
  f.base_col =
      static_cast<std::uint8_t>(GetField(w, comp::kBaseColPos, comp::kBaseRcBits));
  f.accum_clear = GetField(w, comp::kAccumClearPos, 1) != 0;
  f.accum_emit = GetField(w, comp::kAccumEmitPos, 1) != 0;
  f.out_buff_id = static_cast<std::uint8_t>(GetField(w, comp::kOutBuffIdPos, 1));
  return f;
}

/// One range check per narrowed SAVE_RES field: residual layers always fit
/// (conv-scale geometry), and a violation must fail loudly at compile time
/// of the model rather than silently truncate an address.
void CheckFits(std::uint64_t value, int bits, const char* what) {
  HDNN_CHECK(value < (1ull << bits))
      << "SAVE_RES field " << what << " = " << value << " exceeds " << bits
      << " bits";
}

Instruction EncodeSave(const SaveFields& f) {
  Word128 w;
  if (!f.res_add) {
    HDNN_CHECK(!f.relu)
        << "SAVE without a residual add cannot carry a ReLU (COMP fuses it)";
    EncodeHeader(w, f.keep_resident ? Opcode::kSaveKr : Opcode::kSave, f.dept,
                 f.buff_id);
    SetField(w, save::kBuffBasePos, save::kBuffBaseBits, f.buff_base);
    SetField(w, save::kDramBasePos, save::kDramBaseBits, f.dram_base);
    SetField(w, save::kRowsPos, save::kRowsBits, f.rows);
    SetField(w, save::kColsPos, save::kColsBits, f.cols);
    SetField(w, save::kOcVecsPos, save::kOcVecsBits, f.oc_vecs);
    SetField(w, save::kLayoutPos, save::kLayoutBits,
             static_cast<std::uint64_t>(f.layout));
    SetField(w, save::kPoolPos, save::kPoolBits, f.pool);
    SetField(w, save::kOutHPos, save::kDimBits, f.out_h);
    SetField(w, save::kOutWPos, save::kDimBits, f.out_w);
    SetField(w, save::kOcPitchPos, save::kOcPitchBits, f.oc_pitch);
    return w;
  }
  HDNN_CHECK(f.pool == 1) << "SAVE_RES cannot fuse a max-pool";
  CheckFits(f.buff_base, save_res::kBuffBaseBits, "buff_base");
  CheckFits(f.dram_base, save_res::kDramBaseBits, "dram_base");
  CheckFits(f.res_dram_base, save_res::kResDramBaseBits, "res_dram_base");
  CheckFits(f.rows, save_res::kRowsBits, "rows");
  CheckFits(f.cols, save_res::kColsBits, "cols");
  CheckFits(f.oc_vecs, save_res::kOcVecsBits, "oc_vecs");
  CheckFits(f.out_h, save_res::kDimBits, "out_h");
  CheckFits(f.out_w, save_res::kDimBits, "out_w");
  CheckFits(f.oc_pitch, save_res::kOcPitchBits, "oc_pitch");
  EncodeHeader(w, f.keep_resident ? Opcode::kSaveResKr : Opcode::kSaveRes,
               f.dept, f.buff_id);
  SetField(w, save_res::kBuffBasePos, save_res::kBuffBaseBits, f.buff_base);
  SetField(w, save_res::kDramBasePos, save_res::kDramBaseBits, f.dram_base);
  SetField(w, save_res::kResDramBasePos, save_res::kResDramBaseBits,
           f.res_dram_base);
  SetField(w, save_res::kRowsPos, save_res::kRowsBits, f.rows);
  SetField(w, save_res::kColsPos, save_res::kColsBits, f.cols);
  SetField(w, save_res::kOcVecsPos, save_res::kOcVecsBits, f.oc_vecs);
  SetField(w, save_res::kLayoutPos, save_res::kLayoutBits,
           static_cast<std::uint64_t>(f.layout));
  SetField(w, save_res::kResWinoPos, 1, f.res_wino ? 1 : 0);
  SetField(w, save_res::kReluPos, 1, f.relu ? 1 : 0);
  SetField(w, save_res::kOutHPos, save_res::kDimBits, f.out_h);
  SetField(w, save_res::kOutWPos, save_res::kDimBits, f.out_w);
  SetField(w, save_res::kOcPitchPos, save_res::kOcPitchBits, f.oc_pitch);
  return w;
}

SaveFields DecodeSave(const Word128& w, Opcode op) {
  SaveFields f;
  f.keep_resident = op == Opcode::kSaveKr || op == Opcode::kSaveResKr;
  f.dept = static_cast<std::uint8_t>(GetField(w, kDeptPos, kDeptBits));
  f.buff_id = static_cast<std::uint8_t>(GetField(w, kBuffIdPos, kBuffIdBits));
  if (op == Opcode::kSave || op == Opcode::kSaveKr) {
    f.buff_base = static_cast<std::uint16_t>(
        GetField(w, save::kBuffBasePos, save::kBuffBaseBits));
    f.dram_base = static_cast<std::uint32_t>(
        GetField(w, save::kDramBasePos, save::kDramBaseBits));
    f.rows = static_cast<std::uint8_t>(GetField(w, save::kRowsPos, save::kRowsBits));
    f.cols = static_cast<std::uint16_t>(GetField(w, save::kColsPos, save::kColsBits));
    f.oc_vecs =
        static_cast<std::uint16_t>(GetField(w, save::kOcVecsPos, save::kOcVecsBits));
    f.layout = static_cast<SaveLayout>(GetField(w, save::kLayoutPos, save::kLayoutBits));
    f.pool = static_cast<std::uint8_t>(GetField(w, save::kPoolPos, save::kPoolBits));
    f.out_h = static_cast<std::uint16_t>(GetField(w, save::kOutHPos, save::kDimBits));
    f.out_w = static_cast<std::uint16_t>(GetField(w, save::kOutWPos, save::kDimBits));
    f.oc_pitch =
        static_cast<std::uint16_t>(GetField(w, save::kOcPitchPos, save::kOcPitchBits));
    return f;
  }
  f.res_add = true;
  f.pool = 1;
  f.buff_base = static_cast<std::uint16_t>(
      GetField(w, save_res::kBuffBasePos, save_res::kBuffBaseBits));
  f.dram_base = static_cast<std::uint32_t>(
      GetField(w, save_res::kDramBasePos, save_res::kDramBaseBits));
  f.res_dram_base = static_cast<std::uint32_t>(
      GetField(w, save_res::kResDramBasePos, save_res::kResDramBaseBits));
  f.rows = static_cast<std::uint8_t>(
      GetField(w, save_res::kRowsPos, save_res::kRowsBits));
  f.cols = static_cast<std::uint16_t>(
      GetField(w, save_res::kColsPos, save_res::kColsBits));
  f.oc_vecs = static_cast<std::uint16_t>(
      GetField(w, save_res::kOcVecsPos, save_res::kOcVecsBits));
  f.layout = static_cast<SaveLayout>(
      GetField(w, save_res::kLayoutPos, save_res::kLayoutBits));
  f.res_wino = GetField(w, save_res::kResWinoPos, 1) != 0;
  f.relu = GetField(w, save_res::kReluPos, 1) != 0;
  f.out_h = static_cast<std::uint16_t>(
      GetField(w, save_res::kOutHPos, save_res::kDimBits));
  f.out_w = static_cast<std::uint16_t>(
      GetField(w, save_res::kOutWPos, save_res::kDimBits));
  f.oc_pitch = static_cast<std::uint16_t>(
      GetField(w, save_res::kOcPitchPos, save_res::kOcPitchBits));
  return f;
}

}  // namespace

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kNop:
      return "NOP";
    case Opcode::kLoadInp:
      return "LOAD_INP";
    case Opcode::kLoadWgt:
      return "LOAD_WGT";
    case Opcode::kLoadBias:
      return "LOAD_BIAS";
    case Opcode::kComp:
      return "COMP";
    case Opcode::kSave:
      return "SAVE";
    case Opcode::kSaveRes:
      return "SAVE_RES";
    case Opcode::kEnd:
      return "END";
    case Opcode::kSaveKr:
      return "SAVE_KR";
    case Opcode::kSaveResKr:
      return "SAVE_RES_KR";
    case Opcode::kLoadInpKr:
      return "LOAD_INP_KR";
  }
  return "INVALID";
}

Opcode OpcodeOf(const InstrFields& fields) {
  if (const auto* l = std::get_if<LoadFields>(&fields)) {
    return l->keep_resident ? Opcode::kLoadInpKr : l->op;
  }
  if (std::holds_alternative<CompFields>(fields)) return Opcode::kComp;
  if (const auto* s = std::get_if<SaveFields>(&fields)) {
    if (s->keep_resident) {
      return s->res_add ? Opcode::kSaveResKr : Opcode::kSaveKr;
    }
    return s->res_add ? Opcode::kSaveRes : Opcode::kSave;
  }
  return std::get<CtrlFields>(fields).op;
}

Instruction Encode(const InstrFields& fields) {
  if (const auto* l = std::get_if<LoadFields>(&fields)) return EncodeLoad(*l);
  if (const auto* c = std::get_if<CompFields>(&fields)) return EncodeComp(*c);
  if (const auto* s = std::get_if<SaveFields>(&fields)) return EncodeSave(*s);
  const auto& ctrl = std::get<CtrlFields>(fields);
  HDNN_CHECK(ctrl.op == Opcode::kNop || ctrl.op == Opcode::kEnd)
      << "control instruction must be NOP or END";
  Word128 w;
  EncodeHeader(w, ctrl.op, ctrl.dept, 0);
  return w;
}

Opcode PeekOpcode(const Instruction& instr) {
  const auto raw = GetField(instr, kOpcodePos, kOpcodeBits);
  switch (raw) {
    case 0:
    case 1:
    case 2:
    case 3:
    case 4:
    case 5:
    case 6:
    case 7:
    case 8:
    case 9:
    case 10:
      return static_cast<Opcode>(raw);
    default:
      throw InvalidArgument("invalid opcode " + std::to_string(raw));
  }
}

InstrFields Decode(const Instruction& instr) {
  const Opcode op = PeekOpcode(instr);
  switch (op) {
    case Opcode::kLoadInp:
    case Opcode::kLoadWgt:
    case Opcode::kLoadBias:
    case Opcode::kLoadInpKr:
      return DecodeLoad(instr, op);
    case Opcode::kComp:
      return DecodeComp(instr);
    case Opcode::kSave:
    case Opcode::kSaveRes:
    case Opcode::kSaveKr:
    case Opcode::kSaveResKr:
      return DecodeSave(instr, op);
    case Opcode::kNop:
    case Opcode::kEnd: {
      CtrlFields f;
      f.op = op;
      f.dept = static_cast<std::uint8_t>(GetField(instr, kDeptPos, kDeptBits));
      return f;
    }
  }
  throw InternalError("unreachable opcode in Decode");
}

void ValidateProgram(const std::vector<Instruction>& program) {
  HDNN_CHECK(!program.empty()) << "empty program";
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Opcode op = PeekOpcode(program[i]);  // throws on invalid encoding
    if (op == Opcode::kEnd) {
      HDNN_CHECK(i == program.size() - 1)
          << "END at index " << i << " is not the last instruction";
      return;
    }
  }
  throw InvalidArgument("program is not END-terminated");
}

}  // namespace hdnn
