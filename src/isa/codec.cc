#include "isa/codec.h"

#include <iterator>
#include <sstream>

#include "common/check.h"

namespace hdnn {
namespace {

// Common header.
constexpr int kOpcodePos = 124, kOpcodeBits = 4;
constexpr int kDeptPos = 118, kDeptBits = 6;
constexpr int kBuffIdPos = 116, kBuffIdBits = 2;
static_assert(kBuffIdPos == kPayloadBits);

/// Indexed by opcode value; the opcodes 0..10 are the defined ones.
constexpr const char* kOpcodeNames[] = {
    "NOP",      "LOAD_INP", "LOAD_WGT", "LOAD_BIAS",   "COMP",       "SAVE",
    "SAVE_RES", "END",      "SAVE_KR",  "SAVE_RES_KR", "LOAD_INP_KR"};
static_assert(std::size(kOpcodeNames) ==
              static_cast<std::size_t>(Opcode::kLoadInpKr) + 1);

[[noreturn, gnu::cold, gnu::noinline]] void ThrowFieldOverflow(
    Opcode op, const char* name, std::uint64_t value, int bits, int bias) {
  std::ostringstream msg;
  msg << OpcodeName(op) << " field " << name << " = " << value << " exceeds "
      << bits << " bits";
  if (bias != 0) msg << " (they hold " << name << " - " << bias << ")";
  throw FieldOverflow(msg.str());
}

/// Range-checks `value` against its field, then writes `value - bias` into
/// bits [pos, pos + bits).
[[gnu::always_inline]] inline void PutField(Word128& w, Opcode op,
                                            const char* name, int pos,
                                            int bits, std::uint64_t value,
                                            int bias) {
  const std::uint64_t biased = value - static_cast<std::uint64_t>(bias);
  if (value < static_cast<std::uint64_t>(bias) || biased > LowMask(bits))
      [[unlikely]] {
    ThrowFieldOverflow(op, name, value, bits, bias);
  }
  SetField(w, pos, bits, biased);
}

/// Format visitor that range-checks and encodes each field in turn.
struct FieldWriter {
  Word128& w;
  Opcode op;
  int pos = kPayloadBits;

  template <typename T>
  [[gnu::always_inline]] void operator()(const char* name, int bits,
                                         const T& member, int bias = 0) {
    pos -= bits;
    PutField(w, op, name, pos, bits, static_cast<std::uint64_t>(member),
             bias);
  }
};

/// Format visitor that decodes each field in turn.
struct FieldReader {
  const Word128& w;
  int pos = kPayloadBits;

  template <typename T>
  [[gnu::always_inline]] void operator()(const char*, int bits, T& member,
                                         int bias = 0) {
    pos -= bits;
    member = static_cast<T>(GetField(w, pos, bits) +
                            static_cast<std::uint64_t>(bias));
  }
};

/// Encodes the header and then `f`'s payload in `Format`. Inlined into each
/// caller, so every field's position and width fold to constants.
template <typename Format, typename Fields>
[[gnu::always_inline]] inline Instruction EncodeAs(Opcode op, const Fields& f,
                                                   std::uint8_t buff_id) {
  Word128 w;
  SetField(w, kOpcodePos, kOpcodeBits, static_cast<std::uint64_t>(op));
  PutField(w, op, "dept", kDeptPos, kDeptBits, f.dept, 0);
  PutField(w, op, "buff_id", kBuffIdPos, kBuffIdBits, buff_id, 0);
  Format::Visit(f, FieldWriter{w, op});
  return w;
}

std::uint8_t DecodeDept(const Word128& w) {
  return static_cast<std::uint8_t>(GetField(w, kDeptPos, kDeptBits));
}

std::uint8_t DecodeBuffId(const Word128& w) {
  return static_cast<std::uint8_t>(GetField(w, kBuffIdPos, kBuffIdBits));
}

Instruction EncodeLoad(const LoadFields& f) {
  HDNN_CHECK(f.op == Opcode::kLoadInp || f.op == Opcode::kLoadWgt ||
             f.op == Opcode::kLoadBias)
      << "EncodeLoad with non-load opcode";
  HDNN_CHECK(!f.keep_resident || f.op == Opcode::kLoadInp)
      << "keep_resident applies to LOAD_INP only";
  return EncodeAs<LoadFormat>(f.keep_resident ? Opcode::kLoadInpKr : f.op, f,
                              f.buff_id);
}

LoadFields DecodeLoad(const Word128& w, Opcode op) {
  LoadFields f;
  // The residency flag lives in the opcode (the payload is fully packed);
  // `op` stays the architectural LOAD_INP.
  f.keep_resident = op == Opcode::kLoadInpKr;
  f.op = f.keep_resident ? Opcode::kLoadInp : op;
  f.dept = DecodeDept(w);
  f.buff_id = DecodeBuffId(w);
  LoadFormat::Visit(f, FieldReader{w});
  return f;
}

Instruction EncodeComp(const CompFields& f) {
  // COMP's BUFF_ID packs the input and weight halves, one bit each.
  HDNN_CHECK(f.inp_buff_id <= 1 && f.wgt_buff_id <= 1)
      << "buffer halves are 0/1";
  return EncodeAs<CompFormat>(
      Opcode::kComp, f,
      static_cast<std::uint8_t>(f.inp_buff_id | (f.wgt_buff_id << 1)));
}

CompFields DecodeComp(const Word128& w) {
  CompFields f;
  f.dept = DecodeDept(w);
  const std::uint8_t buff_id = DecodeBuffId(w);
  f.inp_buff_id = static_cast<std::uint8_t>(buff_id & 1);
  f.wgt_buff_id = static_cast<std::uint8_t>((buff_id >> 1) & 1);
  CompFormat::Visit(f, FieldReader{w});
  return f;
}

Instruction EncodeSave(const SaveFields& f) {
  if (!f.res_add) {
    HDNN_CHECK(!f.relu)
        << "SAVE without a residual add cannot carry a ReLU (COMP fuses it)";
    return EncodeAs<SaveFormat>(
        f.keep_resident ? Opcode::kSaveKr : Opcode::kSave, f, f.buff_id);
  }
  HDNN_CHECK(f.pool == 1) << "SAVE_RES cannot fuse a max-pool";
  return EncodeAs<SaveResFormat>(
      f.keep_resident ? Opcode::kSaveResKr : Opcode::kSaveRes, f, f.buff_id);
}

SaveFields DecodeSave(const Word128& w, Opcode op) {
  SaveFields f;
  f.keep_resident = op == Opcode::kSaveKr || op == Opcode::kSaveResKr;
  f.dept = DecodeDept(w);
  f.buff_id = DecodeBuffId(w);
  if (op == Opcode::kSave || op == Opcode::kSaveKr) {
    SaveFormat::Visit(f, FieldReader{w});
    return f;
  }
  f.res_add = true;
  f.pool = 1;
  SaveResFormat::Visit(f, FieldReader{w});
  return f;
}

}  // namespace

const char* OpcodeName(Opcode op) {
  const auto i = static_cast<std::size_t>(op);
  return i < std::size(kOpcodeNames) ? kOpcodeNames[i] : "INVALID";
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
  SetField(w, kOpcodePos, kOpcodeBits, static_cast<std::uint64_t>(ctrl.op));
  PutField(w, ctrl.op, "dept", kDeptPos, kDeptBits, ctrl.dept, 0);
  return w;
}

Opcode PeekOpcode(const Instruction& instr) {
  const auto raw = GetField(instr, kOpcodePos, kOpcodeBits);
  if (raw >= std::size(kOpcodeNames)) {
    throw InvalidArgument("invalid opcode " + std::to_string(raw));
  }
  return static_cast<Opcode>(raw);
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
    case Opcode::kEnd:
      return CtrlFields{op, DecodeDept(instr)};
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
