// Encoder/decoder between typed instruction fields and 128-bit words.
// Encode and Decode walk the payload format lists in isa/fields.h, so every
// field's position and width come from there. Encoding is total and
// validated: every field is range-checked against its width;
// Decode(Encode(x)) == x for all valid x (property-tested).
#ifndef HDNN_ISA_CODEC_H_
#define HDNN_ISA_CODEC_H_

#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "isa/fields.h"

namespace hdnn {

/// One encoded instruction.
using Instruction = Word128;

/// A field value its width cannot hold, e.g. "COMP field kh = 16 exceeds 4
/// bits". Encode throws it; the compiler rethrows it as a CapacityError
/// naming the layer.
class FieldOverflow : public InvalidArgument {
 public:
  using InvalidArgument::InvalidArgument;
};

Instruction Encode(const InstrFields& fields);
InstrFields Decode(const Instruction& instr);

/// Raw opcode of an encoded instruction (cheap peek without full decode).
Opcode PeekOpcode(const Instruction& instr);

/// Structural validation of a whole program: END-terminated, no trailing
/// instructions, opcodes decodable. Throws on violation.
void ValidateProgram(const std::vector<Instruction>& program);

}  // namespace hdnn

#endif  // HDNN_ISA_CODEC_H_
