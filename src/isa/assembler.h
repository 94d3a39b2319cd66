// Disassembler for HybridDNN instruction streams: one line of text per
// instruction, the format examples/instruction_trace prints.
//
//   LOAD_INP dept=0xc buff=1 base=96 dram=4096 rows=6 cols=58 cv=16 aux=56
//            pitch=56 pad=1,0,1,1 wino=1 woff=2   (one line in practice)
//   COMP     dept=0x3f ib=1 wb=0 ... (key=value pairs after the mnemonic)
//   SAVE_RES dept=0x11 ...
//   END
#ifndef HDNN_ISA_ASSEMBLER_H_
#define HDNN_ISA_ASSEMBLER_H_

#include <string>

#include "isa/codec.h"

namespace hdnn {

/// Renders one instruction as one line of text.
std::string Disassemble(const Instruction& instr);

}  // namespace hdnn

#endif  // HDNN_ISA_ASSEMBLER_H_
