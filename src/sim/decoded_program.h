// Decode-once representation of an instruction stream for the simulator:
// the decoded fields and the per-module issue queues, both pure functions of
// the program bytes, so Accelerator::Run starts directly at the scheduler
// loop. The compiler attaches one to every CompiledModel
// (CompiledModel::decoded); anything that mutates `program` afterwards must
// drop the cached decode, or the simulator would execute the stale stream.
#ifndef HDNN_SIM_DECODED_PROGRAM_H_
#define HDNN_SIM_DECODED_PROGRAM_H_

#include <array>
#include <cstdint>
#include <vector>

#include "isa/codec.h"

namespace hdnn {

/// The four execution modules of the accelerator (paper Fig. 3). LOAD_BIAS
/// shares the LOAD_WGT module (same DDR channel, same issue queue).
enum SimModule : int {
  kModLdi = 0,
  kModLdw = 1,
  kModComp = 2,
  kModSave = 3,
  kNumModules = 4,
};

/// Module an architectural opcode executes on; throws InternalError for
/// control opcodes (NOP/END never enter a module queue).
SimModule SimModuleOf(Opcode op);

struct DecodedProgram {
  /// Decoded fields, one per instruction, in program order.
  std::vector<InstrFields> fields;
  /// Per-module issue queues: indices into `fields`, in program order.
  /// NOP/END are dispatched by CTRL but never enter a module queue.
  std::array<std::vector<std::uint32_t>, kNumModules> queues;

  std::size_t size() const { return fields.size(); }
};

/// Validates (ValidateProgram) and decodes `program` once. The result is
/// immutable and sharable across Accelerator instances.
DecodedProgram DecodeProgram(const std::vector<Instruction>& program);

}  // namespace hdnn

#endif  // HDNN_SIM_DECODED_PROGRAM_H_
