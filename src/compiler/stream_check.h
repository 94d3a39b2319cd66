// Static validation of compiled instruction streams — the compiler's QA
// pass. Catches the bug classes that would otherwise surface as simulator
// deadlocks or silent data corruption:
//   * handshake misuse, counted in program order from the table the
//     simulator schedules by (sim/handshake.h): a wait on an empty channel,
//     a credit channel above the ping-pong depth, or a channel that does
//     not end at its initial count (the layer barrier ends one over),
//   * buffer-capacity violations per slab,
//   * DRAM accesses outside the compiled memory map, and SAVEs into the
//     weight/bias image below cm.fmap_base (which the Runtime keeps
//     resident across inferences),
//   * COMP/SAVE half mismatches (an emit whose SAVE reads the other half).
#ifndef HDNN_COMPILER_STREAM_CHECK_H_
#define HDNN_COMPILER_STREAM_CHECK_H_

#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "sim/decoded_program.h"

namespace hdnn {

struct StreamCheckReport {
  int instructions = 0;
  int loads_inp = 0, loads_wgt = 0, loads_bias = 0, comps = 0, saves = 0;
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

/// Decodes `cm.program` (not `cm.decoded`, which a caller that edits the
/// program may have left stale) and validates it against the architecture
/// rules and cm's memory map. Returns a report with all violations found
/// (empty = clean).
StreamCheckReport CheckInstructionStream(const CompiledModel& cm);

/// Decodes `cm.program` once, checks that decode as CheckInstructionStream
/// does and returns it; throws InternalError with the joined violations if
/// the stream is invalid.
DecodedProgram RequireValidStream(const CompiledModel& cm);

}  // namespace hdnn

#endif  // HDNN_COMPILER_STREAM_CHECK_H_
