// The handshake protocol (paper Sec. 4.1): "the consumer will wait for the
// producer to emit a token through the handshake FIFO before reading and
// processing corresponding data. Meanwhile, the producer will wait for a
// token from the consumer as well, to avoid data pollution."
//
// This table is the protocol's one statement. Each instruction's DEPT_FLAG
// bits name the channels it waits on and emits to, and which channel a bit
// names depends on the module the instruction runs on. Two readers walk it:
//   * Accelerator::Run schedules by it: a token is the cycle at which it
//     becomes available, and a credit is a token flowing back;
//   * the compiler's stream checker (compiler/stream_check.h) counts it in
//     program order, so a stream it accepts is one the simulator can run
//     (DESIGN.md Sec. 14).
#ifndef HDNN_SIM_HANDSHAKE_H_
#define HDNN_SIM_HANDSHAKE_H_

#include <array>
#include <cstdint>
#include <variant>

#include "isa/fields.h"
#include "sim/decoded_program.h"

namespace hdnn {

/// Ping-pong halves per buffer: each credit channel starts with one credit
/// per half and never holds more.
inline constexpr int kPingPongDepth = 2;

enum HandshakeChannel : int {
  kTokInp,    ///< LOAD_INP -> COMP: an input slab is loaded
  kTokWgt,    ///< LOAD_WGT / LOAD_BIAS -> COMP: a weight (and bias) block
  kTokOut,    ///< COMP -> SAVE: an output group is emitted
  kTokLayer,  ///< SAVE -> the next layer's first LOAD_INP: layer barrier
  kCredInp,   ///< COMP -> LOAD_INP: an input half is free
  kCredWgt,   ///< COMP -> LOAD_WGT / LOAD_BIAS: a weight half is free
  kCredOut,   ///< SAVE -> COMP: an output half is free
  kNumChannels,
};

struct ChannelSpec {
  const char* name;
  bool credit;  ///< a credit channel; a token channel starts empty
  int end;      ///< count a complete program leaves

  constexpr int initial() const { return credit ? kPingPongDepth : 0; }
};

/// Indexed by HandshakeChannel. A complete program returns every channel
/// to its initial count, except the layer barrier: the last layer's final
/// SAVE emits one token that no LOAD takes.
inline constexpr std::array<ChannelSpec, kNumChannels> kChannels{{
    {"tok_inp", false, 0},
    {"tok_wgt", false, 0},
    {"tok_out", false, 0},
    {"tok_layer", false, 1},
    {"cred_inp", true, kPingPongDepth},
    {"cred_wgt", true, kPingPongDepth},
    {"cred_out", true, kPingPongDepth},
}};

/// One DEPT_FLAG bit and the channel it names; bit 0 pads a short row.
struct Handshake {
  std::uint8_t bit = 0;
  HandshakeChannel channel = kTokInp;
};

/// A module's handshakes, each list in the order it is applied.
struct ModuleHandshakes {
  std::array<Handshake, 3> waits;
  std::array<Handshake, 3> emits;
};

/// Indexed by SimModule, as SimModuleOf maps opcodes: LOAD_BIAS shares
/// LOAD_WGT's row, and the keep-resident opcodes share their plain rows.
inline constexpr std::array<ModuleHandshakes, kNumModules> kHandshakes{{
    // kModLdi
    {.waits = {{{kWaitCredit, kCredInp}, {kWaitData0, kTokLayer}}},
     .emits = {{{kEmitData, kTokInp}}}},
    // kModLdw
    {.waits = {{{kWaitCredit, kCredWgt}}},
     .emits = {{{kEmitData, kTokWgt}}}},
    // kModComp
    {.waits = {{{kWaitData0, kTokInp},
                {kWaitData1, kTokWgt},
                {kWaitCredit, kCredOut}}},
     .emits = {{{kEmitCredit0, kCredInp},
                {kEmitCredit1, kCredWgt},
                {kEmitData, kTokOut}}}},
    // kModSave
    {.waits = {{{kWaitData0, kTokOut}}},
     .emits = {{{kEmitCredit0, kCredOut}, {kEmitData, kTokLayer}}}},
}};

/// DEPT_FLAG of a decoded instruction.
inline std::uint8_t DeptOf(const InstrFields& f) {
  return std::visit([](const auto& x) -> std::uint8_t { return x.dept; }, f);
}

}  // namespace hdnn

#endif  // HDNN_SIM_HANDSHAKE_H_
