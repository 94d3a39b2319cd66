#include "compiler/stream_check.h"

#include <array>
#include <sstream>

#include "common/check.h"
#include "sim/decoded_program.h"
#include "sim/handshake.h"

namespace hdnn {
namespace {

class Checker {
 public:
  explicit Checker(const CompiledModel& cm)
      : cm_(cm),
        resident_slot_(static_cast<std::size_t>(cm.fmap_slots), false) {
    for (std::size_t c = 0; c < count_.size(); ++c) {
      count_[c] = kChannels[c].initial();
    }
  }

  /// Checks `prog`, a decode of cm's program (DecodeProgram validated it).
  StreamCheckReport Run(const DecodedProgram& prog) {
    for (std::size_t i = 0; i < prog.size(); ++i) {
      index_ = static_cast<int>(i);
      const InstrFields& f = prog.fields[i];
      ++report_.instructions;
      const Opcode op = OpcodeOf(f);
      if (op != Opcode::kNop && op != Opcode::kEnd) {
        CountHandshakes(SimModuleOf(op), DeptOf(f));
      }
      if (const auto* l = std::get_if<LoadFields>(&f)) {
        CheckLoad(*l);
      } else if (const auto* c = std::get_if<CompFields>(&f)) {
        CheckComp(*c);
      } else if (const auto* s = std::get_if<SaveFields>(&f)) {
        CheckSave(*s);
      }
    }
    for (std::size_t c = 0; c < count_.size(); ++c) {
      if (count_[c] != kChannels[c].end) {
        Violation(std::string(kChannels[c].name) + " ends at " +
                  std::to_string(count_[c]) + ", expected " +
                  std::to_string(kChannels[c].end));
      }
    }
    return report_;
  }

 private:
  void Violation(const std::string& what) {
    std::ostringstream out;
    out << "instr " << index_ << ": " << what;
    report_.violations.push_back(out.str());
  }

  /// Whether `dept` makes an instruction on `mod` emit to `channel`.
  static bool Emits(SimModule mod, std::uint8_t dept,
                    HandshakeChannel channel) {
    for (const Handshake& h : kHandshakes[mod].emits) {
      if (h.channel == channel && (dept & h.bit)) return true;
    }
    return false;
  }

  /// Applies the waits, then the emits, that `dept` selects in `mod`'s row
  /// of the handshake table.
  void CountHandshakes(SimModule mod, std::uint8_t dept) {
    for (const Handshake& h : kHandshakes[mod].waits) {
      if (!(dept & h.bit)) continue;
      int& count = count_[static_cast<std::size_t>(h.channel)];
      if (count <= 0) {
        Violation(std::string("underflow on ") + kChannels[h.channel].name);
      } else {
        --count;
      }
    }
    for (const Handshake& h : kHandshakes[mod].emits) {
      if (!(dept & h.bit)) continue;
      const int count = ++count_[static_cast<std::size_t>(h.channel)];
      if (kChannels[h.channel].credit && count > kPingPongDepth) {
        Violation(std::string(kChannels[h.channel].name) +
                  " above the ping-pong depth");
      }
    }
  }

  /// Fmap slot containing `addr`, or -1 when the address is outside the
  /// uniform slot region (weight/bias images live below cm.fmap_base).
  int SlotOf(std::int64_t addr) const {
    if (cm_.fmap_region_words <= 0 || addr < cm_.fmap_base) return -1;
    const std::int64_t slot = (addr - cm_.fmap_base) / cm_.fmap_region_words;
    return slot < cm_.fmap_slots ? static_cast<int>(slot) : -1;
  }

  bool SlotResident(int slot) const {
    return slot >= 0 && resident_slot_[static_cast<std::size_t>(slot)];
  }

  void CheckLoad(const LoadFields& f) {
    const AccelConfig& cfg = cm_.cfg;
    if (f.op == Opcode::kLoadInp) {
      ++report_.loads_inp;
      const std::int64_t slab =
          static_cast<std::int64_t>(f.pad_t + f.rows + f.pad_b) *
          (f.pad_l + f.cols + f.pad_r) * f.chan_vecs;
      if (f.buff_base + slab > cfg.input_buffer_vectors) {
        Violation("input slab exceeds buffer half");
      }
      const std::int64_t last =
          f.wino ? f.dram_base +
                       (static_cast<std::int64_t>(f.chan_vecs) * cfg.pi - 1) *
                           f.aux * f.pitch +
                       static_cast<std::int64_t>(f.rows - 1) * f.pitch +
                       f.cols - 1
                 : f.dram_base +
                       ((static_cast<std::int64_t>(f.rows) - 1) * f.pitch +
                        f.cols - 1) *
                           f.chan_vecs * cfg.pi +
                       static_cast<std::int64_t>(f.chan_vecs) * cfg.pi - 1;
      if (last >= cm_.total_dram_words) {
        Violation("LOAD_INP reads past the DRAM map");
      }
      // Residency legality: a keep-resident LOAD must read one slot whose
      // image was handed off on chip; a plain LOAD must not read a slot the
      // DRAM never received (its SAVEs were keep-resident).
      const int slot = SlotOf(f.dram_base);
      if (f.keep_resident) {
        if (!SlotResident(slot)) {
          Violation("LOAD_INP_KR reads a slot that is not resident");
        } else if (SlotOf(last) != slot) {
          Violation("LOAD_INP_KR read spans fmap slots");
        }
      } else if (SlotResident(slot)) {
        Violation("LOAD_INP reads a keep-resident slot from DRAM");
      }
    } else if (f.op == Opcode::kLoadWgt) {
      ++report_.loads_wgt;
      const std::int64_t vectors = static_cast<std::int64_t>(f.rows) * f.cols *
                                   f.chan_vecs * f.aux;
      if (f.buff_base + vectors > cfg.weight_buffer_vectors) {
        Violation("weight block exceeds buffer half");
      }
      if (f.dram_base + vectors * cfg.pi * cfg.po > cm_.total_dram_words) {
        Violation("LOAD_WGT reads past the DRAM map");
      }
    } else {
      ++report_.loads_bias;
      if (f.dram_base + 2LL * f.aux * cfg.po > cm_.total_dram_words) {
        Violation("LOAD_BIAS reads past the DRAM map");
      }
    }
  }

  void CheckComp(const CompFields& f) {
    ++report_.comps;
    if (Emits(kModComp, f.dept, kTokOut) && !f.accum_emit) {
      Violation("COMP emits an output token without accum_emit");
    }
    if (f.accum_emit) {
      // The SAVE that consumes this group must read the same half.
      pending_out_half_.push_back(f.out_buff_id);
    }
    const int m = cm_.cfg.wino_m();
    const std::int64_t out_cols = f.wino ? static_cast<std::int64_t>(f.ow_num) * m
                                         : f.ow_num;
    const std::int64_t out_rows = f.wino ? static_cast<std::int64_t>(f.oh_num) * m
                                         : f.oh_num;
    if (f.accum_emit &&
        f.out_buff_base + out_rows * out_cols * f.oc_vecs >
            cm_.cfg.output_buffer_vectors) {
      Violation("COMP output slab exceeds buffer half");
    }
  }

  void CheckSave(const SaveFields& f) {
    ++report_.saves;
    if (!pending_out_half_.empty()) {
      const int expected = pending_out_half_.front();
      pending_out_half_.erase(pending_out_half_.begin());
      if (expected != (f.buff_id & 1)) {
        Violation("SAVE reads half " + std::to_string(f.buff_id & 1) +
                  " but COMP emitted into half " + std::to_string(expected));
      }
    } else {
      Violation("SAVE without a matching COMP emit");
    }
    if (f.pool >= 1 && (f.rows % f.pool != 0 || f.cols % f.pool != 0)) {
      Violation("SAVE pool window does not tile the group");
    }
    if (f.dram_base >= cm_.total_dram_words) {
      Violation("SAVE writes past the DRAM map");
    }
    // Every SAVE writes upward from its base, so a base at or above
    // fmap_base keeps the weight and bias images below it intact — the
    // Runtime keeps them resident across inferences on that guarantee.
    if (f.dram_base < cm_.fmap_base) {
      Violation("SAVE writes into the weight image (base " +
                std::to_string(f.dram_base) + " below fmap base " +
                std::to_string(cm_.fmap_base) + ")");
    }
    // Residency bookkeeping: a keep-resident SAVE marks its slot (the
    // consumer's LOAD_INP_KR will read it); a plain SAVE re-claims the slot
    // for DRAM (slot reuse after the resident tensor dies).
    const int dst_slot = SlotOf(f.dram_base);
    if (f.keep_resident) {
      if (dst_slot < 0) {
        Violation("keep-resident SAVE writes outside the fmap slot region");
      } else {
        resident_slot_[static_cast<std::size_t>(dst_slot)] = true;
      }
    } else if (dst_slot >= 0) {
      resident_slot_[static_cast<std::size_t>(dst_slot)] = false;
    }
    if (f.res_add) {
      if (f.pool != 1) {
        Violation("SAVE_RES carries a fused max-pool");
      }
      if (SlotResident(SlotOf(f.res_dram_base))) {
        Violation("SAVE_RES streams its residual from a keep-resident slot");
      }
      if (f.res_dram_base >= cm_.total_dram_words) {
        Violation("SAVE_RES reads its residual past the DRAM map");
      }
      // The residual stream mirrors the written group element for element,
      // so the farthest residual read is the farthest written position.
      const std::int64_t last_ch =
          static_cast<std::int64_t>(f.oc_vecs) * cm_.cfg.po - 1;
      const std::int64_t last =
          f.res_wino
              ? f.res_dram_base +
                    last_ch * static_cast<std::int64_t>(f.out_h) * f.out_w +
                    static_cast<std::int64_t>(f.rows - 1) * f.out_w + f.cols - 1
              : f.res_dram_base +
                    (static_cast<std::int64_t>(f.rows - 1) * f.out_w +
                     f.cols - 1) *
                        f.oc_pitch +
                    last_ch;
      if (last >= cm_.total_dram_words) {
        Violation("SAVE_RES residual read exceeds the DRAM map");
      }
    } else if (f.relu) {
      Violation("SAVE without a residual add carries a ReLU");
    }
  }

  const CompiledModel& cm_;
  StreamCheckReport report_;
  int index_ = 0;
  /// Tokens each handshake channel holds, in program order.
  std::array<int, kNumChannels> count_{};
  std::vector<int> pending_out_half_;
  /// Per-fmap-slot residency state in program order (fused hand-offs).
  std::vector<bool> resident_slot_;
};

}  // namespace

StreamCheckReport CheckInstructionStream(const CompiledModel& cm) {
  return Checker(cm).Run(DecodeProgram(cm.program));
}

DecodedProgram RequireValidStream(const CompiledModel& cm) {
  DecodedProgram prog = DecodeProgram(cm.program);
  const StreamCheckReport report = Checker(cm).Run(prog);
  if (!report.ok()) {
    std::ostringstream out;
    out << "invalid instruction stream (" << report.violations.size()
        << " violations):";
    for (const std::string& v : report.violations) out << "\n  " << v;
    throw InternalError(out.str());
  }
  return prog;
}

}  // namespace hdnn
