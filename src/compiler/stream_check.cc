#include "compiler/stream_check.h"

#include <sstream>

#include "common/check.h"
#include "sim/decoded_program.h"

namespace hdnn {
namespace {

constexpr int kPingPongDepth = 2;

class Checker {
 public:
  explicit Checker(const CompiledModel& cm)
      : cm_(cm),
        resident_slot_(static_cast<std::size_t>(cm.fmap_slots), false) {}

  /// Checks `prog`, a decode of cm's program (DecodeProgram validated it).
  StreamCheckReport Run(const DecodedProgram& prog) {
    for (std::size_t i = 0; i < prog.size(); ++i) {
      index_ = static_cast<int>(i);
      const InstrFields& f = prog.fields[i];
      ++report_.instructions;
      if (const auto* l = std::get_if<LoadFields>(&f)) {
        CheckLoad(*l);
      } else if (const auto* c = std::get_if<CompFields>(&f)) {
        CheckComp(*c);
      } else if (const auto* s = std::get_if<SaveFields>(&f)) {
        CheckSave(*s);
      }
    }
    // Terminal token balance: every data token consumed, credits restored.
    if (tok_inp_ != 0) Violation("input data tokens leaked: " + std::to_string(tok_inp_));
    if (tok_wgt_ != 0) Violation("weight data tokens leaked: " + std::to_string(tok_wgt_));
    if (tok_out_ != 0) Violation("output data tokens leaked: " + std::to_string(tok_out_));
    if (tok_layer_ != 1) {
      Violation("layer-barrier tokens out of balance: " +
                std::to_string(tok_layer_) + " (expected exactly 1 leftover)");
    }
    if (cred_inp_ != kPingPongDepth) {
      Violation("input credits not restored: " + std::to_string(cred_inp_));
    }
    if (cred_wgt_ != kPingPongDepth) {
      Violation("weight credits not restored: " + std::to_string(cred_wgt_));
    }
    if (cred_out_ != kPingPongDepth) {
      Violation("output credits not restored: " + std::to_string(cred_out_));
    }
    return report_;
  }

 private:
  void Violation(const std::string& what) {
    std::ostringstream out;
    out << "instr " << index_ << ": " << what;
    report_.violations.push_back(out.str());
  }

  void TakeCredit(int& credits, const char* name) {
    if (credits <= 0) {
      Violation(std::string("credit underflow on ") + name);
    } else {
      --credits;
    }
  }

  void TakeToken(int& tokens, const char* name) {
    if (tokens <= 0) {
      Violation(std::string("token underflow on ") + name);
    } else {
      --tokens;
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
      if (f.dept & kWaitCredit) TakeCredit(cred_inp_, "cred_inp");
      if (f.dept & kWaitData0) TakeToken(tok_layer_, "tok_layer");
      if (f.dept & kEmitData) ++tok_inp_;
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
      if (f.dept & kWaitCredit) TakeCredit(cred_wgt_, "cred_wgt");
      if (f.dept & kEmitData) ++tok_wgt_;
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
      if (f.dept & kEmitData) ++tok_wgt_;
      if (f.dram_base + 2LL * f.aux * cfg.po > cm_.total_dram_words) {
        Violation("LOAD_BIAS reads past the DRAM map");
      }
    }
  }

  void CheckComp(const CompFields& f) {
    ++report_.comps;
    if (f.dept & kWaitData0) TakeToken(tok_inp_, "tok_inp");
    if (f.dept & kWaitData1) TakeToken(tok_wgt_, "tok_wgt");
    if (f.dept & kWaitCredit) TakeCredit(cred_out_, "cred_out");
    if (f.dept & kEmitCredit0) ++cred_inp_;
    if (f.dept & kEmitCredit1) ++cred_wgt_;
    if (f.dept & kEmitData) ++tok_out_;
    if (cred_inp_ > kPingPongDepth) Violation("input credit overflow");
    if (cred_wgt_ > kPingPongDepth) Violation("weight credit overflow");
    if ((f.dept & kEmitData) && !f.accum_emit) {
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
    if (f.dept & kWaitData0) TakeToken(tok_out_, "tok_out");
    if (f.dept & kEmitData) ++tok_layer_;  // layer barrier (compiler.cc)
    if (f.dept & kEmitCredit0) ++cred_out_;
    if (cred_out_ > kPingPongDepth) Violation("output credit overflow");
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
  int tok_inp_ = 0, tok_wgt_ = 0, tok_out_ = 0, tok_layer_ = 0;
  int cred_inp_ = kPingPongDepth, cred_wgt_ = kPingPongDepth,
      cred_out_ = kPingPongDepth;
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
