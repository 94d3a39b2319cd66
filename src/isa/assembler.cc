#include "isa/assembler.h"

#include <sstream>

namespace hdnn {
namespace {

std::string DisassembleLoad(const LoadFields& f) {
  std::ostringstream out;
  out << (f.keep_resident ? "LOAD_INP_KR" : OpcodeName(f.op)) << " dept=0x"
      << std::hex << int{f.dept} << std::dec
      << " buff=" << int{f.buff_id} << " base=" << f.buff_base
      << " dram=" << f.dram_base << " rows=" << f.rows << " cols=" << f.cols
      << " cv=" << f.chan_vecs << " aux=" << f.aux << " pitch=" << f.pitch
      << " pad=" << int{f.pad_t}
      << "," << int{f.pad_b} << "," << int{f.pad_l} << "," << int{f.pad_r}
      << " wino=" << (f.wino ? 1 : 0) << " woff=" << int{f.wino_offset};
  return out.str();
}

std::string DisassembleComp(const CompFields& f) {
  std::ostringstream out;
  out << "COMP dept=0x" << std::hex << int{f.dept} << std::dec
      << " ib=" << int{f.inp_buff_id} << " wb=" << int{f.wgt_buff_id}
      << " ob=" << int{f.out_buff_id} << " ibase=" << f.inp_buff_base
      << " obase=" << f.out_buff_base << " wbase=" << f.wgt_buff_base
      << " iw=" << f.iw_num << " ow=" << f.ow_num << " oh=" << int{f.oh_num}
      << " icv=" << f.ic_vecs << " ocv=" << f.oc_vecs
      << " stride=" << int{f.stride} << " relu=" << (f.relu ? 1 : 0)
      << " quan=" << int{f.quan} << " wino=" << (f.wino ? 1 : 0)
      << " woff=" << int{f.wino_offset} << " kh=" << int{f.kh}
      << " kw=" << int{f.kw} << " brow=" << int{f.base_row}
      << " bcol=" << int{f.base_col} << " aclr=" << (f.accum_clear ? 1 : 0)
      << " aemit=" << (f.accum_emit ? 1 : 0);
  return out.str();
}

std::string DisassembleSave(const SaveFields& f) {
  std::ostringstream out;
  out << (f.res_add ? (f.keep_resident ? "SAVE_RES_KR" : "SAVE_RES")
                    : (f.keep_resident ? "SAVE_KR" : "SAVE"))
      << " dept=0x" << std::hex
      << int{f.dept} << std::dec
      << " buff=" << int{f.buff_id} << " base=" << f.buff_base
      << " dram=" << f.dram_base << " rows=" << int{f.rows}
      << " cols=" << f.cols << " ocv=" << f.oc_vecs
      << " layout=" << static_cast<int>(f.layout) << " pool=" << int{f.pool}
      << " oh=" << f.out_h << " ow=" << f.out_w << " ocp=" << f.oc_pitch;
  if (f.res_add) {
    out << " rdram=" << f.res_dram_base << " rwino=" << (f.res_wino ? 1 : 0)
        << " relu=" << (f.relu ? 1 : 0);
  }
  return out.str();
}

}  // namespace

std::string Disassemble(const Instruction& instr) {
  const InstrFields fields = Decode(instr);
  if (const auto* l = std::get_if<LoadFields>(&fields)) {
    return DisassembleLoad(*l);
  }
  if (const auto* c = std::get_if<CompFields>(&fields)) {
    return DisassembleComp(*c);
  }
  if (const auto* s = std::get_if<SaveFields>(&fields)) {
    return DisassembleSave(*s);
  }
  const auto& ctrl = std::get<CtrlFields>(fields);
  std::ostringstream out;
  out << OpcodeName(ctrl.op);
  if (ctrl.dept != 0) out << " dept=0x" << std::hex << int{ctrl.dept};
  return out.str();
}

}  // namespace hdnn
