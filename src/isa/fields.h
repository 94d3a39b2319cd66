// The HybridDNN 128-bit custom instruction set (paper Fig. 2).
//
// Five architectural instructions — LOAD_INP, LOAD_WGT, LOAD_BIAS, COMP,
// SAVE — plus NOP and END. Every instruction is 128 bits and carries:
//   OPCODE    4 bits  [124,128)
//   DEPT_FLAG 6 bits  [118,124)   handshake-FIFO interactions (Sec. 4.1)
//   BUFF_ID   2 bits  [116,118)   ping-pong half selectors
// The remaining 116 bits are per-opcode payload. Each payload's fields and
// widths are written once, in the format lists at the end of this file; the
// codec, the model's kernel and stride limits and the estimator's group
// sizing all read them there (the paper's figure names the fields but not
// their widths or positions — see DESIGN.md Sec. 13).
//
// Units: feature-map data is addressed in *vectors* of PI elements (inputs)
// or PO elements (outputs); weights in vectors of PI*PO elements; DRAM in
// 16-bit words.
#ifndef HDNN_ISA_FIELDS_H_
#define HDNN_ISA_FIELDS_H_

#include <cstdint>
#include <string_view>
#include <variant>

namespace hdnn {

enum class Opcode : std::uint8_t {
  kNop = 0,
  kLoadInp = 1,
  kLoadWgt = 2,
  kLoadBias = 3,
  kComp = 4,
  kSave = 5,
  kSaveRes = 6,  ///< SAVE with a fused residual add (see SaveFields)
  kEnd = 7,
  // Keep-resident variants for fused segments: the fmap stays in the
  // accelerator's resident store instead of round-tripping through DRAM.
  // The LOAD and plain-SAVE payloads are fully allocated (116 bits), so the
  // residency flag lives in the opcode; the payload layouts are reused
  // verbatim and the plain encodings (1/5/6) stay bit-identical.
  kSaveKr = 8,      ///< SAVE whose destination stays on chip
  kSaveResKr = 9,   ///< SAVE_RES whose destination stays on chip
  kLoadInpKr = 10,  ///< LOAD_INP whose source is the resident store
};

/// SAVE / SAVE_RES and their keep-resident variants execute on the same
/// module and share SaveFields.
inline bool IsSaveOpcode(Opcode op) {
  return op == Opcode::kSave || op == Opcode::kSaveRes ||
         op == Opcode::kSaveKr || op == Opcode::kSaveResKr;
}

/// LOAD_INP and its keep-resident variant execute on the same module and
/// share LoadFields.
inline bool IsLoadInpOpcode(Opcode op) {
  return op == Opcode::kLoadInp || op == Opcode::kLoadInpKr;
}

const char* OpcodeName(Opcode op);

/// DEPT_FLAG bits (paper Sec. 4.1): each says that an instruction waits on,
/// or emits to, one handshake channel. Which channel depends on the module
/// the instruction runs on; that table is sim/handshake.h, and both the
/// simulator and the stream checker read it there.
enum DeptFlagBits : std::uint8_t {
  kWaitData0 = 1 << 0,
  kWaitData1 = 1 << 1,
  kWaitCredit = 1 << 2,
  kEmitData = 1 << 3,
  kEmitCredit0 = 1 << 4,
  kEmitCredit1 = 1 << 5,
};

/// Payload of LOAD_INP / LOAD_WGT / LOAD_BIAS.
///
/// LOAD_INP moves a `rows` x `cols` x `chan_vecs`-vector rectangle of the
/// input fmap from DRAM into an input-buffer slab, materialising the zero
/// padding described by pad_*. `aux` carries the total fmap height H and
/// `pitch` the total fmap width W (DRAM strides; the rectangle may be a
/// column tile of a wider row — see compiler/tiler).
///
/// LOAD_WGT moves one weight group: rows/cols are the kernel dims of the
/// block (PT x PT for a transformed Winograd slice, R x S for Spatial),
/// chan_vecs = C-block/PI vectors, aux = K-group/PO vectors. The block is
/// contiguous in DRAM (packed by the compiler in load order).
///
/// LOAD_BIAS moves `aux` bias vectors (PO int32 biases each).
struct LoadFields {
  Opcode op = Opcode::kLoadInp;
  std::uint8_t dept = 0;
  std::uint8_t buff_id = 0;       ///< destination ping-pong half
  std::uint32_t buff_base = 0;    ///< destination vector offset in the half
  std::uint32_t dram_base = 0;    ///< source word address
  std::uint16_t rows = 1;
  std::uint16_t cols = 1;
  std::uint16_t chan_vecs = 1;
  std::uint16_t aux = 0;
  std::uint16_t pitch = 0;        ///< total fmap width W (row stride)
  std::uint8_t pad_t = 0, pad_b = 0, pad_l = 0, pad_r = 0;
  bool wino = false;
  std::uint8_t wino_offset = 0;   ///< informational slice index
  /// Fused segments: read the rectangle from the resident store instead of
  /// DRAM (LOAD_INP only; encoded as opcode kLoadInpKr — `op` stays the
  /// architectural kLoadInp). The addressing fields keep their meaning: the
  /// resident store mirrors the tensor's DRAM slot addresses.
  bool keep_resident = false;

  friend bool operator==(const LoadFields&, const LoadFields&) = default;
};

/// Payload of COMP: runs one (input group x weight group x kernel slice)
/// computation on the PE (paper Fig. 4 pseudo-code).
struct CompFields {
  std::uint8_t dept = 0;
  std::uint8_t inp_buff_id = 0;
  std::uint8_t wgt_buff_id = 0;
  std::uint8_t out_buff_id = 0;
  std::uint16_t inp_buff_base = 0;
  std::uint16_t out_buff_base = 0;
  std::uint16_t wgt_buff_base = 0;
  std::uint16_t iw_num = 1;    ///< input slab row pitch, vectors
  std::uint16_t ow_num = 1;    ///< output cols (spat) or tiles per row (wino)
  std::uint8_t oh_num = 1;     ///< output rows (spat) or tile rows (wino)
  std::uint16_t ic_vecs = 1;   ///< input-channel vectors (C/PI)
  std::uint16_t oc_vecs = 1;   ///< output-channel vectors (K/PO)
  std::uint8_t stride = 1;
  bool relu = false;
  std::uint8_t quan = 0;       ///< requantisation shift
  bool wino = false;
  std::uint8_t wino_offset = 0;
  std::uint8_t kh = 3, kw = 3; ///< kernel dims processed by this instruction
  std::uint8_t base_row = 0;   ///< window origin inside the input slab
  std::uint8_t base_col = 0;
  bool accum_clear = false;    ///< zero the accumulation buffer first
  bool accum_emit = false;     ///< requantise accum -> output buffer after

  friend bool operator==(const CompFields&, const CompFields&) = default;
};

/// Payload of SAVE / SAVE_RES: moves one output group to DRAM, applying the
/// layout transform the consumer layer's CONV mode requires (paper Fig. 5)
/// and the optional fused max-pool (POOL_SIZE). SAVE_RES additionally reads
/// a residual tensor from DRAM and fuses `sat(out + res)` (+ ReLU) before
/// the pool / layout transform — the element-wise skip connection of
/// residual networks, executed entirely in the SAVE stage.
enum class SaveLayout : std::uint8_t {
  kSpatToSpat = 0,
  kSpatToWino = 1,
  kWinoToSpat = 2,
  kWinoToWino = 3,
};

/// Plain SAVE (res_add == false) encodes as opcode 5 with the legacy layout
/// — its 116 payload bits are fully allocated, so the residual variant is a
/// distinct opcode (6) with narrower geometry fields making room for the
/// residual source address, and no fused pool (residual layers cannot pool).
struct SaveFields {
  std::uint8_t dept = 0;
  std::uint8_t buff_id = 0;      ///< source output-buffer half
  std::uint16_t buff_base = 0;
  std::uint32_t dram_base = 0;   ///< destination word address (k0 folded in)
  std::uint8_t rows = 1;         ///< group rows before pooling
  std::uint16_t cols = 1;        ///< output width before pooling
  std::uint16_t oc_vecs = 1;     ///< output-channel vectors in this group
  SaveLayout layout = SaveLayout::kSpatToSpat;
  std::uint8_t pool = 1;         ///< max-pool window (1 = none)
  std::uint16_t out_h = 1;       ///< total output height after pooling
  std::uint16_t out_w = 1;       ///< total output width after pooling
  std::uint16_t oc_pitch = 1;    ///< total output channels, padded
  // Residual-add extension (SAVE_RES only).
  bool res_add = false;          ///< fuse an element-wise residual add
  bool res_wino = false;         ///< residual source DRAM layout is WINO
  bool relu = false;             ///< ReLU after the add (COMP defers it here)
  std::uint32_t res_dram_base = 0;  ///< residual source word address
                                    ///< (k0 and group origin folded in)
  /// Fused segments: write the group to the resident store instead of DRAM
  /// (encoded as opcode kSaveKr / kSaveResKr). A SAVE_RES keep-resident
  /// still reads its residual operand from DRAM — only the destination
  /// stays on chip.
  bool keep_resident = false;

  friend bool operator==(const SaveFields&, const SaveFields&) = default;
};

/// Control instructions (NOP / END) carry no payload.
struct CtrlFields {
  Opcode op = Opcode::kNop;
  std::uint8_t dept = 0;

  friend bool operator==(const CtrlFields&, const CtrlFields&) = default;
};

using InstrFields = std::variant<LoadFields, CompFields, SaveFields, CtrlFields>;

/// Opcode of a decoded instruction.
Opcode OpcodeOf(const InstrFields& fields);

// --- Payload formats ------------------------------------------------------
//
// Each format lists one payload's fields from the top of the payload down,
// so a field's position is kPayloadBits minus the widths listed before it.
// Visit(f, visit) calls visit(name, width, member) once per field, in
// order; COMP's stride adds a fourth argument, the bias its field subtracts.
// The codec's encode, decode and range check and FieldMax all walk these
// lists. The header, COMP's halves packed into BUFF_ID, the keep-resident
// opcodes, SAVE_RES's pool == 1 and plain SAVE's no-ReLU rule are not
// fields here: the codec handles them explicitly.

inline constexpr int kPayloadBits = 116;

/// LOAD_INP, LOAD_WGT, LOAD_BIAS and LOAD_INP_KR.
struct LoadFormat {
  using Fields = LoadFields;
  template <typename F, typename V>
  [[gnu::always_inline]] static constexpr void Visit(F& f, V&& visit) {
    visit("buff_base", 14, f.buff_base);
    visit("dram_base", 28, f.dram_base);
    visit("rows", 8, f.rows);
    visit("cols", 10, f.cols);
    visit("chan_vecs", 12, f.chan_vecs);
    visit("aux", 12, f.aux);
    visit("pitch", 12, f.pitch);
    visit("pad_t", 4, f.pad_t);
    visit("pad_b", 4, f.pad_b);
    visit("pad_l", 4, f.pad_l);
    visit("pad_r", 4, f.pad_r);
    visit("wino", 1, f.wino);
    visit("wino_offset", 3, f.wino_offset);
  }
};

/// COMP; bit 0 is spare.
struct CompFormat {
  using Fields = CompFields;
  template <typename F, typename V>
  [[gnu::always_inline]] static constexpr void Visit(F& f, V&& visit) {
    visit("inp_buff_base", 12, f.inp_buff_base);
    visit("out_buff_base", 12, f.out_buff_base);
    visit("wgt_buff_base", 12, f.wgt_buff_base);
    visit("iw_num", 10, f.iw_num);
    visit("ow_num", 10, f.ow_num);
    visit("oh_num", 3, f.oh_num);
    visit("ic_vecs", 12, f.ic_vecs);
    visit("oc_vecs", 12, f.oc_vecs);
    visit("stride", 2, f.stride, /*bias=*/1);
    visit("relu", 1, f.relu);
    visit("quan", 5, f.quan);
    visit("wino", 1, f.wino);
    visit("wino_offset", 4, f.wino_offset);
    visit("kh", 4, f.kh);
    visit("kw", 4, f.kw);
    visit("base_row", 4, f.base_row);
    visit("base_col", 4, f.base_col);
    visit("accum_clear", 1, f.accum_clear);
    visit("accum_emit", 1, f.accum_emit);
    visit("out_buff_id", 1, f.out_buff_id);
  }
};

/// SAVE and SAVE_KR.
struct SaveFormat {
  using Fields = SaveFields;
  template <typename F, typename V>
  [[gnu::always_inline]] static constexpr void Visit(F& f, V&& visit) {
    visit("buff_base", 12, f.buff_base);
    visit("dram_base", 32, f.dram_base);
    visit("rows", 6, f.rows);
    visit("cols", 12, f.cols);
    visit("oc_vecs", 12, f.oc_vecs);
    visit("layout", 2, f.layout);
    visit("pool", 3, f.pool);
    visit("out_h", 12, f.out_h);
    visit("out_w", 12, f.out_w);
    visit("oc_pitch", 13, f.oc_pitch);
  }
};

/// SAVE_RES and SAVE_RES_KR: SAVE's geometry narrowed to make room for the
/// residual source address.
struct SaveResFormat {
  using Fields = SaveFields;
  template <typename F, typename V>
  [[gnu::always_inline]] static constexpr void Visit(F& f, V&& visit) {
    visit("buff_base", 4, f.buff_base);
    visit("dram_base", 28, f.dram_base);
    visit("res_dram_base", 28, f.res_dram_base);
    visit("rows", 6, f.rows);
    visit("cols", 9, f.cols);
    visit("oc_vecs", 7, f.oc_vecs);
    visit("layout", 2, f.layout);
    visit("res_wino", 1, f.res_wino);
    visit("relu", 1, f.relu);
    visit("out_h", 10, f.out_h);
    visit("out_w", 10, f.out_w);
    visit("oc_pitch", 10, f.oc_pitch);
  }
};

/// Bits a format uses.
template <typename Format>
consteval int FormatBits() {
  typename Format::Fields f;
  int bits = 0;
  Format::Visit(f, [&](const char*, int width, auto&, int = 0) {
    bits += width;
  });
  return bits;
}

/// Largest value field `name` of a format holds, its bias included; a name
/// the format lacks does not compile.
template <typename Format>
consteval std::int64_t FieldMax(std::string_view name) {
  typename Format::Fields f;
  std::int64_t max = -1;
  Format::Visit(f, [&](std::string_view field, int width, auto&,
                       int bias = 0) {
    if (field == name) max = (std::int64_t{1} << width) - 1 + bias;
  });
  if (max < 0) throw "no such field in this format";
  return max;
}

static_assert(FormatBits<LoadFormat>() <= kPayloadBits);
static_assert(FormatBits<CompFormat>() <= kPayloadBits);
static_assert(FormatBits<SaveFormat>() <= kPayloadBits);
static_assert(FormatBits<SaveResFormat>() <= kPayloadBits);

}  // namespace hdnn

#endif  // HDNN_ISA_FIELDS_H_
