// Functional + cycle-approximate simulator of one HybridDNN accelerator
// instance (paper Fig. 3): LOAD_INP, LOAD_WGT (incl. LOAD_BIAS), COMP and
// SAVE modules around a hybrid Spatial/Winograd PE, connected by handshake
// FIFOs and ping-pong buffers, sharing one DRAM port.
//
// Functional semantics are bit-accurate (validated against refconv/winograd
// golden models); timing is instruction-granular: each module owns a
// timeline, instructions execute in program order per module, handshake
// tokens impose cross-module ordering, and all DRAM transactions serialise
// on a shared port timeline — which is what produces the memory-bound
// Winograd behaviour of the paper's Fig. 6.
//
// === Buffer slab contracts (shared with the compiler) ===
//
// INPUT slab (written by LOAD_INP at buff_base, read by COMP):
//   slab_rows = pad_t + rows + pad_b, slab_cols = pad_l + cols + pad_r
//   vector index  v = (r * slab_cols + c) * chan_vecs + cv
//   element slot  = v * PI + lane                       (int12 features)
// DRAM source (SPAT layout): dram_base + ((r*pitch)+c)*Cp + ch
// DRAM source (WINO layout): dram_base + ch*aux*pitch + r*pitch + c
//   with Cp = chan_vecs*PI (channel count padded by the compiler).
//
// WEIGHT slab (LOAD_WGT, contiguous DRAM block in identical order):
//   element slot = (((kv*chan_vecs + cv)*(rows*cols) + rc)*PO + co)*PI + ci
//   rc indexes the PT*PT transformed tile (Winograd) or R*S taps (Spatial).
//
// BIAS buffer (LOAD_BIAS): int32 slot = buff_base + kv*PO + lane; DRAM holds
// little-endian word pairs. Winograd-layer biases are pre-shifted by the
// compiler (<< u_shift) so COMP's single QUAN_PARAM shift applies to both
// modes.
//
// OUTPUT slab (COMP accum_emit writes, SAVE reads):
//   slab_cols = ow_num (Spatial) or ow_num*m (Winograd, right-padded)
//   vector index v = (r * slab_cols + c) * oc_vecs + kv
//   element slot = v * PO + lane
#ifndef HDNN_SIM_ACCELERATOR_H_
#define HDNN_SIM_ACCELERATOR_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "isa/codec.h"
#include "mem/dram_model.h"
#include "platform/fpga_spec.h"
#include "sim/decoded_program.h"

namespace hdnn {

struct CompKernels;

struct SimStats {
  double total_cycles = 0;
  std::vector<double> completion;  ///< per-instruction completion time
  double ldi_busy = 0, ldw_busy = 0, comp_busy = 0, save_busy = 0;
  double port_busy = 0;
  std::int64_t instructions = 0;
  std::int64_t dram_words_read = 0, dram_words_written = 0;
  std::int64_t macs_executed = 0;

  double Seconds(double freq_mhz) const {
    return total_cycles / (freq_mhz * 1e6);
  }

  friend bool operator==(const SimStats&, const SimStats&) = default;
};

class Accelerator {
 public:
  /// Holds no DRAM: each Run is given one, or none. Bandwidth is the
  /// per-instance share (spec.bandwidth_per_instance_gbps(cfg.ni)).
  Accelerator(const AccelConfig& cfg, const FpgaSpec& spec);

  /// Executes a decoded END-terminated program (DecodeProgram, or the
  /// compiler's CompiledModel::decoded); returns timing statistics. Run
  /// starts straight at the scheduler loop.
  ///
  /// With a `dram`, the run is functional: LOADs read it, COMP computes,
  /// and SAVEs write it, so the results persist in `dram`. A null `dram`
  /// runs timing only: no data is moved and no arithmetic executed, which
  /// is what large sweeps use. The timing model does not depend on data
  /// values, so both give identical SimStats for the same program.
  ///
  /// An Accelerator is reusable: per-run microarchitectural state is reset
  /// on entry, so consecutive Runs are bit- and cycle-identical to runs on
  /// freshly constructed instances, while buffer storage and the COMP
  /// scratch arenas are reused (no steady-state allocations).
  SimStats Run(const DecodedProgram& prog, DramModel* dram);

 private:
  // Module executors; each returns the instruction's busy cycles and the
  // DRAM words moved (0 for COMP). A null `dram` (false `functional`) is a
  // timing-only run: timing and words are computed, no data moves.
  struct ExecResult {
    double busy_cycles = 0;  ///< module occupancy (datapath width limited)
    double port_cycles = 0;  ///< DRAM port occupancy (bandwidth + burst)
    std::int64_t dram_words = 0;      ///< words read (LOADs) / written (SAVE)
    std::int64_t res_read_words = 0;  ///< SAVE_RES residual-operand reads
    bool uses_port = false;
  };
  ExecResult ExecLoadInp(const LoadFields& f, const DramModel* dram);
  ExecResult ExecLoadWgt(const LoadFields& f, const DramModel* dram);
  ExecResult ExecLoadBias(const LoadFields& f, const DramModel* dram);
  ExecResult ExecComp(const CompFields& f, bool functional);
  ExecResult ExecSave(const SaveFields& f, DramModel* dram);

  /// Fused-segment resident store access: returns a pointer to `words`
  /// mirror words at DRAM address `addr`, growing the zero-filled mirror to
  /// cover the range (zero matches DRAM semantics — DramModel::Reset zeroes
  /// per inference, so never-written pad channels read identically).
  std::int16_t* ResidentSpan(std::int64_t addr, std::int64_t words);

  /// A functional COMP's MACs into the accumulation buffer (both modes).
  void CompMacs(const CompFields& f);
  void EmitWinograd(const CompFields& f);
  void EmitSpatial(const CompFields& f);

  /// Sizes the accumulation buffer for one COMP, reusing existing storage.
  void EnsureAccum(std::int64_t size, bool clear);
  /// Grows the COMP scratch arenas to `scratch` int32 elements and `lanes`
  /// lane accumulators.
  void GrowScratch(std::int64_t scratch, std::int64_t lanes);

  AccelConfig cfg_;
  double bw_elems_per_cycle_;

  /// Line-buffer row reuse (see ExecLoadInp): geometry of the previous
  /// LOAD_INP, used to discount rows still resident in the row ring.
  struct PrevLoad {
    bool valid = false;
    std::uint32_t dram_base = 0;
    std::uint16_t rows = 0, cols = 0, chan_vecs = 0, pitch = 0, aux = 0;
    bool wino = false;
  } prev_load_;

  /// Fused-segment resident store: keep-resident SAVEs write here instead
  /// of DRAM, and keep-resident LOAD_INPs read it back — the on-chip
  /// hand-off between fused layers. It is address-mapped over the DRAM fmap
  /// slots (`resident_[addr - resident_base_]`), so re-packed SAVE/LOAD
  /// payloads keep their DRAM addressing untouched; lazily grown and reset
  /// each Run.
  std::vector<std::int16_t> resident_;
  std::int64_t resident_base_ = 0;

  // Element-granular buffer storage (halves concatenated).
  std::vector<std::int32_t> input_buf_;   // 2 * vectors * PI
  std::vector<std::int32_t> weight_buf_;  // 2 * vectors * PI*PO
  std::vector<std::int32_t> output_buf_;  // 2 * vectors * PO
  std::vector<std::int32_t> bias_buf_;    // 2 * kBiasCapacity
  std::vector<std::int64_t> accum_;       // PE accumulation buffer

  // COMP scratch arenas, grown on first use and reused across COMPs, so
  // the steady-state COMP loops perform no heap allocation (DESIGN.md).
  std::vector<std::int32_t> scratch_;  // Winograd: icv*ee*pi transformed
                                       // inputs, [cvi][e][ci]; Spatial: the
                                       // nonzero input vectors' offsets
  std::vector<std::int64_t> lanes_;    // int64 lane accumulators: [e][co][ci]
                                       // (Winograd), [kv][co][ci] (Spatial)
  /// The COMP kernels compiled for this config's geometry.
  const CompKernels* kernels_ = nullptr;
  std::vector<std::int32_t> save_line_;   // SAVE pool-window channel line

  std::int64_t macs_executed_ = 0;

  static constexpr std::int64_t kBiasCapacity = 8192;
};

}  // namespace hdnn

#endif  // HDNN_SIM_ACCELERATOR_H_
