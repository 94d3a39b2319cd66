// Host runtime (paper Fig. 1 Step 4): prepares the DRAM image (weights,
// biases, input feature map), manages execution of the compiled instruction
// stream on the accelerator (simulator), and collects outputs and
// performance counters.
#ifndef HDNN_RUNTIME_RUNTIME_H_
#define HDNN_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "compiler/compiler.h"
#include "compiler/weight_pack.h"
#include "mem/dram_model.h"
#include "nn/model.h"
#include "sim/accelerator.h"

namespace hdnn {

/// Execution report for one inference.
struct RunReport {
  SimStats stats;
  double seconds = 0;
  double gops = 0;            ///< model ops / time, one instance
  double effective_gops = 0;  ///< x NI instances (throughput, paper Table 4)
  std::vector<double> layer_cycles;          ///< per-layer latency
  Tensor<std::int16_t> output;               ///< final fmap (functional runs)
  /// CRC32 of the output SAVE slab verified at collection (functional runs
  /// with integrity checking enabled; see Runtime::set_integrity_check).
  std::uint32_t output_crc32 = 0;
  bool integrity_checked = false;
};

/// Runs compiled models on one persistent simulated device. The weight and
/// bias image [0, cm.fmap_base) stays resident in the DRAM model across
/// functional Executes, as on the board: a run whose WeightImageKey
/// matches the last clean functional run zeroes only the fmap slots
/// [cm.fmap_base, size) and stages only its input. A fault armed at the
/// start of a functional run, any exception in one, or a write or fault
/// through dram() between runs drops the claim, so the next functional run
/// re-stages the whole image (DESIGN.md Sec. 4). A timing-only run touches
/// no DRAM, so it neither reads nor drops the claim, even when it throws.
class Runtime {
 public:
  Runtime(const AccelConfig& cfg, const FpgaSpec& spec);

  /// Runs one inference. `input` is the (real-channel) CHW input fmap in the
  /// quantised feature domain. When `functional` is false, the run is
  /// timing-only: no DRAM image is built or zeroed, no data is staged and no
  /// arithmetic executed, and its SimStats equal the functional run's. A
  /// hand-built `cm` (no `decoded`) is stream-checked in both modes.
  RunReport Execute(const Model& model, const CompiledModel& cm,
                    const ModelWeightsQ& weights,
                    const Tensor<std::int16_t>& input, bool functional = true);

  /// Integrity tagging (DESIGN.md Sec. 12): when enabled, a functional
  /// Execute computes a CRC32 over the final fmap SAVE slab the instant the
  /// accelerator run completes (modeling the device tagging the slab as it
  /// streams out) and re-verifies it after collection reads the slab back.
  /// A mismatch — DRAM corruption in the at-rest window between SAVE and
  /// collection — throws IntegrityError instead of serving the corrupted
  /// fmap. Off by default: a disabled check is bit- and stats-identical to
  /// the pre-tag runtime (the tag reads use ViewRun, which takes no stats).
  void set_integrity_check(bool on) { integrity_check_ = on; }
  bool integrity_check() const { return integrity_check_; }

  /// The device DRAM: null until the first functional Execute builds it.
  DramModel* dram() { return dram_.get(); }

 private:
  AccelConfig cfg_;
  FpgaSpec spec_;
  bool integrity_check_ = false;
  /// Persistent per-Runtime arenas: the DRAM image is Reset (storage
  /// reused) by each functional Execute, and the Accelerator's buffers and
  /// COMP scratch survive across Execute calls, so steady-state serving
  /// performs no per-inference reallocation of the simulator state. Each
  /// functional run hands `dram_` to `accel_`; timing-only runs hand none.
  std::unique_ptr<DramModel> dram_;
  Accelerator accel_;

  /// The resident weight image: its key, and the DRAM's write and fault
  /// counters as the clean functional run that staged it left them. Set
  /// only at the end of such a run; cleared at the start of every
  /// functional Execute.
  struct ResidentImage {
    std::uint64_t key = 0;
    std::int64_t words_written = 0;
    std::int64_t injected_faults = 0;
    friend bool operator==(const ResidentImage&,
                           const ResidentImage&) = default;
  };
  std::optional<ResidentImage> resident_;
};

/// Stores a CHW fmap into a layer's DRAM region with channel padding, in the
/// given layout (host-side input staging). The two DDR layouts of paper
/// Fig. 5 differ in which index is innermost, for C padded channels:
///   SPAT: addr(c,h,w) = (h*W + w)*C + c   (channel innermost: the PE's
///         Spatial broadcast array streams channel vectors per position)
///   WINO: addr(c,h,w) = (c*H + h)*W + w   (channel outermost: Winograd
///         tiles gather PT consecutive columns per channel)
/// The SAVE module supports all four transforms (WINO/SPAT -> WINO/SPAT) by
/// writing in the consumer's layout, and each LOAD reads its own mode's
/// layout, so the reordering work is offloaded to SAVE, as Sec. 4.3
/// describes.
void StageInputFmap(DramModel& dram, std::int64_t base, ConvMode layout,
                    const Tensor<std::int16_t>& fmap, int padded_channels);

/// Reads the final output fmap back (cropping channel padding).
Tensor<std::int16_t> CollectOutputFmap(const DramModel& dram,
                                       std::int64_t base, ConvMode layout,
                                       const FmapShape& shape,
                                       int padded_channels);

}  // namespace hdnn

#endif  // HDNN_RUNTIME_RUNTIME_H_
