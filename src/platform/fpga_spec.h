// FPGA platform specifications (paper Step 1: "the targeted FPGA
// specification ... passed to HybridDNN parser to capture hardware resource
// availability").
#ifndef HDNN_PLATFORM_FPGA_SPEC_H_
#define HDNN_PLATFORM_FPGA_SPEC_H_

#include <string>
#include <vector>

namespace hdnn {

/// Static description of a target FPGA platform + board.
struct FpgaSpec {
  std::string name;

  // Device resources.
  long long luts = 0;
  long long dsps = 0;
  long long bram18 = 0;  ///< number of 18 Kb BRAM blocks
  int dies = 1;          ///< SLR/die count (multi-die cloud FPGAs)

  // Board / memory system.
  double dram_bandwidth_gbps = 0;  ///< aggregate DRAM bandwidth, GB/s

  // Operating point.
  double freq_mhz = 0;  ///< achievable clock for the generated accelerator

  // Profiled implementation properties.
  double dsp_pack = 1.0;  ///< MACs per DSP (2 = int8 dual-MAC packing)
  double static_watts = 0;

  /// Fraction of each resource the DSE may fill (routing/timing headroom on
  /// multi-die parts is what the paper's Sec. 1 cross-die discussion is
  /// about).
  double max_utilization = 1.0;

  /// Per-die resource share (uniform split across SLRs).
  long long luts_per_die() const { return luts / dies; }
  long long dsps_per_die() const { return dsps / dies; }
  long long bram18_per_die() const { return bram18 / dies; }

  /// DRAM bandwidth available to one of `ni` concurrent accelerator
  /// instances (the bandwidth is shared evenly).
  double bandwidth_per_instance_gbps(int ni) const {
    return dram_bandwidth_gbps / (ni > 0 ? ni : 1);
  }

  /// 16-bit DRAM words one of `ni` instances moves per accelerator cycle:
  /// the estimator's and the simulator's one transfer rate.
  double dram_words_per_cycle(int ni) const {
    return bandwidth_per_instance_gbps(ni) * 1e9 / (freq_mhz * 1e6) / 2.0;
  }
};

/// Setup cycles of one DRAM transaction, charged by the estimator per
/// burst it counts and by the simulator per LOAD/SAVE transaction.
inline constexpr double kBurstOverheadCycles = 24.0;

/// Returns the built-in platform database.
const std::vector<FpgaSpec>& PlatformDatabase();

/// Looks up a platform by (case-insensitive) name; throws InvalidArgument if
/// absent.
const FpgaSpec& FindPlatform(const std::string& name);

/// The two evaluation platforms of the paper.
const FpgaSpec& Vu9pSpec();
const FpgaSpec& PynqZ1Spec();

}  // namespace hdnn

#endif  // HDNN_PLATFORM_FPGA_SPEC_H_
