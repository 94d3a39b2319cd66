// Core vocabulary types shared across the HybridDNN libraries.
#ifndef HDNN_COMMON_TYPES_H_
#define HDNN_COMMON_TYPES_H_

#include <cstdint>
#include <string>

#include "common/check.h"

namespace hdnn {

/// Convolution execution mode of the hybrid PE (paper Sec. 4.2).
enum class ConvMode : std::uint8_t {
  kSpatial,   ///< conventional direct convolution
  kWinograd,  ///< F(m x m, r x r) Winograd convolution
};

/// Dataflow strategy for CONV operation partitioning (paper Sec. 4.2.4).
enum class Dataflow : std::uint8_t {
  kInputStationary,   ///< IS: keep one input group on chip, stream weights
  kWeightStationary,  ///< WS: keep one weight group on chip, stream inputs
};

inline const char* ToString(ConvMode mode) {
  return mode == ConvMode::kSpatial ? "spat" : "wino";
}

inline const char* ToString(Dataflow flow) {
  return flow == Dataflow::kInputStationary ? "is" : "ws";
}

inline ConvMode ConvModeFromString(const std::string& s) {
  if (s == "spat" || s == "spatial") return ConvMode::kSpatial;
  if (s == "wino" || s == "winograd") return ConvMode::kWinograd;
  throw InvalidArgument("unknown CONV mode: " + s);
}

inline Dataflow DataflowFromString(const std::string& s) {
  if (s == "is") return Dataflow::kInputStationary;
  if (s == "ws") return Dataflow::kWeightStationary;
  throw InvalidArgument("unknown dataflow: " + s);
}

/// Parallelisation factors of one accelerator instance (paper Sec. 4.2.2).
///
/// A PE is a PT x PT array of GEMM cores; each GEMM core is a PI x PO
/// broadcast MAC array. PT equals the Winograd input-tile size (m + r - 1)
/// and must be 4 or 6 (paper Sec. 5.1). The output-tile size m is derived:
/// m = PT - r + 1 with r == 3.
struct AccelConfig {
  int pi = 4;          ///< input-channel parallelism of a GEMM core
  int po = 4;          ///< output-channel parallelism of a GEMM core
  int pt = 4;          ///< GEMM-core grid dimension == Winograd tile size
  int ni = 1;          ///< number of accelerator instances on the FPGA
  int data_width = 12; ///< feature-map bit width inside the PE
  int wgt_width = 8;   ///< weight bit width
  /// On-chip buffer capacities, in *vectors* per ping-pong half. One input
  /// vector carries `pi` feature elements; one weight vector carries
  /// `pi * po` products' worth of operands; one output vector carries `po`
  /// elements (see mem/onchip_buffer.h).
  int input_buffer_vectors = 16384;
  int weight_buffer_vectors = 4608;
  int output_buffer_vectors = 16384;

  /// Winograd kernel size r: HybridDNN supports F(m x m, 3 x 3) only;
  /// larger kernels use the decomposition of Sec. 4.2.5.
  static constexpr int kWinoKernel = 3;

  /// Winograd output-tile size m (2 for PT=4, 4 for PT=6).
  int wino_m() const { return pt - kWinoKernel + 1; }

  /// Multiply-accumulate units in the PE: PI * PO * PT^2.
  long long macs() const {
    return static_cast<long long>(pi) * po * pt * pt;
  }

  void Validate() const {
    HDNN_CHECK(pt == 4 || pt == 6) << "PT must be 4 or 6, got " << pt;
    HDNN_CHECK(pi >= 1 && po >= 1) << "PI/PO must be positive";
    HDNN_CHECK(pi >= po) << "DSE constraint PI >= PO violated: PI=" << pi
                         << " PO=" << po;
    // Channels pad to a whole number of PI-lane input vectors, and each
    // layer's output feeds the next as its input, so PO must divide PI.
    HDNN_CHECK(pi % po == 0)
        << "PO must divide PI: PI=" << pi << " PO=" << po;
    HDNN_CHECK(ni >= 1) << "NI must be positive";
    HDNN_CHECK(data_width >= 4 && data_width <= 16)
        << "data width out of supported range";
    HDNN_CHECK(wgt_width >= 4 && wgt_width <= 16)
        << "weight width out of supported range";
  }

  std::string ToString() const {
    return "AccelConfig{PI=" + std::to_string(pi) + ",PO=" + std::to_string(po) +
           ",PT=" + std::to_string(pt) + ",NI=" + std::to_string(ni) + "}";
  }

  friend bool operator==(const AccelConfig&, const AccelConfig&) = default;
};

}  // namespace hdnn

#endif  // HDNN_COMMON_TYPES_H_
