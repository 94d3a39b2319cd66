// Winograd transform matrices for F(2x2,3x3) and F(4x4,3x3) (Lavin & Gray,
// CVPR'16 — paper reference [18]).
//
// Y = AT [ (G g GT) (.) (BT d B) ] A                        (paper Eq. 1)
//
// HybridDNN supports PT = m + r - 1 in {4, 6} with r = 3 (paper Sec. 5.1).
// B and A are integer-valued for both tile sizes, so the *runtime* input and
// output transforms are exact integer arithmetic in the PE; only the
// *offline* kernel transform G carries fractions (1/2 for F(2x2) — exactly
// representable; 1/6, 1/12, 1/24 for F(4x4) — quantised offline).
#ifndef HDNN_WINOGRAD_MATRICES_H_
#define HDNN_WINOGRAD_MATRICES_H_

#include <array>
#include <cstdint>
#include <span>

#include "common/check.h"

namespace hdnn {

/// Parameters of an F(m x m, 3 x 3) Winograd algorithm.
struct WinoParam {
  int m;  ///< output tile size (2 or 4)

  static constexpr int kR = 3;            ///< kernel tile size
  int pt() const { return m + kR - 1; }   ///< input tile size (4 or 6)

  /// Multiplications per output tile per (input-channel, output-channel)
  /// pair: Winograd needs pt^2 EWMM products, Spatial needs m^2 * r^2.
  int wino_mults_per_tile() const { return pt() * pt(); }
  int spatial_mults_per_tile() const { return m * m * kR * kR; }

  /// Exact kernel-transform shift for F(2x2) (G entries are multiples of
  /// 1/2, so U*2^2 is integral); recommended quantisation shift for F(4x4).
  int recommended_u_shift() const { return m == 2 ? 2 : 7; }
};

/// Returns the parameters for a given input-tile size PT in {4, 6}.
inline WinoParam WinoParamForPt(int pt) {
  HDNN_CHECK(pt == 4 || pt == 6) << "PT must be 4 or 6, got " << pt;
  return WinoParam{pt - WinoParam::kR + 1};
}

/// The integer runtime transforms, row-major: BT is pt x pt and AT is m x pt.
/// constexpr so the simulator's COMP kernels fold the same copy the golden
/// reads (through WinoBT / WinoAT).
// F(2x2, 3x3): PT = 4.
inline constexpr std::array<int, 16> kBT4 = {
    1, 0, -1, 0,   //
    0, 1, 1, 0,    //
    0, -1, 1, 0,   //
    0, 1, 0, -1,   //
};
inline constexpr std::array<int, 8> kAT4 = {
    1, 1, 1, 0,    //
    0, 1, -1, -1,  //
};
// F(4x4, 3x3): PT = 6.
inline constexpr std::array<int, 36> kBT6 = {
    4, 0, -5, 0,  1, 0,   //
    0, -4, -4, 1, 1, 0,   //
    0, 4, -4, -1, 1, 0,   //
    0, -2, -1, 2, 1, 0,   //
    0, 2, -1, -2, 1, 0,   //
    0, 4, 0, -5, 0, 1,    //
};
inline constexpr std::array<int, 24> kAT6 = {
    1, 1, 1, 1, 1, 0,     //
    0, 1, -1, 2, -2, 0,   //
    0, 1, 1, 4, 4, 0,     //
    0, 1, -1, 8, -8, 1,   //
};

/// BT: pt x pt row-major, integer entries.
std::span<const int> WinoBT(int pt);

/// AT: m x pt row-major, integer entries.
std::span<const int> WinoAT(int pt);

/// G: pt x 3 row-major, real entries (offline use only).
std::span<const double> WinoG(int pt);

}  // namespace hdnn

#endif  // HDNN_WINOGRAD_MATRICES_H_
