// Tile-level Winograd transforms, in the same arithmetic the PE's load/save
// managers implement (paper Sec. 4.2.3): integer input transform BT d B,
// integer output transform AT M A, and the offline kernel transform
// U = G g GT with power-of-two quantisation.
#ifndef HDNN_WINOGRAD_TRANSFORM_H_
#define HDNN_WINOGRAD_TRANSFORM_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "winograd/matrices.h"

namespace hdnn {

/// V = BT d B. d is a pt x pt row-major tile of feature values; the result
/// grows by at most the product of B's row absolute sums (bounded, fits
/// comfortably in int32 for 12-bit features).
std::vector<std::int32_t> TransformInputTile(std::span<const std::int32_t> d,
                                             int pt);

/// Float variant for numeric analysis.
std::vector<double> TransformInputTileF(std::span<const double> d, int pt);

/// Offline kernel transform: U = G g GT (g is 3x3 row-major, real).
std::vector<double> TransformKernelF(std::span<const double> g, int pt);

/// Offline quantised kernel transform: round(U * 2^u_shift) saturated to
/// int16. For pt == 4 and u_shift >= 2 this is exact (G entries are
/// multiples of 1/2).
std::vector<std::int16_t> TransformKernelQ(std::span<const std::int8_t> g,
                                           int pt, int u_shift);

/// Y = AT M A. M is the pt x pt EWMM accumulator tile; Y is m x m.
std::vector<std::int64_t> TransformOutputTile(std::span<const std::int64_t> m_tile,
                                              int pt);

/// Float variant.
std::vector<double> TransformOutputTileF(std::span<const double> m_tile,
                                         int pt);

/// Worst-case growth factor of the integer input transform (product of max
/// absolute row sums of BT applied twice); used to size PE datapaths.
/// constexpr, so the simulator's int32 transform bound is a static_assert.
constexpr std::int64_t InputTransformGrowth(int pt) {
  if (pt != 4 && pt != 6) throw InvalidArgument("PT must be 4 or 6");
  const int* const bt = pt == 4 ? kBT4.data() : kBT6.data();
  std::int64_t max_row_sum = 0;
  for (int i = 0; i < pt; ++i) {
    std::int64_t sum = 0;
    for (int j = 0; j < pt; ++j) {
      const int c = bt[i * pt + j];
      sum += c < 0 ? -c : c;
    }
    max_row_sum = std::max(max_row_sum, sum);
  }
  return max_row_sum * max_row_sum;  // applied on both sides
}

}  // namespace hdnn

#endif  // HDNN_WINOGRAD_TRANSFORM_H_
