#include "winograd/matrices.h"

namespace hdnn {
namespace {

// F(2x2, 3x3): PT = 4.
constexpr std::array<double, 12> kG4 = {
    1.0, 0.0, 0.0,    //
    0.5, 0.5, 0.5,    //
    0.5, -0.5, 0.5,   //
    0.0, 0.0, 1.0,    //
};

// F(4x4, 3x3): PT = 6.
constexpr std::array<double, 18> kG6 = {
    1.0 / 4, 0.0, 0.0,              //
    -1.0 / 6, -1.0 / 6, -1.0 / 6,   //
    -1.0 / 6, 1.0 / 6, -1.0 / 6,    //
    1.0 / 24, 1.0 / 12, 1.0 / 6,    //
    1.0 / 24, -1.0 / 12, 1.0 / 6,   //
    0.0, 0.0, 1.0,                  //
};

}  // namespace

std::span<const int> WinoBT(int pt) {
  HDNN_CHECK(pt == 4 || pt == 6) << "PT must be 4 or 6";
  if (pt == 4) return kBT4;
  return kBT6;
}

std::span<const int> WinoAT(int pt) {
  HDNN_CHECK(pt == 4 || pt == 6) << "PT must be 4 or 6";
  if (pt == 4) return kAT4;
  return kAT6;
}

std::span<const double> WinoG(int pt) {
  HDNN_CHECK(pt == 4 || pt == 6) << "PT must be 4 or 6";
  if (pt == 4) return kG4;
  return kG6;
}

}  // namespace hdnn
