#include "tensor/quantize.h"

#include <cmath>

#include "common/check.h"
#include "common/fixed_point.h"

namespace hdnn {

Tensor<std::int16_t> QuantizeTensor(const Tensor<float>& t, QuantSpec spec) {
  // QuantizeValue saturates to spec.bits, but the storage cast below is a
  // plain narrowing: spec.bits > 16 would wrap instead of saturating.
  HDNN_CHECK(spec.bits >= 2 && spec.bits <= 16)
      << "QuantizeTensor stores int16: bits=" << spec.bits
      << " does not fit the storage type";
  HDNN_CHECK(spec.frac_bits >= 0) << "frac_bits=" << spec.frac_bits;
  Tensor<std::int16_t> out(t.shape());
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    out.flat(i) = static_cast<std::int16_t>(
        QuantizeValue(t.flat(i), spec.frac_bits, spec.bits));
  }
  return out;
}

QuantSpec ChooseFracBitsForMagnitude(double max_mag, int bits,
                                     int max_frac_bits) {
  HDNN_CHECK(std::isfinite(max_mag) && max_mag >= 0)
      << "magnitude must be finite and non-negative, got " << max_mag;
  HDNN_CHECK(max_frac_bits >= 0 && max_frac_bits < 62)
      << "max_frac_bits=" << max_frac_bits;
  const double limit = static_cast<double>(SignedRangeOf(bits).max);
  int frac = max_frac_bits;
  // max_mag == 0 keeps frac == max_frac_bits: zero is exact on every grid.
  while (frac > 0 &&
         max_mag * static_cast<double>(std::int64_t{1} << frac) > limit) {
    --frac;
  }
  return QuantSpec{bits, frac};
}

QuantSpec ChooseFracBits(const Tensor<float>& t, int bits,
                         int max_frac_bits) {
  double max_mag = 0;
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    const double v = static_cast<double>(t.flat(i));
    HDNN_CHECK(std::isfinite(v))
        << "non-finite element " << t.flat(i) << " at flat index " << i
        << " (a NaN/Inf would silently select max fraction bits)";
    max_mag = std::max(max_mag, std::abs(v));
  }
  return ChooseFracBitsForMagnitude(max_mag, bits, max_frac_bits);
}

}  // namespace hdnn
