// Tensor-level quantisation between float and fixed-point domains.
#ifndef HDNN_TENSOR_QUANTIZE_H_
#define HDNN_TENSOR_QUANTIZE_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace hdnn {

/// Power-of-two quantisation parameters: real = q * 2^-frac_bits, q stored
/// in `bits` signed bits.
struct QuantSpec {
  int bits;
  int frac_bits;

  friend bool operator==(const QuantSpec&, const QuantSpec&) = default;
};

/// Default accelerator domains.
inline constexpr QuantSpec kFeatureQuant{12, 6};  // int12 features, Q5.6
inline constexpr QuantSpec kWeightQuant{8, 6};    // int8 weights, Q1.6

/// Quantises a float tensor to int16 storage under `spec` (saturating).
/// `spec.bits` must fit the int16 storage (2..16) — wider specs would wrap
/// silently in the narrowing cast even though the values saturated.
Tensor<std::int16_t> QuantizeTensor(const Tensor<float>& t, QuantSpec spec);

/// Picks the smallest frac_bits in [0, max_frac_bits] that keeps a value of
/// magnitude `max_mag` representable in `bits` signed bits without
/// saturation. A zero magnitude (e.g. an all-zero tensor) yields
/// max_frac_bits — any grid represents zero exactly, so the finest one wins.
/// `max_mag` must be finite and non-negative.
QuantSpec ChooseFracBitsForMagnitude(double max_mag, int bits,
                                     int max_frac_bits);

/// ChooseFracBitsForMagnitude over a tensor's max |element|. Rejects
/// non-finite elements: a NaN/Inf would otherwise poison the magnitude
/// comparison and silently select the maximum fraction bits.
QuantSpec ChooseFracBits(const Tensor<float>& t, int bits, int max_frac_bits);

}  // namespace hdnn

#endif  // HDNN_TENSOR_QUANTIZE_H_
