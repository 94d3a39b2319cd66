#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/fixed_point.h"
#include "common/prng.h"
#include "tensor/quantize.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace hdnn {
namespace {

TEST(ShapeTest, ElementsAndRank) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3);
  EXPECT_EQ(s.elements(), 24);
  EXPECT_EQ(s.dim(1), 3);
}

TEST(ShapeTest, ScalarShape) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0);
  EXPECT_EQ(s.elements(), 1);
}

TEST(ShapeTest, FlatIndexMatchesStrides) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.FlatIndex({0, 0, 0}), 0);
  EXPECT_EQ(s.FlatIndex({1, 2, 3}), 23);
  EXPECT_EQ(s.FlatIndex({1, 0, 2}), 14);
}

TEST(ShapeTest, OutOfBoundsCoordinateThrows) {
  const Shape s{2, 3};
  EXPECT_THROW(s.FlatIndex({2, 0}), InvalidArgument);
  EXPECT_THROW(s.FlatIndex({0, 3}), InvalidArgument);
  EXPECT_THROW(s.FlatIndex({0, 0, 0}), InvalidArgument);
  EXPECT_THROW(s.FlatIndex({0}), InvalidArgument);
  // Negative coordinates: {0, -1} would alias flat index -1 and {1, -1}
  // the in-range element {0, 2} without the per-dim check.
  EXPECT_THROW(s.FlatIndex({-1, 0}), InvalidArgument);
  EXPECT_THROW(s.FlatIndex({0, -1}), InvalidArgument);
  EXPECT_THROW(s.FlatIndex({1, -1}), InvalidArgument);
}

TEST(ShapeTest, NegativeDimThrows) {
  EXPECT_THROW(Shape({-1, 2}), InvalidArgument);
}

TEST(ShapeTest, EqualityAndToString) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_EQ(Shape({1, 2}).ToString(), "[1, 2]");
}

TEST(TensorTest, FillAndFlatAccess) {
  Tensor<int> t(Shape{2, 2}, 7);
  EXPECT_EQ(t.flat(3), 7);
  t.Fill(1);
  EXPECT_EQ(t.flat(0), 1);
}

TEST(TensorTest, ChwAccessors) {
  Tensor<int> t(Shape{2, 3, 4});
  t.at(1, 2, 3) = 42;
  EXPECT_EQ(t.at(1, 2, 3), 42);
  EXPECT_EQ(t.flat(1 * 12 + 2 * 4 + 3), 42);
}

TEST(TensorTest, KcrsAccessors) {
  Tensor<int> t(Shape{2, 3, 3, 3});
  t.at(1, 2, 0, 1) = 9;
  EXPECT_EQ(t.at(1, 2, 0, 1), 9);
}

TEST(TensorTest, PaddedAtReturnsZeroOutside) {
  Tensor<int> t(Shape{1, 2, 2}, 5);
  EXPECT_EQ(t.PaddedAt(0, -1, 0), 0);
  EXPECT_EQ(t.PaddedAt(0, 0, 2), 0);
  EXPECT_EQ(t.PaddedAt(0, 1, 1), 5);
}

TEST(TensorTest, WrongRankAccessThrows) {
  Tensor<int> t(Shape{2, 2});
  EXPECT_THROW(t.at(0, 0, 0), InvalidArgument);
}

TEST(TensorTest, OutOfRangeAccessThrowsAtEveryRank) {
  const Tensor<int> m(Shape{2, 3});
  EXPECT_EQ(m.at(1, 2), 0);
  EXPECT_THROW(m.at(2, 0), InvalidArgument);
  EXPECT_THROW(m.at(0, 3), InvalidArgument);
  EXPECT_THROW(m.at(-1, 0), InvalidArgument);
  EXPECT_THROW(m.at(1, -1), InvalidArgument);

  const Tensor<int> chw(Shape{2, 3, 4});
  EXPECT_EQ(chw.at(1, 2, 3), 0);
  EXPECT_THROW(chw.at(2, 0, 0), InvalidArgument);
  EXPECT_THROW(chw.at(0, 3, 0), InvalidArgument);
  EXPECT_THROW(chw.at(0, 0, 4), InvalidArgument);
  EXPECT_THROW(chw.at(0, 1, -1), InvalidArgument);

  const Tensor<int> kcrs(Shape{2, 3, 3, 3});
  EXPECT_EQ(kcrs.at(1, 2, 2, 2), 0);
  EXPECT_THROW(kcrs.at(2, 0, 0, 0), InvalidArgument);
  EXPECT_THROW(kcrs.at(0, 3, 0, 0), InvalidArgument);
  EXPECT_THROW(kcrs.at(0, 0, 3, 0), InvalidArgument);
  EXPECT_THROW(kcrs.at(0, 0, 0, 3), InvalidArgument);
  EXPECT_THROW(kcrs.at(-1, 0, 0, 0), InvalidArgument);
}

TEST(TensorTest, DataSizeMismatchThrows) {
  EXPECT_THROW(Tensor<int>(Shape{2, 2}, std::vector<int>{1, 2, 3}),
               InvalidArgument);
}

TEST(TensorTest, MaxAbsDiff) {
  Tensor<float> a(Shape{2}, 1.0f);
  Tensor<float> b(Shape{2}, 1.0f);
  b.flat(1) = -2.0f;
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 3.0f);
}

TEST(TensorTest, RandomFillDeterministic) {
  Prng p1(3), p2(3);
  Tensor<std::int16_t> a(Shape{100});
  Tensor<std::int16_t> b(Shape{100});
  a.FillRandomInt(p1, -10, 10);
  b.FillRandomInt(p2, -10, 10);
  EXPECT_EQ(a, b);
}

// --- quantisation ---

TEST(QuantizeTest, RoundTripInRange) {
  Prng prng(5);
  Tensor<float> t(Shape{64});
  t.FillRandomReal(prng, -10.0, 10.0);
  const auto q = QuantizeTensor(t, kFeatureQuant);
  for (std::int64_t i = 0; i < t.elements(); ++i) {
    EXPECT_LE(std::abs(static_cast<double>(t.flat(i)) -
                       DequantizeValue(q.flat(i), kFeatureQuant.frac_bits)),
              0.5 / 64 + 1e-6)
        << "i=" << i;
  }
}

TEST(QuantizeTest, SaturatesOutOfRange) {
  Tensor<float> t(Shape{1}, 1e6f);
  const auto q = QuantizeTensor(t, kFeatureQuant);
  EXPECT_EQ(q.flat(0), 2047);
}

TEST(QuantizeTest, ChooseFracBitsAvoidsSaturation) {
  Tensor<float> t(Shape{2});
  t.flat(0) = 100.0f;
  t.flat(1) = -50.0f;
  const QuantSpec spec = ChooseFracBits(t, 8, 7);
  const double limit = 127.0;
  EXPECT_LE(100.0 * (1 << spec.frac_bits), limit * (1 << 0) * 128);
  const auto q = QuantizeTensor(t, spec);
  EXPECT_LT(std::abs(static_cast<double>(q.flat(0))), 128);
  EXPECT_NEAR(DequantizeValue(q.flat(0), spec.frac_bits), 100.0,
              100.0 * 0.05 + 1.0);
}

class QuantWidthTest : public ::testing::TestWithParam<int> {};

TEST_P(QuantWidthTest, ValuesStayInNBitRange) {
  const int bits = GetParam();
  Prng prng(11);
  Tensor<float> t(Shape{256});
  t.FillRandomReal(prng, -1000.0, 1000.0);
  const auto q = QuantizeTensor(t, QuantSpec{bits, 4});
  const auto range = SignedRangeOf(bits);
  for (std::int64_t i = 0; i < q.elements(); ++i) {
    EXPECT_GE(q.flat(i), range.min);
    EXPECT_LE(q.flat(i), range.max);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, QuantWidthTest,
                         ::testing::Values(4, 8, 12, 16));

TEST(QuantizeTest, RejectsBitsOutsideInt16Storage) {
  // QuantizeTensor stores into int16; more than 16 bits would silently
  // truncate the saturated value.
  Tensor<float> t(Shape{1}, 1.0f);
  EXPECT_THROW(QuantizeTensor(t, QuantSpec{17, 4}), InvalidArgument);
  EXPECT_THROW(QuantizeTensor(t, QuantSpec{1, 0}), InvalidArgument);
  EXPECT_THROW(QuantizeTensor(t, QuantSpec{8, -1}), InvalidArgument);
}

TEST(QuantizeTest, ChooseFracBitsRejectsNonFinite) {
  Tensor<float> nan_t(Shape{2});
  nan_t.flat(0) = 1.0f;
  nan_t.flat(1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(ChooseFracBits(nan_t, 8, 7), InvalidArgument);
  Tensor<float> inf_t(Shape{1}, std::numeric_limits<float>::infinity());
  EXPECT_THROW(ChooseFracBits(inf_t, 8, 7), InvalidArgument);
}

TEST(QuantizeTest, ChooseFracBitsAllZeroTensorUsesMaxFrac) {
  // An all-zero tensor has no magnitude to bound the grid; the documented
  // fast path picks the finest allowed grid (any grid represents 0 exactly).
  Tensor<float> t(Shape{8});
  const QuantSpec spec = ChooseFracBits(t, 8, 7);
  EXPECT_EQ(spec.bits, 8);
  EXPECT_EQ(spec.frac_bits, 7);
}

TEST(QuantizeTest, ChooseFracBitsForMagnitudeEdges) {
  EXPECT_EQ(ChooseFracBitsForMagnitude(0.0, 8, 7).frac_bits, 7);
  // magnitude 1.0 with 8 bits: 1.0 * 2^6 = 64 <= 127, 1.0 * 2^7 = 128 > 127.
  EXPECT_EQ(ChooseFracBitsForMagnitude(1.0, 8, 7).frac_bits, 6);
  // A huge magnitude cannot be represented even at 0 fraction bits — the
  // chooser still returns its floor (0) and quantisation saturates.
  EXPECT_EQ(ChooseFracBitsForMagnitude(1e9, 8, 7).frac_bits, 0);
  // Tiny magnitudes are capped by max_frac_bits.
  EXPECT_EQ(ChooseFracBitsForMagnitude(1e-9, 8, 7).frac_bits, 7);
}

TEST(QuantizeTest, RoundTripErrorBoundedByHalfUlp) {
  // Property: for values inside the representable range, dequantize(
  // quantize(v)) is within half a grid step of v, for every width/frac.
  Prng prng(13);
  for (int bits : {8, 12, 16}) {
    for (int frac : {0, 3, 6}) {
      const auto range = SignedRangeOf(bits);
      const double step = 1.0 / static_cast<double>(1 << frac);
      const double lo = static_cast<double>(range.min) * step;
      const double hi = static_cast<double>(range.max) * step;
      Tensor<float> t(Shape{256});
      t.FillRandomReal(prng, lo, hi);
      const auto q = QuantizeTensor(t, QuantSpec{bits, frac});
      for (std::int64_t i = 0; i < t.elements(); ++i) {
        EXPECT_LE(std::abs(static_cast<double>(t.flat(i)) -
                           DequantizeValue(q.flat(i), frac)),
                  step / 2 + 1e-9)
            << "bits=" << bits << " frac=" << frac << " v=" << t.flat(i);
      }
    }
  }
}

}  // namespace
}  // namespace hdnn
