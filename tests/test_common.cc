#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/check.h"
#include "common/fixed_point.h"
#include "common/math_util.h"
#include "common/prng.h"
#include "common/types.h"

namespace hdnn {
namespace {

TEST(CheckTest, PassingCheckDoesNothing) {
  EXPECT_NO_THROW(HDNN_CHECK(1 + 1 == 2) << "unused");
}

TEST(CheckTest, FailingCheckThrowsInvalidArgument) {
  EXPECT_THROW(HDNN_CHECK(false) << "context " << 42, InvalidArgument);
}

TEST(CheckTest, FailingInternalThrowsInternalError) {
  EXPECT_THROW(HDNN_INTERNAL(false) << "bug", InternalError);
}

TEST(CheckTest, MessageIncludesContext) {
  try {
    HDNN_CHECK(false) << "needle-" << 7;
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("needle-7"), std::string::npos);
  }
}

// --- bits ---

TEST(BitsTest, LowMaskBasics) {
  EXPECT_EQ(LowMask(1), 1u);
  EXPECT_EQ(LowMask(4), 0xfu);
  EXPECT_EQ(LowMask(64), ~std::uint64_t{0});
}

TEST(BitsTest, SetGetRoundTripLowHalf) {
  Word128 w;
  SetField(w, 3, 7, 0x55);
  EXPECT_EQ(GetField(w, 3, 7), 0x55u);
  EXPECT_EQ(GetField(w, 0, 3), 0u);
  EXPECT_EQ(GetField(w, 10, 10), 0u);
}

TEST(BitsTest, SetGetRoundTripHighHalf) {
  Word128 w;
  SetField(w, 100, 20, 0xabcde);
  EXPECT_EQ(GetField(w, 100, 20), 0xabcdeu);
}

TEST(BitsTest, FieldStraddlingBoundary) {
  Word128 w;
  SetField(w, 60, 12, 0xfff);
  EXPECT_EQ(GetField(w, 60, 12), 0xfffu);
  EXPECT_EQ(w.lo >> 60, 0xfu);
  EXPECT_EQ(w.hi & 0xff, 0xffu);
}

TEST(BitsTest, OverwriteDoesNotDisturbNeighbours) {
  Word128 w;
  SetField(w, 0, 8, 0xaa);
  SetField(w, 8, 8, 0xbb);
  SetField(w, 16, 8, 0xcc);
  SetField(w, 8, 8, 0x11);
  EXPECT_EQ(GetField(w, 0, 8), 0xaau);
  EXPECT_EQ(GetField(w, 8, 8), 0x11u);
  EXPECT_EQ(GetField(w, 16, 8), 0xccu);
}

TEST(BitsTest, ValueTooWideThrows) {
  Word128 w;
  EXPECT_THROW(SetField(w, 0, 4, 16), InvalidArgument);
}

TEST(BitsTest, OutOfRangeFieldThrows) {
  Word128 w;
  EXPECT_THROW(SetField(w, 120, 10, 1), InvalidArgument);
  EXPECT_THROW(GetField(w, -1, 4), InvalidArgument);
}

class BitsRandomRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitsRandomRoundTrip, RandomFieldsRoundTrip) {
  Prng prng(static_cast<std::uint64_t>(GetParam()));
  for (int iter = 0; iter < 200; ++iter) {
    const int width = static_cast<int>(prng.NextInt(1, 64));
    const int pos = static_cast<int>(prng.NextInt(0, 128 - width));
    const std::uint64_t value = prng.NextU64() & LowMask(width);
    Word128 w;
    w.lo = prng.NextU64();
    w.hi = prng.NextU64();
    SetField(w, pos, width, value);
    EXPECT_EQ(GetField(w, pos, width), value)
        << "pos=" << pos << " width=" << width;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsRandomRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- fixed point ---

TEST(FixedPointTest, SignedRange) {
  EXPECT_EQ(SignedRangeOf(8).min, -128);
  EXPECT_EQ(SignedRangeOf(8).max, 127);
  EXPECT_EQ(SignedRangeOf(12).min, -2048);
  EXPECT_EQ(SignedRangeOf(12).max, 2047);
}

TEST(FixedPointTest, SaturateClamps) {
  EXPECT_EQ(SaturateSigned(1000, 8), 127);
  EXPECT_EQ(SaturateSigned(-1000, 8), -128);
  EXPECT_EQ(SaturateSigned(100, 8), 100);
}

TEST(FixedPointTest, RoundingShiftHalfAwayFromZero) {
  EXPECT_EQ(RoundingShiftRight(5, 1), 3);    // 2.5 -> 3
  EXPECT_EQ(RoundingShiftRight(-5, 1), -3);  // -2.5 -> -3
  EXPECT_EQ(RoundingShiftRight(4, 1), 2);
  EXPECT_EQ(RoundingShiftRight(-4, 1), -2);
  EXPECT_EQ(RoundingShiftRight(7, 2), 2);    // 1.75 -> 2
  EXPECT_EQ(RoundingShiftRight(9, 0), 9);
}

TEST(FixedPointTest, RequantizeCombinesShiftAndSaturate) {
  EXPECT_EQ(Requantize(1 << 20, 4, 12), 2047);
  EXPECT_EQ(Requantize(-(1 << 20), 4, 12), -2048);
  EXPECT_EQ(Requantize(160, 4, 12), 10);
}

TEST(FixedPointTest, QuantizeValueSaturationEdges) {
  // Q1.6 in 8 bits: representable span is [-2.0, 1.984375].
  EXPECT_EQ(QuantizeValue(1.984375, 6, 8), 127);
  EXPECT_EQ(QuantizeValue(2.0, 6, 8), 127);      // just past the edge
  EXPECT_EQ(QuantizeValue(1e18, 6, 8), 127);     // far past the edge
  EXPECT_EQ(QuantizeValue(-2.0, 6, 8), -128);    // min is exactly on-grid
  EXPECT_EQ(QuantizeValue(-2.1, 6, 8), -128);
  EXPECT_EQ(QuantizeValue(-1e18, 6, 8), -128);
}

TEST(FixedPointTest, QuantizeValueRoundsHalfAwayFromZero) {
  // 0.5-ULP ties at frac_bits=0: 0.5 -> 1, 1.5 -> 2, and symmetrically
  // -0.5 -> -1, -1.5 -> -2 (away from zero, NOT to-even and NOT floor).
  EXPECT_EQ(QuantizeValue(0.5, 0, 8), 1);
  EXPECT_EQ(QuantizeValue(1.5, 0, 8), 2);
  EXPECT_EQ(QuantizeValue(-0.5, 0, 8), -1);
  EXPECT_EQ(QuantizeValue(-1.5, 0, 8), -2);
  // Ties on a finer grid: 3/256 is halfway between 1 and 2 at Q.7.
  EXPECT_EQ(QuantizeValue(3.0 / 256.0, 7, 8), 2);
  EXPECT_EQ(QuantizeValue(-3.0 / 256.0, 7, 8), -2);
}

TEST(FixedPointTest, DequantizeValueIsExactInverseOnGrid) {
  for (int frac : {0, 3, 6, 10}) {
    for (std::int64_t q : {-128ll, -17ll, -1ll, 0ll, 1ll, 42ll, 127ll}) {
      const double v = DequantizeValue(q, frac);
      EXPECT_EQ(QuantizeValue(v, frac, 8), q) << "frac=" << frac;
    }
  }
}

TEST(FixedPointTest, QuantizeDequantizeRoundTripWithinHalfStep) {
  // Property: on in-range values the round-trip error is <= step/2, with
  // equality only at ties — checked across grids including edge values.
  for (int frac : {0, 2, 6}) {
    const double step = 1.0 / static_cast<double>(1 << frac);
    for (double v = -1.9; v < 1.9; v += 0.0437) {
      const std::int64_t q = QuantizeValue(v, frac, 8);
      EXPECT_LE(std::abs(DequantizeValue(q, frac) - v), step / 2 + 1e-12)
          << "frac=" << frac << " v=" << v;
    }
  }
}

TEST(FixedPointTest, RoundingShiftAtInt64Boundaries) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // -2^63 / 2^s is exact: no rounding term survives.
  EXPECT_EQ(RoundingShiftRight(kMin, 1), kMin / 2);
  EXPECT_EQ(RoundingShiftRight(kMin, 8), kMin / 256);
  EXPECT_EQ(RoundingShiftRight(kMin, 62), -2);
  // (2^63 - 1 + 2^(s-1)) >> s == 2^(63-s) exactly (half rounds away).
  EXPECT_EQ(RoundingShiftRight(kMax, 1), std::int64_t{1} << 62);
  EXPECT_EQ(RoundingShiftRight(kMax, 8), std::int64_t{1} << 55);
  EXPECT_EQ(RoundingShiftRight(kMax, 62), 2);
  EXPECT_EQ(RoundingShiftRight(kMin + 1, 1), kMin / 2);  // -(2^62 - 0.5) -> -2^62
  EXPECT_EQ(RoundingShiftRight(kMax - 1, 1), (std::int64_t{1} << 62) - 1);
}

TEST(FixedPointTest, RequantizeSaturationEdges) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(Requantize(kMax, 0, 16), 32767);
  EXPECT_EQ(Requantize(kMin, 0, 16), -32768);
  EXPECT_EQ(Requantize(kMax, 40, 12), 2047);
  EXPECT_EQ(Requantize(kMin, 40, 12), -2048);
  // Values that shift down to exactly the representable bounds pass through.
  EXPECT_EQ(Requantize(std::int64_t{2047} << 10, 10, 12), 2047);
  EXPECT_EQ(Requantize(std::int64_t{-2048} << 10, 10, 12), -2048);
  // One LSB past the bound saturates.
  EXPECT_EQ(Requantize((std::int64_t{2047} << 10) + (1 << 10), 10, 12), 2047);
  EXPECT_EQ(Requantize((std::int64_t{-2048} << 10) - (1 << 10), 10, 12), -2048);
}

TEST(FixedPointTest, QuantizeDequantizeRoundTrip) {
  for (double v : {0.0, 1.0, -1.5, 0.015625, 3.999, -7.25}) {
    const std::int64_t q = QuantizeValue(v, 6, 12);
    EXPECT_NEAR(DequantizeValue(q, 6), v, 1.0 / 64 / 2 + 1e-12) << v;
  }
}

TEST(FixedPointTest, QuantizeSaturates) {
  EXPECT_EQ(QuantizeValue(1000.0, 6, 12), 2047);
  EXPECT_EQ(QuantizeValue(-1000.0, 6, 12), -2048);
}

// --- math util ---

TEST(MathUtilTest, CeilDivAndRoundUp) {
  EXPECT_EQ(CeilDiv(7, 2), 4);
  EXPECT_EQ(CeilDiv(8, 2), 4);
  EXPECT_EQ(CeilDiv(1, 4), 1);
  EXPECT_EQ(RoundUp(7, 4), 8);
  EXPECT_EQ(RoundUp(8, 4), 8);
}

TEST(MathUtilTest, PowersOfTwo) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(12));
  EXPECT_EQ(NextPowerOfTwo(5), 8);
  EXPECT_EQ(NextPowerOfTwo(8), 8);
  EXPECT_EQ(Log2Floor(1), 0);
  EXPECT_EQ(Log2Floor(9), 3);
}

// --- prng ---

TEST(PrngTest, DeterministicAcrossInstances) {
  Prng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(PrngTest, IntRangeRespected) {
  Prng prng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = prng.NextInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(PrngTest, IntFullInt64SpanDoesNotDivideByZero) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Prng prng(11);
  // Width kMax - kMin + 1 == 2^64 wraps to 0; the draw must still be valid
  // (any int64 value) and deterministic.
  Prng reference(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(prng.NextInt(kMin, kMax),
              static_cast<std::int64_t>(reference.NextU64()));
  }
}

TEST(PrngTest, IntHugeSpansStayInRange) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  Prng prng(13);
  for (int i = 0; i < 200; ++i) {
    const std::int64_t a = prng.NextInt(kMin, 0);
    EXPECT_LE(a, 0);
    const std::int64_t b = prng.NextInt(-1, kMax);
    EXPECT_GE(b, -1);
    const std::int64_t c = prng.NextInt(kMin + 1, kMax);  // span 2^64 - 1
    EXPECT_GE(c, kMin + 1);
  }
}

TEST(PrngTest, ForkIsReproducible) {
  const Prng root(2026);
  Prng a = root.Fork(7);
  Prng b = root.Fork(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(PrngTest, ForkLeavesParentSequenceUnchanged) {
  Prng forked(99);
  Prng plain(99);
  (void)forked.Fork(0);
  (void)forked.Fork(123456789);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(forked.NextU64(), plain.NextU64());
}

TEST(PrngTest, ForkStreamsAreDisjoint) {
  // Distinct stream ids (including adjacent ones, the likely shard layout)
  // must give decorrelated sequences: across many streams and draws no two
  // streams may collide on the same draw index, and child streams must not
  // replay the parent.
  Prng root(1);
  std::vector<std::uint64_t> parent_draws;
  for (int i = 0; i < 64; ++i) parent_draws.push_back(root.NextU64());
  const Prng base(1);
  std::set<std::uint64_t> seen(parent_draws.begin(), parent_draws.end());
  for (std::uint64_t id = 0; id < 64; ++id) {
    Prng stream = base.Fork(id);
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t v = stream.NextU64();
      EXPECT_TRUE(seen.insert(v).second)
          << "stream " << id << " draw " << i << " collided";
    }
  }
}

TEST(PrngTest, ForkDependsOnParentState) {
  // The same stream id forked from different parent states must not yield
  // the same child stream (fork is keyed on (state, id), not id alone).
  Prng a(5), b(5);
  (void)b.NextU64();  // advance b's state
  Prng child_a = Prng(5).Fork(3);
  Prng child_b = b.Fork(3);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (child_a.NextU64() == child_b.NextU64()) ++equal;
  EXPECT_EQ(equal, 0);
}

TEST(PrngTest, IntSmallSpanSequenceMatchesModuloGolden) {
  // For spans far below 2^64 the rejection zone is ~span/2^64, so the
  // sequence must equal the historical plain-modulo draws.
  Prng prng(42);
  Prng reference(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(prng.NextInt(-256, 255),
              -256 + static_cast<std::int64_t>(reference.NextU64() % 512));
  }
}

TEST(PrngTest, DegenerateSpanIsConstant) {
  Prng prng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(prng.NextInt(17, 17), 17);
}

TEST(PrngTest, InvertedRangeThrows) {
  Prng prng(3);
  EXPECT_THROW(prng.NextInt(5, 3), InvalidArgument);
  EXPECT_THROW(prng.NextInt(0, -1), InvalidArgument);
}

TEST(PrngTest, DoubleInUnitInterval) {
  Prng prng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = prng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// --- types ---

TEST(TypesTest, AccelConfigValidation) {
  AccelConfig cfg;
  EXPECT_NO_THROW(cfg.Validate());
  cfg.pt = 5;
  EXPECT_THROW(cfg.Validate(), InvalidArgument);
  cfg.pt = 6;
  cfg.po = 8;  // violates PI >= PO
  EXPECT_THROW(cfg.Validate(), InvalidArgument);
  // PO must divide PI: channels pad to whole PI-lane vectors.
  for (const auto& [pi, po] : {std::pair{3, 2}, std::pair{4, 3},
                               std::pair{8, 3}, std::pair{6, 4}}) {
    cfg.pi = pi;
    cfg.po = po;
    try {
      cfg.Validate();
      ADD_FAILURE() << "PI=" << pi << " PO=" << po << " passed Validate";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("PI=" + std::to_string(pi) +
                                           " PO=" + std::to_string(po)),
                std::string::npos)
          << e.what();
    }
  }
  cfg.pi = 6;
  cfg.po = 3;
  EXPECT_NO_THROW(cfg.Validate());
}

TEST(TypesTest, WinoMDerivedFromPt) {
  AccelConfig cfg;
  cfg.pt = 4;
  EXPECT_EQ(cfg.wino_m(), 2);
  cfg.pt = 6;
  EXPECT_EQ(cfg.wino_m(), 4);
}

TEST(TypesTest, ModeAndDataflowStrings) {
  EXPECT_EQ(ConvModeFromString("wino"), ConvMode::kWinograd);
  EXPECT_EQ(ConvModeFromString("spat"), ConvMode::kSpatial);
  EXPECT_EQ(DataflowFromString("is"), Dataflow::kInputStationary);
  EXPECT_EQ(DataflowFromString("ws"), Dataflow::kWeightStationary);
  EXPECT_THROW(ConvModeFromString("fft"), InvalidArgument);
  EXPECT_STREQ(ToString(ConvMode::kWinograd), "wino");
  EXPECT_STREQ(ToString(Dataflow::kWeightStationary), "ws");
}

}  // namespace
}  // namespace hdnn
