#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/check.h"
#include "common/prng.h"
#include "mem/dram_model.h"
#include "mem/layout.h"
#include "mem/onchip_buffer.h"

namespace hdnn {
namespace {

TEST(DramModelTest, NonPositiveSizeThrowsWithoutAllocating) {
  // A negative size must be rejected up front: size-constructing the backing
  // vector first would attempt a ~2^64-element allocation and crash in
  // bad_alloc before the precondition could report anything useful.
  EXPECT_THROW(DramModel(-1), InvalidArgument);
  EXPECT_THROW(DramModel(0), InvalidArgument);
  EXPECT_THROW(DramModel(std::numeric_limits<std::int64_t>::min()),
               InvalidArgument);
}

TEST(DramModelTest, ReadWriteRoundTrip) {
  DramModel dram(128);
  dram.Write(5, -1234);
  EXPECT_EQ(dram.Read(5), -1234);
}

TEST(DramModelTest, OutOfRangeThrows) {
  DramModel dram(16);
  EXPECT_THROW(dram.Read(16), InvalidArgument);
  EXPECT_THROW(dram.Write(-1, 0), InvalidArgument);
}

TEST(DramModelTest, BlockTransfer) {
  DramModel dram(64);
  std::vector<std::int16_t> data{1, 2, 3, 4};
  dram.WriteBlock(10, data);
  std::vector<std::int16_t> out(4);
  dram.ReadBlock(10, out);
  EXPECT_EQ(out, data);
}

TEST(DramModelTest, Word32RoundTrip) {
  DramModel dram(8);
  for (std::int32_t v : {0, 1, -1, 65535, -65536, INT32_MAX, INT32_MIN}) {
    dram.Write32(2, v);
    EXPECT_EQ(dram.Read32(2), v) << v;
  }
}

TEST(DramModelTest, BulkRunsValidateAtTheLastWord) {
  DramModel dram(32);
  // Runs ending exactly at size_words() are legal; one word further is not.
  EXPECT_NO_THROW(dram.ReadRun(31, 1));
  EXPECT_NO_THROW(dram.WriteRun(0, 32));
  EXPECT_NO_THROW(dram.ViewRun(16, 16));
  EXPECT_THROW(dram.ReadRun(31, 2), InvalidArgument);
  EXPECT_THROW(dram.WriteRun(1, 32), InvalidArgument);
  EXPECT_THROW(dram.ViewRun(32, 1), InvalidArgument);
  EXPECT_THROW(dram.ReadRun(-1, 1), InvalidArgument);
  EXPECT_THROW(dram.WriteRun(0, -1), InvalidArgument);
}

TEST(DramModelTest, ZeroLengthRunsAreLegalAndFree) {
  DramModel dram(16);
  // Zero-length runs validate addr in [0, size] — including one past the
  // end, the natural "empty tail" position — and touch neither storage nor
  // statistics.
  EXPECT_TRUE(dram.ReadRun(0, 0).empty());
  EXPECT_TRUE(dram.ReadRun(16, 0).empty());
  EXPECT_TRUE(dram.WriteRun(16, 0).empty());
  EXPECT_TRUE(dram.ViewRun(16, 0).empty());
  EXPECT_THROW(dram.ReadRun(17, 0), InvalidArgument);
  EXPECT_THROW(dram.WriteRun(-1, 0), InvalidArgument);
  dram.ReadBlock(16, std::span<std::int16_t>{});
  dram.WriteBlock(16, std::span<const std::int16_t>{});
  EXPECT_EQ(dram.words_read(), 0);
  EXPECT_EQ(dram.words_written(), 0);
}

TEST(DramModelTest, Read32StraddlingEndOfMemoryThrows) {
  DramModel dram(8);
  dram.Write32(6, 0x12345678);  // last legal little-endian pair
  EXPECT_EQ(dram.Read32(6), 0x12345678);
  // A pair whose low word is the last word would read its high word one
  // past the end.
  EXPECT_THROW(dram.Read32(7), InvalidArgument);
  EXPECT_THROW(dram.Write32(7, 1), InvalidArgument);
}

TEST(DramModelTest, BulkAndPerWordPathsCountStatsIdentically) {
  DramModel per_word(64);
  DramModel bulk(64);
  for (std::int64_t i = 0; i < 10; ++i) {
    per_word.Write(3 + i, static_cast<std::int16_t>(100 + i));
  }
  const auto wr = bulk.WriteRun(3, 10);
  for (std::int64_t i = 0; i < 10; ++i) {
    wr[static_cast<std::size_t>(i)] = static_cast<std::int16_t>(100 + i);
  }
  EXPECT_EQ(bulk.words_written(), per_word.words_written());
  for (std::int64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(bulk.ViewRun(3 + i, 1)[0], static_cast<std::int16_t>(100 + i));
  }

  std::int64_t sum_a = 0, sum_b = 0;
  for (std::int64_t i = 0; i < 10; ++i) sum_a += per_word.Read(3 + i);
  for (std::int16_t v : bulk.ReadRun(3, 10)) sum_b += v;
  EXPECT_EQ(sum_a, sum_b);
  EXPECT_EQ(bulk.words_read(), per_word.words_read());

  // ViewRun is pure observation: no statistics side effect.
  const std::int64_t reads_before = bulk.words_read();
  (void)bulk.ViewRun(0, 64);
  EXPECT_EQ(bulk.words_read(), reads_before);
}

TEST(DramModelTest, StatisticsCount) {
  DramModel dram(32);
  dram.ResetStats();
  dram.Write(0, 1);
  dram.Read(0);
  dram.Read(0);
  EXPECT_EQ(dram.words_written(), 1);
  EXPECT_EQ(dram.words_read(), 2);
}

TEST(DramModelTest, ResetKeepsOnlyThePrefix) {
  DramModel dram(16);
  for (int a = 0; a < 16; ++a) dram.Write(a, static_cast<std::int16_t>(a + 1));
  dram.Reset(16, /*keep_words=*/5);
  for (int a = 0; a < 16; ++a) {
    EXPECT_EQ(dram.Read(a), a < 5 ? a + 1 : 0) << "word " << a;
  }
  EXPECT_EQ(dram.words_written(), 0);
  EXPECT_EQ(dram.words_read(), 16);
  // Growing keeps the prefix and zeroes the new tail.
  dram.Reset(24, 5);
  EXPECT_EQ(dram.size_words(), 24);
  EXPECT_EQ(dram.Read(4), 5);
  EXPECT_EQ(dram.Read(23), 0);
  // The prefix must exist on both sides of the reset.
  EXPECT_THROW(dram.Reset(4, 5), InvalidArgument);
  EXPECT_THROW(dram.Reset(32, 25), InvalidArgument);
  EXPECT_THROW(dram.Reset(24, -1), InvalidArgument);
}

TEST(DramModelTest, AllocatorBumpsAndChecks) {
  DramModel dram(100);
  EXPECT_EQ(dram.Allocate(40), 0);
  EXPECT_EQ(dram.Allocate(40), 40);
  EXPECT_THROW(dram.Allocate(40), CapacityError);
}

// --- layouts (paper Fig. 5) ---

TEST(LayoutTest, SpatLayoutIsChannelInnermost) {
  // addr(c,h,w) = (h*W + w)*C + c
  EXPECT_EQ(FmapAddr(ConvMode::kSpatial, 0, 0, 0, 4, 8, 8), 0);
  EXPECT_EQ(FmapAddr(ConvMode::kSpatial, 1, 0, 0, 4, 8, 8), 1);
  EXPECT_EQ(FmapAddr(ConvMode::kSpatial, 0, 0, 1, 4, 8, 8), 4);
  EXPECT_EQ(FmapAddr(ConvMode::kSpatial, 0, 1, 0, 4, 8, 8), 32);
}

TEST(LayoutTest, WinoLayoutIsChannelOutermost) {
  // addr(c,h,w) = (c*H + h)*W + w
  EXPECT_EQ(FmapAddr(ConvMode::kWinograd, 0, 0, 1, 4, 8, 8), 1);
  EXPECT_EQ(FmapAddr(ConvMode::kWinograd, 0, 1, 0, 4, 8, 8), 8);
  EXPECT_EQ(FmapAddr(ConvMode::kWinograd, 1, 0, 0, 4, 8, 8), 64);
}

TEST(LayoutTest, AddressesArePermutation) {
  for (ConvMode layout : {ConvMode::kSpatial, ConvMode::kWinograd}) {
    std::set<std::int64_t> seen;
    for (int c = 0; c < 3; ++c) {
      for (int h = 0; h < 4; ++h) {
        for (int w = 0; w < 5; ++w) {
          const auto addr = FmapAddr(layout, c, h, w, 3, 4, 5);
          EXPECT_GE(addr, 0);
          EXPECT_LT(addr, 60);
          EXPECT_TRUE(seen.insert(addr).second) << "duplicate address";
        }
      }
    }
    EXPECT_EQ(seen.size(), 60u);
  }
}

TEST(LayoutTest, StoreLoadRoundTripBothLayouts) {
  Prng prng(3);
  Tensor<std::int16_t> fmap(Shape{3, 5, 4});
  fmap.FillRandomInt(prng, -100, 100);
  for (ConvMode layout : {ConvMode::kSpatial, ConvMode::kWinograd}) {
    DramModel dram(256);
    StoreFmap(dram, 16, layout, fmap);
    const auto back = LoadFmap(dram, 16, layout, 3, 5, 4);
    EXPECT_EQ(back, fmap);
  }
}

TEST(LayoutTest, CrossLayoutReadIsReordered) {
  Tensor<std::int16_t> fmap(Shape{2, 2, 2});
  for (std::int64_t i = 0; i < 8; ++i) fmap.flat(i) = static_cast<std::int16_t>(i);
  DramModel dram(64);
  StoreFmap(dram, 0, ConvMode::kSpatial, fmap);
  const auto wrong = LoadFmap(dram, 0, ConvMode::kWinograd, 2, 2, 2);
  EXPECT_NE(wrong, fmap);  // layouts genuinely differ
}

TEST(LayoutTest, OutOfBoundsCoordinateThrows) {
  EXPECT_THROW(FmapAddr(ConvMode::kSpatial, 4, 0, 0, 4, 8, 8),
               InvalidArgument);
}

// --- on-chip buffers ---

TEST(PingPongBufferTest, HalvesAreIndependent) {
  PingPongBuffer buf("test", 16);
  buf.Write(0, 3, 111);
  buf.Write(1, 3, 222);
  EXPECT_EQ(buf.Read(0, 3), 111);
  EXPECT_EQ(buf.Read(1, 3), 222);
}

TEST(PingPongBufferTest, CapacityEnforced) {
  PingPongBuffer buf("test", 8);
  EXPECT_THROW(buf.Write(0, 8, 1), InvalidArgument);
  EXPECT_THROW(buf.Read(2, 0), InvalidArgument);
}

TEST(PingPongBufferTest, FillHalf) {
  PingPongBuffer buf("test", 4);
  buf.FillHalf(0, 9);
  EXPECT_EQ(buf.Read(0, 3), 9);
  EXPECT_EQ(buf.Read(1, 3), 0);
}

// --- Table 1 partition factors ---

TEST(PartitionTest, Table1FactorsWinograd) {
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 6;
  const auto in = InBufferPartition(ConvMode::kWinograd, cfg);
  EXPECT_EQ(in.in_channel, 4);
  EXPECT_EQ(in.fmap_row, 6);
  EXPECT_EQ(in.fmap_col, 6);
  EXPECT_EQ(in.total(), 144);
  const auto wgt = WgtBufferPartition(ConvMode::kWinograd, cfg);
  EXPECT_EQ(wgt.total(), 4 * 4 * 36);
  const auto out = OutBufferPartition(ConvMode::kWinograd, cfg);
  EXPECT_EQ(out.out_channel, 4);
  EXPECT_EQ(out.fmap_row, 4);  // m
  EXPECT_EQ(out.total(), 64);
}

TEST(PartitionTest, Table1FactorsSpatial) {
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 6;
  const auto in = InBufferPartition(ConvMode::kSpatial, cfg);
  EXPECT_EQ(in.in_channel, 24);  // PI * PT
  EXPECT_EQ(in.fmap_row, 1);
  const auto wgt = WgtBufferPartition(ConvMode::kSpatial, cfg);
  EXPECT_EQ(wgt.in_channel, 24);
  EXPECT_EQ(wgt.out_channel, 24);
  EXPECT_EQ(wgt.wgt_row, 1);
  const auto out = OutBufferPartition(ConvMode::kSpatial, cfg);
  EXPECT_EQ(out.out_channel, 24);
}

TEST(PartitionTest, SpatialAndWinogradBankCountsMatchForWeights) {
  // The same physical array serves both modes: total partition counts of
  // the weight buffer agree (PI*PT * PO*PT == PI*PO*PT^2).
  AccelConfig cfg;
  for (int pt : {4, 6}) {
    cfg.pt = pt;
    EXPECT_EQ(WgtBufferPartition(ConvMode::kSpatial, cfg).total(),
              WgtBufferPartition(ConvMode::kWinograd, cfg).total());
  }
}

TEST(PartitionTest, WinogradAccessHitsDistinctBanks) {
  // One PE cycle in Winograd mode reads PI channels x PT rows x PT cols;
  // under the Table 1 partitioning these must be pairwise distinct banks.
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 4;
  std::set<int> banks;
  for (int c = 0; c < cfg.pi; ++c) {
    for (int r = 0; r < cfg.pt; ++r) {
      for (int w = 0; w < cfg.pt; ++w) {
        banks.insert(InBufferBank(ConvMode::kWinograd, cfg, c, 10 + r, 20 + w));
      }
    }
  }
  EXPECT_EQ(banks.size(),
            static_cast<std::size_t>(cfg.pi * cfg.pt * cfg.pt));
}

TEST(PartitionTest, SpatialAccessHitsDistinctBanks) {
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 4;
  std::set<int> banks;
  for (int c = 0; c < cfg.pi * cfg.pt; ++c) {
    banks.insert(InBufferBank(ConvMode::kSpatial, cfg, c, 7, 13));
  }
  EXPECT_EQ(banks.size(), static_cast<std::size_t>(cfg.pi * cfg.pt));
}

}  // namespace
}  // namespace hdnn
