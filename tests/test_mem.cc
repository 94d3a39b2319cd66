#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/check.h"
#include "mem/dram_model.h"
#include "mem/onchip_buffer.h"
#include "runtime/runtime.h"

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
  dram.WriteRun(5, 1)[0] = -1234;
  EXPECT_EQ(dram.Read(5), -1234);
}

TEST(DramModelTest, OutOfRangeThrows) {
  DramModel dram(16);
  EXPECT_THROW(dram.Read(16), InvalidArgument);
  EXPECT_THROW(dram.WriteRun(-1, 1), InvalidArgument);
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
  EXPECT_EQ(dram.words_read(), 0);
  EXPECT_EQ(dram.words_written(), 0);
}

TEST(DramModelTest, BulkAndPerWordPathsCountStatsIdentically) {
  DramModel per_word(64);
  DramModel bulk(64);
  for (std::int64_t i = 0; i < 10; ++i) {
    per_word.WriteRun(3 + i, 1)[0] = static_cast<std::int16_t>(100 + i);
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
  dram.WriteRun(0, 1)[0] = 1;
  dram.Read(0);
  dram.Read(0);
  EXPECT_EQ(dram.words_written(), 1);
  EXPECT_EQ(dram.words_read(), 2);
}

TEST(DramModelTest, ResetKeepsOnlyThePrefix) {
  DramModel dram(16);
  for (int a = 0; a < 16; ++a) {
    dram.WriteRun(a, 1)[0] = static_cast<std::int16_t>(a + 1);
  }
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

TEST(DramModelTest, WordPairCodecRoundTripsLowWordFirst) {
  std::int16_t words[2];
  for (std::int32_t v : {0, 1, -1, 65535, -65536, INT32_MAX, INT32_MIN}) {
    StoreWordPair(words, v);
    EXPECT_EQ(LoadWordPair(words), v) << v;
  }
  StoreWordPair(words, 0x12345678);
  EXPECT_EQ(words[0], 0x5678);
  EXPECT_EQ(words[1], 0x1234);
}

// --- layouts (paper Fig. 5) ---

TEST(LayoutTest, StagedFmapFollowsBothFig5Formulas) {
  // C x H x W = 3 x 4 x 5, padded to Cp = 4 channels; element (c, h, w)
  // holds a value that names it.
  constexpr int C = 3, Cp = 4, H = 4, W = 5;
  Tensor<std::int16_t> fmap(Shape{C, H, W});
  for (int c = 0; c < C; ++c) {
    for (int h = 0; h < H; ++h) {
      for (int w = 0; w < W; ++w) {
        fmap.at(c, h, w) = static_cast<std::int16_t>(100 * c + 10 * h + w);
      }
    }
  }
  constexpr std::int64_t kBase = 16;
  for (ConvMode layout : {ConvMode::kSpatial, ConvMode::kWinograd}) {
    SCOPED_TRACE(ToString(layout));
    DramModel dram(256);
    StageInputFmap(dram, kBase, layout, fmap, Cp);
    const auto image = dram.ViewRun(kBase, Cp * H * W);
    for (int c = 0; c < Cp; ++c) {
      for (int h = 0; h < H; ++h) {
        for (int w = 0; w < W; ++w) {
          // SPAT is channel-innermost, WINO channel-outermost.
          const int addr = layout == ConvMode::kSpatial
                               ? (h * W + w) * Cp + c
                               : (c * H + h) * W + w;
          const int want = c < C ? 100 * c + 10 * h + w : 0;
          EXPECT_EQ(image[static_cast<std::size_t>(addr)], want)
              << "(" << c << "," << h << "," << w << ")";
        }
      }
    }
  }
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
