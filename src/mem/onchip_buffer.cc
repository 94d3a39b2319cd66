#include "mem/onchip_buffer.h"

#include "common/check.h"

namespace hdnn {

PartitionFactors InBufferPartition(ConvMode mode, const AccelConfig& cfg) {
  PartitionFactors f;
  if (mode == ConvMode::kWinograd) {
    f.in_channel = cfg.pi;
    f.fmap_row = cfg.pt;
    f.fmap_col = cfg.pt;
  } else {
    f.in_channel = cfg.pi * cfg.pt;
  }
  return f;
}

PartitionFactors WgtBufferPartition(ConvMode mode, const AccelConfig& cfg) {
  PartitionFactors f;
  if (mode == ConvMode::kWinograd) {
    f.in_channel = cfg.pi;
    f.out_channel = cfg.po;
    f.wgt_row = cfg.pt;
    f.wgt_col = cfg.pt;
  } else {
    f.in_channel = cfg.pi * cfg.pt;
    f.out_channel = cfg.po * cfg.pt;
  }
  return f;
}

PartitionFactors OutBufferPartition(ConvMode mode, const AccelConfig& cfg) {
  PartitionFactors f;
  if (mode == ConvMode::kWinograd) {
    f.out_channel = cfg.po;
    f.fmap_row = cfg.wino_m();
    f.fmap_col = cfg.wino_m();
  } else {
    f.out_channel = cfg.po * cfg.pt;
  }
  return f;
}

int InBufferBank(ConvMode mode, const AccelConfig& cfg, std::int64_t c,
                 std::int64_t row, std::int64_t col) {
  HDNN_CHECK(c >= 0 && row >= 0 && col >= 0) << "negative coordinate";
  const PartitionFactors f = InBufferPartition(mode, cfg);
  const int cb = static_cast<int>(c % f.in_channel);
  const int rb = static_cast<int>(row % f.fmap_row);
  const int wb = static_cast<int>(col % f.fmap_col);
  return (cb * f.fmap_row + rb) * f.fmap_col + wb;
}

}  // namespace hdnn
