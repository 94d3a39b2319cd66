// Table 1 partition factors of the on-chip buffers, used by the resource
// model and the bank-access property tests. The simulator's buffers
// themselves are the Accelerator's flat ping-pong arrays (sim/accelerator.h).
#ifndef HDNN_MEM_ONCHIP_BUFFER_H_
#define HDNN_MEM_ONCHIP_BUFFER_H_

#include <cstdint>

#include "common/types.h"

namespace hdnn {

/// Cyclic partition factors of one on-chip buffer, per dimension
/// (paper Table 1; bracketed values are the Spatial-mode factors).
struct PartitionFactors {
  int in_channel = 1;
  int out_channel = 1;
  int fmap_row = 1;
  int fmap_col = 1;
  int wgt_row = 1;
  int wgt_col = 1;

  int total() const {
    return in_channel * out_channel * fmap_row * fmap_col * wgt_row * wgt_col;
  }
};

PartitionFactors InBufferPartition(ConvMode mode, const AccelConfig& cfg);
PartitionFactors WgtBufferPartition(ConvMode mode, const AccelConfig& cfg);
PartitionFactors OutBufferPartition(ConvMode mode, const AccelConfig& cfg);

/// Bank index of an input-buffer element under the Table 1 cyclic
/// partitioning: (c % in_channel_factor, row % fmap_row_factor,
/// col % fmap_col_factor) flattened. Used by property tests to show that
/// each PE access cycle touches pairwise-distinct banks in both modes.
int InBufferBank(ConvMode mode, const AccelConfig& cfg, std::int64_t c,
                 std::int64_t row, std::int64_t col);

}  // namespace hdnn

#endif  // HDNN_MEM_ONCHIP_BUFFER_H_
