// Dense tensor shapes (row-major).
#ifndef HDNN_TENSOR_SHAPE_H_
#define HDNN_TENSOR_SHAPE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/check.h"

namespace hdnn {

/// An N-dimensional dense shape. Dims are non-negative; rank may be zero
/// (scalar). Elements are laid out row-major (last dim contiguous).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims);

  int rank() const { return static_cast<int>(dims_.size()); }
  std::int64_t dim(int i) const;
  const std::vector<std::int64_t>& dims() const { return dims_; }

  /// Total element count (product of dims; 1 for scalar).
  std::int64_t elements() const;

  /// Flat index of the given coordinate (rank- and bounds-checked).
  /// Allocation-free: Tensor::at calls it on every element access.
  std::int64_t FlatIndex(std::initializer_list<std::int64_t> coord) const {
    HDNN_CHECK(static_cast<int>(coord.size()) == rank())
        << "coordinate rank " << coord.size() << " vs shape rank " << rank();
    // Horner's rule over the row-major dims: ((c0 * d1 + c1) * d2 + c2)...
    std::int64_t idx = 0;
    std::size_t i = 0;
    for (const std::int64_t c : coord) {
      const std::int64_t d = dims_[i];
      HDNN_CHECK(c >= 0 && c < d) << "coordinate " << c
                                  << " out of bounds for dim " << i << " of "
                                  << ToString();
      idx = idx * d + c;
      ++i;
    }
    return idx;
  }

  std::string ToString() const;

  friend bool operator==(const Shape&, const Shape&) = default;

 private:
  std::vector<std::int64_t> dims_;
};

}  // namespace hdnn

#endif  // HDNN_TENSOR_SHAPE_H_
