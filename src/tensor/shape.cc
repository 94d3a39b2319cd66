#include "tensor/shape.h"

#include <sstream>

#include "common/check.h"

namespace hdnn {

Shape::Shape(std::initializer_list<std::int64_t> dims)
    : dims_(dims) {
  for (auto d : dims_) HDNN_CHECK(d >= 0) << "negative dim in " << ToString();
}

std::int64_t Shape::dim(int i) const {
  HDNN_CHECK(i >= 0 && i < rank()) << "dim index " << i << " out of rank "
                                   << rank();
  return dims_[static_cast<std::size_t>(i)];
}

std::int64_t Shape::elements() const {
  std::int64_t n = 1;
  for (auto d : dims_) n *= d;
  return n;
}

std::string Shape::ToString() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) out << ", ";
    out << dims_[i];
  }
  out << "]";
  return out.str();
}

}  // namespace hdnn
