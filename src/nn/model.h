// DNN intermediate representation.
//
// HybridDNN's accelerator executes "CONV or FC layers" (paper Table 2), with
// ReLU and max-pooling fused into the COMP and SAVE stages. The IR is a
// topologically-ordered DAG of convolution stages: every layer has an
// explicit input edge (`from`, defaulting to the previously appended layer)
// and an optional residual edge (`add`), an element-wise integer addition
// fused into the SAVE stage before the ReLU. Fully-connected layers are
// canonicalised to 1x1 convolutions on 1x1 feature maps. Append order is the
// topological order: edges may only reference layers appended earlier, so
// the compiler and simulator execute layers in index order.
#ifndef HDNN_NN_MODEL_H_
#define HDNN_NN_MODEL_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/check.h"
#include "isa/fields.h"

namespace hdnn {

/// Largest channel count (an FC layer's flattened input included), fmap
/// height or width a model may hold. Bounding each extent keeps every
/// window, slab and address the toolchain derives from them far inside 64
/// bits; the one product that can still overflow, the MAC count, is checked
/// where it is formed (ConvLayer::Macs, Model::Append).
inline constexpr int kMaxModelExtent = 1 << 20;

/// Largest kernel height or width, and stride, a layer may have: what
/// COMP's `kh` / `kw` and `stride` fields hold (isa/fields.h). Both bind in
/// every mode: a Winograd mapping needs stride 1, and a kernel above this
/// needs more slices than COMP's `wino_offset` indexes (ComputeGroups).
inline constexpr int kMaxKernel =
    static_cast<int>(FieldMax<CompFormat>("kh"));
inline constexpr int kMaxStride =
    static_cast<int>(FieldMax<CompFormat>("stride"));
static_assert(FieldMax<CompFormat>("kw") == kMaxKernel);

/// Spatial geometry of one convolution layer's input.
struct FmapShape {
  int channels = 0;
  int height = 0;
  int width = 0;

  std::int64_t elements() const {
    return static_cast<std::int64_t>(channels) * height * width;
  }
  friend bool operator==(const FmapShape&, const FmapShape&) = default;
};

/// One accelerator-executable stage: CONV (+ residual add) (+ ReLU)
/// (+ max-pool).
struct ConvLayer {
  std::string name;
  int in_channels = 0;
  int out_channels = 0;
  int kernel_h = 3;
  int kernel_w = 3;
  int stride = 1;
  int pad = 1;           ///< symmetric zero padding
  bool relu = false;     ///< fused ReLU after requantisation (after the
                         ///< residual add when one is present)
  int pool = 1;          ///< fused max-pool window (1 = none); stride == window
  bool is_fc = false;    ///< true if canonicalised from a fully-connected layer
  std::string from;      ///< producer layer name; "" = previously appended
  std::string add;       ///< residual-source layer name; "" = no residual

  bool has_residual() const { return !add.empty(); }

  void Validate() const {
    const auto in_range = [](int v) { return v >= 1 && v <= kMaxModelExtent; };
    HDNN_CHECK(in_range(in_channels) && in_range(out_channels))
        << name << ": channels " << in_channels << " -> " << out_channels
        << " outside [1, " << kMaxModelExtent << "]";
    HDNN_CHECK(kernel_h >= 1 && kernel_h <= kMaxKernel && kernel_w >= 1 &&
               kernel_w <= kMaxKernel)
        << name << ": kernel " << kernel_h << "x" << kernel_w
        << " outside [1, " << kMaxKernel << "], the COMP kh/kw limit";
    HDNN_CHECK(stride >= 1 && stride <= kMaxStride)
        << name << ": stride " << stride << " outside [1, " << kMaxStride
        << "], the COMP stride limit";
    HDNN_CHECK(pad >= 0) << name << ": bad pad";
    // A pad wider than the kernel puts whole output windows inside the
    // padding, which the compiler's input-group geometry cannot represent.
    HDNN_CHECK(pad <= kernel_h && pad <= kernel_w)
        << name << ": pad " << pad << " exceeds kernel " << kernel_h << "x"
        << kernel_w;
    HDNN_CHECK(pool == 1 || pool == 2 || pool == 3 || pool == 4)
        << name << ": unsupported pool window " << pool;
    if (is_fc) {
      // FC layers are canonicalised to 1x1 convolutions on 1x1 fmaps; any
      // other geometry means the layer was constructed inconsistently and
      // the compiler's FC handling (WINO layout, flattening) would misread
      // it.
      HDNN_CHECK(kernel_h == 1 && kernel_w == 1)
          << name << ": FC layer must have a 1x1 kernel, got " << kernel_h
          << "x" << kernel_w;
      HDNN_CHECK(stride == 1) << name << ": FC layer must have stride 1";
      HDNN_CHECK(pad == 0) << name << ": FC layer must have pad 0";
      HDNN_CHECK(pool == 1) << name << ": FC layer cannot fuse a max-pool";
      HDNN_CHECK(!has_residual())
          << name << ": residual adds into FC layers are unsupported";
      // FC layers always consume the previously appended layer (the text
      // writer has no fc from= form, so a branching FC could not round-trip).
      HDNN_CHECK(from.empty())
          << name << ": FC layers cannot carry a from= edge";
    }
  }

  /// Output geometry of the convolution itself (before pooling).
  FmapShape ConvOutput(const FmapShape& in) const {
    HDNN_CHECK(in.channels == in_channels)
        << name << ": input channels " << in.channels << " != layer "
        << in_channels;
    // Padded extents in 64 bits: `pad` comes from model text, and
    // `height + 2 * pad` must not overflow int before it is checked.
    const std::int64_t pad2 = 2 * static_cast<std::int64_t>(pad);
    const std::int64_t padded_h = in.height + pad2;
    const std::int64_t padded_w = in.width + pad2;
    // Validate before dividing: a negative numerator truncates toward zero,
    // so an undersized input could pass the `oh > 0` check with oh == 1.
    HDNN_CHECK(padded_h >= kernel_h && padded_w >= kernel_w)
        << name << ": padded input " << in.height << "x" << in.width
        << " (+2*" << pad << ") smaller than kernel " << kernel_h << "x"
        << kernel_w;
    const std::int64_t oh = (padded_h - kernel_h) / stride + 1;
    const std::int64_t ow = (padded_w - kernel_w) / stride + 1;
    HDNN_CHECK(oh > 0 && ow > 0) << name << ": empty output";
    HDNN_CHECK(oh <= std::numeric_limits<int>::max() &&
               ow <= std::numeric_limits<int>::max())
        << name << ": output " << oh << "x" << ow << " does not fit int";
    return FmapShape{out_channels, static_cast<int>(oh),
                     static_cast<int>(ow)};
  }

  /// Output geometry after the optional fused max-pool.
  FmapShape Output(const FmapShape& in) const {
    FmapShape out = ConvOutput(in);
    if (pool > 1) {
      HDNN_CHECK(out.height % pool == 0 && out.width % pool == 0)
          << name << ": pool window " << pool << " does not tile "
          << out.height << "x" << out.width;
      out.height /= pool;
      out.width /= pool;
    }
    return out;
  }

  /// Multiply-accumulate count of this convolution (no pooling ops); an
  /// InvalidArgument when it does not fit 64 bits.
  std::int64_t Macs(const FmapShape& in) const {
    const FmapShape out = ConvOutput(in);
    std::int64_t macs = out_channels;
    for (const int factor :
         {in_channels, kernel_h, kernel_w, out.height, out.width}) {
      HDNN_CHECK(!__builtin_mul_overflow(macs, factor, &macs))
          << name << ": MAC count overflows 64 bits";
    }
    return macs;
  }

  /// Operation count as the paper reports GOPS: 2 ops per MAC.
  std::int64_t Ops(const FmapShape& in) const { return 2 * Macs(in); }

  friend bool operator==(const ConvLayer&, const ConvLayer&) = default;
};

/// A DNN as a topologically-ordered DAG: input geometry plus ConvLayers in
/// append order, with resolved input/residual edges and cached shapes.
class Model {
 public:
  Model() = default;
  Model(std::string name, FmapShape input)
      : name_(std::move(name)), input_(input) {}

  const std::string& name() const { return name_; }
  const FmapShape& input() const { return input_; }
  const std::vector<ConvLayer>& layers() const { return layers_; }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  const ConvLayer& layer(int i) const {
    HDNN_CHECK(i >= 0 && i < num_layers()) << "layer index " << i;
    return layers_[static_cast<std::size_t>(i)];
  }

  /// Appends a layer; resolves its edges against the layers already present
  /// and validates names, channels and residual geometry.
  void Append(ConvLayer layer);

  /// Appends a fully-connected layer as a 1x1 conv. Requires the running
  /// output to be flattenable (the compiler treats C*H*W as channels).
  void AppendFullyConnected(const std::string& name, int out_features,
                            bool relu);

  /// Index of the layer producing layer i's input; -1 = the model input.
  int input_index(int i) const {
    CheckIndex(i);
    return input_index_[static_cast<std::size_t>(i)];
  }

  /// Index of layer i's residual-source layer; -1 = no residual edge.
  int residual_index(int i) const {
    CheckIndex(i);
    return residual_index_[static_cast<std::size_t>(i)];
  }

  /// Index of the named layer, or -1 when absent.
  int IndexOf(const std::string& name) const;

  /// Input shape of layer i (the producer's output, canonicalised for FC).
  FmapShape InputOf(int i) const;

  /// Output shape of layer i.
  FmapShape OutputOf(int i) const {
    CheckIndex(i);
    return out_shape_[static_cast<std::size_t>(i)];
  }

  /// Final output shape (of the last appended layer).
  FmapShape OutputShape() const;

  /// Total MAC / op counts over all layers (Append keeps the op count
  /// inside 64 bits).
  std::int64_t TotalMacs() const { return total_macs_; }
  std::int64_t TotalOps() const { return 2 * total_macs_; }

  /// Human-readable per-layer summary.
  std::string Summary() const;

 private:
  /// Shape as seen by `next`: FC layers view their input flattened to
  /// channels (C*H*W) x 1 x 1.
  static FmapShape Canonical(const FmapShape& shape, const ConvLayer& next);

  void CheckIndex(int i) const {
    HDNN_CHECK(i >= 0 && i < num_layers()) << "layer index " << i;
  }

  /// Resolves an edge name to a layer index; "" resolves to `fallback`.
  int ResolveEdge(const std::string& edge, const std::string& layer_name,
                  const char* kind, int fallback) const;

  std::string name_;
  FmapShape input_{};
  std::vector<ConvLayer> layers_;
  // Derived graph structure, maintained by Append (append order is the
  // topological order, so every edge points at a smaller index).
  std::vector<int> input_index_;     ///< per layer; -1 = model input
  std::vector<int> residual_index_;  ///< per layer; -1 = none
  std::vector<FmapShape> out_shape_; ///< cached post-pool output shapes
  std::map<std::string, int> name_to_index_;
  std::int64_t total_macs_ = 0;
};

}  // namespace hdnn

#endif  // HDNN_NN_MODEL_H_
