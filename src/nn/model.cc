#include "nn/model.h"

#include <sstream>

namespace hdnn {

int Model::IndexOf(const std::string& name) const {
  const auto it = name_to_index_.find(name);
  return it == name_to_index_.end() ? -1 : it->second;
}

int Model::ResolveEdge(const std::string& edge, const std::string& layer_name,
                       const char* kind, int fallback) const {
  if (edge.empty()) return fallback;
  const int idx = IndexOf(edge);
  HDNN_CHECK(idx >= 0) << layer_name << ": " << kind << " edge references "
                       << "unknown layer '" << edge
                       << "' (edges may only point at earlier layers)";
  return idx;
}

void Model::Append(ConvLayer layer) {
  layer.Validate();
  HDNN_CHECK(!layer.name.empty()) << "layer needs a name";
  HDNN_CHECK(IndexOf(layer.name) < 0)
      << "duplicate layer name '" << layer.name << "'";

  const int producer =
      ResolveEdge(layer.from, layer.name, "input", num_layers() - 1);
  const FmapShape raw_in =
      producer < 0 ? input_ : out_shape_[static_cast<std::size_t>(producer)];
  const FmapShape in = Canonical(raw_in, layer);
  HDNN_CHECK(in.channels == layer.in_channels)
      << layer.name << ": expects " << layer.in_channels
      << " input channels but its producer provides " << in.channels;

  const FmapShape conv_out = layer.ConvOutput(in);
  const FmapShape out = layer.Output(in);  // validates pool tiling
  // Bounding both fmaps of every layer bounds every fmap of the model,
  // the model input included.
  for (const FmapShape& fmap : {in, conv_out}) {
    HDNN_CHECK(fmap.height >= 1 && fmap.height <= kMaxModelExtent &&
               fmap.width >= 1 && fmap.width <= kMaxModelExtent)
        << layer.name << ": fmap " << fmap.height << "x" << fmap.width
        << " outside [1, " << kMaxModelExtent << "] per side";
  }
  // Ops are 2 x MACs, so the MAC total stays at most half the int64 range.
  const std::int64_t macs = layer.Macs(in);
  HDNN_CHECK(macs <= std::numeric_limits<std::int64_t>::max() / 2 -
                         total_macs_)
      << layer.name << ": the model's op count overflows 64 bits";

  int residual = -1;
  if (layer.has_residual()) {
    residual = ResolveEdge(layer.add, layer.name, "residual", -1);
    HDNN_CHECK(layer.pool == 1)
        << layer.name << ": residual add into a pooled layer is unsupported "
        << "(the add happens before the fused max-pool; drop pool=" << layer.pool
        << " or move the pool to a following layer)";
    const ConvLayer& src = layers_[static_cast<std::size_t>(residual)];
    HDNN_CHECK(!src.is_fc)
        << layer.name << ": residual source '" << src.name
        << "' is an FC layer, which is unsupported";
    const FmapShape src_out = out_shape_[static_cast<std::size_t>(residual)];
    HDNN_CHECK(src_out == conv_out)
        << layer.name << ": residual source '" << src.name << "' produces "
        << src_out.channels << "x" << src_out.height << "x" << src_out.width
        << " but the layer outputs " << conv_out.channels << "x"
        << conv_out.height << "x" << conv_out.width;
  }

  name_to_index_[layer.name] = num_layers();
  input_index_.push_back(producer);
  residual_index_.push_back(residual);
  out_shape_.push_back(out);
  total_macs_ += macs;
  layers_.push_back(std::move(layer));
}

void Model::AppendFullyConnected(const std::string& name, int out_features,
                                 bool relu) {
  const FmapShape in =
      layers_.empty() ? input_ : out_shape_.back();
  ConvLayer fc;
  fc.name = name;
  fc.out_channels = out_features;
  fc.kernel_h = 1;
  fc.kernel_w = 1;
  fc.stride = 1;
  fc.pad = 0;
  fc.relu = relu;
  fc.is_fc = true;
  // Flattening is implicit: the compiler lays out the previous activation as
  // a C*H*W x 1 x 1 feature map (see Canonical()).
  fc.in_channels = Canonical(in, fc).channels;
  Append(std::move(fc));
}

FmapShape Model::InputOf(int i) const {
  CheckIndex(i);
  const int producer = input_index_[static_cast<std::size_t>(i)];
  const FmapShape raw =
      producer < 0 ? input_ : out_shape_[static_cast<std::size_t>(producer)];
  return Canonical(raw, layers_[static_cast<std::size_t>(i)]);
}

FmapShape Model::OutputShape() const {
  HDNN_CHECK(num_layers() > 0) << "empty model";
  return OutputOf(num_layers() - 1);
}

std::string Model::Summary() const {
  std::ostringstream out;
  out << "model " << name_ << "  input " << input_.channels << "x"
      << input_.height << "x" << input_.width << "\n";
  for (int i = 0; i < num_layers(); ++i) {
    const ConvLayer& l = layer(i);
    const FmapShape in = InputOf(i);
    const FmapShape o = OutputOf(i);
    out << "  [" << i << "] " << l.name << (l.is_fc ? " (fc)" : "") << "  "
        << in.channels << "x" << in.height << "x" << in.width << " -> "
        << o.channels << "x" << o.height << "x" << o.width << "  k="
        << l.kernel_h << "x" << l.kernel_w << " s=" << l.stride
        << " p=" << l.pad << (l.relu ? " relu" : "")
        << (l.pool > 1 ? " pool" + std::to_string(l.pool) : "");
    const int producer = input_index_[static_cast<std::size_t>(i)];
    if (producer != i - 1) {
      out << " from=" << (producer < 0 ? std::string("<input>")
                                       : layer(producer).name);
    }
    if (l.has_residual()) out << " add=" << l.add;
    out << "  " << l.Macs(in) << " MACs\n";
  }
  out << "  total: " << TotalMacs() << " MACs (" << TotalOps() << " ops)\n";
  return out.str();
}

FmapShape Model::Canonical(const FmapShape& shape, const ConvLayer& next) {
  if (!next.is_fc) return shape;
  HDNN_CHECK(shape.elements() <= kMaxModelExtent)
      << next.name << ": flattened FC input of " << shape.elements()
      << " elements exceeds the channel limit " << kMaxModelExtent;
  return FmapShape{static_cast<int>(shape.elements()), 1, 1};
}

}  // namespace hdnn
