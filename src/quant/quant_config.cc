#include "quant/quant_config.h"

#include "common/check.h"

namespace hdnn {

void QuantConfig::Validate(const Model& model) const {
  const std::size_t n = static_cast<std::size_t>(model.num_layers());
  HDNN_CHECK(feature_bits >= 4 && feature_bits <= 16)
      << "feature_bits=" << feature_bits;
  HDNN_CHECK(weight_bits >= 4 && weight_bits <= 16)
      << "weight_bits=" << weight_bits;
  HDNN_CHECK(act_frac.size() == n + 1)
      << "act_frac covers " << act_frac.size() << " tensors, model has "
      << n + 1;
  HDNN_CHECK(wgt_frac.size() == n && wgt_frac_ch.size() == n)
      << "per-layer scale vectors must cover " << n << " layers";
  for (const int f : act_frac) {
    HDNN_CHECK(f >= 0 && f < feature_bits)
        << "feature fraction bits " << f << " outside [0, " << feature_bits
        << ")";
  }
  for (int i = 0; i < model.num_layers(); ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    HDNN_CHECK(wgt_frac[si] >= 0 && wgt_frac[si] < 62)
        << model.layer(i).name << ": weight fraction bits " << wgt_frac[si];
    const auto& ch = wgt_frac_ch[si];
    HDNN_CHECK(ch.empty() ||
               ch.size() ==
                   static_cast<std::size_t>(model.layer(i).out_channels))
        << model.layer(i).name << ": per-channel scales for " << ch.size()
        << " channels, layer has " << model.layer(i).out_channels;
    for (const int f : ch) {
      // The per-layer value is the floor: a channel below it would need a
      // negative extra shift, which the shared COMP QUAN_PARAM cannot fold.
      HDNN_CHECK(f >= wgt_frac[si])
          << model.layer(i).name << ": per-channel fraction bits " << f
          << " below the layer value " << wgt_frac[si];
    }
    HDNN_CHECK(shift(model, i) >= 0)
        << model.layer(i).name << ": negative requantisation shift "
        << shift(model, i)
        << " (output grid finer than input grid + weight grid)";
    const int res = model.residual_index(i);
    if (res >= 0) {
      HDNN_CHECK(out_frac(i) == out_frac(res))
          << model.layer(i).name << ": residual add mixes grids Q/"
          << out_frac(i) << " and Q/" << out_frac(res);
    }
  }
}

QuantConfig QuantConfig::Uniform(const Model& model, int feature_frac,
                                 int weight_frac) {
  QuantConfig qc;
  const std::size_t n = static_cast<std::size_t>(model.num_layers());
  qc.act_frac.assign(n + 1, feature_frac);
  qc.wgt_frac.assign(n, weight_frac);
  qc.wgt_frac_ch.assign(n, {});
  qc.Validate(model);
  return qc;
}

}  // namespace hdnn
