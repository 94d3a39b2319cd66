#include "compiler/weight_pack.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/math_util.h"
#include "common/prng.h"
#include "estimator/latency_cache.h"
#include "winograd/decompose.h"
#include "winograd/matrices.h"
#include "winograd/transform.h"

namespace hdnn {
namespace {

int PaddedK(const ConvLayer& layer, const AccelConfig& cfg) {
  return static_cast<int>(
      RoundUp<std::int64_t>(layer.out_channels, cfg.po));
}

/// Folds a tensor's shape and then its bytes into `h`, 32 bytes per step
/// (the last step zero-padded). Four independent lanes keep the multiplies
/// overlapped; each lane step is a bijection of the lane for a given word,
/// and the fold a bijection of each lane, so one changed word always
/// changes the result.
template <typename T>
std::uint64_t HashTensor(std::uint64_t h, const Tensor<T>& t) {
  h = HashCombine(h, static_cast<std::uint64_t>(t.shape().rank()));
  for (const std::int64_t d : t.shape().dims()) {
    h = HashCombine(h, static_cast<std::uint64_t>(d));
  }
  std::uint64_t lane[4] = {h, h + 1, h + 2, h + 3};
  const auto step = [&lane](const unsigned char* p) {
    for (int j = 0; j < 4; ++j) {
      std::uint64_t word;
      std::memcpy(&word, p + 8 * j, 8);
      lane[j] = (lane[j] ^ word) * 0x9e3779b97f4a7c15ULL;  // odd: invertible
      lane[j] ^= lane[j] >> 32;
    }
  };
  const auto* p = reinterpret_cast<const unsigned char*>(t.data());
  // storage(), not elements(): a default-constructed (absent) tensor has
  // rank 0, one nominal element and no storage.
  std::size_t bytes = t.storage().size() * sizeof(T);
  for (; bytes >= 32; p += 32, bytes -= 32) step(p);
  if (bytes > 0) {
    unsigned char last[32] = {};
    std::memcpy(last, p, bytes);
    step(last);
  }
  for (const std::uint64_t l : lane) h = HashCombine(h, l);
  return h;
}

}  // namespace

std::int64_t ForEachWeightBlock(
    const LayerPlan& plan, const ConvLayer& layer, const AccelConfig& cfg,
    const std::function<void(const WeightBlock&)>& fn) {
  const GroupCounts& g = plan.groups;
  const bool wino = plan.mapping.mode == ConvMode::kWinograd;
  const std::int64_t kk = wino ? static_cast<std::int64_t>(cfg.pt) * cfg.pt
                               : static_cast<std::int64_t>(layer.kernel_h) *
                                     layer.kernel_w;
  const int K = layer.out_channels;
  const int C = plan.in_shape.channels;
  std::int64_t offset = 0;
  for (int kg = 0; kg < g.gk; ++kg) {
    const int k0 = kg * g.k_per_group;
    const int k_count = std::min(g.k_per_group, K - k0);
    for (int cb = 0; cb < g.cb; ++cb) {
      const int c0 = cb * g.c_per_block;
      const int c_count = std::min(g.c_per_block, C - c0);
      for (int slice = 0; slice < g.slices; ++slice) {
        WeightBlock block;
        block.kg = kg;
        block.cb = cb;
        block.slice = slice;
        block.k0 = k0;
        block.k_count = k_count;
        block.c0 = c0;
        block.c_count = c_count;
        block.base_words = offset;
        block.block_words = CeilDiv<std::int64_t>(k_count, cfg.po) *
                            CeilDiv<std::int64_t>(c_count, cfg.pi) * kk *
                            cfg.pi * cfg.po;
        if (fn) fn(block);
        offset += block.block_words;
      }
    }
  }
  return offset;
}

std::int64_t WeightImageWords(const LayerPlan& plan, const ConvLayer& layer,
                              const AccelConfig& cfg) {
  return ForEachWeightBlock(plan, layer, cfg, nullptr);
}

std::int64_t BiasImageWords(const ConvLayer& layer, const AccelConfig& cfg) {
  return 2LL * PaddedK(layer, cfg);
}

void WriteWeightImages(const CompiledModel& cm, const Model& model,
                       const ModelWeightsQ& weights, DramModel& dram) {
  HDNN_CHECK(static_cast<int>(weights.size()) == model.num_layers())
      << "weights for " << weights.size() << " layers, model has "
      << model.num_layers();
  for (int li = 0; li < model.num_layers(); ++li) {
    const ConvLayer& layer = model.layer(li);
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    const LayerWeightsQ& lw = weights[static_cast<std::size_t>(li)];
    const int K = layer.out_channels;
    const int C_real = layer.in_channels;  // flattened for FC
    HDNN_CHECK(lw.weights.shape() ==
               Shape({K, C_real, layer.kernel_h, layer.kernel_w}))
        << layer.name << ": weight shape " << lw.weights.shape().ToString();
    HDNN_CHECK(lw.bias.empty() || lw.bias.elements() == K)
        << layer.name << ": bias size " << lw.bias.elements()
        << " != output channels " << K;
    const bool wino = plan.mapping.mode == ConvMode::kWinograd;
    const int pt = cm.cfg.pt;

    // Precompute Winograd-transformed (or raw) kernels for the whole layer.
    // Transformed tensor: [slice][k][c][kk] int16.
    std::vector<KernelSlice<std::int8_t>> slices;
    if (wino) slices = DecomposeKernel(lw.weights);

    auto raw_at = [&](int k, int c, int rc) -> std::int16_t {
      if (k >= K || c >= C_real) return 0;
      const int r = rc / layer.kernel_w;
      const int s = rc % layer.kernel_w;
      return lw.weights.at(k, c, r, s);
    };

    std::vector<std::int8_t> g33(9);
    auto wino_tile = [&](int slice, int k, int c) -> std::vector<std::int16_t> {
      if (k >= K || c >= C_real) {
        return std::vector<std::int16_t>(static_cast<std::size_t>(pt * pt), 0);
      }
      const auto& sl = slices[static_cast<std::size_t>(slice)];
      for (int r = 0; r < 3; ++r) {
        for (int s = 0; s < 3; ++s) {
          g33[static_cast<std::size_t>(r * 3 + s)] = sl.kernel.at(k, c, r, s);
        }
      }
      return TransformKernelQ(g33, pt, plan.u_shift);
    };

    ForEachWeightBlock(
        plan, layer, cm.cfg, [&](const WeightBlock& block) {
          const std::int64_t kk =
              wino ? static_cast<std::int64_t>(pt) * pt
                   : static_cast<std::int64_t>(layer.kernel_h) * layer.kernel_w;
          const std::int64_t kv_n = CeilDiv<std::int64_t>(block.k_count, cm.cfg.po);
          const std::int64_t cv_n = CeilDiv<std::int64_t>(block.c_count, cm.cfg.pi);
          // The block is one contiguous DRAM image — a single validated run
          // instead of block_words bounds-checked per-word writes.
          const auto dst = dram.WriteRun(plan.wgt_dram_base + block.base_words,
                                         block.block_words);
          // The loop below must emit exactly the run it reserved — a drift
          // between this count and ForEachWeightBlock's block_words formula
          // would otherwise become an unchecked out-of-span write.
          HDNN_CHECK(kv_n * cv_n * kk * cm.cfg.po * cm.cfg.pi ==
                     block.block_words)
              << layer.name << ": weight block geometry disagrees with its "
              << "reserved run (" << block.block_words << " words)";
          std::size_t idx = 0;
          // Linear order must match the sim's weight-slab contract:
          // (((kv*cv_n + cv)*kk + rc)*PO + co)*PI + ci.
          for (std::int64_t kv = 0; kv < kv_n; ++kv) {
            for (std::int64_t cv = 0; cv < cv_n; ++cv) {
              // Cache transformed tiles for the PI x PO channel block.
              std::vector<std::vector<std::int16_t>> tiles;
              if (wino) {
                tiles.resize(static_cast<std::size_t>(cm.cfg.po * cm.cfg.pi));
                for (int co = 0; co < cm.cfg.po; ++co) {
                  for (int ci = 0; ci < cm.cfg.pi; ++ci) {
                    tiles[static_cast<std::size_t>(co * cm.cfg.pi + ci)] =
                        wino_tile(block.slice,
                                  block.k0 + static_cast<int>(kv) * cm.cfg.po + co,
                                  block.c0 + static_cast<int>(cv) * cm.cfg.pi + ci);
                  }
                }
              }
              for (std::int64_t rc = 0; rc < kk; ++rc) {
                for (int co = 0; co < cm.cfg.po; ++co) {
                  for (int ci = 0; ci < cm.cfg.pi; ++ci) {
                    std::int16_t value;
                    if (wino) {
                      value = tiles[static_cast<std::size_t>(co * cm.cfg.pi +
                                                             ci)]
                                   [static_cast<std::size_t>(rc)];
                    } else {
                      value = raw_at(
                          block.k0 + static_cast<int>(kv) * cm.cfg.po + co,
                          block.c0 + static_cast<int>(cv) * cm.cfg.pi + ci,
                          static_cast<int>(rc));
                    }
                    dst[idx++] = value;
                  }
                }
              }
            }
          }
        });

    // Bias image: padded K int32 values (little-endian word pairs, one
    // contiguous run), pre-shifted for Winograd layers; zero without a bias.
    const int kp = PaddedK(layer, cm.cfg);
    const auto bias_dst = dram.WriteRun(plan.bias_dram_base, 2LL * kp);
    for (int k = 0; k < kp; ++k) {
      std::int64_t b = 0;
      if (k < K && !lw.bias.empty()) b = lw.bias.flat(k);
      if (wino) b <<= plan.u_shift;
      StoreWordPair(bias_dst.data() + 2 * k, static_cast<std::int32_t>(b));
    }
  }
}

std::uint64_t WeightImageKey(const CompiledModel& cm, const Model& model,
                             const ModelWeightsQ& weights) {
  std::uint64_t h = 0;
  for (const std::int64_t v :
       {std::int64_t{cm.cfg.pi}, std::int64_t{cm.cfg.po},
        std::int64_t{cm.cfg.pt}, cm.fmap_base, cm.total_dram_words,
        std::int64_t{model.num_layers()},
        static_cast<std::int64_t>(weights.size())}) {
    h = HashCombine(h, static_cast<std::uint64_t>(v));
  }
  for (int li = 0; li < model.num_layers(); ++li) {
    const ConvLayer& layer = model.layer(li);
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    const GroupCounts& g = plan.groups;
    for (const std::int64_t v :
         {std::int64_t{layer.out_channels}, std::int64_t{layer.in_channels},
          std::int64_t{layer.kernel_h}, std::int64_t{layer.kernel_w},
          static_cast<std::int64_t>(plan.mapping.mode),
          std::int64_t{plan.in_shape.channels}, std::int64_t{g.gk},
          std::int64_t{g.k_per_group}, std::int64_t{g.cb},
          std::int64_t{g.c_per_block}, std::int64_t{g.slices},
          std::int64_t{plan.u_shift}, plan.wgt_dram_base,
          plan.bias_dram_base}) {
      h = HashCombine(h, static_cast<std::uint64_t>(v));
    }
  }
  for (const LayerWeightsQ& lw : weights) {
    h = HashTensor(HashTensor(h, lw.weights), lw.bias);
  }
  return h;
}

ModelWeightsQ SyntheticWeights(const Model& model, std::uint64_t seed) {
  Prng prng(seed);
  ModelWeightsQ out;
  for (int i = 0; i < model.num_layers(); ++i) {
    const ConvLayer& layer = model.layer(i);
    LayerWeightsQ lw{
        Tensor<std::int8_t>(Shape{layer.out_channels, layer.in_channels,
                                  layer.kernel_h, layer.kernel_w}),
        Tensor<std::int32_t>(Shape{layer.out_channels})};
    // Small weights keep deep-network activations in the int12 range
    // without per-layer scale tuning.
    lw.weights.FillRandomInt(prng, -16, 16);
    lw.bias.FillRandomInt(prng, -64, 64);
    out.push_back(std::move(lw));
  }
  return out;
}

}  // namespace hdnn
