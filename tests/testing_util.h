// Shared helpers for HybridDNN tests: golden end-to-end execution of a model
// through the compiler + simulator, compared layer-by-layer against the
// refconv / winograd golden libraries.
#ifndef HDNN_TESTS_TESTING_UTIL_H_
#define HDNN_TESTS_TESTING_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "compiler/compiler.h"
#include "compiler/weight_pack.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"
#include "refconv/direct.h"
#include "refconv/pool.h"
#include "runtime/runtime.h"
#include "tensor/tensor.h"
#include "winograd/matrices.h"
#include "winograd/wino_conv.h"

namespace hdnn::testing {

/// A small test platform: single die, modest but sufficient resources,
/// generous bandwidth so functional tests are not scheduling-fragile.
inline FpgaSpec TestSpec() {
  FpgaSpec spec;
  spec.name = "test";
  spec.luts = 400000;
  spec.dsps = 2000;
  spec.bram18 = 2000;
  spec.dies = 1;
  spec.dram_bandwidth_gbps = 12.8;
  spec.freq_mhz = 200;
  spec.dsp_pack = 1.0;
  spec.static_watts = 2.0;
  return spec;
}

inline AccelConfig TestConfig(int pt = 4, int pi = 4, int po = 4) {
  AccelConfig cfg;
  cfg.pi = pi;
  cfg.po = po;
  cfg.pt = pt;
  cfg.ni = 1;
  cfg.input_buffer_vectors = 8192;
  cfg.weight_buffer_vectors = 2304;
  cfg.output_buffer_vectors = 8192;
  return cfg;
}

/// Deterministic input in a safe feature range.
inline Tensor<std::int16_t> MakeInput(const FmapShape& shape,
                                      std::uint64_t seed) {
  Tensor<std::int16_t> t(Shape{shape.channels, shape.height, shape.width});
  Prng prng(seed);
  t.FillRandomInt(prng, -256, 255);
  return t;
}

/// Golden execution of the whole model in the quantised domain, layer by
/// layer in topological (append) order, using the *same algorithm* per layer
/// as the accelerator mapping (Winograd layers use the integer Winograd
/// reference with the compiler's u_shift; Spatial layers use the direct
/// reference). Graph-aware: each layer reads the activation its input edge
/// names and residual layers fuse sat(conv + skip) (+ ReLU) before pooling,
/// exactly as the accelerator's SAVE_RES stage does.
inline Tensor<std::int16_t> GoldenForward(
    const Model& model, const ModelWeightsQ& weights,
    const Tensor<std::int16_t>& input,
    const std::vector<LayerMapping>& mapping, const AccelConfig& cfg,
    int base_shift) {
  std::vector<Tensor<std::int16_t>> acts(
      static_cast<std::size_t>(model.num_layers()));
  for (int i = 0; i < model.num_layers(); ++i) {
    const ConvLayer& layer = model.layer(i);
    const FmapShape in = model.InputOf(i);
    const int producer = model.input_index(i);
    Tensor<std::int16_t> act =
        producer < 0 ? input : acts[static_cast<std::size_t>(producer)];
    // Flatten for FC layers (channel-major, matching the WINO DDR layout).
    if (layer.is_fc &&
        (act.shape().dim(1) != 1 || act.shape().dim(2) != 1)) {
      act = Tensor<std::int16_t>(Shape{act.elements(), 1, 1},
                                 std::vector<std::int16_t>(act.storage()));
    }
    HDNN_CHECK(act.shape().dim(0) == in.channels) << "golden shape drift";
    const LayerWeightsQ& lw = weights[static_cast<std::size_t>(i)];
    // Residual layers rectify after the add, so the conv itself runs raw.
    const bool conv_relu = layer.relu && !layer.has_residual();
    Tensor<std::int16_t> conv;
    if (mapping[static_cast<std::size_t>(i)].mode == ConvMode::kWinograd) {
      const int u_shift = WinoParamForPt(cfg.pt).recommended_u_shift();
      conv = Conv2dWinogradQ(act, lw.weights, lw.bias, layer.pad, base_shift,
                             cfg.data_width, conv_relu, cfg.pt, u_shift);
    } else {
      conv = Conv2dDirectQ(act, lw.weights, lw.bias, layer.stride, layer.pad,
                           base_shift, cfg.data_width, conv_relu);
    }
    if (layer.has_residual()) {
      const int res = model.residual_index(i);
      conv = AddResidualQ(conv, acts[static_cast<std::size_t>(res)],
                          cfg.data_width, layer.relu);
    }
    if (layer.pool > 1) conv = MaxPool2dQ(conv, layer.pool);
    acts[static_cast<std::size_t>(i)] = std::move(conv);
  }
  return acts.back();
}

struct EndToEndResult {
  Tensor<std::int16_t> sim_out;
  Tensor<std::int16_t> golden_out;
  RunReport report;
  CompiledModel compiled;
};

/// Compiles and runs `model` on the simulator with the given mapping,
/// weights and input, and computes the golden result for comparison. Also
/// checks that a timing-only run of the same program, on a fresh Runtime,
/// builds no DRAM and reports the functional run's SimStats and per-layer
/// cycles exactly.
inline EndToEndResult RunEndToEnd(const Model& model, const AccelConfig& cfg,
                                  const FpgaSpec& spec,
                                  std::vector<LayerMapping> mapping,
                                  const ModelWeightsQ& weights,
                                  const Tensor<std::int16_t>& input) {
  const Compiler compiler(cfg, spec);
  EndToEndResult result;
  result.compiled = compiler.Compile(model, mapping);

  Runtime runtime(cfg, spec);
  result.report = runtime.Execute(model, result.compiled, weights, input,
                                  /*functional=*/true);
  result.sim_out = result.report.output;

  Runtime timing(cfg, spec);
  const RunReport timed = timing.Execute(model, result.compiled, {}, {},
                                         /*functional=*/false);
  EXPECT_EQ(timing.dram(), nullptr) << "a timing-only run built a DRAM";
  EXPECT_TRUE(timed.stats == result.report.stats)
      << "timing-only SimStats differ from the functional run's";
  EXPECT_EQ(timed.layer_cycles, result.report.layer_cycles);
  // The compiler may have overridden dataflows (CB/slice legality); use the
  // final plans' modes for the golden run.
  std::vector<LayerMapping> effective;
  for (const LayerPlan& plan : result.compiled.plans) {
    effective.push_back(plan.mapping);
  }
  result.golden_out = GoldenForward(model, weights, input, effective, cfg,
                                    result.compiled.base_shift);
  return result;
}

/// RunEndToEnd on seeded synthetic weights and input.
inline EndToEndResult RunEndToEnd(const Model& model, const AccelConfig& cfg,
                                  const FpgaSpec& spec,
                                  std::vector<LayerMapping> mapping,
                                  std::uint64_t seed = 7) {
  return RunEndToEnd(model, cfg, spec, std::move(mapping),
                     SyntheticWeights(model, seed),
                     MakeInput(model.InputOf(0), seed + 1));
}

/// Single-layer convenience wrapper.
inline EndToEndResult RunSingleLayer(const Model& model, ConvMode mode,
                                     Dataflow flow, const AccelConfig& cfg,
                                     std::uint64_t seed = 7) {
  return RunEndToEnd(model, cfg, TestSpec(),
                     std::vector<LayerMapping>(
                         static_cast<std::size_t>(model.num_layers()),
                         LayerMapping{mode, flow}),
                     seed);
}

}  // namespace hdnn::testing

#endif  // HDNN_TESTS_TESTING_UTIL_H_
