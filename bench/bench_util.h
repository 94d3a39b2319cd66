// Shared helpers for the paper-reproduction benchmarks.
#ifndef HDNN_BENCH_BENCH_UTIL_H_
#define HDNN_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>

#include "compiler/compiler.h"
#include "dse/search.h"
#include "estimator/latency_model.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"
#include "runtime/runtime.h"

namespace hdnn::bench {

/// The two published design points (paper Sec. 6.1), as the DSE also finds.
inline AccelConfig Vu9pDesignPoint() {
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 6;
  cfg.ni = 6;
  cfg.input_buffer_vectors = 16384;
  cfg.weight_buffer_vectors = 9216;
  cfg.output_buffer_vectors = 8192;
  return cfg;
}

inline AccelConfig PynqDesignPoint() {
  AccelConfig cfg;
  cfg.pi = 4;
  cfg.po = 4;
  cfg.pt = 4;
  cfg.ni = 1;
  cfg.input_buffer_vectors = 8192;
  cfg.weight_buffer_vectors = 2304;
  cfg.output_buffer_vectors = 8192;
  return cfg;
}

/// Compiles and simulates one single-conv layer under a forced mapping;
/// returns simulated cycles (timing-only).
inline double SimulateLayerCycles(const Model& model, ConvMode mode,
                                  Dataflow flow, const AccelConfig& cfg,
                                  const FpgaSpec& spec) {
  const Compiler compiler(cfg, spec);
  std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(model.num_layers()), LayerMapping{mode, flow});
  CompiledModel cm = compiler.Compile(model, mapping);
  Runtime runtime(cfg, spec);
  RunReport report = runtime.Execute(model, cm, {}, {}, /*functional=*/false);
  return report.stats.total_cycles;
}

/// Best-dataflow simulated cycles for a mode (what the compiler would run).
inline double SimulateLayerBestFlow(const Model& model, ConvMode mode,
                                    const AccelConfig& cfg,
                                    const FpgaSpec& spec) {
  double best = 1e300;
  for (Dataflow flow :
       {Dataflow::kInputStationary, Dataflow::kWeightStationary}) {
    try {
      best = std::min(best, SimulateLayerCycles(model, mode, flow, cfg, spec));
    } catch (const Error&) {
      // combination not schedulable (slices/CB constraints) — skip
    }
  }
  return best;
}

/// Best-dataflow analytical estimate for a mode, over the dataflows
/// DataflowLegal allows (the DSE's rule).
inline double EstimateLayerBestFlow(const Model& model, ConvMode mode,
                                    const AccelConfig& cfg,
                                    const FpgaSpec& spec) {
  double best = 1e300;
  try {
    const GroupCounts g =
        ComputeGroups(model.layer(0), model.InputOf(0), mode, cfg);
    for (Dataflow flow :
         {Dataflow::kInputStationary, Dataflow::kWeightStationary}) {
      if (!DataflowLegal(g, flow)) continue;
      best = std::min(best, EstimateLayerLatency(model.layer(0),
                                                 model.InputOf(0), mode, flow,
                                                 cfg, spec)
                                .total);
    }
  } catch (const Error&) {
    // mode not schedulable on this config
  }
  return best;
}

/// GOPS for `ops` in `cycles` (single instance).
inline double Gops(double ops, double cycles, const FpgaSpec& spec) {
  return ops / (cycles / (spec.freq_mhz * 1e6)) / 1e9;
}

inline void PrintRule(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace hdnn::bench

#endif  // HDNN_BENCH_BENCH_UTIL_H_
