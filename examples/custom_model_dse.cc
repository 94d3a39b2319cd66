// Targeting a custom network and a custom FPGA: define a board with the
// .hdnn spec format, an AlexNet-style model (large 11x11/5x5 kernels that
// exercise the Winograd kernel-decomposition path), and compare the DSE's
// hybrid mapping against forced all-Spatial and all-Winograd mappings.
// Then the multi-objective view: the DSE's Pareto frontier for ResNet-18
// (1x1/3x3/7x7 kernels, stride-2 downsampling, residual adds) on the same
// board — the latency/resource/power menu a deployment would pick from when
// the best-throughput point overshoots its power budget.
#include <cstdio>

#include "compiler/compiler.h"
#include "dse/search.h"
#include "frontend/parser.h"
#include "nn/builders.h"
#include "runtime/runtime.h"

int main() {
  using namespace hdnn;

  // A mid-range custom board, described in text form (paper Fig. 1 Step 1).
  const FpgaSpec spec = ParseFpgaSpecText(R"(
fpga custom-midrange
luts 274080
dsps 2520
bram18 1824
dies 1
bandwidth_gbps 16.0
freq_mhz 200
dsp_pack 2
static_watts 2.0
)");

  const Model model = BuildAlexNetStyle();
  std::printf("%s\n", model.Summary().c_str());

  const DseEngine dse(spec);
  const DseResult r = dse.Explore(model);
  std::printf("DSE config: %s\n", r.config.ToString().c_str());
  std::printf("per-layer choice:\n");
  for (int i = 0; i < model.num_layers(); ++i) {
    std::printf("  %-8s %s/%s\n", model.layer(i).name.c_str(),
                ToString(r.mapping[static_cast<std::size_t>(i)].mode),
                ToString(r.mapping[static_cast<std::size_t>(i)].dataflow));
  }

  auto run_with = [&](const char* label,
                      const std::vector<LayerMapping>& mapping) {
    const Compiler compiler(r.config, spec);
    const CompiledModel cm = compiler.Compile(model, mapping);
    Runtime runtime(r.config, spec);
    const RunReport rep = runtime.Execute(model, cm, {}, {}, false);
    std::printf("  %-12s %8.2f ms  %8.1f GOPS\n", label, rep.seconds * 1e3,
                rep.effective_gops);
  };

  std::printf("\nmapping comparison (same hardware):\n");
  run_with("DSE hybrid", r.mapping);

  std::vector<LayerMapping> all_spat(
      static_cast<std::size_t>(model.num_layers()),
      LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
  run_with("all-spatial", all_spat);

  // All-Winograd where legal (stride-1 layers only; conv1 has stride 4).
  std::vector<LayerMapping> all_wino = all_spat;
  for (int i = 0; i < model.num_layers(); ++i) {
    if (WinogradApplicable(model.layer(i)) && !model.layer(i).is_fc) {
      all_wino[static_cast<std::size_t>(i)].mode = ConvMode::kWinograd;
    }
  }
  run_with("all-winograd", all_wino);

  // Multi-objective exploration of a second workload on the same board:
  // every Pareto-optimal design for true ResNet-18 (real residual adds —
  // the estimator charges the SAVE stage for the skip-tensor reads). The
  // engine's memo cache answers the layer geometries ResNet's stages repeat.
  const Model resnet = BuildResNet18();
  const DseFrontier frontier = dse.ExploreFrontier(resnet);
  std::printf("\nPareto frontier for %s (%d candidates evaluated):\n",
              resnet.name().c_str(), frontier.candidates_evaluated);
  std::printf("  %-28s %10s %6s %6s %6s %8s\n", "config", "ms/image", "lut%",
              "dsp%", "bram%", "power W");
  for (const ParetoPoint& p : frontier.points) {
    std::printf("  %-28s %10.2f %6.1f %6.1f %6.1f %8.1f%s\n",
                p.config.ToString().c_str(),
                1e3 * p.objective / (spec.freq_mhz * 1e6),
                100 * p.lut_utilization, 100 * p.dsp_utilization,
                100 * p.bram_utilization, p.power_watts,
                p.config == frontier.best.config ? "  <- best" : "");
  }
  return 0;
}
