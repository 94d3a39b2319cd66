// Quickstart: take a small CNN through the complete HybridDNN flow
// (paper Fig. 1) — parse a model description, explore the design space,
// compile to the 128-bit instruction stream, and execute it bit-accurately
// on the simulated accelerator.
#include <cstdio>

#include "hlsgen/hls_config_gen.h"
#include "runtime/design_flow.h"

int main() {
  using namespace hdnn;

  // Step 1: describe the network (could also be loaded from a .hdnn file).
  const char* model_text = R"(
model quickstart_cnn
input 3 32 32
conv name=conv1 out=16 k=3 s=1 p=1 relu=1 pool=2
conv name=conv2 out=32 k=3 s=1 p=1 relu=1 pool=2
conv name=conv3 out=64 k=3 s=1 p=1 relu=1 pool=2
fc   name=fc    out=10
)";

  // Target the embedded PYNQ-Z1 platform from the built-in database.
  const FpgaSpec& spec = PynqZ1Spec();
  const DesignFlow flow(spec);

  // Steps 2-4: DSE -> compiler -> runtime on the simulated accelerator,
  // with bit-accurate execution of synthetic weights/input.
  const DesignFlowResult result =
      flow.RunFromText(model_text, /*functional=*/true);

  std::printf("platform        : %s @ %.0f MHz\n", spec.name.c_str(),
              spec.freq_mhz);
  std::printf("DSE chose       : %s (evaluated %d candidates)\n",
              result.dse.config.ToString().c_str(),
              result.dse.candidates_evaluated);
  for (std::size_t i = 0; i < result.dse.mapping.size(); ++i) {
    std::printf("  layer %zu : %s CONV, %s dataflow\n", i,
                ToString(result.dse.mapping[i].mode),
                ToString(result.dse.mapping[i].dataflow));
  }
  std::printf("instructions    : %zu (128-bit each)\n",
              result.compiled.program.size());
  std::printf("latency         : %.0f cycles = %.3f ms\n",
              result.report.stats.total_cycles, result.report.seconds * 1e3);
  std::printf("throughput      : %.2f GOPS\n", result.report.gops);
  std::printf("output logits   : [");
  for (std::int64_t i = 0; i < result.report.output.elements(); ++i) {
    std::printf("%s%d", i ? ", " : "",
                static_cast<int>(result.report.output.flat(i)));
  }
  std::printf("]\n\n");

  // Step 3's build summary: instances, per-die placement and estimated
  // resources of the chosen design point.
  std::printf("%s", GenerateBuildSummary(result.dse.config, spec).c_str());
  return 0;
}
