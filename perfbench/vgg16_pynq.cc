// vgg16_pynq: the paper's embedded target and network. Closed loop, one
// caller: each rep is one functional Runtime::Execute of
// BuildVgg16Style(64, 4) on one persistent Runtime, at the DSE's PYNQ-Z1
// design point. Reps cycle through a few seeded inputs; every output is
// compared with QuantGoldenForward for its input.
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "compiler/weight_pack.h"
#include "nn/builders.h"
#include "quant/golden.h"
#include "workloads.h"

namespace perfbench {

using namespace hdnn;

namespace {

constexpr int kInputs = 3;

struct State {
  Model model = BuildVgg16Style(64, 4);
  const FpgaSpec& spec = PynqZ1Spec();
  DseFrontier dse;
  DeployCounts counts;
  CompiledModel cm;
  ModelWeightsQ weights;
  std::vector<Tensor<std::int16_t>> inputs;
  std::unique_ptr<Runtime> runtime;
  RunReport warmup;
};

std::unique_ptr<State> SetUp(std::uint64_t seed, Tracer& tracer) {
  ScopedSpan setup(tracer, "bench.setup", -1);
  auto st = std::make_unique<State>();
  const DseEngine engine(st->spec);
  {
    ScopedSpan span(tracer, "dse.explore", -1);
    st->dse = engine.ExploreFrontier(st->model, SingleThreadDse());
  }
  {
    ScopedSpan span(tracer, "compiler.compile", -1);
    st->cm = Compiler(st->dse.best.config, st->spec)
                 .Compile(st->model, st->dse.best.mapping);
  }
  st->counts.Add(st->dse, engine, st->cm);
  st->weights = SyntheticWeights(st->model, seed);
  for (int k = 0; k < kInputs; ++k) {
    st->inputs.push_back(SeededInput(st->model, seed, k));
  }
  st->runtime = std::make_unique<Runtime>(st->dse.best.config, st->spec);
  // One warm-up rep pays the first-use costs (DRAM image and simulator
  // arenas) inside set-up, where a change that moves work there shows.
  st->warmup =
      st->runtime->Execute(st->model, st->cm, st->weights, st->inputs[0]);
  return st;
}

}  // namespace

Result RunVgg16Pynq(const RunConfig& cfg, Tracer& tracer) {
  double setup_s = 0;
  const std::unique_ptr<State> st = SetUpRepeatedly<State>(
      [&] { return SetUp(cfg.seed, tracer); }, &setup_s);

  std::vector<Tensor<std::int16_t>> golden;
  for (const Tensor<std::int16_t>& input : st->inputs) {
    ScopedSpan span(tracer, "quant.golden", -1);
    golden.push_back(
        QuantGoldenForward(st->model, st->cm, st->weights, input).back());
  }

  Result result;
  const RunReport& ref = st->warmup;
  if (!(ref.output == golden[0])) {
    std::cerr << "vgg16_pynq: warm-up output differs from the golden\n";
    result.correct = false;
  }
  RunReport last;
  bool ok = false;
  const RepTimes reps = MeasureReps(
      cfg, tracer, /*min_reps=*/5,
      [&](std::int64_t i) {
        const auto& input = st->inputs[static_cast<std::size_t>(i % kInputs)];
        ScopedSpan span(tracer, "runtime.execute", i);
        try {
          last = st->runtime->Execute(st->model, st->cm, st->weights, input);
          ok = true;
        } catch (const std::exception& e) {
          std::cerr << "vgg16_pynq rep " << i << ": " << e.what() << "\n";
          ok = false;
        }
      },
      [&](std::int64_t i) {
        ++result.attempted;
        const auto k = static_cast<std::size_t>(i % kInputs);
        const bool good =
            ok && last.output == golden[k] &&
            last.stats.total_cycles == ref.stats.total_cycles &&
            last.effective_gops == ref.effective_gops;
        if (!good) ++result.failed;
      });
  result.correct = result.correct && result.failed == 0;

  EstimatorError est;
  est.Add(st->model, st->cm, st->dse.best.estimated_cycles, ref, st->spec);

  if (!cfg.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("work_per_s", WorkPerSecond(1, reps), "1/s");
    result.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    result.Add("sim_gops", ref.effective_gops, "GOPS");
    result.Add("est_err_pct", est.MeanE2ePct(), "%");
    result.Add("goodput_frac",
               Ratio(static_cast<double>(result.attempted - result.failed),
                     static_cast<double>(result.attempted)),
               "ratio");
    return result;
  }

  LayerValues layers;
  ProbeExecute(st->model, st->cm, st->weights, st->inputs[0], *st->runtime,
               st->spec, tracer, layers);
  // One rep is one functional Execute: report the reps' own median.
  const double execute = tracer.SelfNs("runtime.execute");
  layers["runtime.execute_ns"] = execute;
  SimTotals sim;
  sim.Add(st->model, ref.stats);
  sim.Report(layers);
  layers["sim.host_ns_per_mac"] = Ratio(execute, sim.macs);
  layers["sim.host_ns_per_instr"] = Ratio(execute, sim.instructions);
  layers["mem.dram_image_mwords"] =
      static_cast<double>(st->cm.total_dram_words) / 1e6;
  est.Report(layers);
  layers["dse.explore_ns"] = tracer.SelfNs("dse.explore");
  st->counts.Report(layers);
  layers["compiler.compile_ns"] = tracer.SelfNs("compiler.compile");
  layers["quant.golden_ns"] = tracer.SelfNs("quant.golden");
  SetBenchMetrics(reps, layers);
  AddPerLayer(layers, result);
  return result;
}

}  // namespace perfbench
