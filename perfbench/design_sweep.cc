// design_sweep: the paper's Fig. 1 flow as a designer runs it once per
// model and board. Each rep runs DesignFlow(spec).RunFromText(text,
// /*functional=*/false) for VGG16, ResNet-18 and the AlexNet-style network
// at full size on VU9P and on PYNQ-Z1: parse, a cold DSE engine, the
// compiler and a fresh Runtime's timing-only simulation. Nothing is staged
// or multiplied. Each flow's frontier must contain its winner, and the
// winner must simulate with the cycles of the warm-up rep.
//
// A traced rep runs the same four steps one by one, as DesignFlow::Run
// does, with a span around each.
#include <cmath>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "frontend/parser.h"
#include "nn/builders.h"
#include "runtime/design_flow.h"
#include "workloads.h"

namespace perfbench {

using namespace hdnn;

namespace {

struct Flow {
  std::string text;
  const FpgaSpec* spec = nullptr;
};

struct State {
  std::vector<Flow> flows;
  std::vector<DesignFlowResult> warmup;
};

/// One flow, step by step (DesignFlow::Run with functional = false), with
/// a span around every call into a layer.
DesignFlowResult TracedFlow(const Flow& flow, Tracer& tracer,
                            std::int64_t request, DeployCounts& counts) {
  ScopedSpan span(tracer, "flow", request);
  DesignFlowResult result;
  Model model;
  {
    ScopedSpan s(tracer, "frontend.parse", request);
    model = ParseModelText(flow.text);
  }
  const DseEngine engine(*flow.spec);
  DseFrontier frontier;
  {
    ScopedSpan s(tracer, "dse.explore", request);
    frontier = engine.ExploreFrontier(model, SingleThreadDse());
  }
  {
    ScopedSpan s(tracer, "compiler.compile", request);
    result.compiled = Compiler(frontier.best.config, *flow.spec)
                          .Compile(model, frontier.best.mapping);
  }
  counts.Add(frontier, engine, result.compiled);
  result.dse = frontier.best;
  result.frontier = std::move(frontier.points);
  {
    ScopedSpan s(tracer, "runtime.first_execute", request);
    Runtime runtime(result.dse.config, *flow.spec);
    result.report =
        runtime.Execute(model, result.compiled, {}, {}, /*functional=*/false);
  }
  return result;
}

std::vector<DesignFlowResult> RunFlows(const State& st, std::uint64_t seed,
                                       Tracer& tracer, std::int64_t rep,
                                       DeployCounts* counts) {
  std::vector<DesignFlowResult> results;
  for (std::size_t f = 0; f < st.flows.size(); ++f) {
    const Flow& flow = st.flows[f];
    if (tracer.enabled()) {
      results.push_back(TracedFlow(
          flow, tracer, rep * static_cast<std::int64_t>(st.flows.size()) +
                            static_cast<std::int64_t>(f),
          *counts));
    } else {
      results.push_back(DesignFlow(*flow.spec).RunFromText(
          flow.text, /*functional=*/false, SingleThreadDse(), seed));
    }
  }
  return results;
}

std::unique_ptr<State> SetUp(std::uint64_t seed, Tracer& tracer) {
  ScopedSpan setup(tracer, "bench.setup", -1);
  auto st = std::make_unique<State>();
  for (const Model& model :
       {BuildVgg16(), BuildResNet18(), BuildAlexNetStyle()}) {
    const std::string text = WriteModelText(model);
    for (const FpgaSpec* spec : {&Vu9pSpec(), &PynqZ1Spec()}) {
      st->flows.push_back({text, spec});
    }
  }
  // The warm-up rep is untraced: its spans would mix into set-up.
  const bool traced = tracer.enabled();
  tracer.set_enabled(false);
  st->warmup = RunFlows(*st, seed, tracer, -1, nullptr);
  tracer.set_enabled(traced);
  return st;
}

bool FlowOk(const DesignFlowResult& r, const DesignFlowResult& ref) {
  bool in_frontier = false;
  for (const ParetoPoint& p : r.frontier) {
    in_frontier = in_frontier ||
                  (p.config == r.dse.config && p.mapping == r.dse.mapping);
  }
  return in_frontier && r.report.stats.total_cycles > 0 &&
         r.report.stats.total_cycles == ref.report.stats.total_cycles &&
         r.report.effective_gops == ref.report.effective_gops;
}

}  // namespace

Result RunDesignSweep(const RunConfig& cfg, Tracer& tracer) {
  double setup_s = 0;
  const std::unique_ptr<State> st = SetUpRepeatedly<State>(
      [&] { return SetUp(cfg.seed, tracer); }, &setup_s);
  const std::size_t flows = st->flows.size();

  Result result;
  for (std::size_t f = 0; f < flows; ++f) {
    if (!FlowOk(st->warmup[f], st->warmup[f])) {
      std::cerr << "design_sweep: warm-up flow " << f << " failed its check\n";
      result.correct = false;
    }
  }
  std::vector<DesignFlowResult> last;
  DeployCounts counts;
  bool threw = false;
  const RepTimes reps = MeasureReps(
      cfg, tracer, /*min_reps=*/5,
      [&](std::int64_t i) {
        try {
          DeployCounts rep_counts;
          last = RunFlows(*st, cfg.seed, tracer, i, &rep_counts);
          if (tracer.enabled()) counts = rep_counts;
          threw = false;
        } catch (const std::exception& e) {
          std::cerr << "design_sweep rep " << i << ": " << e.what() << "\n";
          threw = true;
        }
      },
      [&](std::int64_t) {
        result.attempted += static_cast<std::int64_t>(flows);
        for (std::size_t f = 0; f < flows; ++f) {
          if (threw || !FlowOk(last[f], st->warmup[f])) ++result.failed;
        }
      });
  result.correct = result.correct && result.failed == 0;

  // Modeled numbers come from the warm-up rep; every timed rep was checked
  // to repeat its cycles and GOPS exactly.
  SimTotals sim;
  EstimatorError est;
  double log_gops = 0;
  double image_words = 0;
  for (std::size_t f = 0; f < flows; ++f) {
    const DesignFlowResult& r = st->warmup[f];
    const Model model = ParseModelText(st->flows[f].text);
    sim.Add(model, r.report.stats);
    est.Add(model, r.compiled, r.dse.estimated_cycles, r.report,
            *st->flows[f].spec);
    log_gops += std::log(r.report.effective_gops);
    image_words += static_cast<double>(r.compiled.total_dram_words);
  }

  if (!cfg.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("work_per_s", WorkPerSecond(static_cast<double>(flows), reps),
               "1/s");
    result.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    result.Add("sim_gops", std::exp(log_gops / static_cast<double>(flows)),
               "GOPS");
    result.Add("est_err_pct", est.MeanE2ePct(), "%");
    result.Add("goodput_frac",
               Ratio(static_cast<double>(result.attempted - result.failed),
                     static_cast<double>(result.attempted)),
               "ratio");
    return result;
  }

  // Probe pass: a second timing-only Execute on each flow's now-warm
  // Runtime, against the first one the flow itself pays for.
  tracer.set_rep(0);
  for (std::size_t f = 0; f < flows; ++f) {
    const DesignFlowResult& r = st->warmup[f];
    const Model model = ParseModelText(st->flows[f].text);
    Runtime runtime(r.dse.config, *st->flows[f].spec);
    runtime.Execute(model, r.compiled, {}, {}, /*functional=*/false);
    ScopedSpan span(tracer, "runtime.execute_timing",
                    static_cast<std::int64_t>(f));
    runtime.Execute(model, r.compiled, {}, {}, /*functional=*/false);
  }
  tracer.set_rep(-1);

  LayerValues layers;
  const double first = tracer.SelfNs("runtime.first_execute");
  layers["runtime.first_execute_ns"] = first;
  layers["runtime.execute_timing_ns"] =
      tracer.SelfNs("runtime.execute_timing");
  sim.Report(layers);
  layers["sim.host_ns_per_mac"] = Ratio(first, sim.macs);
  layers["sim.host_ns_per_instr"] = Ratio(first, sim.instructions);
  layers["mem.dram_image_mwords"] = image_words / 1e6;
  est.Report(layers);
  layers["dse.explore_ns"] = tracer.SelfNs("dse.explore");
  counts.Report(layers);
  layers["compiler.compile_ns"] = tracer.SelfNs("compiler.compile");
  layers["frontend.parse_ns"] = tracer.SelfNs("frontend.parse");
  SetBenchMetrics(reps, layers);
  AddPerLayer(layers, result);
  return result;
}

}  // namespace perfbench
