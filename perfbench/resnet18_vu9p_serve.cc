// resnet18_vu9p_serve: open loop in virtual time. Each rep is one
// InferenceServer::ServeTrace call in kFunctional mode (one engine worker)
// over BuildResNet18Scaled(64, 4) at the DSE's VU9P design point, replaying
// the same Poisson trace: offered load 1.2x the modeled single-drainer
// capacity, a deadline of three device times, so batching, admission
// control and expiry all engage. Every executed output is compared with
// QuantGoldenForward for its input.
//
// The arrival times are one fixed Poisson realization (kTraceSeed); the run
// seed picks the weights, the inputs and which input each arrival carries.
// On a 14-arrival overloaded trace the goodput of one realization differs
// from the next by 30-60%, so a seeded arrival process would make every
// seed serve a different amount of work.
#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <memory>
#include <vector>

#include "common/prng.h"
#include "compiler/weight_pack.h"
#include "nn/builders.h"
#include "quant/golden.h"
#include "runtime/server.h"
#include "workloads.h"

namespace perfbench {

using namespace hdnn;

namespace {

constexpr int kInputs = 3;
constexpr int kArrivals = 14;
constexpr double kLoad = 1.2;            ///< offered / single-drainer capacity
constexpr double kDeadlineDevice = 3.0;  ///< deadline in device times
constexpr std::uint64_t kTraceSeed = 11;

struct State {
  Model model = BuildResNet18Scaled(64, 4);
  const FpgaSpec& spec = Vu9pSpec();
  DseFrontier dse;
  DeployCounts counts;
  std::shared_ptr<const CompiledModel> cm;
  ModelWeightsQ weights;
  std::vector<Tensor<std::int16_t>> inputs;
  // The engine must outlive the server, so it is declared first.
  std::unique_ptr<InferenceEngine> engine;
  std::unique_ptr<InferenceServer> server;
  ModelHandle handle = -1;
  double device_s = 0;
  double deadline_s = 0;
  std::vector<InferenceServer::TraceArrival> trace;
  InferenceServer::TraceReport warmup;
};

std::unique_ptr<State> SetUp(std::uint64_t seed, Tracer& tracer) {
  ScopedSpan setup(tracer, "bench.setup", -1);
  auto st = std::make_unique<State>();
  const DseEngine dse(st->spec);
  {
    ScopedSpan span(tracer, "dse.explore", -1);
    st->dse = dse.ExploreFrontier(st->model, SingleThreadDse());
  }
  const AccelConfig& cfg = st->dse.best.config;
  st->engine = std::make_unique<InferenceEngine>(st->spec, /*num_workers=*/1);
  {
    ScopedSpan span(tracer, "compiler.compile", -1);
    st->cm = st->engine->GetOrCompile(st->model, cfg, st->dse.best.mapping);
  }
  st->counts.Add(st->dse, dse, *st->cm);
  st->weights = SyntheticWeights(st->model, seed);
  for (int k = 0; k < kInputs; ++k) {
    st->inputs.push_back(SeededInput(st->model, seed, k));
  }

  ServerOptions opts;
  opts.num_workers = 1;
  opts.mode = ExecMode::kFunctional;
  opts.max_batch = 2;
  opts.max_queue_delay_seconds = 0;
  opts.max_queue_depth = 3;
  st->server = std::make_unique<InferenceServer>(*st->engine, opts);
  st->handle = st->server->RegisterModel(st->model, cfg, st->dse.best.mapping,
                                         st->weights);
  st->device_s = st->server->device_seconds_per_item(st->handle);
  st->deadline_s = kDeadlineDevice * st->device_s;

  Prng gaps(kTraceSeed);
  Prng pick = Prng(seed).Fork(kInputs);
  double t = 0;
  for (int i = 0; i < kArrivals; ++i) {
    t += -std::log1p(-gaps.NextDouble()) * st->device_s / kLoad;
    st->trace.push_back(
        {t, static_cast<int>(pick.NextInt(0, kInputs - 1)), st->deadline_s});
  }
  st->warmup = st->server->ServeTrace(st->handle, st->inputs, st->trace);
  return st;
}

struct Outcomes {
  int ok = 0, rejected = 0, expired = 0;
  int good = 0;   ///< ok, bit-exact and finished inside its deadline
  int wrong = 0;  ///< executed with an output that differs from the golden
};

Outcomes Tally(const State& st, const InferenceServer::TraceReport& report,
               const std::vector<Tensor<std::int16_t>>& golden) {
  Outcomes o;
  for (std::size_t i = 0; i < report.items.size(); ++i) {
    const ItemReport& item = report.items[i];
    switch (item.outcome) {
      case ServeOutcome::kOk: {
        ++o.ok;
        const auto input = static_cast<std::size_t>(st.trace[i].input_index);
        if (!(item.run.output == golden[input])) {
          ++o.wrong;
        } else if (item.total_seconds <= st.deadline_s) {
          ++o.good;
        }
        break;
      }
      case ServeOutcome::kRejected: ++o.rejected; break;
      case ServeOutcome::kExpired: ++o.expired; break;
      case ServeOutcome::kFailed: break;
    }
  }
  return o;
}

const RunReport* FirstExecuted(const InferenceServer::TraceReport& report) {
  for (const ItemReport& item : report.items) {
    if (item.outcome == ServeOutcome::kOk) return &item.run;
  }
  return nullptr;
}

}  // namespace

Result RunResnet18Vu9pServe(const RunConfig& cfg, Tracer& tracer) {
  double setup_s = 0;
  const std::unique_ptr<State> st = SetUpRepeatedly<State>(
      [&] { return SetUp(cfg.seed, tracer); }, &setup_s);

  std::vector<Tensor<std::int16_t>> golden;
  for (const Tensor<std::int16_t>& input : st->inputs) {
    ScopedSpan span(tracer, "quant.golden", -1);
    golden.push_back(
        QuantGoldenForward(st->model, *st->cm, st->weights, input).back());
  }

  Result result;
  const Outcomes ref = Tally(*st, st->warmup, golden);
  const RunReport* ref_run = FirstExecuted(st->warmup);
  if (ref.wrong != 0 || ref_run == nullptr) {
    std::cerr << "resnet18_vu9p_serve: warm-up trace served wrong outputs\n";
    result.correct = false;
  }
  InferenceServer::TraceReport last;
  bool threw = false;
  std::int64_t good = 0;
  const RepTimes reps = MeasureReps(
      cfg, tracer, /*min_reps=*/5,
      [&](std::int64_t i) {
        ScopedSpan span(tracer, "server.serve_trace", i);
        try {
          last = st->server->ServeTrace(st->handle, st->inputs, st->trace);
          threw = false;
        } catch (const std::exception& e) {
          std::cerr << "resnet18_vu9p_serve rep " << i << ": " << e.what()
                    << "\n";
          threw = true;
        }
      },
      [&](std::int64_t) {
        result.attempted += kArrivals;
        if (threw) {
          result.failed += kArrivals;
          return;
        }
        good += Tally(*st, last, golden).good;
        // An item fails when its output is wrong, it failed terminally, or
        // it departs from the warm-up's deterministic virtual-time result.
        for (std::size_t k = 0; k < last.items.size(); ++k) {
          const ItemReport& a = last.items[k];
          const ItemReport& b = st->warmup.items[k];
          const auto input = static_cast<std::size_t>(st->trace[k].input_index);
          const bool wrong = a.outcome == ServeOutcome::kOk &&
                             (!(a.run.output == golden[input]) ||
                              a.run.stats.total_cycles !=
                                  b.run.stats.total_cycles);
          if (wrong || a.outcome == ServeOutcome::kFailed ||
              a.outcome != b.outcome || a.batch_seq != b.batch_seq ||
              a.total_seconds != b.total_seconds) {
            ++result.failed;
          }
        }
      });
  result.correct = result.correct && result.failed == 0;

  if (ref_run == nullptr) return result;
  EstimatorError est;
  est.Add(st->model, *st->cm, st->dse.best.estimated_cycles, *ref_run,
          st->spec);

  if (!cfg.trace) {
    result.Add("setup_s", setup_s, "s");
    result.Add("work_per_s", WorkPerSecond(kArrivals, reps), "1/s");
    result.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    result.Add("sim_gops", ref_run->effective_gops, "GOPS");
    result.Add("est_err_pct", est.MeanE2ePct(), "%");
    result.Add("goodput_frac",
               Ratio(static_cast<double>(good),
                     static_cast<double>(result.attempted)),
               "ratio");
    return result;
  }

  // Probes: a functional Execute on a persistent Runtime (what each served
  // item costs) and the layers inside it, each called on its own.
  LayerValues layers;
  Runtime runtime(st->dse.best.config, st->spec);
  runtime.Execute(st->model, *st->cm, st->weights, st->inputs[0]);
  ProbeExecute(st->model, *st->cm, st->weights, st->inputs[0], runtime,
               st->spec, tracer, layers);
  const double execute = layers["runtime.execute_ns"];
  const double serve = tracer.SelfNs("server.serve_trace");
  SimTotals sim;  // per rep: every executed item
  std::vector<double> virtual_ms;
  for (const ItemReport& item : st->warmup.items) {
    if (item.outcome != ServeOutcome::kOk) continue;
    sim.Add(st->model, item.run.stats);
    virtual_ms.push_back(item.total_seconds * 1e3);
  }
  sim.Report(layers);
  layers["sim.host_ns_per_mac"] = Ratio(execute * ref.ok, sim.macs);
  layers["sim.host_ns_per_instr"] = Ratio(execute * ref.ok, sim.instructions);
  layers["mem.dram_image_mwords"] =
      static_cast<double>(st->cm->total_dram_words) / 1e6;
  est.Report(layers);
  layers["dse.explore_ns"] = tracer.SelfNs("dse.explore");
  st->counts.Report(layers);
  layers["compiler.compile_ns"] = tracer.SelfNs("compiler.compile");
  layers["server.serve_trace_ns"] = serve;
  // Server self time: each probe ServeTrace is paired with the same
  // executions run back to back on a Runtime (the trace's executed items,
  // in its order), so both see the same host state and warm caches.
  std::vector<double> self_ns;
  for (int p = 0; p < 5; ++p) {
    std::int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer, "server.serve_trace", p);
      st->server->ServeTrace(st->handle, st->inputs, st->trace);
    }
    const auto serve_ns = static_cast<double>(NowNs() - t0);
    t0 = NowNs();
    for (std::size_t i = 0; i < st->trace.size(); ++i) {
      if (st->warmup.items[i].outcome != ServeOutcome::kOk) continue;
      ScopedSpan span(tracer, "runtime.execute", p);
      runtime.Execute(st->model, *st->cm, st->weights,
                      st->inputs[static_cast<std::size_t>(
                          st->trace[i].input_index)]);
    }
    const auto execute_ns = static_cast<double>(NowNs() - t0);
    self_ns.push_back((serve_ns - execute_ns) / kArrivals);
  }
  layers["server.self_ns_per_request"] = Median(self_ns);
  layers["server.batches"] = static_cast<double>(st->warmup.batch_sizes.size());
  layers["server.mean_batch"] =
      Ratio(ref.ok, static_cast<double>(st->warmup.batch_sizes.size()));
  layers["server.shed_frac"] = static_cast<double>(ref.rejected) / kArrivals;
  layers["server.expired_frac"] = static_cast<double>(ref.expired) / kArrivals;
  std::sort(virtual_ms.begin(), virtual_ms.end());
  layers["server.p99_virtual_ms"] =
      virtual_ms[static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(virtual_ms.size()))) - 1];
  layers["engine.cache_hit_frac"] =
      Ratio(static_cast<double>(st->engine->cache_hits()),
            static_cast<double>(st->engine->cache_hits() +
                                st->engine->cache_misses()));
  layers["quant.golden_ns"] = tracer.SelfNs("quant.golden");
  SetBenchMetrics(reps, layers);
  AddPerLayer(layers, result);
  return result;
}

}  // namespace perfbench
