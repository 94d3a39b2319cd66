// Heterogeneous fleet serving: planner portfolio vs naive homogeneous
// replication under one power budget (ROADMAP item 5 tentpole bench).
//
// Scenario: two latency classes over two models — "interactive" (TinyCnn,
// 2 ms deadline) and "bulk" (TinyResidualBlock, 25 ms) — offered open-loop
// at rates beyond what the budget can serve, so the measurement is
// sustained QPS under overload. Two fleets face the same Poisson trace:
//
//   * naive      — the legacy single-objective throughput champion
//                  (DseEngine::Explore's pick) replicated until the power
//                  budget is spent; the residue is stranded.
//   * portfolio  — PlanPortfolio's greedy + local-swap mix over the union
//                  of both platforms' Pareto frontiers (cloud VU9P points
//                  next to embedded PYNQ points).
//
// Each fleet runs through SimulateFleet: virtual-time event simulation,
// NI instances per board paced on MEASURED device seconds (cycle-sim, not
// the estimator), deadline-aware power-of-two-choices routing, per-class
// weighted drain scan. Reported per fleet: achieved QPS, per-class
// p50/p99, per-shard utilization, fleet energy and QPS per joule, plus
// estimator vs simulated per-item latency per (board, model) and per-shard
// measured QPS against the planner's allocation.
//
// FleetSimTest.PortfolioScenarioIsStableAndBeatsNaive (tests/test_fleet.cc)
// replays this scenario at the --smoke size and checks it: reruns are
// bit-identical, and the portfolio reaches >= 1.3x the naive fleet's QPS or
// QPS per joule.
//
// JSON goes to stdout AND a file (default ./BENCH_fleet.json, override
// with argv[1]). `--smoke` shortens the trace.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "compiler/weight_pack.h"
#include "fleet/fleet.h"
#include "fleet/portfolio.h"
#include "nn/builders.h"
#include "platform/fpga_spec.h"
#include "runtime/runtime.h"

using namespace hdnn;

namespace {

std::FILE* g_json = nullptr;

void Emit(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  std::vprintf(fmt, args);
  if (g_json != nullptr) std::vfprintf(g_json, fmt, copy);
  va_end(copy);
  va_end(args);
}

/// "3x vu9p/pi4po4pt4ni7 + 1x pynq-z1/..." — the plan as humans read it.
std::string DescribePlan(const std::vector<BoardCandidate>& candidates,
                         const PortfolioPlan& plan) {
  std::map<int, int> counts;
  for (int b : plan.boards) ++counts[b];
  std::string out;
  for (const auto& [cand, count] : counts) {
    const BoardCandidate& c = candidates[static_cast<std::size_t>(cand)];
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s%dx %s/pi%d po%d pt%d ni%d",
                  out.empty() ? "" : " + ", count, c.spec.name.c_str(),
                  c.config.pi, c.config.po, c.config.pt, c.config.ni);
    out += buf;
  }
  return out.empty() ? "(empty)" : out;
}

/// Simulated seconds for one item: compile + one timing-only cycle sim.
double MeasureDeviceSeconds(const BoardCandidate& cand, const Model& model,
                            const std::vector<LayerMapping>& mapping) {
  const Compiler compiler(cand.config, cand.spec);
  const CompiledModel cm = compiler.Compile(model, mapping);
  Runtime runtime(cand.config, cand.spec);
  const RunReport report =
      runtime.Execute(model, cm, {}, {}, /*functional=*/false);
  return report.stats.total_cycles / (cand.spec.freq_mhz * 1e6);
}

void EmitFleetRows(const char* fleet, const PortfolioPlan& plan,
                   const std::vector<BoardCandidate>& candidates,
                   const std::vector<LatencyClass>& classes,
                   const FleetSimResult& sim, bool& first) {
  for (std::size_t s = 0; s < sim.shards.size(); ++s) {
    const FleetShardStats& ss = sim.shards[s];
    const BoardCandidate& cand =
        candidates[static_cast<std::size_t>(ss.candidate_index)];
    double planned = 0;
    for (double q : plan.shard_class_qps[s]) planned += q;
    Emit("%s    {\"name\": \"%s/shard%zu/%s-pi%dpo%dpt%dni%d\", "
         "\"planned_qps\": %.1f, \"measured_qps\": %.1f, "
         "\"utilization\": %.4f, \"energy_joules\": %.3f}",
         first ? "" : ",\n", fleet, s, cand.spec.name.c_str(), cand.config.pi,
         cand.config.po, cand.config.pt, cand.config.ni, planned,
         ss.measured_qps, ss.utilization, ss.energy_joules);
    first = false;
  }
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const FleetClassStats& cs = sim.classes[c];
    Emit(",\n    {\"name\": \"%s/class/%s\", \"offered_qps\": %.1f, "
         "\"achieved_qps\": %.1f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
         "\"shed_rate\": %.4f}",
         fleet, classes[c].name.c_str(), classes[c].offered_qps,
         cs.achieved_qps, cs.p50_ms, cs.p99_ms,
         cs.submitted > 0
             ? static_cast<double>(cs.rejected + cs.expired + cs.unroutable) /
                   static_cast<double>(cs.submitted)
             : 0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fleet.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      json_path = argv[i];
    }
  }
  g_json = std::fopen(json_path.c_str(), "w");
  if (g_json == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
    return 1;
  }

  const Model tiny = BuildTinyCnn();
  const Model resid = BuildTinyResidualBlock();
  const std::vector<const Model*> models{&tiny, &resid};
  const std::vector<const FpgaSpec*> platforms{&Vu9pSpec(), &PynqZ1Spec()};

  // Offered traffic: ~1.6x what the 76 W budget can serve (measured), so
  // both fleets saturate and achieved QPS measures capacity, not demand.
  const std::vector<LatencyClass> classes{
      {"interactive", 0, 180000.0, 0.002},
      {"bulk", 1, 420000.0, 0.025},
  };
  PortfolioOptions popts;
  popts.power_budget_watts = 76.0;
  popts.max_boards = 16;

  const std::vector<BoardCandidate> candidates =
      BuildBoardCandidates(platforms, models);

  const int naive_idx = NaiveBestCandidate(candidates, classes);
  const PortfolioPlan naive =
      PlanHomogeneous(candidates, naive_idx, classes, popts);
  const PortfolioPlan het = PlanPortfolio(candidates, classes, popts);

  // Device matrix: measured cycle-sim seconds for every board the fleets
  // deploy; unused candidates keep the estimator number (never dispatched).
  std::vector<std::vector<double>> device_seconds;
  device_seconds.reserve(candidates.size());
  for (const BoardCandidate& cand : candidates)
    device_seconds.push_back(cand.item_seconds);
  std::vector<int> used;
  for (int b : naive.boards) used.push_back(b);
  for (int b : het.boards) used.push_back(b);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  struct ValidationRow {
    int cand;
    int model;
    double est_s;
    double sim_s;
  };
  std::vector<ValidationRow> validation;
  for (int b : used) {
    const BoardCandidate& cand = candidates[static_cast<std::size_t>(b)];
    for (std::size_t m = 0; m < models.size(); ++m) {
      const double sim_s =
          MeasureDeviceSeconds(cand, *models[m], cand.mappings[m]);
      device_seconds[static_cast<std::size_t>(b)][m] = sim_s;
      validation.push_back({b, static_cast<int>(m), cand.item_seconds[m],
                            sim_s});
    }
  }

  const double duration = smoke ? 0.04 : 0.50;
  const std::vector<FleetTraceArrival> trace =
      MakePoissonTrace(classes, duration, 2026);

  FleetOptions fopts;
  fopts.max_batch = 8;
  fopts.max_queue_delay_seconds = 0.0002;
  fopts.max_queue_depth = 64;
  fopts.router.seed = 7;
  fopts.router.choices = 2;
  fopts.class_weights = {2.0, 1.0};  // interactive gets 2x the drain scan

  const FleetSimResult het_sim = SimulateFleet(
      candidates, het.boards, classes, device_seconds, trace, fopts);
  const FleetSimResult naive_sim = SimulateFleet(
      candidates, naive.boards, classes, device_seconds, trace, fopts);

  const double qps_ratio = naive_sim.total_ok_qps > 0
                               ? het_sim.total_ok_qps / naive_sim.total_ok_qps
                               : 0;
  const double qpj_ratio =
      naive_sim.qps_per_joule > 0
          ? het_sim.qps_per_joule / naive_sim.qps_per_joule
          : 0;

  Emit("{\n");
  Emit("  \"models\": [\"%s\", \"%s\"],\n", tiny.name().c_str(),
       resid.name().c_str());
  Emit("  \"smoke\": %s,\n", smoke ? "true" : "false");
  Emit("  \"power_budget_watts\": %.1f,\n", popts.power_budget_watts);
  Emit("  \"candidates\": %zu,\n", candidates.size());
  Emit("  \"trace_arrivals\": %zu,\n", trace.size());
  Emit("  \"trace_seconds\": %.3f,\n", duration);
  Emit("  \"classes\": [\n");
  for (std::size_t c = 0; c < classes.size(); ++c) {
    Emit("%s    {\"name\": \"%s\", \"model\": %d, \"deadline_ms\": %.1f, "
         "\"offered_qps\": %.1f}",
         c == 0 ? "" : ",\n", classes[c].name.c_str(), classes[c].model_index,
         classes[c].deadline_seconds * 1e3, classes[c].offered_qps);
  }
  Emit("\n  ],\n");
  Emit("  \"plans\": {\n");
  Emit("    \"naive\": {\"mix\": \"%s\", \"boards\": %zu, "
       "\"power_watts\": %.2f, \"planned_qps\": %.1f},\n",
       DescribePlan(candidates, naive).c_str(), naive.boards.size(),
       naive.power_watts, naive.planned_qps);
  Emit("    \"portfolio\": {\"mix\": \"%s\", \"boards\": %zu, "
       "\"power_watts\": %.2f, \"planned_qps\": %.1f}\n",
       DescribePlan(candidates, het).c_str(), het.boards.size(),
       het.power_watts, het.planned_qps);
  Emit("  },\n");
  Emit("  \"latency_validation\": [\n");
  for (std::size_t i = 0; i < validation.size(); ++i) {
    const ValidationRow& v = validation[i];
    const BoardCandidate& cand =
        candidates[static_cast<std::size_t>(v.cand)];
    Emit("%s    {\"board\": \"%s-pi%dpo%dpt%dni%d\", \"model\": \"%s\", "
         "\"estimated_item_ms\": %.4f, \"simulated_item_ms\": %.4f, "
         "\"est_over_sim\": %.3f}",
         i == 0 ? "" : ",\n", cand.spec.name.c_str(), cand.config.pi,
         cand.config.po, cand.config.pt, cand.config.ni,
         models[static_cast<std::size_t>(v.model)]->name().c_str(),
         v.est_s * 1e3, v.sim_s * 1e3, v.sim_s > 0 ? v.est_s / v.sim_s : 0);
  }
  Emit("\n  ],\n");
  Emit("  \"shards\": [\n");
  bool first = true;
  EmitFleetRows("portfolio", het, candidates, classes, het_sim, first);
  EmitFleetRows("naive", naive, candidates, classes, naive_sim, first);
  Emit("\n  ],\n");
  Emit("  \"headline\": {\"name\": \"portfolio_vs_naive\", "
       "\"naive_qps\": %.1f, \"portfolio_qps\": %.1f, "
       "\"qps_ratio\": %.3f, "
       "\"naive_qps_per_joule\": %.1f, \"portfolio_qps_per_joule\": %.1f, "
       "\"qps_per_joule_ratio\": %.3f}\n",
       naive_sim.total_ok_qps, het_sim.total_ok_qps, qps_ratio,
       naive_sim.qps_per_joule, het_sim.qps_per_joule, qpj_ratio);
  Emit("}\n");
  std::fclose(g_json);
  g_json = nullptr;
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  std::fprintf(stderr, "portfolio vs naive: %.2fx QPS, %.2fx QPS/joule\n",
               qps_ratio, qpj_ratio);
  return 0;
}
