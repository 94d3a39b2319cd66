// Self-healing fleet under injected faults (chaos bench, DESIGN.md
// Sec. 12, tentpole of the robustness PR).
//
// Scenario: a 5-board fleet (1000 QPS each) serving two classes open-loop
// at 2800 QPS total — "interactive" (5 ms deadline) and "bulk" (no
// deadline) — so a single board loss still leaves headroom for full
// recovery. Each chaos scenario replays the SAME Poisson trace through
// SimulateFleet with a seeded FaultPlan:
//
//   * baseline    — no plan and hedging off, so health detection is
//                   disarmed;
//   * crash       — one board dies mid-run: heartbeat detection, retry
//                   with backoff, hedging, and a degradation-aware re-plan
//                   over the survivors;
//   * transients  — a dispatch stall and a 3x clock slowdown that the
//                   health tracker must ride out WITHOUT declaring a board
//                   down or re-planning;
//   * corruption  — 25 results corrupted on one board, run twice: CRC on
//                   (all detected and retried, zero served) and CRC off
//                   (all served silently; only the goodput gap shows it).
//
// The headline is recovery: tail-window goodput after the crash re-plan
// against the no-fault baseline's. FleetChaosSimTest.
// BenchScenariosReplayDetectAndRecover (tests/test_fleet.cc) replays these
// scenarios at the --smoke size and checks them: bit-identical reruns,
// request conservation, empty plan == no plan, one crash detected and
// re-planned with >= 0.8x recovery, transients ride out, CRC catches every
// corruption, and a TinyCnn run with a fault in the collection window
// throws IntegrityError and retries clean.
//
// JSON goes to stdout AND a file (default ./BENCH_fleet_chaos.json,
// override with argv[1]). `--smoke` shortens the trace.
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/fault.h"
#include "fleet/fleet.h"
#include "platform/fpga_spec.h"

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

BoardCandidate MakeBoard(const std::string& name, double item_seconds,
                         double power_watts) {
  BoardCandidate cand;
  cand.spec = PynqZ1Spec();
  cand.spec.name = name;
  cand.config.ni = 1;
  cand.power_watts = power_watts;
  cand.item_seconds = {item_seconds};
  cand.board_qps = {1.0 / item_seconds};
  cand.mappings.resize(1);
  return cand;
}

struct Scenario {
  std::string name;
  FleetSimResult sim;
};

std::int64_t TotalOf(const FleetSimResult& sim,
                     std::int64_t FleetClassStats::*field) {
  std::int64_t total = 0;
  for (const FleetClassStats& c : sim.classes) total += c.*field;
  return total;
}

void EmitScenario(const Scenario& s, bool first) {
  const FleetSimResult& r = s.sim;
  Emit("%s    {\"name\": \"%s\", \"ok\": %lld, \"rejected\": %lld, "
       "\"expired\": %lld, \"unroutable\": %lld, \"failed\": %lld, "
       "\"goodput_qps\": %.1f, \"tail_goodput_qps\": %.1f, "
       "\"hedges\": %lld, \"hedge_wasted\": %lld, \"retries\": %lld, "
       "\"corrupted_detected\": %lld, \"corrupted_served\": %lld, "
       "\"degraded_shed\": %lld, \"replans\": %d, \"shards_down\": %d, "
       "\"health_transitions\": %d, \"first_down_seconds\": %.4f}",
       first ? "" : ",\n", s.name.c_str(),
       static_cast<long long>(TotalOf(r, &FleetClassStats::ok)),
       static_cast<long long>(TotalOf(r, &FleetClassStats::rejected)),
       static_cast<long long>(TotalOf(r, &FleetClassStats::expired)),
       static_cast<long long>(TotalOf(r, &FleetClassStats::unroutable)),
       static_cast<long long>(TotalOf(r, &FleetClassStats::failed)),
       r.goodput_qps, r.tail_goodput_qps,
       static_cast<long long>(r.chaos.hedges),
       static_cast<long long>(r.chaos.hedge_wasted),
       static_cast<long long>(r.chaos.retries),
       static_cast<long long>(r.chaos.corrupted_detected),
       static_cast<long long>(r.chaos.corrupted_served),
       static_cast<long long>(r.chaos.degraded_shed), r.chaos.replans,
       r.chaos.shards_down, r.chaos.health_transitions,
       r.chaos.first_down_seconds);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_fleet_chaos.json";
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

  // 5 x 1000 QPS boards vs 2800 QPS offered: one board loss leaves
  // 4000 QPS (3400 after the re-plan's 0.85 derate), so full recovery is
  // achievable and the 0.8x tail-goodput bar measures the healing
  // machinery, not raw capacity.
  const int kBoards = 5;
  std::vector<BoardCandidate> candidates{
      MakeBoard("chaos-board", /*item_seconds=*/0.001, /*power_watts=*/10.0)};
  const std::vector<int> shard_candidates(static_cast<std::size_t>(kBoards),
                                          0);
  const std::vector<LatencyClass> classes{
      {"interactive", 0, 800.0, 0.005},
      {"bulk", 0, 2000.0, kNoDeadline},
  };

  const double duration = smoke ? 0.4 : 2.0;
  const double crash_at = 0.25 * duration;
  const double tail_start = 0.5 * duration;
  const std::vector<FleetTraceArrival> trace =
      MakePoissonTrace(classes, duration, 4242);

  FleetOptions opts;
  opts.max_batch = 8;
  opts.max_queue_delay_seconds = 0.0005;
  opts.max_queue_depth = 64;
  opts.router.seed = 7;
  opts.router.choices = 2;
  opts.class_weights = {2.0, 1.0};
  opts.health.heartbeat_timeout_seconds = 0.02;
  opts.health.down_after_seconds = 0.05;
  opts.health.max_consecutive_misses = 0;
  opts.max_retries = 2;
  opts.retry_backoff_seconds = 0.0005;
  opts.crc_enabled = true;
  opts.tail_window_start_seconds = tail_start;

  auto run = [&](const std::string& name, const FleetOptions& o,
                 const FaultPlan* plan) {
    return Scenario{name, SimulateFleet(candidates, shard_candidates, classes,
                                        {{0.001}}, trace, o, plan)};
  };

  std::vector<Scenario> scenarios;

  // Baseline: no plan, so health detection is disarmed.
  scenarios.push_back(run("baseline", opts, nullptr));

  // Crash: board 0 dies; hedging softens the detection window and the
  // survivors absorb the re-planned traffic.
  FaultPlan crash_plan(4242);
  crash_plan.AddCrash(0, crash_at);
  FleetOptions crash_opts = opts;
  crash_opts.hedge_slack_fraction = 0.25;
  scenarios.push_back(run("crash", crash_opts, &crash_plan));

  // Transients: a 30 ms dispatch stall and a 40 ms 3x slowdown — the
  // health tracker may suspect, but must not declare a board down.
  FaultPlan transient_plan(4242);
  transient_plan.AddStall(1, 0.30 * duration, 0.030);
  transient_plan.AddSlowdown(2, 0.50 * duration, 0.040, 3.0);
  scenarios.push_back(run("transients", opts, &transient_plan));

  // Corruption: 25 results flipped on board 3, with and without the CRC.
  const int kCorrupted = 25;
  FaultPlan corrupt_plan(4242);
  corrupt_plan.AddCorruption(3, 0.30 * duration, kCorrupted);
  scenarios.push_back(run("corruption_crc", opts, &corrupt_plan));
  FleetOptions no_crc = opts;
  no_crc.crc_enabled = false;
  scenarios.push_back(run("corruption_served", no_crc, &corrupt_plan));

  const Scenario& baseline = scenarios[0];
  const Scenario& crash = scenarios[1];
  const Scenario& crc_on = scenarios[3];
  const Scenario& crc_off = scenarios[4];
  const double recovery =
      baseline.sim.tail_goodput_qps > 0
          ? crash.sim.tail_goodput_qps / baseline.sim.tail_goodput_qps
          : 0;

  Emit("{\n");
  Emit("  \"smoke\": %s,\n", smoke ? "true" : "false");
  Emit("  \"fleet\": {\"boards\": %d, \"board_qps\": 1000.0, "
       "\"offered_qps\": 2800.0},\n",
       kBoards);
  Emit("  \"trace_arrivals\": %zu,\n", trace.size());
  Emit("  \"trace_seconds\": %.3f,\n", duration);
  Emit("  \"crash_at_seconds\": %.3f,\n", crash_at);
  Emit("  \"tail_window_start_seconds\": %.3f,\n", tail_start);
  Emit("  \"scenarios\": [\n");
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EmitScenario(scenarios[i], i == 0);
  }
  Emit("\n  ],\n");
  Emit("  \"headline\": {\"name\": \"crash_recovery\", "
       "\"baseline_tail_goodput_qps\": %.1f, "
       "\"crash_tail_goodput_qps\": %.1f, \"recovery_ratio\": %.3f, "
       "\"corrupted_detected_with_crc\": %lld, "
       "\"corrupted_served_with_crc\": %lld, "
       "\"corrupted_served_without_crc\": %lld}\n",
       baseline.sim.tail_goodput_qps, crash.sim.tail_goodput_qps, recovery,
       static_cast<long long>(crc_on.sim.chaos.corrupted_detected),
       static_cast<long long>(crc_on.sim.chaos.corrupted_served),
       static_cast<long long>(crc_off.sim.chaos.corrupted_served));
  Emit("}\n");
  std::fclose(g_json);
  g_json = nullptr;
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());

  std::fprintf(stderr,
               "chaos: recovery %.2fx, %lld/%d corruptions caught\n",
               recovery,
               static_cast<long long>(crc_on.sim.chaos.corrupted_detected),
               kCorrupted);
  return 0;
}
