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
//   * empty_plan  — an empty FaultPlan, health detection armed, which must
//                   be bit-identical to baseline;
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
// Checks (non-zero exit on failure):
//   * determinism — every scenario is bit-identical across two reruns
//     (decision vector, every counter), the FaultPlan schedule digest is
//     stable, and empty_plan == baseline byte-for-byte;
//   * integrity  — with CRC on, corrupted_served == 0 and every injected
//     corruption is detected; with CRC off, every one is served;
//   * recovery   — tail-window goodput after the crash re-plan reaches
//     >= 0.8x the no-fault baseline's tail goodput;
//   * end-to-end — a TinyCnn functional run with a DRAM fault armed inside
//     the collection window throws IntegrityError and a retry reproduces
//     the golden output bit-exactly.
//
// JSON goes to stdout AND a file (default ./BENCH_fleet_chaos.json,
// override with argv[1]). `--smoke` shortens the trace for CI.
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/fault.h"
#include "compiler/compiler.h"
#include "compiler/weight_pack.h"
#include "fleet/fleet.h"
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

/// Full bit-identity over everything a replay must pin: the decision
/// vector, every per-class and per-shard counter, and the chaos counters.
bool SameResult(const FleetSimResult& a, const FleetSimResult& b) {
  if (a.decisions != b.decisions) return false;
  if (a.horizon_seconds != b.horizon_seconds) return false;
  if (a.total_ok_qps != b.total_ok_qps) return false;
  if (a.energy_joules != b.energy_joules) return false;
  if (a.goodput_qps != b.goodput_qps) return false;
  if (a.tail_goodput_qps != b.tail_goodput_qps) return false;
  if (a.classes.size() != b.classes.size()) return false;
  for (std::size_t c = 0; c < a.classes.size(); ++c) {
    const FleetClassStats& x = a.classes[c];
    const FleetClassStats& y = b.classes[c];
    if (x.submitted != y.submitted || x.ok != y.ok ||
        x.rejected != y.rejected || x.expired != y.expired ||
        x.unroutable != y.unroutable || x.failed != y.failed ||
        x.ok_tail != y.ok_tail || x.p50_ms != y.p50_ms ||
        x.p99_ms != y.p99_ms) {
      return false;
    }
  }
  if (a.shards.size() != b.shards.size()) return false;
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    const FleetShardStats& x = a.shards[s];
    const FleetShardStats& y = b.shards[s];
    if (x.items != y.items || x.batches != y.batches ||
        x.busy_seconds != y.busy_seconds ||
        x.energy_joules != y.energy_joules) {
      return false;
    }
  }
  const FleetChaosStats& x = a.chaos;
  const FleetChaosStats& y = b.chaos;
  return x.hedges == y.hedges && x.hedge_wasted == y.hedge_wasted &&
         x.retries == y.retries &&
         x.corrupted_detected == y.corrupted_detected &&
         x.corrupted_served == y.corrupted_served &&
         x.degraded_shed == y.degraded_shed && x.replans == y.replans &&
         x.shards_down == y.shards_down &&
         x.health_transitions == y.health_transitions &&
         x.first_down_seconds == y.first_down_seconds;
}

struct Scenario {
  std::string name;
  FleetSimResult sim;
  bool replay_identical = false;
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
       "\"health_transitions\": %d, \"first_down_seconds\": %.4f, "
       "\"replay_identical\": %s}",
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
       r.chaos.first_down_seconds, s.replay_identical ? "true" : "false");
}

/// End-to-end integrity demo: a DRAM word flip inside the collection
/// integrity window of a functional TinyCnn run must throw
/// IntegrityError, and a retry must reproduce the golden output.
struct IntegrityDemo {
  bool detected = false;
  bool retry_matches_golden = false;
};

IntegrityDemo RunIntegrityDemo() {
  IntegrityDemo demo;
  const Model model = BuildTinyCnn();
  const AccelConfig cfg;  // pi4 po4 pt4 defaults
  const FpgaSpec& spec = PynqZ1Spec();
  const std::vector<LayerMapping> mapping(
      static_cast<std::size_t>(model.num_layers()),
      LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
  const ModelWeightsQ weights = SyntheticWeights(model, 7);
  const Compiler compiler(cfg, spec);
  const CompiledModel cm = compiler.Compile(model, mapping);
  Prng prng(11);
  const FmapShape in = model.InputOf(0);
  Tensor<std::int16_t> input(Shape{in.channels, in.height, in.width});
  input.FillRandomInt(prng, -128, 127);

  Runtime rt(cfg, spec);
  rt.set_integrity_check(true);
  const RunReport golden = rt.Execute(model, cm, weights, input);
  const std::int64_t total =
      rt.dram()->words_read() + rt.dram()->words_written();
  // Fires on collection's first read-back, inside the at-rest window
  // between the SAVE tag and the collection re-check (see
  // tests/test_fault.cc for the derivation).
  const std::int64_t threshold = total - golden.output.elements() + 1;
  rt.dram()->ArmFault({threshold,
                       cm.output_region(model.num_layers() - 1), 0x0001});
  try {
    rt.Execute(model, cm, weights, input);
  } catch (const IntegrityError&) {
    demo.detected = true;
  }
  const RunReport retry = rt.Execute(model, cm, weights, input);
  demo.retry_matches_golden = retry.output == golden.output &&
                              retry.output_crc32 == golden.output_crc32;
  return demo;
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
    Scenario s;
    s.name = name;
    s.sim = SimulateFleet(candidates, shard_candidates, classes,
                          {{0.001}}, trace, o, plan);
    const FleetSimResult rerun = SimulateFleet(
        candidates, shard_candidates, classes, {{0.001}}, trace, o, plan);
    s.replay_identical = SameResult(s.sim, rerun);
    return s;
  };

  std::vector<Scenario> scenarios;

  // Baseline (health disarmed) and the empty plan (health armed).
  scenarios.push_back(run("baseline", opts, nullptr));
  const FaultPlan empty_plan(4242);
  scenarios.push_back(run("empty_plan", opts, &empty_plan));
  const bool empty_equals_legacy =
      SameResult(scenarios[0].sim, scenarios[1].sim);

  // Crash: board 0 dies; hedging softens the detection window and the
  // survivors absorb the re-planned traffic.
  FaultPlan crash_plan(4242);
  crash_plan.AddCrash(0, crash_at);
  FleetOptions crash_opts = opts;
  crash_opts.hedge_slack_fraction = 0.25;
  scenarios.push_back(run("crash", crash_opts, &crash_plan));
  const bool schedule_digest_stable = [&] {
    FaultPlan again(4242);
    again.AddCrash(0, crash_at);
    return again.ScheduleDigest() == crash_plan.ScheduleDigest() &&
           again.SerializeSchedule() == crash_plan.SerializeSchedule();
  }();

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

  const IntegrityDemo demo = RunIntegrityDemo();

  const Scenario& baseline = scenarios[0];
  const Scenario& crash = scenarios[2];
  const Scenario& transients = scenarios[3];
  const Scenario& crc_on = scenarios[4];
  const Scenario& crc_off = scenarios[5];
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
  Emit("  \"determinism\": {\"schedule_digest_stable\": %s, "
       "\"empty_plan_equals_legacy\": %s},\n",
       schedule_digest_stable ? "true" : "false",
       empty_equals_legacy ? "true" : "false");
  Emit("  \"integrity_demo\": {\"detected\": %s, "
       "\"retry_matches_golden\": %s},\n",
       demo.detected ? "true" : "false",
       demo.retry_matches_golden ? "true" : "false");
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

  int rc = 0;
  for (const Scenario& s : scenarios) {
    if (!s.replay_identical) {
      std::fprintf(stderr, "FAIL: scenario %s not bit-identical on rerun\n",
                   s.name.c_str());
      rc = 2;
    }
    const std::int64_t submitted =
        TotalOf(s.sim, &FleetClassStats::submitted);
    const std::int64_t settled = TotalOf(s.sim, &FleetClassStats::ok) +
                                 TotalOf(s.sim, &FleetClassStats::rejected) +
                                 TotalOf(s.sim, &FleetClassStats::expired) +
                                 TotalOf(s.sim, &FleetClassStats::unroutable) +
                                 TotalOf(s.sim, &FleetClassStats::failed);
    if (submitted != settled) {
      std::fprintf(stderr,
                   "FAIL: scenario %s leaks requests (%lld submitted, "
                   "%lld settled)\n",
                   s.name.c_str(), static_cast<long long>(submitted),
                   static_cast<long long>(settled));
      rc = 2;
    }
  }
  if (!schedule_digest_stable || !empty_equals_legacy) {
    std::fprintf(stderr,
                 "FAIL: determinism (digest_stable=%d empty==legacy=%d)\n",
                 schedule_digest_stable, empty_equals_legacy);
    rc = 2;
  }
  if (crash.sim.chaos.shards_down != 1 || crash.sim.chaos.replans != 1 ||
      crash.sim.chaos.first_down_seconds < crash_at) {
    std::fprintf(stderr,
                 "FAIL: crash not detected/replanned (down=%d replans=%d "
                 "first_down=%.4f)\n",
                 crash.sim.chaos.shards_down, crash.sim.chaos.replans,
                 crash.sim.chaos.first_down_seconds);
    rc = 3;
  }
  if (recovery < 0.8) {
    std::fprintf(stderr, "FAIL: tail goodput recovery %.3f < 0.8\n",
                 recovery);
    rc = 3;
  }
  if (transients.sim.chaos.shards_down != 0 ||
      transients.sim.chaos.replans != 0) {
    std::fprintf(stderr,
                 "FAIL: transient faults must not take a board down "
                 "(down=%d replans=%d)\n",
                 transients.sim.chaos.shards_down,
                 transients.sim.chaos.replans);
    rc = 3;
  }
  if (crc_on.sim.chaos.corrupted_served != 0 ||
      crc_on.sim.chaos.corrupted_detected != kCorrupted) {
    std::fprintf(stderr,
                 "FAIL: CRC must catch all %d corruptions (detected=%lld "
                 "served=%lld)\n",
                 kCorrupted,
                 static_cast<long long>(crc_on.sim.chaos.corrupted_detected),
                 static_cast<long long>(crc_on.sim.chaos.corrupted_served));
    rc = 4;
  }
  if (crc_off.sim.chaos.corrupted_served != kCorrupted ||
      crc_off.sim.goodput_qps >= crc_off.sim.total_ok_qps) {
    std::fprintf(stderr,
                 "FAIL: without CRC all %d corruptions are served and must "
                 "dent goodput (served=%lld)\n",
                 kCorrupted,
                 static_cast<long long>(crc_off.sim.chaos.corrupted_served));
    rc = 4;
  }
  if (!demo.detected || !demo.retry_matches_golden) {
    std::fprintf(stderr,
                 "FAIL: integrity demo (detected=%d retry_golden=%d)\n",
                 demo.detected, demo.retry_matches_golden);
    rc = 5;
  }
  if (rc == 0) {
    std::fprintf(stderr,
                 "chaos: recovery %.2fx, %lld/%d corruptions caught, all "
                 "scenarios replay bit-identically\n",
                 recovery,
                 static_cast<long long>(crc_on.sim.chaos.corrupted_detected),
                 kCorrupted);
  }
  return rc;
}
