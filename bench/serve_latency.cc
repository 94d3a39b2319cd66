// Tail latency of the serving front door under open-loop load, in virtual
// time.
//
// A seeded load generator precomputes a Poisson (or bursty, two-state MMPP
// style) arrival schedule and replays it through InferenceServer::ServeTrace
// with 1 or 4 virtual drainers. The server runs in device-paced mode: each
// drainer stands in for one modeled accelerator instance completing items at
// the profiled per-item device latency, so the measurement exercises the
// queueing/batching/shedding front door at realistic request rates instead
// of the host cost of the cycle simulator. Latency is virtual time measured
// from the scheduled arrival, so the report is deterministic: a rerun writes
// the same bytes.
//
// Sweeps (offered load is expressed relative to C1, the modeled single-
// instance capacity 1/device_seconds):
//   * offered QPS {0.5, 1, 2, 3} x C1 for 1 and 4 drainers (Poisson);
//   * batcher settings (max_batch, max_queue_delay) at 2 x C1, 4 drainers;
//   * bursty arrivals at 2 x C1 for 1 and 4 drainers.
// Each cell reports achieved QPS (served requests over the virtual instant
// the last request resolves), p50/p99/p999 latency, mean batch size and
// shed rate. The headline compares 4-drainer vs 1-drainer achieved QPS at
// 3 x C1 (below the 4-drainer saturation point).
//
// InferenceServerTraceTest.FunctionalTraceBitIdenticalToSequential
// (tests/test_server.cc) replays a fixed trace on this deployment and checks
// batch composition and output bits against sequential Runtime execution.
//
// JSON goes to stdout AND a file (default ./BENCH_serve_latency.json,
// override with argv[1]). `--smoke` shortens every cell.
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/prng.h"
#include "dse/search.h"
#include "nn/builders.h"
#include "runtime/engine.h"
#include "runtime/server.h"

using namespace hdnn;

namespace {

std::FILE* g_json = nullptr;

/// printf to stdout and, when open, the JSON artifact file.
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

/// Exponential interarrival with the given rate (inverse CDF; u in (0,1]).
double ExpInterarrival(Prng& prng, double rate) {
  const double u = 1.0 - prng.NextDouble();  // (0, 1]
  return -std::log(u) / rate;
}

/// Seeded arrival schedule over [0, duration): Poisson, or a two-state
/// bursty process (30% of each 100 ms period at 2.5x the mean rate, the
/// rest at the complementary low rate — same mean as `rate`).
std::vector<double> MakeSchedule(const std::string& pattern, double rate,
                                 double duration, std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> arrivals;
  double t = 0;
  if (pattern == "poisson") {
    for (t = ExpInterarrival(prng, rate); t < duration;
         t += ExpInterarrival(prng, rate)) {
      arrivals.push_back(t);
    }
    return arrivals;
  }
  const double period = 0.100, on_frac = 0.30, boost = 2.5;
  const double rate_hi = boost * rate;
  const double rate_lo = rate * (1 - boost * on_frac) / (1 - on_frac);
  // Walk explicit [start, end) state segments and fill each with its own
  // Poisson arrivals. Redrawing at every boundary is exact (the process is
  // memoryless) and immune to fmod() edge cases at segment boundaries.
  for (int k = 0; period * k < duration; ++k) {
    const double starts[2] = {period * k, period * k + on_frac * period};
    const double ends[2] = {starts[1], period * (k + 1)};
    const double rates[2] = {rate_hi, rate_lo};
    for (int s = 0; s < 2; ++s) {
      for (t = starts[s] + ExpInterarrival(prng, rates[s]);
           t < ends[s] && t < duration; t += ExpInterarrival(prng, rates[s])) {
        arrivals.push_back(t);
      }
    }
  }
  return arrivals;
}

double Percentile(const std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const double pos = q * static_cast<double>(sorted_ms.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(std::llround(pos));
  return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

struct CellResult {
  int reqs = 0;
  double achieved_qps = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
  double mean_batch = 0;
  double shed_rate = 0;
};

/// One open-loop replay: a fresh server with `opts` serves the schedule as
/// a trace of one input. Latency is counted from the scheduled arrival.
CellResult RunCell(InferenceEngine& engine, const Model& model,
                   const AccelConfig& cfg,
                   const std::vector<LayerMapping>& mapping,
                   const ModelWeightsQ& weights,
                   const Tensor<std::int16_t>& input,
                   const ServerOptions& opts,
                   const std::vector<double>& schedule,
                   double deadline_seconds) {
  InferenceServer server(engine, opts);
  const ModelHandle h = server.RegisterModel(model, cfg, mapping, weights);

  std::vector<InferenceServer::TraceArrival> trace;
  trace.reserve(schedule.size());
  for (double at : schedule) trace.push_back({at, 0, deadline_seconds});
  const InferenceServer::TraceReport report = server.ServeTrace(
      h, std::span<const Tensor<std::int16_t>>(&input, 1), trace);

  std::vector<double> latencies_ms;
  latencies_ms.reserve(trace.size());
  int ok = 0, shed = 0;
  double end_s = 0;  // virtual instant the last request resolves
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const ItemReport& r = report.items[i];
    end_s = std::max(end_s, trace[i].at_seconds + r.total_seconds);
    if (r.outcome == ServeOutcome::kOk) {
      ++ok;
      latencies_ms.push_back(r.total_seconds * 1e3);
    } else if (r.outcome == ServeOutcome::kRejected ||
               r.outcome == ServeOutcome::kExpired) {
      ++shed;
    }
  }
  int batched_items = 0;
  for (int size : report.batch_sizes) batched_items += size;

  std::sort(latencies_ms.begin(), latencies_ms.end());
  CellResult out;
  out.reqs = static_cast<int>(trace.size());
  out.achieved_qps = end_s > 0 ? ok / end_s : 0;
  out.p50_ms = Percentile(latencies_ms, 0.50);
  out.p99_ms = Percentile(latencies_ms, 0.99);
  out.p999_ms = Percentile(latencies_ms, 0.999);
  out.mean_batch = report.batch_sizes.empty()
                       ? 0
                       : static_cast<double>(batched_items) /
                             static_cast<double>(report.batch_sizes.size());
  out.shed_rate = out.reqs > 0 ? static_cast<double>(shed) / out.reqs : 0;
  return out;
}

void EmitCell(bool& first, const char* pattern, int workers,
              double offered_ratio, double offered_qps,
              const ServerOptions& opts, const CellResult& r) {
  std::fprintf(stderr,
               "cell %s w=%d ratio=%.1f mb=%d: achieved=%.0f p99=%.2fms "
               "shed=%.3f\n",
               pattern, workers, offered_ratio, opts.max_batch, r.achieved_qps,
               r.p99_ms, r.shed_rate);
  Emit("%s    {\"pattern\": \"%s\", \"workers\": %d, "
       "\"offered_ratio\": %.2f, \"offered_qps\": %.1f, "
       "\"max_batch\": %d, \"max_queue_delay_ms\": %.2f, \"reqs\": %d, "
       "\"achieved_qps\": %.1f, \"p50_ms\": %.4f, \"p99_ms\": %.4f, "
       "\"p999_ms\": %.4f, \"mean_batch\": %.2f, \"shed_rate\": %.4f}",
       first ? "" : ",\n", pattern, workers, offered_ratio, offered_qps,
       opts.max_batch, opts.max_queue_delay_seconds * 1e3, r.reqs,
       r.achieved_qps, r.p50_ms, r.p99_ms, r.p999_ms, r.mean_batch,
       r.shed_rate);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve_latency.json";
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

  const FpgaSpec& spec = PynqZ1Spec();
  const Model model = BuildTinyCnn();
  const DseResult dse = DseEngine(spec).Explore(model);
  const ModelWeightsQ weights = SyntheticWeights(model, 7);
  Tensor<std::int16_t> input(Shape{model.input().channels,
                                   model.input().height,
                                   model.input().width});
  {
    Prng prng(1000);
    input.FillRandomInt(prng, -256, 255);
  }

  // C1: modeled single-instance capacity, the unit all offered loads are
  // expressed in. Profiled once through the same path the server uses.
  InferenceEngine engine(spec);
  double device_seconds = 0;
  {
    ServerOptions probe;
    probe.mode = ExecMode::kDevicePaced;
    InferenceServer server(engine, probe);
    const ModelHandle h = server.RegisterModel(model, dse.config, dse.mapping,
                                               weights);
    device_seconds = server.device_seconds_per_item(h);
  }
  const double capacity_qps = 1.0 / device_seconds;
  const double duration = smoke ? 0.12 : 0.60;
  const double deadline_s = 0.020;

  Emit("{\n");
  Emit("  \"model\": \"%s\",\n", model.name().c_str());
  Emit("  \"platform\": \"%s\",\n", spec.name.c_str());
  Emit("  \"config\": \"%s\",\n", dse.config.ToString().c_str());
  Emit("  \"mode\": \"device_paced\",\n");
  Emit("  \"smoke\": %s,\n", smoke ? "true" : "false");
  Emit("  \"device_ms_per_item\": %.4f,\n", device_seconds * 1e3);
  Emit("  \"capacity_qps_1worker\": %.1f,\n", capacity_qps);
  Emit("  \"deadline_ms\": %.1f,\n", deadline_s * 1e3);
  Emit("  \"cells\": [\n");

  bool first = true;
  double achieved_1w_at_3x = 0, achieved_4w_at_3x = 0;

  // --- offered-load sweep: Poisson, default batcher ---
  const double ratios[] = {0.5, 1.0, 2.0, 3.0};
  const int worker_counts[] = {1, 4};
  for (int workers : worker_counts) {
    for (double ratio : ratios) {
      ServerOptions opts;
      opts.num_workers = workers;
      opts.max_batch = 8;
      opts.max_queue_delay_seconds = 0.001;
      opts.max_queue_depth = 64;
      opts.mode = ExecMode::kDevicePaced;
      const double offered = ratio * capacity_qps;
      const auto schedule = MakeSchedule(
          "poisson", offered, duration,
          42 + static_cast<std::uint64_t>(100 * ratio) + workers);
      const CellResult r = RunCell(engine, model, dse.config, dse.mapping,
                                   weights, input, opts, schedule, deadline_s);
      EmitCell(first, "poisson", workers, ratio, offered, opts, r);
      if (ratio == 3.0 && workers == 1) achieved_1w_at_3x = r.achieved_qps;
      if (ratio == 3.0 && workers == 4) achieved_4w_at_3x = r.achieved_qps;
    }
  }

  // --- batcher sweep at 2 x C1, 4 workers ---
  struct BatcherSetting {
    int max_batch;
    double delay_s;
  };
  const BatcherSetting settings[] = {
      {1, 0.0}, {4, 0.0005}, {8, 0.001}, {16, 0.002}};
  for (const BatcherSetting& s : settings) {
    ServerOptions opts;
    opts.num_workers = 4;
    opts.max_batch = s.max_batch;
    opts.max_queue_delay_seconds = s.delay_s;
    opts.max_queue_depth = 64;
    opts.mode = ExecMode::kDevicePaced;
    const double offered = 2.0 * capacity_qps;
    const auto schedule = MakeSchedule("poisson", offered, duration,
                                       7000 + s.max_batch);
    const CellResult r = RunCell(engine, model, dse.config, dse.mapping,
                                 weights, input, opts, schedule, deadline_s);
    EmitCell(first, "poisson", 4, 2.0, offered, opts, r);
  }

  // --- bursty arrivals at 2 x C1 ---
  for (int workers : worker_counts) {
    ServerOptions opts;
    opts.num_workers = workers;
    opts.max_batch = 8;
    opts.max_queue_delay_seconds = 0.001;
    opts.max_queue_depth = 64;
    opts.mode = ExecMode::kDevicePaced;
    const double offered = 2.0 * capacity_qps;
    const auto schedule =
        MakeSchedule("bursty", offered, duration, 5000 + workers);
    const CellResult r = RunCell(engine, model, dse.config, dse.mapping,
                                 weights, input, opts, schedule, deadline_s);
    EmitCell(first, "bursty", workers, 2.0, offered, opts, r);
  }
  Emit("\n  ],\n");

  // --- headline: virtual-time scaling of the front door with drainers ---
  const double scaling = achieved_1w_at_3x > 0
                             ? achieved_4w_at_3x / achieved_1w_at_3x
                             : 0;
  Emit("  \"headline\": {\"offered_ratio\": 3.0, "
       "\"achieved_qps_1w\": %.1f, \"achieved_qps_4w\": %.1f, "
       "\"scaling_4v1\": %.3f}\n",
       achieved_1w_at_3x, achieved_4w_at_3x, scaling);
  Emit("}\n");
  std::fclose(g_json);
  g_json = nullptr;
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}
