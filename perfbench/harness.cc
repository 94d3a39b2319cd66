#include "harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Quartiles QuartilesOf(std::vector<double> v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  // statistics.quantiles(data, n=4, method="exclusive"), transcribed.
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    const double lo = v[static_cast<std::size_t>(j - 1)];
    const double hi = v[static_cast<std::size_t>(j)];
    q[i - 1] = (lo * static_cast<double>(4 - delta) +
                hi * static_cast<double>(delta)) / 4;
  }
  return {q[0], q[1], q[2]};
}

Tail TailPercentile(std::vector<double> v, std::size_t beyond) {
  Tail tail;
  tail.samples = v.size();
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < beyond + 1) {
    tail.value = v.front();
    return tail;
  }
  // Highest p with rank(p) = ceil(p * n / 100) <= n - beyond.
  const std::size_t p = 100 * (n - beyond) / n;
  const std::size_t rank = std::max<std::size_t>(1, (p * n + 99) / 100);
  tail.percentile = static_cast<int>(p);
  tail.value = v[rank - 1];
  return tail;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// ----------------------------------------------------------------- spans ---

int Tracer::Begin(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  spans_.push_back({name, NowNs(), 0, open_, request, rep_});
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Tracer::End(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = NowNs();
  open_ = span.parent;
}

double Tracer::SelfNs(const std::string& name) const {
  // Spans are recorded on one thread and strictly nested, so the children
  // of a span never overlap and their summed durations are the covered part.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::int64_t, double> per_rep;
  std::vector<double> per_call;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    const auto ns = static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    if (s.rep >= 0) {
      per_rep[s.rep] += ns;
    } else {
      per_call.push_back(ns);
    }
  }
  if (per_rep.empty()) return Median(std::move(per_call));
  std::vector<double> reps;
  for (const auto& [rep, ns] : per_rep) reps.push_back(ns);
  return Median(std::move(reps));
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"request\": %lld, "
                 "\"rep\": %lld, \"parent\": %d}}",
                 i == 0 ? "" : ",\n", s.name,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.rep), s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------------------------ reps ---

RepTimes MeasureReps(const RunConfig& cfg, Tracer& tracer, int min_reps,
                     const std::function<void(std::int64_t)>& work,
                     const std::function<void(std::int64_t)>& check) {
  RepTimes out;
  const auto budget_ns = static_cast<std::int64_t>(cfg.seconds * 1e9);
  const std::int64_t start = NowNs();
  for (std::int64_t i = 0;; ++i) {
    if (i >= min_reps && NowNs() - start >= budget_ns) break;
    const bool traced = cfg.trace && i % 2 == 1;
    tracer.set_enabled(traced);
    tracer.set_rep(i);
    const std::int64_t faults = MinorFaults();
    const std::int64_t t0 = NowNs();
    work(i);
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    out.minor_faults.push_back(static_cast<double>(MinorFaults() - faults));
    out.all_s.push_back(s);
    (traced ? out.traced_s : out.untraced_s).push_back(s);
    tracer.set_enabled(false);
    check(i);
  }
  tracer.set_enabled(cfg.trace);
  tracer.set_rep(-1);
  return out;
}

double WorkPerSecond(double units, const RepTimes& reps) {
  return units / Median(reps.untraced_s);
}

// ---------------------------------------------------------------- set-up ---

std::vector<double> TimeInChildProcesses(
    int n, const std::function<double()>& timed_build) {
  std::vector<double> seconds;
  for (int i = 0; i < n; ++i) {
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
    // Buffered output would otherwise be written by both processes.
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      close(fds[0]);
      int code = 0;
      double s = 0;
      try {
        s = timed_build();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "set-up failed: %s\n", e.what());
        code = 1;
      }
      if (write(fds[1], &s, sizeof s) != sizeof s) code = 1;
      _exit(code);
    }
    close(fds[1]);
    double s = 0;
    const ssize_t got = read(fds[0], &s, sizeof s);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (got != sizeof s || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("set-up failed in a child process");
    }
    seconds.push_back(s);
  }
  return seconds;
}

// ---------------------------------------------------------------- result ---

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

void Result::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics.push_back({name, value, unit});
}

std::string Result::ToJson() const {
  std::set<std::string> seen;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!ValidMetricName(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("bad or repeated metric name: " + m.name);
    }
    if (!ValidUnit(m.unit)) {
      throw std::invalid_argument("bad unit for " + m.name + ": " + m.unit);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite value for " + m.name);
    }
    // Shortest round-trip form: every digit the double carries, no more.
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), m.value);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
           std::string(buf, r.ptr) + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kCatalog = {
      {"runtime.execute_ns", "ns"},
      {"runtime.execute_timing_ns", "ns"},
      {"runtime.first_execute_ns", "ns"},
      {"compiler.stage_weights_ns", "ns"},
      {"compiler.stage_share", "ratio"},
      {"sim.datapath_ns", "ns"},
      {"sim.host_ns_per_mac", "ns/MAC"},
      {"sim.host_ns_per_instr", "ns/instr"},
      {"sim.cycles", "cycles"},
      {"sim.instructions", "count"},
      {"sim.macs", "MACs"},
      {"sim.dram_words", "words"},
      {"sim.comp_busy_frac", "ratio"},
      {"sim.ldi_busy_frac", "ratio"},
      {"sim.ldw_busy_frac", "ratio"},
      {"sim.save_busy_frac", "ratio"},
      {"sim.port_busy_frac", "ratio"},
      {"mem.minor_faults", "count"},
      {"mem.dram_image_mwords", "Mword"},
      {"estimator.layer_err_pct", "%"},
      {"estimator.worst_layer_err_pct", "%"},
      {"dse.explore_ns", "ns"},
      {"dse.candidates", "count"},
      {"dse.frontier_points", "count"},
      {"dse.memo_hit_frac", "ratio"},
      {"compiler.compile_ns", "ns"},
      {"compiler.instructions", "count"},
      {"compiler.fused_edges", "count"},
      {"frontend.parse_ns", "ns"},
      {"server.serve_trace_ns", "ns"},
      {"server.self_ns_per_request", "ns/request"},
      {"server.batches", "count"},
      {"server.mean_batch", "requests"},
      {"server.shed_frac", "ratio"},
      {"server.expired_frac", "ratio"},
      {"server.p99_virtual_ms", "ms"},
      {"engine.cache_hit_frac", "ratio"},
      {"fleet.plan_ns", "ns"},
      {"fleet.legacy_ns_per_event", "ns/event"},
      {"fleet.chaos_ns_per_event", "ns/event"},
      {"fleet.events", "count"},
      {"fleet.hedges", "count"},
      {"fleet.hedge_useful_frac", "ratio"},
      {"fleet.retries", "count"},
      {"fleet.replans", "count"},
      {"fleet.shards_down", "count"},
      {"fleet.health_transitions", "count"},
      {"fleet.interactive_p99_ms", "ms"},
      {"fleet.bulk_p99_ms", "ms"},
      {"fleet.capacity_err_pct", "%"},
      {"quant.golden_ns", "ns"},
      {"bench.reps", "count"},
      {"bench.rep_median_ms", "ms"},
      {"bench.rep_tail_ms", "ms"},
      {"bench.rep_tail_pctile", "percentile"},
      {"bench.rep_spread_pct", "%"},
      {"bench.trace_overhead_pct", "%"},
  };
  return kCatalog;
}

void AddPerLayer(const LayerValues& layers, Result& result) {
  std::set<std::string> known;
  for (const auto& [name, unit] : PerLayerCatalog()) {
    known.insert(name);
    const auto it = layers.find(name);
    result.Add(name, it == layers.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : layers) {
    if (known.count(name) == 0) {
      throw std::logic_error("per-layer metric missing from the catalog: " +
                             name);
    }
  }
}

void SetBenchMetrics(const RepTimes& reps, LayerValues& layers) {
  const Tail tail = TailPercentile(reps.all_s);
  layers["bench.reps"] = static_cast<double>(tail.samples);
  layers["bench.rep_median_ms"] = Median(reps.all_s) * 1e3;
  layers["bench.rep_tail_ms"] = tail.value * 1e3;
  layers["bench.rep_tail_pctile"] = tail.percentile;
  const Quartiles q = QuartilesOf(reps.all_s);
  layers["bench.rep_spread_pct"] = 100 * Ratio(q.q3 - q.q1, q.median);
  const double untraced = Median(reps.untraced_s);
  layers["bench.trace_overhead_pct"] =
      100 * Ratio(Median(reps.traced_s) - untraced, untraced);
  layers["mem.minor_faults"] = Median(reps.minor_faults);
}

// ------------------------------------------------------- process counters ---

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

}  // namespace perfbench
