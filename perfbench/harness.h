// Measurement harness shared by the four workload drivers: the rep loop,
// repeated set-up, in-memory spans, the statistics the result line reports,
// and the result line itself.
//
// Two time domains appear in every workload. Modeled quantities (cycles,
// GOPS, estimator error, virtual latency, goodput) are deterministic for a
// given seed and are taken from the library's own reports. Host quantities
// (rep time, set-up time, RSS) are measured here: a run times many short,
// identical reps and reports their median, because the host's speed drifts
// over minutes and a single long call would sample that drift once. Set-up
// is timed in fresh processes and reported as a median too.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Options every workload driver receives from the command line.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;      ///< wall time of the timed rep loop
  bool trace = false;       ///< traced run: spans on, per-layer metrics out
  std::string trace_out;    ///< Chrome trace-event JSON path ("" = none)
};

/// Monotonic host time in nanoseconds.
std::int64_t NowNs();

// ------------------------------------------------------------ statistics ---

double Median(std::vector<double> v);

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Quartiles by the same rule as Python's statistics.quantiles(v, n=4)
/// (the "exclusive" method), so a spread computed here matches one computed
/// from the result lines. Needs at least two samples.
Quartiles QuartilesOf(std::vector<double> v);

/// The highest whole percentile that still has at least `beyond` samples
/// strictly above its rank, by nearest rank, with the sample count it came
/// from. With fewer than beyond + 1 samples no percentile qualifies and the
/// minimum is reported as percentile 0.
struct Tail {
  int percentile = 0;
  double value = 0;
  std::size_t samples = 0;
};
Tail TailPercentile(std::vector<double> v, std::size_t beyond = 10);

/// a / b, or 0 when b is 0 (a layer that did no work reports 0).
double Ratio(double a, double b);

// ----------------------------------------------------------------- spans ---

/// One timed call into a layer. `request` is shared by every span of one
/// unit of work (an inference, a served trace, a design flow, a fleet pass).
struct Span {
  const char* name = "";  ///< a string literal at every call site
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 = top level
  std::int64_t request = -1;
  std::int64_t rep = -1;  ///< timed rep or probe pass; -1 = set-up
};

/// Span recorder for the traced run. Spans are kept in memory and written
/// once the run ends. While disabled, Begin returns -1 after one branch, so
/// untraced reps pay nothing measurable.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Rep (or probe pass) stamped on spans begun from now on; -1 = none.
  void set_rep(std::int64_t rep) { rep_ = rep; }

  int Begin(const char* name, std::int64_t request);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time one rep spends in the layer `name`: each span's duration
  /// minus the part its child spans cover, summed per rep, median over
  /// reps. A layer that only runs outside reps (set-up, probes) reports its
  /// median per call; 0 when no span has that name.
  double SelfNs(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON (viewable in Perfetto).
  /// Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::int64_t rep_ = -1;
  int open_ = -1;  ///< innermost open span
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ------------------------------------------------------------------ reps ---

/// Times `work(index)` back to back until `cfg.seconds` have passed and at
/// least `min_reps` reps ran; `check(index)` verifies each rep's outputs
/// outside the timed interval. In a traced run the tracer alternates off/on
/// between neighbouring reps, so trace overhead compares reps that saw the
/// same host drift.
struct RepTimes {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;       ///< empty outside traced runs
  std::vector<double> minor_faults;   ///< per rep, all reps
  std::vector<double> all_s;          ///< every rep in run order
};
RepTimes MeasureReps(const RunConfig& cfg, Tracer& tracer, int min_reps,
                     const std::function<void(std::int64_t)>& work,
                     const std::function<void(std::int64_t)>& check);

/// work_per_s: units of work in one rep divided by the median untraced rep.
double WorkPerSecond(double units, const RepTimes& reps);

// ---------------------------------------------------------------- set-up ---

/// Runs `timed_build` in `n` child processes forked one after another, and
/// returns the seconds each reported, in order. Call it before this process
/// has built any workload state or started a thread: every child then
/// starts as a fresh run does, with no warm allocator, no faulted-in pages
/// and no process-wide cache, so first-use costs land in every sample.
/// Throws std::runtime_error if a child fails.
std::vector<double> TimeInChildProcesses(
    int n, const std::function<double()>& timed_build);

// ---------------------------------------------------------------- result ---

/// Metric names are [A-Za-z0-9_.-]+ (at most 64 characters, starting with
/// a letter or digit); units are non-empty [A-Za-z0-9_/%.-]+ (at most 16).
bool ValidMetricName(const std::string& name);
bool ValidUnit(const std::string& unit);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The benchmark's last output line. `attempted` counts units of work in
/// the timed reps; `failed` counts those whose result was wrong or threw.
/// Requests shed by design (admission control, expiry, injected faults) are
/// not program failures: goodput_frac reports them.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit);
  /// Throws std::invalid_argument on an invalid or repeated name, an
  /// invalid unit, or a non-finite value.
  std::string ToJson() const;
};

/// Per-layer values a traced run measured, by metric name. A layer the
/// workload never calls is absent and reported as 0: it does no work there.
using LayerValues = std::map<std::string, double>;

/// Every per-layer metric name with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalog();

/// Adds every catalog metric to `result`, taking values from `layers`
/// (absent ones as 0). Throws std::logic_error if `layers` names a metric
/// the catalog lacks, so a typo cannot drop a measurement silently.
void AddPerLayer(const LayerValues& layers, Result& result);

/// Fills the bench.* metrics and mem.minor_faults (median per rep) from a
/// traced run's reps: the rep count, the median rep, the tail percentile,
/// the spread of rep times ((q3 - q1) / median) and the trace overhead.
void SetBenchMetrics(const RepTimes& reps, LayerValues& layers);

// ------------------------------------------------------- process counters ---

/// getrusage max RSS of this process, MiB.
double PeakRssMiB();
/// getrusage minor page faults of this process so far.
std::int64_t MinorFaults();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
