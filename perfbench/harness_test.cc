// Tests of the benchmark's own statistics and result line. Built by
// CMakeLists.txt in this directory; run with ctest in the build directory.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

using namespace perfbench;

void TestMedianAndQuartiles() {
  Check(Median({}) == 0, "median of nothing is 0");
  Check(Median({3, 1, 2}) == 2, "odd median");
  Check(Median({4, 1, 3, 2}) == 2.5, "even median averages the middle pair");
  // Reference values from Python's statistics.quantiles(v, n=4).
  const struct {
    std::vector<double> v;
    double q1, q2, q3;
  } cases[] = {
      {{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
      {{4, 3, 2, 1}, 1.25, 2.5, 3.75},
      {{5, 1}, 0.0, 3.0, 6.0},
      {{3, 1, 2}, 1.0, 2.0, 3.0},
      {{0.31, 0.35, 0.33, 0.40, 0.29, 0.36, 0.34}, 0.31, 0.34, 0.36},
  };
  for (const auto& c : cases) {
    const Quartiles q = QuartilesOf(c.v);
    Check(Near(q.q1, c.q1) && Near(q.median, c.q2) && Near(q.q3, c.q3),
          "quartiles match statistics.quantiles for a " +
              std::to_string(c.v.size()) + "-sample case");
    Check(Near(q.median, Median(c.v)), "quartile median equals Median");
  }
}

void TestTailPercentile() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  Tail t = TailPercentile(hundred);
  Check(t.percentile == 90 && t.value == 90 && t.samples == 100,
        "100 samples: p90 = 90 with 10 samples beyond");

  std::vector<double> v43;
  for (int i = 43; i >= 1; --i) v43.push_back(i);  // order must not matter
  t = TailPercentile(v43);
  // p = floor(100 * 33 / 43) = 76; rank ceil(76 * 43 / 100) = 33.
  Check(t.percentile == 76 && t.value == 33 && t.samples == 43,
        "43 samples: p76, the 33rd value, 10 beyond");
  Check(43 - static_cast<int>(t.value) >= 10, "at least 10 samples beyond");

  t = TailPercentile({5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
  Check(t.percentile == 9 && t.value == 5 && t.samples == 11,
        "11 samples: only the minimum has 10 beyond it");

  t = TailPercentile({2, 1, 3});
  Check(t.percentile == 0 && t.value == 1 && t.samples == 3,
        "too few samples: percentile 0, the minimum");

  // Every sample count keeps >= 10 samples strictly beyond the rank.
  for (int n = 11; n <= 500; ++n) {
    std::vector<double> v;
    for (int i = 1; i <= n; ++i) v.push_back(i);
    const Tail tail = TailPercentile(v);
    Check(n - static_cast<int>(tail.value) >= 10,
          "n=" + std::to_string(n) + " keeps 10 beyond");
    // One percent higher would leave fewer than 10 beyond (or pass 100).
    const int next = tail.percentile + 1;
    const int next_rank = (next * n + 99) / 100;
    Check(next > 100 || n - next_rank < 10,
          "n=" + std::to_string(n) + " reports the highest such percentile");
  }
}

void TestTimeInChildProcesses() {
  int calls = 0;
  const std::vector<double> s = TimeInChildProcesses(3, [&] {
    ++calls;  // in the child's copy of memory
    return 0.25 + calls;
  });
  Check(s.size() == 3 && s[0] == 1.25 && s[1] == 1.25 && s[2] == 1.25,
        "every child starts from this process's state");
  Check(calls == 0, "the builds run in the children, not here");
  bool caught = false;
  try {
    TimeInChildProcesses(1, []() -> double {
      throw std::runtime_error("no model");
    });
  } catch (const std::runtime_error&) {
    caught = true;
  }
  Check(caught, "a failed build in a child is reported");
}

void TestNamesAndResult() {
  Check(ValidMetricName("sim.host_ns_per_mac"), "dotted name is valid");
  Check(ValidMetricName("work_per_s"), "plain name is valid");
  Check(!ValidMetricName(""), "empty name is invalid");
  Check(!ValidMetricName(".hidden"), "name must start with a letter or digit");
  Check(!ValidMetricName("a b"), "space is invalid");
  Check(!ValidMetricName("p99/ms"), "slash is invalid in a name");
  Check(!ValidMetricName(std::string(65, 'a')), "65 characters is too long");
  Check(ValidUnit("ns/MAC") && ValidUnit("%") && ValidUnit("1/s"),
        "units with / and % are valid");
  Check(!ValidUnit("") && !ValidUnit("per second"), "empty or spaced unit");

  for (const auto& [name, unit] : PerLayerCatalog()) {
    Check(ValidMetricName(name), "catalog name " + name);
    Check(ValidUnit(unit), "catalog unit for " + name);
  }

  Result r;
  r.attempted = 3;
  r.Add("latency_ms", 1.25, "ms");
  r.Add("count", 7, "count");
  Check(r.ToJson() ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"count\": {\"value\": 7, \"unit\": \"count\"}}}",
        "result line format");

  LayerValues layers{{"bench.reps", 12}};
  Result per_layer;
  AddPerLayer(layers, per_layer);
  Check(per_layer.metrics.size() == PerLayerCatalog().size(),
        "every catalog metric is reported");
  per_layer.ToJson();  // names unique and valid: must not throw

  const auto throws = [](Result bad) {
    try {
      bad.ToJson();
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  Result dup;
  dup.Add("x", 1, "s");
  dup.Add("x", 2, "s");
  Check(throws(dup), "repeated name is rejected");
  Result nan;
  nan.Add("x", std::nan(""), "s");
  Check(throws(nan), "non-finite value is rejected");
  Result unitless;
  unitless.Add("x", 1, "");
  Check(throws(unitless), "missing unit is rejected");
  bool caught = false;
  try {
    Result sink;
    AddPerLayer({{"no.such_metric", 1}}, sink);
  } catch (const std::logic_error&) {
    caught = true;
  }
  Check(caught, "a per-layer value outside the catalog is rejected");
}

void TestTracerSelfTime() {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_rep(0);
  const int outer = tracer.Begin("outer", 1);
  const int inner = tracer.Begin("inner", 1);
  tracer.End(inner);
  tracer.End(outer);
  tracer.set_rep(-1);
  const std::vector<Span>& spans = tracer.spans();
  Check(spans.size() == 2 && spans[1].parent == 0 && spans[0].parent == -1,
        "nested spans record their parent");
  const double inner_ns =
      static_cast<double>(spans[1].end_ns - spans[1].start_ns);
  const double outer_ns =
      static_cast<double>(spans[0].end_ns - spans[0].start_ns);
  Check(tracer.SelfNs("inner") == inner_ns, "a leaf's self time is its span");
  Check(tracer.SelfNs("outer") == outer_ns - inner_ns,
        "self time excludes the child span");
  Check(tracer.SelfNs("absent") == 0, "a layer without spans reads 0");
  tracer.set_enabled(false);
  Check(tracer.Begin("off", 2) == -1 && tracer.spans().size() == 2,
        "a disabled tracer records nothing");
}

}  // namespace

int main() {
  TestMedianAndQuartiles();
  TestTailPercentile();
  TestTimeInChildProcesses();
  TestNamesAndResult();
  TestTracerSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("harness_test: all checks passed\n");
  return 0;
}
