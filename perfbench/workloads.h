// The four workload drivers and the helpers they share. Each driver calls
// the library's public API on one thread, checks every output, and returns
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). README.md in this directory says why each workload exists.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "compiler/compiler.h"
#include "dse/search.h"
#include "harness.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"
#include "runtime/runtime.h"
#include "tensor/tensor.h"

namespace perfbench {

/// `tracer` is enabled for the whole of a traced run (the rep loop turns it
/// off for every other rep) and disabled otherwise.
Result RunVgg16Pynq(const RunConfig& cfg, Tracer& tracer);
Result RunResnet18Vu9pServe(const RunConfig& cfg, Tracer& tracer);
Result RunDesignSweep(const RunConfig& cfg, Tracer& tracer);
Result RunFleetChaos(const RunConfig& cfg, Tracer& tracer);

/// DSE options for every workload: one thread, so every timed call runs on
/// the caller's thread.
hdnn::DseOptions SingleThreadDse();

/// Number of times each workload builds its state; setup_s is the median.
inline constexpr int kSetups = 9;

/// Builds a workload's state kSetups times, each time as the first build of
/// a fresh process: kSetups - 1 builds in forked children, then this
/// process's own, which it keeps. Must run before anything else in the
/// process builds state. Returns the median build time in seconds through
/// `setup_s`, so one slow set-up on a drifting host does not set the metric
/// while every first-use cost still counts.
template <class State, class Build>
std::unique_ptr<State> SetUpRepeatedly(const Build& build, double* setup_s) {
  const auto timed = [&](std::unique_ptr<State>& state) {
    const std::int64_t t0 = NowNs();
    state = build();
    return static_cast<double>(NowNs() - t0) / 1e9;
  };
  std::vector<double> seconds = TimeInChildProcesses(kSetups - 1, [&] {
    std::unique_ptr<State> state;
    return timed(state);
  });
  std::unique_ptr<State> state;
  seconds.push_back(timed(state));
  *setup_s = Median(seconds);
  return state;
}

/// Seeded CHW input in the quantised feature domain: input k of a run is
/// drawn from Prng(seed).Fork(k).
hdnn::Tensor<std::int16_t> SeededInput(const hdnn::Model& model,
                                       std::uint64_t seed, std::uint64_t k);

/// Calls the layers inside one functional Execute on their own, kProbes
/// times, interleaved so the parts of one probe see the same host state: a
/// functional Execute on the warm `runtime`, WriteWeightImages into a
/// DramModel of the same size, a timing-only Execute on the warm `runtime`,
/// and a timing-only Execute on a fresh Runtime. Sets runtime.*_ns,
/// compiler.stage_weights_ns, compiler.stage_share (median over probes of
/// staging / functional Execute) and sim.datapath_ns (median of functional
/// - staging - timing-only).
void ProbeExecute(const hdnn::Model& model, const hdnn::CompiledModel& cm,
                  const hdnn::ModelWeightsQ& weights,
                  const hdnn::Tensor<std::int16_t>& input,
                  hdnn::Runtime& runtime, const hdnn::FpgaSpec& spec,
                  Tracer& tracer, LayerValues& layers);

/// Exact simulator counts summed over one rep's executions.
struct SimTotals {
  double cycles = 0;
  double instructions = 0;
  double macs = 0;  ///< model MACs (the work a run stands for, any mode)
  double dram_words = 0;
  double comp_busy = 0, ldi_busy = 0, ldw_busy = 0, save_busy = 0;
  double port_busy = 0;

  void Add(const hdnn::Model& model, const hdnn::SimStats& stats);
  /// Sets sim.cycles ... sim.port_busy_frac.
  void Report(LayerValues& layers) const;
};

/// Eq. 12-15 estimate against the simulator, accumulated over one or more
/// deployments: end-to-end |estimate - simulated| / simulated per model,
/// and per layer against RunReport::layer_cycles (fusion-aware estimates).
struct EstimatorError {
  double e2e_sum_pct = 0;
  int models = 0;
  double layer_sum_pct = 0;
  double layer_worst_pct = 0;
  int layers = 0;

  void Add(const hdnn::Model& model, const hdnn::CompiledModel& cm,
           double estimated_cycles, const hdnn::RunReport& report,
           const hdnn::FpgaSpec& spec);
  double MeanE2ePct() const { return Ratio(e2e_sum_pct, models); }
  /// Sets estimator.layer_err_pct and estimator.worst_layer_err_pct.
  void Report(LayerValues& layers) const;
};

/// DSE and lowering counts summed over one or more deployments; Report sets
/// dse.candidates, dse.frontier_points, dse.memo_hit_frac,
/// compiler.instructions and compiler.fused_edges (fused producer ->
/// consumer hand-offs).
struct DeployCounts {
  double candidates = 0;
  double frontier_points = 0;
  double memo_hits = 0;
  double memo_lookups = 0;
  double instructions = 0;
  double fused_edges = 0;

  void Add(const hdnn::DseFrontier& dse, const hdnn::DseEngine& engine,
           const hdnn::CompiledModel& cm);
  void Report(LayerValues& layers) const;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
