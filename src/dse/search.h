// Design Space Exploration engine (paper Sec. 5.3, Table 2).
//
// The optimisation problem:
//   HW parameters: PI, PO, PT, NI (+ buffer geometry)
//   SW parameters: per-layer CONV mode and dataflow
//   Constraints:   PI >= PO >= 1, PT in {4,6}, resource models under the
//                  platform limits (incl. per-die packing), mode/dataflow
//                  legality (stride, channel blocking, kernel slices)
//   Objective:     sum_l T_l / NI   (per-image latency divided by instance
//                  count == steady-state throughput; NI instances process
//                  independent inputs, as in the paper's 6-instance VU9P
//                  design)
//
// The 3-step algorithm: (1) enumerate HW candidates by growing PI, PO and NI
// under the resource constraints for each PT; (2) for each candidate select
// per-layer mode/dataflow with the Eq. 12-15 latency model; (3) pick the
// globally best. Within a small objective window, ties break toward
// balanced (PI == PO) and more-replicated designs, which is what multi-die
// timing closure favours (paper Sec. 1 and Sec. 6.1).
//
// All three steps run serially on the caller's thread, evaluating the
// candidates in enumeration order. Beyond the paper, the engine is built for
// portfolio-scale sweeps:
//   * per-(layer geometry, mode, config) latency queries are memoized in a
//     cache that persists across Explore calls on one engine — sweeps over
//     model families stop recomputing identical layers;
//   * ExploreFrontier returns the full Pareto frontier over {throughput
//     objective, LUT/DSP/BRAM utilization, estimated power}, with Explore
//     kept as the thin best-point wrapper the rest of the repo consumes.
//
// A DseEngine is single-threaded: its memo cache is unsynchronized, so one
// engine must not be used from two threads at once.
#ifndef HDNN_DSE_SEARCH_H_
#define HDNN_DSE_SEARCH_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "estimator/latency_cache.h"
#include "estimator/latency_model.h"
#include "estimator/resource_model.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"

namespace hdnn {

struct DseOptions {
  bool allow_winograd = true;  ///< false = Spatial-only baseline accelerator
  /// Must be 1 (Validate throws otherwise): every step runs on the
  /// caller's thread. The field remains for callers that still set it.
  int num_threads = 1;
  /// Consult / fill the engine's latency memo cache. Off recomputes
  /// every query (the pre-memoization behaviour); results are identical.
  bool use_memo = true;
  /// Score fused segments (compiler/fusion.h): after the per-layer mode /
  /// dataflow selection, each maximal fusable chain is re-scored with its
  /// interior DRAM round-trips replaced by on-chip hand-offs (dataflow
  /// re-picked per layer, mode kept) and adopted when it wins. Off keeps
  /// every mapping unfused (the pre-fusion behaviour).
  bool fuse_segments = true;

  /// Throws InvalidArgument (via HDNN_CHECK) on out-of-range fields.
  void Validate() const;
};

/// One non-dominated design point of the multi-objective search. All
/// objective axes are minimized: per-image cycles per instance, the three
/// implementation-model resource utilisation fractions, and estimated power.
struct ParetoPoint {
  AccelConfig config;
  std::vector<LayerMapping> mapping;
  double estimated_cycles = 0;  ///< sum of per-layer Eq. 12-15 latencies
  double objective = 0;         ///< estimated_cycles / NI
  ResourceEstimate analytical;      ///< Eq. 3-5
  ResourceEstimate implementation;  ///< bottom-up model
  double lut_utilization = 0;   ///< implementation LUTs / device LUTs
  double dsp_utilization = 0;
  double bram_utilization = 0;
  double power_watts = 0;  ///< platform/power_model on implementation usage
  /// Serving-plane annotations (derived, not dominance axes): sustained
  /// whole-board throughput freq / objective — the NI instances pipelining
  /// independent images — and its power efficiency. The fleet portfolio
  /// planner (src/fleet/portfolio.h) consumes these.
  double qps = 0;
  double qps_per_watt = 0;
};

struct DseResult {
  AccelConfig config;
  std::vector<LayerMapping> mapping;
  double estimated_cycles = 0;       ///< sum of per-layer Eq. 12-15 latencies
  double objective = 0;              ///< estimated_cycles / NI
  ResourceEstimate analytical;       ///< Eq. 3-5
  ResourceEstimate implementation;   ///< bottom-up model
  double power_watts = 0;            ///< estimated power of the chosen design
  int candidates_evaluated = 0;
};

/// The full multi-objective answer: every Pareto-optimal design plus the
/// single-objective winner the legacy tie-break selects.
struct DseFrontier {
  /// Non-dominated points, sorted by ascending objective (then PT, PI, PO,
  /// NI for deterministic total order).
  std::vector<ParetoPoint> points;
  /// The legacy best-throughput point (identical to Explore()).
  DseResult best;
  int candidates_evaluated = 0;
};

/// True iff `a` Pareto-dominates `b`: no worse on every minimized axis
/// (objective, LUT/DSP/BRAM utilization, power) and strictly better on at
/// least one.
bool Dominates(const ParetoPoint& a, const ParetoPoint& b);

class DseEngine {
 public:
  /// Enumerates the spec's HW candidates (step 1) once, with the default
  /// profile constants.
  explicit DseEngine(const FpgaSpec& spec);

  /// Step 1: HW candidates satisfying the resource constraints.
  std::vector<AccelConfig> EnumerateCandidates() const;

  /// Step 2: best per-layer mapping for a fixed config; returns the summed
  /// latency (cycles). Layers that cannot be scheduled at all raise
  /// CapacityError.
  std::vector<LayerMapping> BestMapping(const Model& model,
                                        const AccelConfig& cfg,
                                        const DseOptions& opts,
                                        double* total_cycles) const;

  /// Steps 1-3 together; the single best-throughput point. Shares the
  /// evaluation and tie-break with ExploreFrontier but skips frontier
  /// construction.
  DseResult Explore(const Model& model, const DseOptions& opts = {}) const;

  /// Steps 1-3 with the full multi-objective answer.
  DseFrontier ExploreFrontier(const Model& model,
                              const DseOptions& opts = {}) const;

  const FpgaSpec& spec() const { return spec_; }

  /// Memo-cache observability (hits/misses since construction).
  LatencyMemoCache::Stats cache_stats() const { return memo_.stats(); }

 private:
  /// A feasible enumerated candidate with the resource estimates computed
  /// while assigning its buffers (reused when scoring the frontier).
  struct Candidate {
    AccelConfig cfg;
    ResourceEstimate analytical;
    ResourceEstimate implementation;
  };

  /// Picks the largest buffer geometry (from a fixed ladder) that fits the
  /// BRAM budget for the given parallel factors; returns false if none fits.
  /// On success fills the winning rung's resource estimates.
  bool AssignBuffers(AccelConfig& cfg, ResourceEstimate* analytical,
                     ResourceEstimate* implementation) const;

  /// Step-2 answer for one candidate: the per-layer mapping and summed
  /// cycles, or infeasible when some layer cannot be scheduled at all.
  struct CandidateScore {
    bool feasible = false;
    std::vector<LayerMapping> mapping;
    double cycles = 0;
  };

  /// Best (mode, dataflow) for one layer on one config — the single source
  /// of the mode/dataflow selection rule, shared by BestMapping and
  /// EvaluateCandidates.
  struct LayerChoice {
    bool feasible = false;
    LayerMapping mapping;
    double cycles = 0;
  };
  LayerChoice BestLayerChoice(const ConvLayer& layer, const FmapShape& in,
                              const AccelConfig& cfg,
                              const DseOptions& opts) const;

  /// Fused-segment scoring (opts.fuse_segments): plans the legal fusable
  /// chains for `cfg`, re-scores each chain with resident hand-offs (mode
  /// kept, dataflow re-picked) and adopts it when it beats the unfused
  /// chain. Updates `mapping` (fuse_output + dataflow) and `total_cycles`
  /// in place. Shared by BestMapping and EvaluateCandidates so Explore /
  /// ExploreFrontier and the compiled result agree on the decision.
  void ApplyFusion(const Model& model, const AccelConfig& cfg,
                   const DseOptions& opts, std::vector<LayerMapping>* mapping,
                   double* total_cycles) const;

  /// Step 2 for every candidate: the per-candidate scores, plus the
  /// feasible subset in enumeration order.
  struct Scored {
    const Candidate* cand = nullptr;
    const CandidateScore* score = nullptr;
    double objective = 0;
  };
  struct Evaluation {
    std::vector<CandidateScore> scores;
    std::vector<Scored> scored;
  };
  Evaluation EvaluateCandidates(const Model& model,
                                const DseOptions& opts) const;

  /// Step 3: the legacy tie-break over the scored set.
  DseResult SelectBest(const Evaluation& ev) const;

  /// Best legal dataflow for (layer, in, mode) on `cfg` under the fusion
  /// context, through the memo cache when `use_memo`.
  LayerLatencyValue EvaluateLayerMode(const ConvLayer& layer,
                                      const FmapShape& in, ConvMode mode,
                                      const AccelConfig& cfg, bool use_memo,
                                      const FusionContext& fusion = {}) const;

  FpgaSpec spec_;
  std::vector<Candidate> candidates_;  ///< step 1, in enumeration order

  mutable LatencyMemoCache memo_;
};

}  // namespace hdnn

#endif  // HDNN_DSE_SEARCH_H_
