// Fleet portfolio planning over the DSE Pareto frontier (ROADMAP item 5).
//
// A deployment rarely ships one accelerator: a serving fleet mixes board
// designs — big multi-die cloud points for tight-deadline traffic next to
// small embedded points that win on QPS per watt — under a shared power
// budget. This header turns the multi-objective DSE answer into that fleet:
//
//   * BuildBoardCandidates unions each platform's per-model Pareto
//     frontiers into a deduplicated candidate set, keeps only configs that
//     can schedule every served model, and annotates each candidate with
//     its modeled per-model capacity (Eq. 12-15 latency, NI instances).
//   * PlanPortfolio picks the board multiset maximizing served QPS for an
//     offered traffic mix under the power budget: greedy marginal
//     QPS-per-watt additions followed by bounded local-swap passes. Every
//     loop iterates in a fixed order with exact tie-breaks, so the plan is
//     a pure function of its inputs (bit-identical across reruns).
//   * PlanHomogeneous is the naive baseline the bench compares against: one
//     configuration — the legacy single-objective throughput champion —
//     replicated until the budget is spent, stranding the residue.
//
// The planner works in modeled capacity; bench/fleet_qps.cc validates the
// plan against measured per-shard capacity from the virtual-time fleet
// simulation (src/fleet/fleet.h).
#ifndef HDNN_FLEET_PORTFOLIO_H_
#define HDNN_FLEET_PORTFOLIO_H_

#include <string>
#include <vector>

#include "common/deadline_queue.h"
#include "common/types.h"
#include "dse/search.h"
#include "nn/model.h"
#include "platform/fpga_spec.h"

namespace hdnn {

/// One deployable board design: an explored config on one platform,
/// annotated with modeled capacity for every served model. Model-indexed
/// vectors follow the model order given to BuildBoardCandidates.
struct BoardCandidate {
  FpgaSpec spec;
  AccelConfig config;
  ResourceEstimate implementation;
  double power_watts = 0;  ///< full-activity board power (static + dynamic)

  std::vector<std::vector<LayerMapping>> mappings;  ///< per model
  /// Modeled latency of one item on one instance (Eq. 12-15 cycles / freq).
  std::vector<double> item_seconds;
  /// Sustained whole-board throughput: NI instances pipelining independent
  /// items, config.ni / item_seconds[m].
  std::vector<double> board_qps;
};

/// One latency class of offered traffic: requests of one model with one
/// relative deadline and an open-loop arrival rate.
struct LatencyClass {
  std::string name;
  int model_index = 0;
  double offered_qps = 0;
  double deadline_seconds = kNoDeadline;  ///< relative; kNoDeadline = none
};

struct PortfolioOptions {
  double power_budget_watts = 0;
  int max_boards = 64;
  /// Fraction of a board's modeled capacity the planner counts on — the
  /// queueing headroom that keeps planned operating points below the knee
  /// of the latency curve.
  double capacity_derate = 0.85;
  /// Local-improvement bound: each pass tries every (position, candidate)
  /// replacement in order and adopts the first improvement.
  int local_swap_passes = 2;

  void Validate() const;
};

/// A planned fleet: a canonical (ascending) multiset of candidate indices
/// plus the traffic allocation that scored it.
struct PortfolioPlan {
  std::vector<int> boards;  ///< candidate index per shard, sorted ascending
  double power_watts = 0;   ///< sum of board powers
  double planned_qps = 0;   ///< total served offered traffic
  std::vector<double> class_qps;  ///< served QPS per latency class
  /// Planned per-shard, per-class QPS (outer index parallel to `boards`).
  std::vector<std::vector<double>> shard_class_qps;
};

/// Builds the candidate set from the platforms' Pareto frontiers. For each
/// platform the per-model frontiers are unioned (first-seen order, deduped
/// by config); every surviving candidate can schedule all `models` (configs
/// that raise CapacityError for some model are dropped). Deterministic:
/// candidate order is (platform order, union order), and each frontier is
/// a pure function of (platform, model, opts).
std::vector<BoardCandidate> BuildBoardCandidates(
    const std::vector<const FpgaSpec*>& platforms,
    const std::vector<const Model*>& models, const DseOptions& opts = {});

/// True iff one item of the class's model meets the deadline on this board
/// (queueing headroom is the router/planner's job, not this predicate's).
bool ClassFeasible(const BoardCandidate& cand, const LatencyClass& cls);

/// Allocates the offered traffic to a fixed board multiset and scores it.
/// `boards` is canonicalized (sorted ascending). Classes fill strictest
/// deadline first (ties by index); within a class, feasible boards fill in
/// descending per-model board QPS (ties by shard position). Pure function.
PortfolioPlan EvaluatePortfolio(const std::vector<BoardCandidate>& candidates,
                                std::vector<int> boards,
                                const std::vector<LatencyClass>& classes,
                                const PortfolioOptions& opts);

/// Greedy + local-swap portfolio selection maximizing served QPS under
/// opts.power_budget_watts (see file comment). Deterministic.
PortfolioPlan PlanPortfolio(const std::vector<BoardCandidate>& candidates,
                            const std::vector<LatencyClass>& classes,
                            const PortfolioOptions& opts);

/// Degradation-aware re-plan after permanent board loss (DESIGN.md
/// Sec. 12): re-runs the allocation core of PlanPortfolio
/// (EvaluatePortfolio) over the surviving board multiset under the same
/// options. Because allocation fills strictest-deadline classes first, the
/// reduced capacity is spent on interactive traffic and the bulk tail is
/// what degrades — graceful degradation falls out of the planner itself.
PortfolioPlan ReplanAfterLoss(const std::vector<BoardCandidate>& candidates,
                              const std::vector<int>& surviving_boards,
                              const std::vector<LatencyClass>& classes,
                              const PortfolioOptions& opts);

/// Per-class fraction of offered traffic a (possibly degraded) plan still
/// carries: class_qps / offered_qps, clamped to [0, 1]; classes with no
/// offered traffic get 1. Admission gates consume this via a deterministic
/// credit counter (credit += fraction; admit while credit >= 1).
std::vector<double> DegradedAdmitFractions(
    const PortfolioPlan& plan, const std::vector<LatencyClass>& classes);

/// The naive homogeneous fleet: `candidate_index` replicated until the next
/// copy would bust the budget (or max_boards), residue stranded.
PortfolioPlan PlanHomogeneous(const std::vector<BoardCandidate>& candidates,
                              int candidate_index,
                              const std::vector<LatencyClass>& classes,
                              const PortfolioOptions& opts);

/// The config a single-objective deployment would replicate: the candidate
/// feasible for every class with the highest whole-board throughput on the
/// offered mix (harmonic mean over class weights). Ties break toward lower
/// power, then lower index. Throws InvalidArgument when no candidate is
/// feasible for all classes.
int NaiveBestCandidate(const std::vector<BoardCandidate>& candidates,
                       const std::vector<LatencyClass>& classes);

}  // namespace hdnn

#endif  // HDNN_FLEET_PORTFOLIO_H_
