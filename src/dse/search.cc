#include "dse/search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "compiler/fusion.h"
#include "platform/power_model.h"
#include "platform/profile_constants.h"

namespace hdnn {
namespace {

/// Buffer geometry ladder (vectors per half), largest first. The DSE picks
/// the largest rung whose BRAM cost fits; performance grows with buffer
/// size (fewer fmap groups, less halo reload).
struct BufferRung {
  int input, weight, output;
};
constexpr BufferRung kBufferLadder[] = {
    {16384, 18432, 8192},  // deep weight buffers keep GK small on big parts
    {16384, 9216, 8192},
    {16384, 4608, 8192},
    {8192, 2304, 8192},
    {8192, 2304, 4096},
    {4096, 1152, 4096},
    {2048, 1152, 2048},
    {2048, 576, 1024},
};

/// Search bounds and the tie window of the balanced/replicated preference.
constexpr int kMaxNi = 8;
constexpr int kMaxPi = 16;
constexpr double kTieFraction = 0.05;

}  // namespace

void DseOptions::Validate() const {
  HDNN_CHECK(num_threads == 1)
      << "DseOptions.num_threads must be 1 (the search is single-threaded), "
         "got " << num_threads;
}

bool Dominates(const ParetoPoint& a, const ParetoPoint& b) {
  bool strictly_better = false;
  const double av[] = {a.objective, a.lut_utilization, a.dsp_utilization,
                       a.bram_utilization, a.power_watts};
  const double bv[] = {b.objective, b.lut_utilization, b.dsp_utilization,
                       b.bram_utilization, b.power_watts};
  for (int i = 0; i < 5; ++i) {
    if (av[i] > bv[i]) return false;
    if (av[i] < bv[i]) strictly_better = true;
  }
  return strictly_better;
}

bool DseEngine::AssignBuffers(AccelConfig& cfg, ResourceEstimate* analytical,
                              ResourceEstimate* implementation) const {
  for (const BufferRung& rung : kBufferLadder) {
    cfg.input_buffer_vectors = rung.input;
    cfg.weight_buffer_vectors = rung.weight;
    cfg.output_buffer_vectors = rung.output;
    // The analytical model is checked against the raw Table 2 limits (it
    // deliberately over-estimates BRAM, as the paper's own Table 3 shows);
    // the implementation model additionally honours the per-die headroom.
    const ResourceEstimate impl =
        ImplementationResources(cfg, spec_, DefaultProfile());
    const ResourceEstimate ana =
        AnalyticalResources(cfg, spec_, DefaultProfile());
    if (FitsDeviceLimits(ana, spec_) && FitsDeviceLimits(impl, spec_) &&
        FitsPerDie(impl, cfg, spec_)) {
      if (analytical) *analytical = ana;
      if (implementation) *implementation = impl;
      return true;
    }
  }
  return false;
}

DseEngine::DseEngine(const FpgaSpec& spec) : spec_(spec) {
  for (int pt : {4, 6}) {
    for (int pi = 1; pi <= kMaxPi; pi *= 2) {
      for (int po = 1; po <= pi; po *= 2) {
        // Broadcast fanout cap: PI*PT channels of DATA_WIDTH bits is the
        // timing-critical broadcast net (profiled routing constraint; this
        // is what keeps instances within one die on multi-SLR parts).
        if (pi * pt > 32) continue;
        for (int ni = 1; ni <= kMaxNi; ++ni) {
          Candidate cand;
          cand.cfg.pi = pi;
          cand.cfg.po = po;
          cand.cfg.pt = pt;
          cand.cfg.ni = ni;
          if (!AssignBuffers(cand.cfg, &cand.analytical,
                             &cand.implementation)) {
            continue;
          }
          candidates_.push_back(std::move(cand));
        }
      }
    }
  }
}

std::vector<AccelConfig> DseEngine::EnumerateCandidates() const {
  std::vector<AccelConfig> configs;
  configs.reserve(candidates_.size());
  for (const Candidate& cand : candidates_) configs.push_back(cand.cfg);
  return configs;
}

LayerLatencyValue DseEngine::EvaluateLayerMode(
    const ConvLayer& layer, const FmapShape& in, ConvMode mode,
    const AccelConfig& cfg, bool use_memo,
    const FusionContext& fusion) const {
  LayerLatencyKey key;
  if (use_memo) {
    key = MakeLatencyKey(layer, in, mode, cfg, fusion);
    LayerLatencyValue cached;
    if (memo_.Lookup(key, &cached)) return cached;
  }

  LayerLatencyValue value;
  GroupCounts g;
  bool scheduled = mode != ConvMode::kWinograd || WinogradApplicable(layer);
  try {
    if (scheduled) g = ComputeGroups(layer, in, mode, cfg);
  } catch (const CapacityError&) {
    scheduled = false;  // this mode cannot be scheduled on this config
  }
  if (scheduled) {
    double best = std::numeric_limits<double>::infinity();
    for (Dataflow flow :
         {Dataflow::kInputStationary, Dataflow::kWeightStationary}) {
      if (!DataflowLegal(g, flow)) continue;
      const LatencyBreakdown lb =
          EstimateLayerLatency(layer, in, mode, flow, cfg, spec_, fusion);
      if (lb.total < best) {
        best = lb.total;
        value.feasible = true;
        value.total_cycles = lb.total;
        value.dataflow = flow;
      }
    }
  }
  if (use_memo) memo_.Insert(key, value);
  return value;
}

DseEngine::LayerChoice DseEngine::BestLayerChoice(const ConvLayer& layer,
                                                  const FmapShape& in,
                                                  const AccelConfig& cfg,
                                                  const DseOptions& opts) const {
  LayerChoice choice;
  double best = std::numeric_limits<double>::infinity();
  for (ConvMode mode : {ConvMode::kSpatial, ConvMode::kWinograd}) {
    if (mode == ConvMode::kWinograd && !opts.allow_winograd) continue;
    if (mode == ConvMode::kWinograd && !WinogradApplicable(layer)) continue;
    const LayerLatencyValue v =
        EvaluateLayerMode(layer, in, mode, cfg, opts.use_memo);
    if (!v.feasible) continue;
    if (v.total_cycles < best) {
      best = v.total_cycles;
      choice.feasible = true;
      choice.mapping = LayerMapping{mode, v.dataflow};
      choice.cycles = v.total_cycles;
    }
  }
  return choice;
}

void DseEngine::ApplyFusion(const Model& model, const AccelConfig& cfg,
                            const DseOptions& opts,
                            std::vector<LayerMapping>* mapping,
                            double* total_cycles) const {
  if (!opts.fuse_segments) return;
  const std::vector<bool> plan = PlanFusion(model, cfg);
  // The sole consumer of each planned tensor (one reader by legality).
  std::vector<int> consumer(static_cast<std::size_t>(model.num_layers()), -1);
  for (int j = 0; j < model.num_layers(); ++j) {
    const int p = model.input_index(j);
    if (p >= 0 && plan[static_cast<std::size_t>(p)]) {
      consumer[static_cast<std::size_t>(p)] = j;
    }
  }

  // Planned edges form vertex-disjoint paths (one input edge per layer, one
  // consumer per fused tensor). Walk each maximal chain from its head and
  // score it fused vs unfused as a unit: mode stays fixed (the hand-off does
  // not change arithmetic legality), the dataflow is re-picked per layer
  // under the resident contexts.
  for (int head = 0; head < model.num_layers(); ++head) {
    if (!plan[static_cast<std::size_t>(head)]) continue;
    const int producer = model.input_index(head);
    if (producer >= 0 && plan[static_cast<std::size_t>(producer)]) {
      continue;  // interior of a chain; handled from its head
    }
    std::vector<int> chain{head};
    int tail = head;
    while (plan[static_cast<std::size_t>(tail)]) {
      tail = consumer[static_cast<std::size_t>(tail)];
      HDNN_INTERNAL(tail > chain.back()) << "fusion chain is not a path";
      chain.push_back(tail);
    }

    double unfused = 0, fused = 0;
    std::vector<LayerLatencyValue> values;
    values.reserve(chain.size());
    bool feasible = true;
    for (std::size_t k = 0; k < chain.size(); ++k) {
      const int li = chain[k];
      const ConvLayer& layer = model.layer(li);
      const FmapShape in = model.InputOf(li);
      const ConvMode mode = (*mapping)[static_cast<std::size_t>(li)].mode;
      FusionContext ctx;
      ctx.input_resident = k > 0;
      ctx.output_resident = k + 1 < chain.size();
      const LayerLatencyValue fv =
          EvaluateLayerMode(layer, in, mode, cfg, opts.use_memo, ctx);
      if (!fv.feasible) {
        feasible = false;
        break;
      }
      values.push_back(fv);
      fused += fv.total_cycles;
      unfused +=
          EvaluateLayerMode(layer, in, mode, cfg, opts.use_memo).total_cycles;
    }
    if (!feasible || fused >= unfused) continue;

    for (std::size_t k = 0; k < chain.size(); ++k) {
      LayerMapping& lm = (*mapping)[static_cast<std::size_t>(chain[k])];
      lm.fuse_output = k + 1 < chain.size();
      lm.dataflow = values[k].dataflow;
    }
    if (total_cycles) *total_cycles += fused - unfused;
  }
}

std::vector<LayerMapping> DseEngine::BestMapping(const Model& model,
                                                 const AccelConfig& cfg,
                                                 const DseOptions& opts,
                                                 double* total_cycles) const {
  opts.Validate();
  std::vector<LayerMapping> mapping;
  double total = 0;
  for (int i = 0; i < model.num_layers(); ++i) {
    const ConvLayer& layer = model.layer(i);
    const LayerChoice choice =
        BestLayerChoice(layer, model.InputOf(i), cfg, opts);
    if (!choice.feasible) {
      throw CapacityError("layer " + layer.name +
                          " cannot be scheduled on config " + cfg.ToString());
    }
    mapping.push_back(choice.mapping);
    total += choice.cycles;
  }
  ApplyFusion(model, cfg, opts, &mapping, &total);
  if (total_cycles) *total_cycles = total;
  return mapping;
}

DseEngine::Evaluation DseEngine::EvaluateCandidates(
    const Model& model, const DseOptions& opts) const {
  opts.Validate();
  HDNN_CHECK(!candidates_.empty())
      << "no feasible accelerator configuration for platform " << spec_.name;

  // Layer inputs once, not per candidate (InputOf is O(i) per call).
  const int num_layers = model.num_layers();
  std::vector<FmapShape> inputs;
  inputs.reserve(static_cast<std::size_t>(num_layers));
  for (int i = 0; i < num_layers; ++i) inputs.push_back(model.InputOf(i));

  // Candidates each layer stopped (the first layer a candidate cannot
  // schedule), to name the culprit when no candidate is left.
  std::vector<int> stopped(static_cast<std::size_t>(num_layers), 0);

  // Step 2 for one candidate.
  auto evaluate = [&](const AccelConfig& cfg) {
    CandidateScore score;
    score.mapping.reserve(static_cast<std::size_t>(num_layers));
    for (int i = 0; i < num_layers; ++i) {
      const LayerChoice choice = BestLayerChoice(
          model.layer(i), inputs[static_cast<std::size_t>(i)], cfg, opts);
      if (!choice.feasible) {
        ++stopped[static_cast<std::size_t>(i)];
        return CandidateScore{};
      }
      score.mapping.push_back(choice.mapping);
      score.cycles += choice.cycles;
    }
    ApplyFusion(model, cfg, opts, &score.mapping, &score.cycles);
    score.feasible = true;
    return score;
  };

  Evaluation ev;
  ev.scores.reserve(candidates_.size());
  for (const Candidate& cand : candidates_) {
    ev.scores.push_back(evaluate(cand.cfg));
  }

  // The feasible subset, in enumeration order.
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (!ev.scores[i].feasible) continue;
    ev.scored.push_back(Scored{&candidates_[i], &ev.scores[i],
                               ev.scores[i].cycles / candidates_[i].cfg.ni});
  }
  if (ev.scored.empty()) {
    const auto worst = std::max_element(stopped.begin(), stopped.end());
    const int layer = static_cast<int>(worst - stopped.begin());
    throw CapacityError("no candidate config for " + spec_.name +
                        " can schedule every layer of " + model.name() +
                        ": layer " + model.layer(layer).name + " stops " +
                        std::to_string(*worst) + " of " +
                        std::to_string(candidates_.size()));
  }
  return ev;
}

DseResult DseEngine::SelectBest(const Evaluation& ev) const {
  const std::vector<Scored>& scored = ev.scored;
  const double best_objective =
      std::min_element(scored.begin(), scored.end(),
                       [](const Scored& a, const Scored& b) {
                         return a.objective < b.objective;
                       })
          ->objective;

  // Step 3 with tie-breaking: within the tie window prefer balanced PE
  // geometry (small PI/PO ratio), then more instances, then fewer LUTs.
  const Scored* chosen = nullptr;
  for (const Scored& s : scored) {
    if (s.objective > best_objective * (1.0 + kTieFraction)) continue;
    if (chosen == nullptr) {
      chosen = &s;
      continue;
    }
    const int ratio_a = s.cand->cfg.pi / s.cand->cfg.po;
    const int ratio_b = chosen->cand->cfg.pi / chosen->cand->cfg.po;
    if (ratio_a != ratio_b) {
      if (ratio_a < ratio_b) chosen = &s;
      continue;
    }
    if (s.cand->cfg.ni != chosen->cand->cfg.ni) {
      if (s.cand->cfg.ni > chosen->cand->cfg.ni) chosen = &s;
      continue;
    }
    if (s.objective < chosen->objective) chosen = &s;
  }
  HDNN_INTERNAL(chosen != nullptr) << "tie-break selected nothing";

  DseResult result;
  result.config = chosen->cand->cfg;
  result.mapping = chosen->score->mapping;
  result.estimated_cycles = chosen->score->cycles;
  result.objective = chosen->objective;
  result.analytical = chosen->cand->analytical;
  result.implementation = chosen->cand->implementation;
  result.power_watts = DefaultPowerModel().TotalWatts(
      spec_, chosen->cand->implementation.AsUsage());
  result.candidates_evaluated = static_cast<int>(scored.size());
  return result;
}

DseFrontier DseEngine::ExploreFrontier(const Model& model,
                                       const DseOptions& opts) const {
  const Evaluation ev = EvaluateCandidates(model, opts);

  DseFrontier frontier;
  frontier.candidates_evaluated = static_cast<int>(ev.scored.size());
  frontier.best = SelectBest(ev);

  // Multi-objective view of every scored candidate.
  std::vector<ParetoPoint> points;
  points.reserve(ev.scored.size());
  for (const Scored& s : ev.scored) {
    ParetoPoint p;
    p.config = s.cand->cfg;
    p.mapping = s.score->mapping;
    p.estimated_cycles = s.score->cycles;
    p.objective = s.objective;
    p.analytical = s.cand->analytical;
    p.implementation = s.cand->implementation;
    p.lut_utilization =
        s.cand->implementation.luts / static_cast<double>(spec_.luts);
    p.dsp_utilization =
        s.cand->implementation.dsps / static_cast<double>(spec_.dsps);
    p.bram_utilization =
        s.cand->implementation.bram18 / static_cast<double>(spec_.bram18);
    p.power_watts =
        DefaultPowerModel().TotalWatts(spec_, s.cand->implementation.AsUsage());
    p.qps = p.objective > 0 ? spec_.freq_mhz * 1e6 / p.objective : 0;
    p.qps_per_watt = p.power_watts > 0 ? p.qps / p.power_watts : 0;
    points.push_back(std::move(p));
  }

  // Non-dominated filter, O(n^2) over ~a hundred points. Mark first, move
  // after: the dominance scan must never read a moved-from point.
  std::vector<bool> dominated(points.size(), false);
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j != i && Dominates(points[j], points[i])) {
        dominated[i] = true;
        break;
      }
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!dominated[i]) frontier.points.push_back(std::move(points[i]));
  }
  std::sort(frontier.points.begin(), frontier.points.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              if (a.objective != b.objective) return a.objective < b.objective;
              if (a.config.pt != b.config.pt) return a.config.pt < b.config.pt;
              if (a.config.pi != b.config.pi) return a.config.pi < b.config.pi;
              if (a.config.po != b.config.po) return a.config.po < b.config.po;
              return a.config.ni < b.config.ni;
            });
  return frontier;
}

DseResult DseEngine::Explore(const Model& model, const DseOptions& opts) const {
  // The thin best-point wrapper: same evaluation and tie-break as
  // ExploreFrontier, without paying for frontier construction.
  return SelectBest(EvaluateCandidates(model, opts));
}

}  // namespace hdnn
