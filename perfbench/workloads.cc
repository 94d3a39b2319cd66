#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "common/prng.h"
#include "compiler/weight_pack.h"
#include "estimator/latency_model.h"
#include "mem/dram_model.h"

namespace perfbench {

using namespace hdnn;

DseOptions SingleThreadDse() {
  DseOptions opts;
  opts.num_threads = 1;
  return opts;
}

Tensor<std::int16_t> SeededInput(const Model& model, std::uint64_t seed,
                                 std::uint64_t k) {
  const FmapShape in = model.InputOf(0);
  Tensor<std::int16_t> input(Shape{in.channels, in.height, in.width});
  Prng prng = Prng(seed).Fork(k);
  input.FillRandomInt(prng, -128, 127);
  return input;
}

void ProbeExecute(const Model& model, const CompiledModel& cm,
                  const ModelWeightsQ& weights,
                  const Tensor<std::int16_t>& input, Runtime& runtime,
                  const FpgaSpec& spec, Tracer& tracer, LayerValues& layers) {
  constexpr int kProbes = 5;
  const std::int64_t words = cm.total_dram_words + 1024;
  DramModel dram(words);
  std::vector<double> execute, stage, timing, first, share, datapath;
  const auto timed = [&](const char* name, std::int64_t p, auto&& call) {
    ScopedSpan span(tracer, name, p);
    const std::int64_t t0 = NowNs();
    call();
    return static_cast<double>(NowNs() - t0);
  };
  for (int p = 0; p < kProbes; ++p) {
    execute.push_back(timed("runtime.execute", p, [&] {
      runtime.Execute(model, cm, weights, input);
    }));
    dram.Reset(words);
    stage.push_back(timed("compiler.stage_weights", p, [&] {
      WriteWeightImages(cm, model, weights, dram);
    }));
    timing.push_back(timed("runtime.execute_timing", p, [&] {
      runtime.Execute(model, cm, {}, {}, /*functional=*/false);
    }));
    first.push_back(timed("runtime.first_execute", p, [&] {
      Runtime fresh(cm.cfg, spec);
      fresh.Execute(model, cm, {}, {}, /*functional=*/false);
    }));
    share.push_back(stage.back() / execute.back());
    datapath.push_back(execute.back() - stage.back() - timing.back());
  }
  layers["runtime.execute_ns"] = Median(execute);
  layers["runtime.execute_timing_ns"] = Median(timing);
  layers["runtime.first_execute_ns"] = Median(first);
  layers["compiler.stage_weights_ns"] = Median(stage);
  layers["compiler.stage_share"] = Median(share);
  layers["sim.datapath_ns"] = Median(datapath);
}

void SimTotals::Add(const Model& model, const SimStats& stats) {
  cycles += stats.total_cycles;
  instructions += static_cast<double>(stats.instructions);
  macs += static_cast<double>(model.TotalMacs());
  dram_words +=
      static_cast<double>(stats.dram_words_read + stats.dram_words_written);
  comp_busy += stats.comp_busy;
  ldi_busy += stats.ldi_busy;
  ldw_busy += stats.ldw_busy;
  save_busy += stats.save_busy;
  port_busy += stats.port_busy;
}

void SimTotals::Report(LayerValues& layers) const {
  layers["sim.cycles"] = cycles;
  layers["sim.instructions"] = instructions;
  layers["sim.macs"] = macs;
  layers["sim.dram_words"] = dram_words;
  layers["sim.comp_busy_frac"] = Ratio(comp_busy, cycles);
  layers["sim.ldi_busy_frac"] = Ratio(ldi_busy, cycles);
  layers["sim.ldw_busy_frac"] = Ratio(ldw_busy, cycles);
  layers["sim.save_busy_frac"] = Ratio(save_busy, cycles);
  layers["sim.port_busy_frac"] = Ratio(port_busy, cycles);
}

void EstimatorError::Add(const Model& model, const CompiledModel& cm,
                         double estimated_cycles, const RunReport& report,
                         const FpgaSpec& spec) {
  const double sim = report.stats.total_cycles;
  e2e_sum_pct += 100 * std::abs(estimated_cycles - sim) / sim;
  ++models;
  std::vector<LayerMapping> mapping;
  for (const LayerPlan& plan : cm.plans) mapping.push_back(plan.mapping);
  for (int i = 0; i < model.num_layers(); ++i) {
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(i)];
    const double est =
        EstimateLayerLatency(model.layer(i), model.InputOf(i),
                             plan.mapping.mode, plan.mapping.dataflow, cm.cfg,
                             spec, FusionContextOf(model, mapping, i))
            .total;
    const double measured = report.layer_cycles[static_cast<std::size_t>(i)];
    // A layer hidden entirely behind its predecessor has no cycles of its
    // own to compare against.
    if (measured <= 0) continue;
    const double err = 100 * std::abs(est - measured) / measured;
    layer_sum_pct += err;
    layer_worst_pct = std::max(layer_worst_pct, err);
    ++layers;
  }
}

void EstimatorError::Report(LayerValues& out) const {
  out["estimator.layer_err_pct"] = Ratio(layer_sum_pct, layers);
  out["estimator.worst_layer_err_pct"] = layer_worst_pct;
}

void DeployCounts::Add(const DseFrontier& dse, const DseEngine& engine,
                       const CompiledModel& cm) {
  candidates += dse.candidates_evaluated;
  frontier_points += static_cast<double>(dse.points.size());
  const LatencyMemoCache::Stats memo = engine.cache_stats();
  memo_hits += static_cast<double>(memo.hits);
  memo_lookups += static_cast<double>(memo.hits + memo.misses);
  instructions += static_cast<double>(cm.program.size());
  for (const LayerMapping& m : dse.best.mapping) fused_edges += m.fuse_output;
}

void DeployCounts::Report(LayerValues& layers) const {
  layers["dse.candidates"] = candidates;
  layers["dse.frontier_points"] = frontier_points;
  layers["dse.memo_hit_frac"] = Ratio(memo_hits, memo_lookups);
  layers["compiler.instructions"] = instructions;
  layers["compiler.fused_edges"] = fused_edges;
}

}  // namespace perfbench
