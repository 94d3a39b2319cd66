#include "runtime/runtime.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "compiler/stream_check.h"

namespace hdnn {

Runtime::Runtime(const AccelConfig& cfg, const FpgaSpec& spec)
    : cfg_(cfg), spec_(spec), accel_(cfg_, spec_) {
  cfg_.Validate();
}

void StageInputFmap(DramModel& dram, std::int64_t base, ConvMode layout,
                    const Tensor<std::int16_t>& fmap, int padded_channels) {
  HDNN_CHECK(fmap.shape().rank() == 3) << "input must be CHW";
  const std::int64_t C = fmap.shape().dim(0);
  const std::int64_t H = fmap.shape().dim(1);
  const std::int64_t W = fmap.shape().dim(2);
  const std::int64_t pC = padded_channels;
  HDNN_CHECK(pC >= C) << "padding below real channel count";
  if (layout == ConvMode::kWinograd) {
    // Channel-outermost matches the tensor's own CHW layout: the real
    // channels are one contiguous copy, the pad channels one zero-fill.
    const auto real = dram.WriteRun(base, C * H * W);
    std::copy_n(fmap.data(), real.size(), real.data());
    const auto pad = dram.WriteRun(base + C * H * W, (pC - C) * H * W);
    std::fill(pad.begin(), pad.end(), 0);
    return;
  }
  // Channel-innermost: each fmap row is a W*pC-contiguous run, filled by a
  // per-channel strided scatter (the tensor walks H*W per channel).
  for (std::int64_t h = 0; h < H; ++h) {
    const auto dst = dram.WriteRun(base + h * W * pC, W * pC);
    std::fill(dst.begin(), dst.end(), 0);
    for (std::int64_t c = 0; c < C; ++c) {
      const std::int16_t* const src = fmap.data() + (c * H + h) * W;
      for (std::int64_t w = 0; w < W; ++w) dst[static_cast<std::size_t>(
          w * pC + c)] = src[w];
    }
  }
}

Tensor<std::int16_t> CollectOutputFmap(const DramModel& dram,
                                       std::int64_t base, ConvMode layout,
                                       const FmapShape& shape,
                                       int padded_channels) {
  Tensor<std::int16_t> out(
      Shape{shape.channels, shape.height, shape.width});
  const std::int64_t C = shape.channels;
  const std::int64_t H = shape.height;
  const std::int64_t W = shape.width;
  if (layout == ConvMode::kWinograd) {
    // Channel-outermost: the cropped real-channel region is one contiguous
    // run in the tensor's own layout.
    const auto src = dram.ReadRun(base, C * H * W);
    std::copy_n(src.data(), src.size(), out.data());
    return out;
  }
  // Channel-innermost: per pixel the real channels are one contiguous run
  // (the pad channels beyond C are skipped, as the per-word path did).
  for (std::int64_t h = 0; h < H; ++h) {
    for (std::int64_t w = 0; w < W; ++w) {
      const auto src = dram.ReadRun(base + (h * W + w) * padded_channels, C);
      for (std::int64_t c = 0; c < C; ++c) {
        out.at(c, h, w) = src[static_cast<std::size_t>(c)];
      }
    }
  }
  return out;
}

RunReport Runtime::Execute(const Model& model, const CompiledModel& cm,
                           const ModelWeightsQ& weights,
                           const Tensor<std::int16_t>& input,
                           bool functional) {
  // A timing-only run touches no DRAM, so it neither reads nor drops the
  // resident claim. Only a clean functional run re-earns it (at the end),
  // so any exception in one from here on leaves the next run a full
  // re-stage.
  const std::optional<ResidentImage> resident =
      functional ? std::exchange(resident_, {}) : std::nullopt;
  HDNN_CHECK(cm.cfg == cfg_) << "compiled model targets a different config";
  // Compiler-produced models were decoded and stream-checked at compile
  // time (cm.decoded); a hand-built CompiledModel is decoded once here, in
  // both modes, and that checked decode is what runs. The check also
  // proves no SAVE lands in the weight image kept below.
  std::optional<DecodedProgram> checked;
  if (!cm.decoded) checked = RequireValidStream(cm);
  const DecodedProgram& prog = cm.decoded ? *cm.decoded : *checked;
  // A fault that fires during a run was armed at its start: such a run
  // stages everything, so thresholds count the same traffic as a cold run,
  // and leaves no claim, so a corrupted word never outlives its epoch.
  const bool faults_armed = dram_ && dram_->armed_faults() > 0;
  const std::uint64_t key =
      functional ? WeightImageKey(cm, model, weights) : 0;

  if (functional) {
    const std::int64_t dram_words = cm.total_dram_words + 1024;
    const bool keep_weights =
        !faults_armed && resident &&
        *resident == ResidentImage{key, dram_->words_written(),
                                   dram_->injected_faults()};
    if (!dram_) {
      dram_ = std::make_unique<DramModel>(dram_words);
    } else {
      dram_->Reset(dram_words, keep_weights ? cm.fmap_base : 0);
    }
    if (!keep_weights) WriteWeightImages(cm, model, weights, *dram_);
    const LayerPlan& first = cm.plans.front();
    HDNN_CHECK(input.shape() == Shape({first.in_shape.channels,
                                       first.in_shape.height,
                                       first.in_shape.width}))
        << "input shape mismatch: " << input.shape().ToString();
    StageInputFmap(*dram_, cm.input_region(0), first.input_layout, input,
                   first.cp_in);
  }

  DramModel* const dram = functional ? dram_.get() : nullptr;
  RunReport report;
  report.stats = accel_.Run(prog, dram);
  report.seconds = report.stats.Seconds(spec_.freq_mhz);
  const double ops = static_cast<double>(model.TotalOps());
  report.gops = ops / report.seconds / 1e9;
  report.effective_gops = report.gops * cfg_.ni;

  // Per-layer latency attribution from instruction completion times.
  report.layer_cycles.resize(static_cast<std::size_t>(model.num_layers()), 0);
  double prev_end = 0;
  for (int li = 0; li < model.num_layers(); ++li) {
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(li)];
    double end = prev_end;
    for (int i = plan.first_instr; i < plan.first_instr + plan.num_instrs;
         ++i) {
      end = std::max(end, report.stats.completion[static_cast<std::size_t>(i)]);
    }
    report.layer_cycles[static_cast<std::size_t>(li)] = end - prev_end;
    prev_end = end;
  }

  if (functional) {
    const int last = model.num_layers() - 1;
    const LayerPlan& plan = cm.plans[static_cast<std::size_t>(last)];
    const std::int64_t base = cm.output_region(last);
    // The SAVE slab spans the padded channel count in either layout
    // (channel-outermost or channel-innermost): cp_out * H * W words.
    const std::int64_t slab_words = static_cast<std::int64_t>(plan.cp_out) *
                                    plan.out_shape.height *
                                    plan.out_shape.width;
    std::uint32_t save_tag = 0;
    if (integrity_check_) {
      // Tag at SAVE time (stats-free view — tagging is device-side and must
      // not perturb the functional traffic counters).
      save_tag = Crc32(dram_->ViewRun(base, slab_words));
    }
    report.output = CollectOutputFmap(*dram_, base, plan.output_layout,
                                      plan.out_shape, plan.cp_out);
    if (integrity_check_) {
      const std::uint32_t at_collect = Crc32(dram_->ViewRun(base, slab_words));
      report.output_crc32 = at_collect;
      report.integrity_checked = true;
      if (at_collect != save_tag) {
        throw IntegrityError(
            "output fmap integrity tag mismatch at collection: CRC32 " +
            std::to_string(at_collect) + " vs SAVE tag " +
            std::to_string(save_tag) +
            " (DRAM corruption in the at-rest window; retry the inference)");
      }
    }
    if (!faults_armed) {
      resident_ = ResidentImage{key, dram_->words_written(),
                                dram_->injected_faults()};
    }
  }
  return report;
}

}  // namespace hdnn
