// FP32-vs-quantized accuracy harness (ROADMAP item 2): for each model it
// runs the post-training quantization flow end to end — calibrate on the
// FP32 golden path, select per-tensor/per-channel scales, compile with the
// chosen shifts wired into every COMP QUAN_PARAM — and reports per-layer
// and end-to-end error (max-abs, RMSE, SQNR) against the FP32 reference,
// for both the legacy hand-assigned point (shift 6 everywhere) and the
// calibrated point. The quantized side is the quantized golden reference;
// QuantEndToEndTest.BenchModelsOnPynqMatchQuantGolden (tests/test_quant.cc)
// checks the simulator bit-identical to it for these models and seeds.
//
// The JSON goes to stdout AND to a file (default ./BENCH_quant_error.json,
// override with argv[1]); pass --smoke for the short run (fewer
// calibration batches and eval inputs; scales barely move).
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fixed_point.h"
#include "nn/builders.h"
#include "quant/calibration.h"
#include "quant/golden.h"
#include "quant/quant_config.h"
#include "quant/scale_select.h"

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

/// Error of one quantized tensor against its FP32 reference, accumulated
/// across eval inputs.
struct ErrorAccum {
  double sum_ref_sq = 0;
  double sum_err_sq = 0;
  double max_abs = 0;
  std::int64_t count = 0;

  void Add(const Tensor<float>& ref, const Tensor<std::int16_t>& q,
           int frac_bits) {
    for (std::int64_t e = 0; e < ref.elements(); ++e) {
      const double r = static_cast<double>(ref.flat(e));
      const double d = DequantizeValue(q.flat(e), frac_bits);
      const double err = d - r;
      sum_ref_sq += r * r;
      sum_err_sq += err * err;
      max_abs = std::max(max_abs, std::abs(err));
      ++count;
    }
  }
  double rmse() const {
    return count > 0 ? std::sqrt(sum_err_sq / static_cast<double>(count)) : 0;
  }
  // A zero-error tensor has unbounded SQNR; 999 dB is an unmistakable
  // "exact" marker that still compares numerically in the delta table.
  double sqnr_db() const {
    if (sum_err_sq <= 0) return 999.0;
    if (sum_ref_sq <= 0) return 0.0;
    return 10.0 * std::log10(sum_ref_sq / sum_err_sq);
  }
};

struct ConfigReport {
  std::string name;
  std::vector<ErrorAccum> layers;  ///< one per model layer
  double e2e_sqnr_db = 0;
  double e2e_rmse = 0;
  double e2e_max_abs = 0;
};

/// Runs one quantization point through compile + quantize + the quantized
/// golden reference. `fp32_acts[b]` are the per-layer FP32 activations of
/// eval input b.
ConfigReport EvalConfig(const std::string& name, const Model& model,
                        const AccelConfig& cfg, const FpgaSpec& spec,
                        const std::vector<LayerMapping>& mapping,
                        const QuantConfig& qc, const ModelWeightsF& weightsF,
                        const std::vector<Tensor<float>>& eval_inputs,
                        const std::vector<std::vector<Tensor<float>>>&
                            fp32_acts) {
  const Compiler compiler(cfg, spec);
  const CompiledModel cm = compiler.Compile(model, mapping, &qc);
  const ModelWeightsQ wq = QuantizeParams(model, weightsF, cm);

  ConfigReport report;
  report.name = name;
  report.layers.resize(static_cast<std::size_t>(model.num_layers()));
  for (std::size_t b = 0; b < eval_inputs.size(); ++b) {
    const Tensor<std::int16_t> qin = QuantizeInputFmap(eval_inputs[b], cm);
    const std::vector<Tensor<std::int16_t>> golden =
        QuantGoldenForward(model, cm, wq, qin);
    for (int i = 0; i < model.num_layers(); ++i) {
      report.layers[static_cast<std::size_t>(i)].Add(
          fp32_acts[b][static_cast<std::size_t>(i)],
          golden[static_cast<std::size_t>(i)],
          cm.plans[static_cast<std::size_t>(i)].out_frac);
    }
  }
  const ErrorAccum& last = report.layers.back();
  report.e2e_sqnr_db = last.sqnr_db();
  report.e2e_rmse = last.rmse();
  report.e2e_max_abs = last.max_abs;
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_quant_error.json";
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
  const AccelConfig cfg = bench::PynqDesignPoint();
  const int calib_batches = smoke ? 2 : 8;
  const int eval_batches = smoke ? 1 : 4;

  const Model models[] = {BuildTinyCnn(), BuildVgg16Style(32, 4),
                          BuildResNet18Scaled(64, 4)};

  Emit("{\n");
  Emit("  \"bench\": \"quant_error\",\n");
  Emit("  \"platform\": \"%s\",\n", spec.name.c_str());
  Emit("  \"smoke\": %s,\n", smoke ? "true" : "false");
  Emit("  \"calib_batches\": %d,\n", calib_batches);
  Emit("  \"eval_batches\": %d,\n", eval_batches);
  Emit("  \"models\": [\n");

  bool first_model = true;
  for (const Model& model : models) {
    const std::vector<LayerMapping> mapping(
        static_cast<std::size_t>(model.num_layers()),
        LayerMapping{ConvMode::kSpatial, Dataflow::kInputStationary});
    const ModelWeightsF weightsF = SyntheticWeightsF(model, 7);

    std::vector<Tensor<float>> calib_inputs;
    for (int i = 0; i < calib_batches; ++i) {
      calib_inputs.push_back(
          MakeCalibrationInput(model.input(), 100 + static_cast<std::uint64_t>(i)));
    }
    const CalibrationResult calib = Calibrate(model, weightsF, calib_inputs);

    // Disjoint seeds: eval inputs are NOT the calibration set.
    std::vector<Tensor<float>> eval_inputs;
    std::vector<std::vector<Tensor<float>>> fp32_acts;
    for (int i = 0; i < eval_batches; ++i) {
      eval_inputs.push_back(
          MakeCalibrationInput(model.input(), 900 + static_cast<std::uint64_t>(i)));
      fp32_acts.push_back(Fp32Forward(model, weightsF, eval_inputs.back()));
    }

    const QuantConfig baseline = QuantConfig::Uniform(model);
    const QuantConfig calibrated =
        SelectScales(model, cfg, calib, weightsF, ScaleOptions{});

    const ConfigReport reports[] = {
        EvalConfig("baseline", model, cfg, spec, mapping, baseline, weightsF,
                   eval_inputs, fp32_acts),
        EvalConfig("calibrated", model, cfg, spec, mapping, calibrated,
                   weightsF, eval_inputs, fp32_acts)};

    Emit("%s    {\n", first_model ? "" : ",\n");
    first_model = false;
    Emit("      \"model\": \"%s\",\n", model.name().c_str());
    Emit("      \"sqnr_gain_db\": %.3f,\n",
         reports[1].e2e_sqnr_db - reports[0].e2e_sqnr_db);
    Emit("      \"configs\": [\n");
    for (std::size_t c = 0; c < 2; ++c) {
      const ConfigReport& r = reports[c];
      Emit("        {\n");
      Emit("          \"name\": \"%s\",\n", r.name.c_str());
      Emit("          \"e2e_sqnr_db\": %.3f,\n", r.e2e_sqnr_db);
      Emit("          \"e2e_rmse\": %.6g,\n", r.e2e_rmse);
      Emit("          \"e2e_max_abs\": %.6g,\n", r.e2e_max_abs);
      Emit("          \"layers\": [\n");
      for (int i = 0; i < model.num_layers(); ++i) {
        const ErrorAccum& a = r.layers[static_cast<std::size_t>(i)];
        Emit("            {\"layer\": \"%s\", \"sqnr_db\": %.3f, "
             "\"rmse\": %.6g, \"max_abs\": %.6g}%s\n",
             model.layer(i).name.c_str(), a.sqnr_db(), a.rmse(), a.max_abs,
             i + 1 < model.num_layers() ? "," : "");
      }
      Emit("          ]\n");
      Emit("        }%s\n", c == 0 ? "," : "");
    }
    Emit("      ]\n");
    Emit("    }");
  }
  Emit("\n  ]\n}\n");
  std::fclose(g_json);
  return 0;
}
