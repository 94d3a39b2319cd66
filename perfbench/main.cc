// Benchmark entry point:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
// Prints the result as one JSON object on the last line of stdout; all
// diagnostics go to stderr. Exits non-zero, without a result line, when the
// arguments are bad or a workload cannot be set up.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Result;
using perfbench::RunConfig;
using perfbench::Tracer;

int Usage(const std::string& why) {
  std::cerr << why << "\nusage: perfbench --workload "
            << "<vgg16_pynq|resnet18_vu9p_serve|design_sweep|fleet_chaos> "
            << "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::map<std::string, Result (*)(const RunConfig&, Tracer&)>
      workloads = {
          {"vgg16_pynq", perfbench::RunVgg16Pynq},
          {"resnet18_vu9p_serve", perfbench::RunResnet18Vu9pServe},
          {"design_sweep", perfbench::RunDesignSweep},
          {"fleet_chaos", perfbench::RunFleetChaos},
      };
  RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
        cfg.trace = value == "1";
      } else if (flag == "--trace-out") {
        cfg.trace_out = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  const auto it = workloads.find(workload);
  if (it == workloads.end()) {
    return Usage("unknown workload '" + workload + "'");
  }
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");

  try {
    Tracer tracer;
    tracer.set_enabled(cfg.trace);
    const Result result = it->second(cfg, tracer);
    if (!cfg.trace_out.empty() && !tracer.WriteChromeTrace(cfg.trace_out)) {
      std::cerr << "cannot write " << cfg.trace_out << "\n";
    }
    const std::string line = result.ToJson();
    std::cout << line << std::endl;
  } catch (const std::exception& e) {
    std::cerr << workload << ": " << e.what() << "\n";
    return 1;
  }
  return 0;
}
