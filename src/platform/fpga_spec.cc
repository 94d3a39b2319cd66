#include "platform/fpga_spec.h"

#include <algorithm>
#include <cctype>

#include "common/check.h"

namespace hdnn {
namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::vector<FpgaSpec> BuildDatabase() {
  std::vector<FpgaSpec> db;

  // Xilinx Virtex UltraScale+ VU9P on a Semptian NSA.241 board (paper's
  // cloud platform). Three SLRs; four DDR4-2400 channels (~19.2 GB/s each).
  FpgaSpec vu9p;
  vu9p.name = "vu9p";
  vu9p.luts = 1182240;
  vu9p.dsps = 6840;
  vu9p.bram18 = 4320;
  vu9p.dies = 3;
  // 4x DDR4-2400 channels at ~83% controller efficiency.
  vu9p.dram_bandwidth_gbps = 64.0;
  vu9p.freq_mhz = 167;
  vu9p.dsp_pack = 1.0;
  vu9p.static_watts = 3.2;
  vu9p.max_utilization = 0.80;  // cross-die routing headroom (paper Sec. 1)
  db.push_back(vu9p);

  // Xilinx PYNQ-Z1 (Zynq-7020). Single die; shared DDR3 through HP ports.
  // dsp_pack = 2: with 8-bit weights two MACs share one DSP48E1 (the only
  // way 256 PE MACs fit the part's 220 DSPs, as the paper's Table 3 shows).
  FpgaSpec pynq;
  pynq.name = "pynq-z1";
  pynq.luts = 53200;
  pynq.dsps = 220;
  pynq.bram18 = 280;
  pynq.dies = 1;
  // 16-bit DDR3-1050 through the PS HP ports, ~80% efficiency.
  pynq.dram_bandwidth_gbps = 2.0;
  pynq.freq_mhz = 100;
  pynq.dsp_pack = 2.0;
  pynq.static_watts = 1.25;
  pynq.max_utilization = 1.0;
  db.push_back(pynq);

  // Xilinx ZCU102 (Zynq UltraScale+ ZU9EG) — an additional embedded target
  // for flexibility experiments beyond the paper's two boards.
  FpgaSpec zcu102;
  zcu102.name = "zcu102";
  zcu102.luts = 274080;
  zcu102.dsps = 2520;
  zcu102.bram18 = 1824;
  zcu102.dies = 1;
  zcu102.dram_bandwidth_gbps = 19.2;
  zcu102.freq_mhz = 200;
  zcu102.dsp_pack = 2.0;
  zcu102.static_watts = 2.0;
  zcu102.max_utilization = 0.85;
  db.push_back(zcu102);

  return db;
}

}  // namespace

const std::vector<FpgaSpec>& PlatformDatabase() {
  static const std::vector<FpgaSpec> db = BuildDatabase();
  return db;
}

const FpgaSpec& FindPlatform(const std::string& name) {
  const std::string key = Lower(name);
  for (const FpgaSpec& spec : PlatformDatabase()) {
    if (spec.name == key) return spec;
  }
  throw InvalidArgument("unknown FPGA platform: " + name);
}

const FpgaSpec& Vu9pSpec() { return FindPlatform("vu9p"); }
const FpgaSpec& PynqZ1Spec() { return FindPlatform("pynq-z1"); }

}  // namespace hdnn
