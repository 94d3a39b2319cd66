#include "frontend/parser.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>

#include "common/check.h"

namespace hdnn {
namespace {

/// Physical ceilings of the clock, the DRAM bandwidth and the MACs packed
/// per DSP: 10 GHz, 100 TB/s and 64, far above any part (VU9P runs at 167
/// MHz with 64 GB/s and one MAC per DSP). Past them the modeled run time
/// underflows toward zero and GOPS overflows to infinity.
constexpr double kMaxFreqMhz = 1e4;
constexpr double kMaxBandwidthGbps = 1e5;
constexpr double kMaxDspPack = 64;

/// Returns `value` when `ok`; otherwise throws a ParseError naming the line,
/// the property and what it must be (`want`). Every FPGA spec value passes
/// through here before it is stored, so no narrowing cast sees an
/// out-of-range value.
double CheckSpecValue(double value, bool ok, const std::string& want,
                      const std::string& key, int line_no) {
  if (!ok) {
    std::ostringstream msg;
    msg << "line " << line_no << ": FPGA property '" << key << "' must be "
        << want << ", got " << value;
    throw ParseError(msg.str());
  }
  return value;
}

std::string StripComment(std::string line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line = line.substr(0, hash);
  return line;
}

std::map<std::string, std::string> ParseKv(std::istringstream& in,
                                           int line_no) {
  std::map<std::string, std::string> kv;
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw ParseError("line " + std::to_string(line_no) +
                       ": expected key=value, got '" + token + "'");
    }
    kv[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return kv;
}

int GetInt(const std::map<std::string, std::string>& kv,
           const std::string& key, int fallback, int line_no) {
  const auto it = kv.find(key);
  if (it == kv.end()) return fallback;
  try {
    std::size_t used = 0;
    const int v = std::stoi(it->second, &used);
    if (used != it->second.size()) throw ParseError("");
    return v;
  } catch (const std::exception&) {
    throw ParseError("line " + std::to_string(line_no) + ": bad value '" +
                     it->second + "' for " + key);
  }
}

std::string GetStr(const std::map<std::string, std::string>& kv,
                   const std::string& key) {
  const auto it = kv.find(key);
  return it == kv.end() ? std::string() : it->second;
}

/// Rejects attribute keys the directive does not understand — a typo like
/// `ad=skip` must not silently drop a graph edge.
void CheckKnownKeys(const std::map<std::string, std::string>& kv,
                    std::initializer_list<const char*> known, int line_no) {
  for (const auto& [key, value] : kv) {
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok) {
      throw ParseError("line " + std::to_string(line_no) +
                       ": unknown attribute '" + key + "'");
    }
  }
}

}  // namespace

Model ParseModelText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  std::string model_name;
  FmapShape input{};
  bool have_input = false;
  Model model;
  bool model_started = false;
  int anon_counter = 0;

  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(StripComment(line));
    std::string head;
    if (!(ls >> head)) continue;

    if (head == "model") {
      if (!(ls >> model_name)) {
        throw ParseError("line " + std::to_string(line_no) +
                         ": model needs a name");
      }
    } else if (head == "input") {
      if (!(ls >> input.channels >> input.height >> input.width)) {
        throw ParseError("line " + std::to_string(line_no) +
                         ": input needs C H W");
      }
      have_input = true;
    } else if (head == "conv" || head == "fc") {
      if (!have_input) {
        throw ParseError("line " + std::to_string(line_no) +
                         ": layer before input declaration");
      }
      if (!model_started) {
        model = Model(model_name.empty() ? "model" : model_name, input);
        model_started = true;
      }
      const auto kv = ParseKv(ls, line_no);
      const int out = GetInt(kv, "out", -1, line_no);
      if (out <= 0) {
        throw ParseError("line " + std::to_string(line_no) +
                         ": layer needs out=<channels>");
      }
      std::string name = kv.count("name") ? kv.at("name")
                                          : head + std::to_string(anon_counter);
      ++anon_counter;
      if (head == "fc") {
        CheckKnownKeys(kv, {"name", "out", "relu"}, line_no);
        const bool relu = GetInt(kv, "relu", 0, line_no) != 0;
        try {
          model.AppendFullyConnected(name, out, relu);
        } catch (const Error& e) {
          throw ParseError("line " + std::to_string(line_no) + ": " +
                           e.what());
        }
      } else {
        CheckKnownKeys(
            kv, {"name", "out", "in", "k", "s", "p", "relu", "pool", "from",
                 "add"},
            line_no);
        ConvLayer l;
        l.name = name;
        l.from = GetStr(kv, "from");
        l.add = GetStr(kv, "add");
        // Default in-channel count comes from the producer this layer's
        // input edge names (the chain-previous layer when from= is absent).
        FmapShape cur = input;
        if (!l.from.empty()) {
          const int producer = model.IndexOf(l.from);
          if (producer < 0) {
            throw ParseError("line " + std::to_string(line_no) +
                             ": from= references unknown layer '" + l.from +
                             "'");
          }
          cur = model.OutputOf(producer);
        } else if (model.num_layers() > 0) {
          cur = model.OutputOf(model.num_layers() - 1);
        }
        l.in_channels = GetInt(kv, "in", cur.channels, line_no);
        l.out_channels = out;
        l.kernel_h = l.kernel_w = GetInt(kv, "k", 3, line_no);
        l.stride = GetInt(kv, "s", 1, line_no);
        const int same_pad = (l.kernel_h % 2 == 1) ? (l.kernel_h - 1) / 2 : 0;
        l.pad = GetInt(kv, "p", same_pad, line_no);
        l.relu = GetInt(kv, "relu", 0, line_no) != 0;
        l.pool = GetInt(kv, "pool", 1, line_no);
        try {
          model.Append(l);
        } catch (const Error& e) {
          throw ParseError("line " + std::to_string(line_no) + ": " +
                           e.what());
        }
      }
    } else {
      throw ParseError("line " + std::to_string(line_no) +
                       ": unknown directive '" + head + "'");
    }
  }
  if (!model_started) throw ParseError("model has no layers");
  return model;
}

std::string WriteModelText(const Model& model) {
  std::ostringstream out;
  out << "model " << model.name() << "\n";
  out << "input " << model.input().channels << " " << model.input().height
      << " " << model.input().width << "\n";
  for (int i = 0; i < model.num_layers(); ++i) {
    const ConvLayer& l = model.layer(i);
    if (l.is_fc) {
      out << "fc name=" << l.name << " out=" << l.out_channels
          << " relu=" << (l.relu ? 1 : 0) << "\n";
    } else {
      out << "conv name=" << l.name << " out=" << l.out_channels
          << " k=" << l.kernel_h << " s=" << l.stride << " p=" << l.pad
          << " relu=" << (l.relu ? 1 : 0);
      if (l.pool > 1) out << " pool=" << l.pool;
      if (!l.from.empty()) out << " from=" << l.from;
      if (!l.add.empty()) out << " add=" << l.add;
      out << "\n";
    }
  }
  return out.str();
}

FpgaSpec ParseFpgaSpecText(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  FpgaSpec spec;
  bool named = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(StripComment(line));
    std::string head;
    if (!(ls >> head)) continue;
    if (head == "fpga") {
      if (!(ls >> spec.name)) {
        throw ParseError("line " + std::to_string(line_no) +
                         ": fpga needs a name");
      }
      named = true;
      continue;
    }
    double value = 0;
    std::string extra;
    if (!(ls >> value) || ls >> extra) {  // "luts 12abc" is not 12
      throw ParseError("line " + std::to_string(line_no) + ": FPGA property '" +
                       head + "' expects one number");
    }
    const auto check = [&](bool ok, const std::string& want) {
      return CheckSpecValue(value, ok, want, head, line_no);
    };
    const auto count = [&] {
      return check(value >= 1 &&
                       value <= std::numeric_limits<std::int32_t>::max() &&
                       value == std::floor(value),
                   "an integer in [1, 2147483647]");
    };
    const auto up_to = [&](double ceiling) {
      std::ostringstream want;
      want << "in (0, " << ceiling << "]";
      return check(value > 0 && value <= ceiling, want.str());
    };
    if (head == "luts") {
      spec.luts = static_cast<long long>(count());
    } else if (head == "dsps") {
      spec.dsps = static_cast<long long>(count());
    } else if (head == "bram18") {
      spec.bram18 = static_cast<long long>(count());
    } else if (head == "dies") {
      spec.dies = static_cast<int>(count());
    } else if (head == "bandwidth_gbps") {
      spec.dram_bandwidth_gbps = up_to(kMaxBandwidthGbps);
    } else if (head == "freq_mhz") {
      spec.freq_mhz = up_to(kMaxFreqMhz);
    } else if (head == "dsp_pack") {
      spec.dsp_pack = up_to(kMaxDspPack);
    } else if (head == "static_watts") {
      spec.static_watts =
          check(std::isfinite(value) && value >= 0, "finite and >= 0");
    } else if (head == "max_utilization") {
      spec.max_utilization = up_to(1);
    } else {
      throw ParseError("line " + std::to_string(line_no) +
                       ": unknown FPGA property '" + head + "'");
    }
  }
  if (!named) throw ParseError("FPGA spec has no 'fpga <name>' line");
  HDNN_CHECK(spec.luts > 0 && spec.dsps > 0 && spec.bram18 > 0 &&
             spec.freq_mhz > 0 && spec.dram_bandwidth_gbps > 0)
      << "FPGA spec incomplete: " << spec.name;
  return spec;
}

}  // namespace hdnn
