#include "frontend/parser.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>

#include "common/check.h"

namespace hdnn {
namespace {

/// The values an FPGA spec property accepts.
enum class SpecRange {
  kCount,        ///< an integer in [1, 2^31 - 1]
  kPositive,     ///< finite and > 0
  kNonNegative,  ///< finite and >= 0
  kFraction,     ///< in (0, 1]
};

/// Returns `value` when it lies in `range`; otherwise throws a ParseError
/// naming the line and the property. Every FPGA spec value passes through
/// here before it is stored, so no narrowing cast sees an out-of-range value.
double CheckSpecValue(double value, SpecRange range, const std::string& key,
                      int line_no) {
  bool ok = false;
  const char* want = "";
  switch (range) {
    case SpecRange::kCount:
      ok = value >= 1 && value <= std::numeric_limits<std::int32_t>::max() &&
           value == std::floor(value);
      want = "an integer in [1, 2147483647]";
      break;
    case SpecRange::kPositive:
      ok = std::isfinite(value) && value > 0;
      want = "finite and > 0";
      break;
    case SpecRange::kNonNegative:
      ok = std::isfinite(value) && value >= 0;
      want = "finite and >= 0";
      break;
    case SpecRange::kFraction:
      ok = value > 0 && value <= 1;
      want = "in (0, 1]";
      break;
  }
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
    const auto checked = [&](SpecRange range) {
      return CheckSpecValue(value, range, head, line_no);
    };
    if (head == "luts") {
      spec.luts = static_cast<long long>(checked(SpecRange::kCount));
    } else if (head == "dsps") {
      spec.dsps = static_cast<long long>(checked(SpecRange::kCount));
    } else if (head == "bram18") {
      spec.bram18 = static_cast<long long>(checked(SpecRange::kCount));
    } else if (head == "dies") {
      spec.dies = static_cast<int>(checked(SpecRange::kCount));
    } else if (head == "bandwidth_gbps") {
      spec.dram_bandwidth_gbps = checked(SpecRange::kPositive);
    } else if (head == "freq_mhz") {
      spec.freq_mhz = checked(SpecRange::kPositive);
    } else if (head == "dsp_pack") {
      spec.dsp_pack = checked(SpecRange::kPositive);
    } else if (head == "static_watts") {
      spec.static_watts = checked(SpecRange::kNonNegative);
    } else if (head == "max_utilization") {
      spec.max_utilization = checked(SpecRange::kFraction);
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
