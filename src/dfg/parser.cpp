#include "dfg/parser.h"

#include <sstream>
#include <unordered_map>

#include "dfg/builder.h"
#include "util/strings.h"

namespace mframe::dfg {

namespace {

[[noreturn]] void fail(int line, const std::string& msg) {
  throw DfgError(util::format("dfg parse error at line %d: %s", line, msg.c_str()));
}

/// Shared grammar walk. In strict mode (issues == nullptr) every problem
/// throws DfgError; in lenient mode it is recorded and the statement is
/// repaired or skipped. *Well-formed* attribute values are stored as written
/// in lenient mode (cycles=0, delay=0, bad branch paths) so the lint rules
/// can report them with their proper rule ids; *malformed* numerics
/// (delay=abc, width=abc, const abc) are a parse problem in both modes and
/// leave the attribute at its default — silently coercing them to 0 used to
/// mask real diagnostics downstream (a typo'd delay= hid TIM001).
Dfg parseImpl(std::string_view text, std::vector<ParseIssue>* issues) {
  Builder b("");
  std::unordered_map<std::string, NodeId> byName;
  std::istringstream in{std::string(text)};
  std::string rawLine;
  int lineNo = 0;
  bool sawHeader = false;

  auto problem = [&](int line, const std::string& msg, bool unknownSignal = false) {
    if (!issues) fail(line, msg);
    issues->push_back({line, msg, unknownSignal});
  };
  // Resolve an operand name; in lenient mode an unknown name materializes an
  // implicit Input node so downstream references still connect.
  auto resolve = [&](const std::string& name, const char* what) -> NodeId {
    auto it = byName.find(name);
    if (it != byName.end()) return it->second;
    problem(lineNo, std::string("unknown ") + what + " '" + name + "'", true);
    const NodeId id = b.input(name);
    byName[name] = id;
    return id;
  };

  while (std::getline(in, rawLine)) {
    ++lineNo;
    const auto hash = rawLine.find('#');
    if (hash != std::string::npos) rawLine.erase(hash);
    const auto tok = util::splitWs(rawLine);
    if (tok.empty()) continue;

    // A width= value must be a non-negative integer; anything else is a
    // parse problem (lenient mode leaves the width unset).
    auto parseWidth = [&](int& width, const std::string& val) {
      const long w = util::parseLong(val);
      if (w < 0) {
        problem(lineNo, "bad width value '" + val + "'");
        return;
      }
      width = static_cast<int>(w);
    };
    // Optional trailing width= attribute shared by input/const statements.
    auto leafWidth = [&](int& width, std::size_t from) -> bool {
      for (std::size_t a = from; a < tok.size(); ++a) {
        const auto eq = tok[a].find('=');
        if (eq == std::string::npos || tok[a].substr(0, eq) != "width") {
          problem(lineNo, "unknown attribute '" + tok[a] + "'");
          return false;
        }
        parseWidth(width, tok[a].substr(eq + 1));
      }
      return true;
    };

    if (tok[0] == "dfg") {
      if (tok.size() != 2) {
        problem(lineNo, "expected: dfg <name>");
        continue;
      }
      b.setName(tok[1]);
      sawHeader = true;
    } else if (tok[0] == "input") {
      if (tok.size() < 2) {
        problem(lineNo, "expected: input <signal> [width=N]");
        continue;
      }
      int width = 0;
      if (!leafWidth(width, 2)) continue;
      byName[tok[1]] = b.input(tok[1], width);
    } else if (tok[0] == "const") {
      if (tok.size() < 3) {
        problem(lineNo, "expected: const <value> <signal> [width=N]");
        continue;
      }
      long value = 0;
      if (!util::parseSignedLong(tok[1], value))
        problem(lineNo, "bad const value '" + tok[1] + "'");
      int width = 0;
      if (!leafWidth(width, 3)) continue;
      const NodeId id = b.constant(value, tok[2]);
      b.setWidth(id, width);
      byName[tok[2]] = id;
    } else if (tok[0] == "op") {
      if (tok.size() < 4) {
        problem(lineNo, "expected: op <kind> <signal> <in...> [attrs]");
        continue;
      }
      OpKind kind;
      if (!parseKind(tok[1], kind)) {
        problem(lineNo, "unknown op kind '" + tok[1] + "'");
        continue;
      }
      std::vector<NodeId> inputs;
      int cycles = 1;
      double delayNs = -1.0;
      std::string branch;
      int width = 0;
      std::size_t i = 3;
      for (; i < tok.size() && tok[i].find('=') == std::string::npos; ++i)
        inputs.push_back(resolve(tok[i], "input signal"));
      bool badAttrs = false;
      for (; i < tok.size(); ++i) {
        const auto eq = tok[i].find('=');
        if (eq == std::string::npos) {
          problem(lineNo, "operands must precede attributes");
          badAttrs = true;
          break;
        }
        const std::string key = tok[i].substr(0, eq);
        const std::string val = tok[i].substr(eq + 1);
        if (key == "cycles") {
          const long c = util::parseLong(val);
          if (c < 0) {
            // Malformed (non-numeric): a parse problem in both modes.
            problem(lineNo, "bad cycles value '" + val + "'");
          } else {
            // Well-formed but out of range (cycles=0): strict rejects,
            // lenient stores it for the lint rule to flag.
            if (c < 1 && !issues) fail(lineNo, "bad cycles value '" + val + "'");
            cycles = static_cast<int>(c);
          }
        } else if (key == "delay") {
          // A malformed delay must not silently become 0.0: a zeroed
          // per-node override would let the scheduler chain freely and mask
          // a real TIM001 violation in the STA.
          double delay = 0.0;
          if (!util::parseDouble(val, delay) || delay < 0.0)
            problem(lineNo, "bad delay value '" + val + "'");
          else
            delayNs = delay;
        } else if (key == "branch") {
          branch = val;
        } else if (key == "width") {
          parseWidth(width, val);
        } else {
          problem(lineNo, "unknown attribute '" + key + "'");
          badAttrs = true;
          break;
        }
      }
      if (badAttrs) continue;
      const NodeId id = b.op(kind, std::move(inputs), tok[2], cycles, delayNs);
      b.setBranchPath(id, branch);
      b.setWidth(id, width);
      byName[tok[2]] = id;
    } else if (tok[0] == "output") {
      if (tok.size() != 3) {
        problem(lineNo, "expected: output <external-name> <signal>");
        continue;
      }
      auto it = byName.find(tok[2]);
      if (it == byName.end()) {
        problem(lineNo, "unknown signal '" + tok[2] + "'", true);
        continue;
      }
      b.output(it->second, tok[1]);
    } else {
      problem(lineNo, "unknown statement '" + tok[0] + "'");
    }
  }
  if (!sawHeader) {
    if (!issues) throw DfgError("dfg parse error: missing 'dfg <name>' header");
    issues->push_back({0, "missing 'dfg <name>' header", false});
  }
  return issues ? std::move(b).buildLenient() : std::move(b).build();
}

}  // namespace

Dfg parse(std::string_view text) { return parseImpl(text, nullptr); }

Dfg parseLenient(std::string_view text, std::vector<ParseIssue>& issues) {
  return parseImpl(text, &issues);
}

std::string serialize(const Dfg& g) {
  std::string out = "dfg " + g.name() + "\n";
  const auto widthSuffix = [](const Node& n) {
    return n.width != 0 ? util::format(" width=%d", n.width) : std::string();
  };
  for (const Node& n : g.nodes()) {
    switch (n.kind) {
      case OpKind::Input:
        out += "input " + n.name + widthSuffix(n) + "\n";
        break;
      case OpKind::Const:
        out += util::format("const %ld %s", n.constValue, n.name.c_str()) +
               widthSuffix(n) + "\n";
        break;
      default: {
        out += "op " + std::string(kindName(n.kind)) + " " + n.name;
        for (NodeId in : n.inputs) out += " " + g.node(in).name;
        if (n.cycles != 1) out += util::format(" cycles=%d", n.cycles);
        if (n.delayNs >= 0) out += util::format(" delay=%g", n.delayNs);
        if (!n.branchPath.empty()) out += " branch=" + n.branchPath;
        out += widthSuffix(n);
        out += "\n";
      }
    }
  }
  for (const auto& [id, ext] : g.outputs())
    out += "output " + ext + " " + g.node(id).name + "\n";
  return out;
}

}  // namespace mframe::dfg
