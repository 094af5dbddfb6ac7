#include "harness/scenario_parser.hpp"

#include <cctype>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/codec.hpp"
#include "harness/world.hpp"

namespace vsg::harness {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;  // trailing comment
    tokens.push_back(token);
  }
  return tokens;
}

std::optional<std::set<ProcId>> parse_proc_set(const std::string& token) {
  std::set<ProcId> procs;
  std::string num;
  for (char c : token + ",") {
    if (c == ',') {
      if (num.empty()) return std::nullopt;
      for (char d : num)
        if (!std::isdigit(static_cast<unsigned char>(d))) return std::nullopt;
      procs.insert(static_cast<ProcId>(std::stoi(num)));
      num.clear();
    } else {
      num.push_back(c);
    }
  }
  return procs;
}

std::optional<ProcId> parse_proc(const std::string& token) {
  for (char c : token)
    if (!std::isdigit(static_cast<unsigned char>(c))) return std::nullopt;
  if (token.empty()) return std::nullopt;
  return static_cast<ProcId>(std::stoi(token));
}

std::optional<sim::Status> parse_status(const std::string& token) {
  if (token == "good") return sim::Status::kGood;
  if (token == "bad") return sim::Status::kBad;
  if (token == "ugly") return sim::Status::kUgly;
  return std::nullopt;
}

}  // namespace

std::optional<sim::Time> parse_duration(const std::string& token) {
  std::size_t i = 0;
  while (i < token.size() && std::isdigit(static_cast<unsigned char>(token[i]))) ++i;
  if (i == 0) return std::nullopt;
  const long long value = std::stoll(token.substr(0, i));
  const std::string unit = token.substr(i);
  if (unit == "us") return sim::usec(value);
  if (unit == "ms") return sim::msec(value);
  if (unit == "s") return sim::sec(value);
  return std::nullopt;
}

ParseResult parse_scenario(const std::string& text) {
  ParseResult result;
  Scenario scenario;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;

  auto fail = [&result, &lineno](const std::string& what) {
    result.error = "line " + std::to_string(lineno) + ": " + what;
    return result;
  };

  while (std::getline(is, line)) {
    ++lineno;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "config") {
      if (tokens.size() != 3)
        return fail("config needs: config <n|seed|until|wire|shards|budget> <value>");
      if (tokens[1] == "n") {
        const auto n = parse_proc(tokens[2]);
        if (!n.has_value() || *n <= 0) return fail("bad config n '" + tokens[2] + "'");
        result.meta.n = static_cast<int>(*n);
      } else if (tokens[1] == "seed") {
        for (char c : tokens[2])
          if (!std::isdigit(static_cast<unsigned char>(c)))
            return fail("bad config seed '" + tokens[2] + "'");
        result.meta.seed = std::stoull(tokens[2]);
      } else if (tokens[1] == "until") {
        const auto until = parse_duration(tokens[2]);
        if (!until.has_value()) return fail("bad config until '" + tokens[2] + "'");
        result.meta.until = *until;
      } else if (tokens[1] == "wire") {
        const auto w = parse_proc(tokens[2]);  // small non-negative int
        if (!w.has_value() || *w < 1) return fail("bad config wire '" + tokens[2] + "'");
        result.meta.wire = static_cast<int>(*w);
      } else if (tokens[1] == "shards") {
        const auto k = parse_proc(tokens[2]);  // small non-negative int
        if (!k.has_value() || *k < 1) return fail("bad config shards '" + tokens[2] + "'");
        result.meta.shards = static_cast<int>(*k);
      } else if (tokens[1] == "budget") {
        for (char c : tokens[2])
          if (!std::isdigit(static_cast<unsigned char>(c)))
            return fail("bad config budget '" + tokens[2] + "'");
        const std::uint64_t b = std::stoull(tokens[2]);
        if (b < 1) return fail("bad config budget '" + tokens[2] + "'");
        result.meta.budget = b;
      } else {
        return fail("unknown config key '" + tokens[1] + "'");
      }
      continue;
    }
    if (tokens.size() < 3 || tokens[0] != "at")
      return fail("expected 'at <time> <op> ...'");
    const auto at = parse_duration(tokens[1]);
    if (!at.has_value()) return fail("bad time '" + tokens[1] + "'");
    const std::string& op = tokens[2];

    if (op == "heal") {
      if (tokens.size() != 3) return fail("heal takes no arguments");
      scenario.add(*at, OpHeal{});
    } else if (op == "bcast") {
      if (tokens.size() != 5) return fail("bcast needs: bcast <proc> <value>");
      const auto p = parse_proc(tokens[3]);
      if (!p.has_value()) return fail("bad processor '" + tokens[3] + "'");
      scenario.add(*at, OpBcast{*p, tokens[4]});
    } else if (op == "partition") {
      // components separated by '|' tokens: "0,1 | 2,3"
      std::vector<std::set<ProcId>> components;
      for (std::size_t i = 3; i < tokens.size(); ++i) {
        if (tokens[i] == "|") continue;
        const auto comp = parse_proc_set(tokens[i]);
        if (!comp.has_value()) return fail("bad component '" + tokens[i] + "'");
        components.push_back(*comp);
      }
      if (components.empty()) return fail("partition needs at least one component");
      scenario.add(*at, OpPartition{std::move(components)});
    } else if (op == "proc") {
      if (tokens.size() != 5) return fail("proc needs: proc <p> <good|bad|ugly>");
      const auto p = parse_proc(tokens[3]);
      const auto status = parse_status(tokens[4]);
      if (!p.has_value()) return fail("bad processor '" + tokens[3] + "'");
      if (!status.has_value()) return fail("bad status '" + tokens[4] + "'");
      scenario.add(*at, OpProcStatus{*p, *status});
    } else if (op == "link") {
      if (tokens.size() != 6) return fail("link needs: link <p> <q> <good|bad|ugly>");
      const auto p = parse_proc(tokens[3]);
      const auto q = parse_proc(tokens[4]);
      const auto status = parse_status(tokens[5]);
      if (!p.has_value() || !q.has_value()) return fail("bad processor id");
      if (!status.has_value()) return fail("bad status '" + tokens[5] + "'");
      scenario.add(*at, OpLinkStatus{*p, *q, *status});
    } else {
      return fail("unknown operation '" + op + "'");
    }
  }
  result.scenario = std::move(scenario);
  return result;
}

std::string format_duration(sim::Time t) {
  if (t < 0) throw std::invalid_argument("format_duration: negative duration");
  if (t % 1'000'000 == 0) return std::to_string(t / 1'000'000) + "s";
  if (t % 1'000 == 0) return std::to_string(t / 1'000) + "ms";
  return std::to_string(t) + "us";
}

namespace {

void check_writable_value(const core::Value& a) {
  if (a.empty())
    throw std::invalid_argument("write_scenario: empty bcast value is not representable");
  for (char c : a)
    if (std::isspace(static_cast<unsigned char>(c)) || c == '#' || c == '|')
      throw std::invalid_argument(
          "write_scenario: bcast value '" + a +
          "' contains whitespace/'#'/'|' — not representable in the text format");
}

std::string format_proc_set(const std::set<ProcId>& procs) {
  std::string out;
  for (ProcId p : procs) {
    if (!out.empty()) out += ',';
    out += std::to_string(p);
  }
  return out;
}

struct OpWriter {
  std::ostringstream& os;

  void operator()(const OpBcast& b) const {
    check_writable_value(b.a);
    os << "bcast " << b.p << ' ' << b.a;
  }
  void operator()(const OpPartition& part) const {
    if (part.components.empty())
      throw std::invalid_argument("write_scenario: partition with no components");
    os << "partition";
    for (std::size_t i = 0; i < part.components.size(); ++i) {
      if (part.components[i].empty())
        throw std::invalid_argument("write_scenario: empty partition component");
      os << (i == 0 ? " " : " | ") << format_proc_set(part.components[i]);
    }
  }
  void operator()(const OpHeal&) const { os << "heal"; }
  void operator()(const OpProcStatus& ps) const {
    os << "proc " << ps.p << ' ' << sim::to_string(ps.status);
  }
  void operator()(const OpLinkStatus& ls) const {
    os << "link " << ls.p << ' ' << ls.q << ' ' << sim::to_string(ls.status);
  }
};

}  // namespace

std::string refuse_pins(const ScenarioMeta& meta) {
  if (meta.shards.has_value() && (*meta.shards < 1 || *meta.shards > kMaxShards))
    return "pins shards " + std::to_string(*meta.shards) + ", but this build supports 1.." +
           std::to_string(kMaxShards) +
           " shards (docs/SHARDING.md) — refusing to run under a different topology";
  // Range first: the version byte is a u8, and `config wire 259` must not
  // pass as v3.
  if (meta.wire.has_value() &&
      !(std::in_range<std::uint8_t>(*meta.wire) &&
        wire::known_version(static_cast<std::uint8_t>(*meta.wire))))
    return "pins wire v" + std::to_string(*meta.wire) +
           ", but this build speaks only v3 (docs/WIRE.md)";
  return {};
}

std::string write_scenario(const Scenario& scenario, const ScenarioMeta& meta) {
  std::ostringstream os;
  if (meta.n.has_value()) os << "config n " << *meta.n << '\n';
  if (meta.seed.has_value()) os << "config seed " << *meta.seed << '\n';
  if (meta.until.has_value()) os << "config until " << format_duration(*meta.until) << '\n';
  if (meta.wire.has_value()) os << "config wire " << *meta.wire << '\n';
  if (meta.shards.has_value()) os << "config shards " << *meta.shards << '\n';
  if (meta.budget.has_value()) os << "config budget " << *meta.budget << '\n';
  for (const auto& timed : scenario.ops) {
    os << "at " << format_duration(timed.at) << ' ';
    std::visit(OpWriter{os}, timed.op);
    os << '\n';
  }
  return os.str();
}

}  // namespace vsg::harness
