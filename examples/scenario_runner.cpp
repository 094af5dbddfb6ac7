// Scenario runner: execute a text scenario (see harness/scenario_parser.hpp
// for the format) against the full stack and report deliveries, safety
// verdicts, and protocol statistics.
//
//   $ ./scenario_runner                      # runs a built-in demo scenario
//   $ ./scenario_runner my.scn --n 5 --seed 7 --backend ring --until 20s
//
// Exit status is nonzero if any safety checker flags the run.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "harness/scenario_parser.hpp"
#include "harness/timeline.hpp"
#include "harness/stats.hpp"
#include "harness/world.hpp"

using namespace vsg;

namespace {

const char* kDefaultScenario = R"(# built-in demo: partition, traffic on both sides, heal
at 100ms partition 0,1,2 | 3,4
at 1s    bcast 0 alpha
at 1s    bcast 3 bravo
at 2s    bcast 1 charlie
at 3s    heal
at 5s    bcast 4 delta
)";

struct Options {
  std::string file;
  int n = 5;
  int shards = 1;
  std::uint64_t seed = 1;
  harness::Backend backend = harness::Backend::kTokenRing;
  sim::Time until = sim::sec(15);
  bool timeline = false;
  std::string timeline_out;  // vsg-timeseries-v1 dump (docs/OBSERVABILITY.md)
  // Explicit flags beat `config` directives in the scenario file, which in
  // turn beat the defaults above.
  bool n_given = false;
  bool shards_given = false;
  bool seed_given = false;
  bool until_given = false;
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--n") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.n = std::atoi(v);
      opt.n_given = true;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.shards = std::atoi(v);
      opt.shards_given = true;
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.seed = static_cast<std::uint64_t>(std::atoll(v));
      opt.seed_given = true;
    } else if (arg == "--backend") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "ring") == 0)
        opt.backend = harness::Backend::kTokenRing;
      else if (std::strcmp(v, "spec") == 0)
        opt.backend = harness::Backend::kSpec;
      else
        return false;
    } else if (arg == "--until") {
      const char* v = next();
      if (v == nullptr) return false;
      const auto t = harness::parse_duration(v);
      if (!t.has_value()) return false;
      opt.until = *t;
      opt.until_given = true;
    } else if (arg == "--timeline") {
      opt.timeline = true;
    } else if (arg == "--timeline-out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.timeline_out = v;
    } else if (arg.rfind("--timeline-out=", 0) == 0) {
      opt.timeline_out = arg.substr(15);
    } else if (arg[0] != '-') {
      opt.file = arg;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s [scenario-file] [--n N] [--shards K] [--seed S] "
                 "[--backend ring|spec] [--until 20s] [--timeline] "
                 "[--timeline-out PATH]\n",
                 argv[0]);
    return 2;
  }

  std::string text = kDefaultScenario;
  if (!opt.file.empty()) {
    std::ifstream in(opt.file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", opt.file.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  } else {
    std::printf("(no scenario file given; running the built-in demo)\n\n%s\n",
                kDefaultScenario);
  }

  const auto parsed = harness::parse_scenario(text);
  if (!parsed.ok()) {
    std::fprintf(stderr, "scenario error: %s\n", parsed.error.c_str());
    return 2;
  }

  if (!opt.n_given && parsed.meta.n.has_value()) opt.n = *parsed.meta.n;
  if (!opt.shards_given && parsed.meta.shards.has_value()) opt.shards = *parsed.meta.shards;
  if (!opt.seed_given && parsed.meta.seed.has_value()) opt.seed = *parsed.meta.seed;
  if (!opt.until_given && parsed.meta.until.has_value()) opt.until = *parsed.meta.until;

  harness::ScenarioMeta pins = parsed.meta;
  pins.shards = opt.shards;  // a --shards flag overrides the file's pin
  if (const std::string refusal = harness::refuse_pins(pins); !refusal.empty()) {
    std::fprintf(stderr, "scenario %s\n", refusal.c_str());
    return 2;
  }

  harness::WorldConfig cfg;
  cfg.n = opt.n;
  cfg.shards = opt.shards;
  cfg.backend = opt.backend;
  cfg.seed = opt.seed;
  cfg.sampler.enabled = !opt.timeline_out.empty();
  // Budget pins replay under the recorded bound, as chaos_runner --replay
  // does (docs/FLOWCONTROL.md).
  if (parsed.meta.budget.has_value())
    cfg.ring.board_budget_bytes = static_cast<std::size_t>(*parsed.meta.budget);
  std::optional<harness::World> world;
  try {
    world.emplace(cfg);
    parsed.scenario->apply(*world);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 2;
  }

  for (int k = 0; k < world->shards(); ++k) {
    const std::string tag = world->shards() > 1 ? " [shard" + std::to_string(k) + "]" : "";
    world->recorder(k).subscribe([&, tag](const trace::TimedEvent& te) {
      if (const auto* v = trace::as<trace::NewViewEvent>(te))
        std::printf("t=%-10s newview %s at %d%s\n", harness::fmt_time(te.at).c_str(),
                    core::to_string(v->view()).c_str(), v->p, tag.c_str());
      if (const auto* b = trace::as<trace::BrcvEvent>(te))
        std::printf("t=%-10s brcv \"%s\" at %d (from %d)%s\n",
                    harness::fmt_time(te.at).c_str(), b->a.c_str(), b->dest, b->origin,
                    tag.c_str());
    });
  }

  world->run_until(opt.until);

  std::printf("\n-- final state --\n");
  for (ProcId p = 0; p < opt.n; ++p) {
    std::printf("processor %d delivered:", p);
    for (int k = 0; k < world->shards(); ++k)
      for (const auto& [origin, value] : world->stack(k).process(p).delivered())
        std::printf(" %s", value.c_str());
    std::printf("\n");
  }

  if (opt.timeline) {
    const auto tl = harness::build_timeline(world->recorder().events(), opt.n, opt.n);
    std::printf("\n%s", harness::render_timeline(tl).c_str());
  }

  if (!opt.timeline_out.empty()) {
    if (world->write_timeline(opt.timeline_out)) {
      std::printf("\ntimeline written to %s", opt.timeline_out.c_str());
      for (const auto& e : world->sampler()->health().events())
        std::printf("\n  %s", obs::to_verdict(e).c_str());
      std::printf("\n");
    } else {
      std::fprintf(stderr, "cannot write %s\n", opt.timeline_out.c_str());
      return 2;
    }
  }

  bool clean = true;
  for (int k = 0; k < world->shards(); ++k) {
    const auto to_violations = world->check_to_safety(k);
    const auto vs_violations = world->check_vs_safety(k);
    clean = clean && to_violations.empty() && vs_violations.empty();
    const std::string tag = world->shards() > 1 ? "shard" + std::to_string(k) + " " : "";
    std::printf("\n%sTO safety: %s\n", tag.c_str(),
                to_violations.empty() ? "OK" : to_violations.front().c_str());
    std::printf("%sVS safety: %s\n", tag.c_str(),
                vs_violations.empty() ? "OK" : vs_violations.front().c_str());
    if (world->token_ring(k) != nullptr) {
      const obs::MetricsRegistry& reg = world->shard_metrics(k);
      const auto count = [&reg](const char* name) {
        const obs::Counter* c = reg.find_counter(name);
        return static_cast<unsigned long long>(c == nullptr ? 0 : c->value());
      };
      std::printf("%sprotocol: %llu proposals, %llu views, %llu token passes\n",
                  tag.c_str(), count("ring.formation_rounds"), count("ring.views_installed"),
                  count("ring.token_rotations"));
    }
  }
  return clean ? 0 : 1;
}
