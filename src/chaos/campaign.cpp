#include "chaos/campaign.hpp"

#include <algorithm>
#include <stdexcept>

#include "chaos/oracles.hpp"
#include "exec/parallel.hpp"
#include "harness/scenario_parser.hpp"
#include "util/hash.hpp"
#include "util/serde.hpp"
#include "obs/json_util.hpp"
#include "obs/trace_export.hpp"

namespace vsg::chaos {
namespace {

int count_bcasts(const harness::Scenario& s) {
  int count = 0;
  for (const auto& timed : s.ops)
    if (std::get_if<harness::OpBcast>(&timed.op) != nullptr) ++count;
  return count;
}

bool is_recovery_violation(const std::string& v) { return v.rfind("recovery:", 0) == 0; }

bool is_health_violation(const std::string& v) { return v.rfind("health:", 0) == 0; }

// Safety = anything that is neither the recovery oracle nor a health
// watchdog verdict (TO / VS / forward-simulation checker output).
bool has_safety_violation(const std::vector<std::string>& vs) {
  for (const auto& v : vs)
    if (!is_recovery_violation(v) && !is_health_violation(v)) return true;
  return false;
}

bool has_recovery_violation(const std::vector<std::string>& vs) {
  for (const auto& v : vs)
    if (is_recovery_violation(v)) return true;
  return false;
}

// The distinct watchdog rules behind a run's health verdicts ("health:
// token_stall [...]" -> "token_stall"). Shrinking preserves this set: a
// candidate only counts as failing if every originally-fired rule fires
// again, so ddmin cannot trade a token stall for, say, a cheaper
// backlog-growth event.
std::set<std::string> health_rule_set(const std::vector<std::string>& vs) {
  std::set<std::string> rules;
  for (const auto& v : vs)
    if (is_health_violation(v)) {
      std::string rest = v.substr(std::string("health: ").size());
      rules.insert(rest.substr(0, rest.find(' ')));
    }
  return rules;
}

// Stabilization suffix: all processors good + heal at `at`. Appended to
// recovery-class shrink candidates so ddmin cannot fake a failure by merely
// dropping the heal (an unhealed partition trivially never recovers).
// gcc-12 -O2 flags the variant move path of vector growth here as
// maybe-uninitialized; it is a known false positive (PR105562).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
harness::Scenario with_stabilization(harness::Scenario s, int n, sim::Time at) {
  for (ProcId p = 0; p < n; ++p) s.add(at, harness::OpProcStatus{p, sim::Status::kGood});
  s.add(at, harness::OpHeal{});
  return s;
}
#pragma GCC diagnostic pop

void count_ops(const harness::Scenario& s, obs::MetricsRegistry& m) {
  for (const auto& timed : s.ops) {
    if (std::get_if<harness::OpBcast>(&timed.op) != nullptr)
      m.counter("chaos.ops.bcast").inc();
    else if (std::get_if<harness::OpPartition>(&timed.op) != nullptr)
      m.counter("chaos.ops.partition").inc();
    else if (std::get_if<harness::OpHeal>(&timed.op) != nullptr)
      m.counter("chaos.ops.heal").inc();
    else if (std::get_if<harness::OpProcStatus>(&timed.op) != nullptr)
      m.counter("chaos.ops.proc_status").inc();
    else
      m.counter("chaos.ops.link_status").inc();
  }
}

// Order-sensitive fold of one seed's digest into the campaign fingerprint
// (the first fold seeds the chain from the FNV offset basis).
std::uint64_t fold_summary(std::uint64_t acc, const SeedSummary& s) {
  const std::uint64_t words[4] = {s.seed, s.delivery_fingerprint, s.delivered_total,
                                  s.violations};
  return util::fnv1a(
      util::BufferView(reinterpret_cast<const std::uint8_t*>(words), sizeof words),
      acc == 0 ? util::kFnvOffset : acc);
}

}  // namespace

RunResult run_one(const CampaignConfig& cfg, const harness::Scenario& scenario, int n,
                  std::uint64_t seed, sim::Time run_until, int expected_bcasts,
                  bool capture_trace) {
  harness::WorldConfig wc;
  wc.n = n;
  wc.backend = cfg.backend;
  wc.seed = seed;
  wc.link = cfg.link;
  wc.ring = cfg.ring;
  wc.exchange = cfg.exchange;
  wc.shards = cfg.shards;
  wc.sampler = cfg.sampler;
  // Only capture re-runs trace (default flight-recorder capacity); campaign
  // runs stay bit-identical to untraced fixed-seed runs.
  wc.trace.enabled = capture_trace;
  harness::World world(wc);
  OracleSet oracles(world);

  RunResult result;
  try {
    scenario.apply(world);
  } catch (const std::invalid_argument& e) {
    // A malformed schedule is itself a failure (the generator and shrinker
    // only produce valid ones; replayed files may not).
    result.violations.push_back(std::string("schedule rejected: ") + e.what());
    return result;
  }
  world.run_until(run_until);
  result.sim_events = world.simulator().events_processed();
  result.sim_peak_pending = world.simulator().peak_pending();
  oracles.finalize();
  result.violations = oracles.violations();

  if (cfg.check_recovery) {
    // Across shards: the per-shard sequences together account for every
    // scripted broadcast (each bcast routes to exactly one shard, so the
    // sum must match). Per shard: all processors agree on one sequence.
    std::size_t delivered_at_p0 = 0;
    for (int k = 0; k < world.shards(); ++k)
      delivered_at_p0 += world.stack(k).process(0).delivered().size();
    if (expected_bcasts >= 0 &&
        delivered_at_p0 != static_cast<std::size_t>(expected_bcasts))
      result.violations.push_back(
          "recovery: processor 0 delivered " + std::to_string(delivered_at_p0) + "/" +
          std::to_string(expected_bcasts) + " values after stabilization");
    for (int k = 0; k < world.shards(); ++k) {
      const auto& reference = world.stack(k).process(0).delivered();
      for (ProcId p = 1; p < n; ++p)
        if (world.stack(k).process(p).delivered() != reference) {
          result.violations.push_back(
              "recovery: delivered sequence at processor " + std::to_string(p) +
              (world.shards() > 1 ? " shard " + std::to_string(k) : "") +
              " diverges from processor 0");
          break;
        }
    }
  }
  // Delivery fingerprint: per-delivery fnv1a over (processor, origin,
  // value), combined commutatively. Order-insensitive on purpose — the TO
  // specification admits many total orders, and two protocol variants (the
  // exchange cross-check runs full-summary and digest/delta exchanges side by
  // side) may pick different ones while delivering exactly the same values
  // to exactly the same processors. Order agreement *within* a run is the
  // TO oracle's job, not the fingerprint's.
  std::uint64_t fp = 0;
  for (int k = 0; k < world.shards(); ++k) {
    for (ProcId p = 0; p < n; ++p) {
      for (const auto& [origin, value] : world.stack(k).process(p).delivered()) {
        // Shard 0 keeps the historical 2-byte head so a K=1 campaign's
        // fingerprint is bit-identical to the pre-sharding one; shards
        // beyond 0 fold their index in so deliveries never alias across
        // rings.
        const std::uint8_t head[3] = {static_cast<std::uint8_t>(k),
                                      static_cast<std::uint8_t>(p),
                                      static_cast<std::uint8_t>(origin)};
        const util::BufferView head_view(k == 0 ? head + 1 : head,
                                         k == 0 ? sizeof head - 1 : sizeof head);
        fp += util::fnv1a(
            util::BufferView(reinterpret_cast<const std::uint8_t*>(value.data()),
                             value.size()),
            util::fnv1a(head_view));
        ++result.delivered_total;
      }
    }
  }
  result.delivery_fingerprint = fp;
  if (world.sampler() != nullptr) {
    // Twice at the same instant so the final sample includes any health.*
    // bumps the first pass produced (see World::write_timeline).
    world.sampler()->sample_now(world.simulator().now());
    world.sampler()->sample_now(world.simulator().now());
    result.timeline = world.sampler()->doc();
    result.health_events = world.sampler()->health().events();
    if (cfg.health_oracle)
      for (auto& v : world.sampler()->health().verdicts())
        result.violations.push_back(std::move(v));
  }
  world.collect_shard_metrics();
  result.world_metrics = world.metrics().snapshot();
  if (capture_trace && world.tracer() != nullptr)
    result.flight_recorder = obs::chrome_trace_json(world.tracers());
  return result;
}

CampaignResult run_campaign(const CampaignConfig& cfg) {
  auto metrics = cfg.metrics != nullptr ? cfg.metrics
                                        : std::make_shared<obs::MetricsRegistry>();
  // Touch the headline counters so a clean campaign exports explicit zeros
  // (counters only materialize on first increment).
  metrics->counter("chaos.runs");
  metrics->counter("chaos.failures");
  metrics->counter("chaos.violations");
  CampaignResult result;
  if (cfg.seeds <= 0) return result;

  // Phase 1 — run every seed, possibly in parallel. Each task touches only
  // its own slot; schedule generation and the World are deterministic
  // functions of (cfg, seed), so the slot contents are independent of jobs
  // and of which thread ran them. The unchecked-decode injection flag is
  // thread_local (util/serde.hpp), so each worker re-asserts the spawning
  // thread's value before building its World.
  struct SeedOutcome {
    GeneratedSchedule schedule;
    RunResult run;
  };
  std::vector<SeedOutcome> outcomes(static_cast<std::size_t>(cfg.seeds));
  const bool inject_unchecked = util::unchecked_decode();
  exec::run_parallel(cfg.jobs, outcomes.size(), [&](std::size_t i) {
    util::set_unchecked_decode_for_test(inject_unchecked);
    const std::uint64_t seed = cfg.first_seed + static_cast<std::uint64_t>(i);
    SeedOutcome& out = outcomes[i];
    out.schedule = generate_schedule(cfg.schedule, seed);
    out.run = run_one(cfg, out.schedule.scenario, cfg.schedule.n, seed,
                      out.schedule.run_until, out.schedule.bcasts);
  });

  // Phase 2 — aggregate and shrink, serialized in seed order: metrics
  // merges, op counting, fingerprint folding, and the ddmin re-runs all
  // happen on this thread, so the campaign registry and failure list are
  // bit-identical across jobs values.
  for (int i = 0; i < cfg.seeds; ++i) {
    const std::uint64_t seed = cfg.first_seed + static_cast<std::uint64_t>(i);
    GeneratedSchedule& schedule = outcomes[static_cast<std::size_t>(i)].schedule;
    RunResult& run = outcomes[static_cast<std::size_t>(i)].run;
    metrics->counter("chaos.runs").inc();
    count_ops(schedule.scenario, *metrics);
    metrics->merge_from(run.world_metrics);
    result.ops += schedule.scenario.ops.size();
    result.sim_events += run.sim_events;
    result.sim_peak_pending = std::max(result.sim_peak_pending, run.sim_peak_pending);
    ++result.runs;
    if (cfg.sampler.enabled) result.seed_timelines.push_back(std::move(run.timeline));

    SeedSummary summary;
    summary.seed = seed;
    summary.delivery_fingerprint = run.delivery_fingerprint;
    summary.delivered_total = run.delivered_total;
    summary.violations = static_cast<std::uint32_t>(run.violations.size());
    result.campaign_fingerprint = fold_summary(result.campaign_fingerprint, summary);
    result.seed_results.push_back(summary);

    if (run.ok()) continue;

    metrics->counter("chaos.failures").inc();
    metrics->counter("chaos.violations").inc(run.violations.size());

    Failure failure;
    failure.seed = seed;
    failure.shards = cfg.shards;
    failure.budget = cfg.ring.board_budget_bytes;
    failure.violations = run.violations;
    for (const auto& e : run.health_events)
      failure.health_verdicts.push_back(obs::to_verdict(e));
    failure.schedule = schedule;
    if (cfg.shrink) {
      // Preserve the failure class while shrinking. Safety violations (TO /
      // VS / forward-simulation) must survive as safety violations; for
      // failures involving the recovery oracle every candidate gets the
      // stabilization suffix re-appended, and the recovery oracle uses the
      // candidate's own bcast count (dropping a bcast legitimately lowers
      // it); health verdicts must re-fire the same rule set.
      const bool safety = has_safety_violation(run.violations);
      const bool recovery = has_recovery_violation(run.violations);
      const std::set<std::string> rules = health_rule_set(run.violations);
      const sim::Time run_until = schedule.run_until;
      const sim::Time horizon = cfg.schedule.horizon;
      auto fails = [&cfg, seed, run_until, horizon, safety, recovery,
                    &rules](const harness::Scenario& s, int n) {
        harness::Scenario candidate =
            !safety && recovery ? with_stabilization(s, n, horizon) : s;
        const RunResult r =
            run_one(cfg, candidate, n, seed, run_until, count_bcasts(candidate));
        if (safety) return has_safety_violation(r.violations);
        if (!rules.empty()) {
          const std::set<std::string> got = health_rule_set(r.violations);
          for (const auto& rule : rules)
            if (got.count(rule) == 0) return false;
        }
        return recovery ? !r.ok() : true;
      };
      failure.minimal =
          shrink_schedule(schedule.scenario, cfg.schedule.n, fails, cfg.shrink_options);
      if (!safety && recovery)
        failure.minimal.scenario =
            with_stabilization(std::move(failure.minimal.scenario), failure.minimal.n, horizon);
      metrics->counter("chaos.shrink.candidates")
          .inc(static_cast<std::uint64_t>(failure.minimal.candidates));
      metrics->counter("chaos.shrink.reductions")
          .inc(static_cast<std::uint64_t>(failure.minimal.reductions));
    } else {
      failure.minimal = ShrinkOutcome{schedule.scenario, cfg.schedule.n, 0, 0};
    }
    // Flight recorder: re-run the minimized scenario with tracing on. The
    // tracer does not perturb the protocol, so this traces the exact failing
    // execution; -1 skips the completeness count (shrinking may have dropped
    // bcasts) while keeping the order-agreement check.
    failure.flight_recorder =
        run_one(cfg, failure.minimal.scenario, failure.minimal.n, seed,
                schedule.run_until, -1, /*capture_trace=*/true)
            .flight_recorder;
    result.failures.push_back(std::move(failure));
  }
  return result;
}

std::string repro_text(const Failure& f) {
  harness::ScenarioMeta meta;
  meta.n = f.minimal.n;
  meta.seed = f.seed;
  meta.until = f.schedule.run_until;
  // Pin the frame layout the repro's corruption offsets were drawn against
  // (docs/WIRE.md, "Scenario pinning").
  meta.wire = static_cast<int>(membership::TokenRingConfig::wire);
  if (f.shards > 1) meta.shards = f.shards;
  if (f.budget > 0) meta.budget = f.budget;
  std::string text = "# chaos repro: seed " + std::to_string(f.seed) + ", " +
                     std::to_string(f.minimal.scenario.ops.size()) + " ops (from " +
                     std::to_string(f.schedule.scenario.ops.size()) + ")\n";
  for (const auto& v : f.violations) text += "# " + v + "\n";
  return text + write_scenario(f.minimal.scenario, meta);
}

std::string repro_manifest_json(const std::vector<ManifestEntry>& entries,
                                const std::string& metrics_export_path) {
  // append_escaped emits the surrounding quotes.
  std::string out = "{\n  \"schema\": \"vsg-repro-manifest-v2\",\n  \"metrics_export\": ";
  obs::json::append_escaped(out, metrics_export_path);
  out += ",\n  \"failures\": [";
  bool first_entry = true;
  for (const auto& e : entries) {
    out += first_entry ? "\n" : ",\n";
    first_entry = false;
    out += "    {\n      \"seed\": " + std::to_string(e.seed) + ",\n      \"violations\": [";
    bool first_v = true;
    for (const auto& v : e.violations) {
      if (!first_v) out += ", ";
      first_v = false;
      obs::json::append_escaped(out, v);
    }
    out += "],\n      \"scenario\": ";
    obs::json::append_escaped(out, e.scenario_path);
    out += ",\n      \"flight_recorder\": ";
    obs::json::append_escaped(out, e.flight_recorder_path);
    out += ",\n      \"timeline\": ";
    obs::json::append_escaped(out, e.timeline_path);
    out += ",\n      \"health_events\": [";
    first_v = true;
    for (const auto& v : e.health_verdicts) {
      if (!first_v) out += ", ";
      first_v = false;
      obs::json::append_escaped(out, v);
    }
    out += "]\n    }";
  }
  out += entries.empty() ? "],\n" : "\n  ],\n";
  out += "  \"failure_count\": " + std::to_string(entries.size()) + "\n}\n";
  return out;
}

std::optional<Manifest> parse_repro_manifest(const std::string& json) {
  obs::json::Reader r(json);
  Manifest m;
  bool schema = false;
  r.object([&](const std::string& key) {
    if (key == "schema") {
      schema = r.string() == "vsg-repro-manifest-v2";
      if (!schema) r.fail();
    } else if (key == "metrics_export") {
      m.metrics_export = r.string();
    } else if (key == "failures") {
      r.array([&] {
        ManifestEntry e;
        r.object([&](const std::string& field) {
          if (field == "seed") {
            e.seed = static_cast<std::uint64_t>(r.integer());
          } else if (field == "violations") {
            r.array([&] { e.violations.push_back(r.string()); });
          } else if (field == "scenario") {
            e.scenario_path = r.string();
          } else if (field == "flight_recorder") {
            e.flight_recorder_path = r.string();
          } else if (field == "timeline") {
            e.timeline_path = r.string();
          } else if (field == "health_events") {
            r.array([&] { e.health_verdicts.push_back(r.string()); });
          } else {
            r.skip_value();
          }
        });
        m.entries.push_back(std::move(e));
      });
    } else {
      r.skip_value();
    }
  });
  if (!r.ok() || !r.at_end() || !schema) return std::nullopt;
  return m;
}

}  // namespace vsg::chaos
