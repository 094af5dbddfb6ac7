// Chaos subsystem: schedule generator, shrinker, campaign, and the
// acceptance demo — re-enable the historical unchecked-decode bug behind
// its flag, let the campaign's oracles catch it, and shrink the failure to
// a small replayable scenario file.

#include <gtest/gtest.h>

#include <algorithm>

#include "chaos/campaign.hpp"
#include "chaos/schedule_gen.hpp"
#include "chaos/shrink.hpp"
#include "harness/scenario_parser.hpp"
#include "harness/world.hpp"
#include "obs/json_util.hpp"
#include "obs/trace_export.hpp"
#include "util/serde.hpp"

namespace vsg::chaos {
namespace {

ScheduleConfig small_schedule() {
  ScheduleConfig cfg;
  cfg.n = 4;
  cfg.horizon = sim::sec(3);
  cfg.quiescence = sim::sec(8);
  cfg.partition_rounds = 2;
  cfg.proc_flips = 2;
  cfg.link_flips = 4;
  cfg.traffic = 8;
  cfg.burst_size = 3;
  cfg.post_heal_traffic = 1;
  return cfg;
}

// --- Generator ------------------------------------------------------------

TEST(ScheduleGen, DeterministicInSeed) {
  const auto cfg = small_schedule();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto a = generate_schedule(cfg, seed);
    const auto b = generate_schedule(cfg, seed);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.run_until, b.run_until);
    EXPECT_EQ(a.bcasts, b.bcasts);
  }
  EXPECT_NE(generate_schedule(cfg, 1).scenario, generate_schedule(cfg, 2).scenario);
}

TEST(ScheduleGen, SchedulesAreValidSortedAndComplete) {
  const auto cfg = small_schedule();
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto g = generate_schedule(cfg, seed);
    EXPECT_EQ(g.run_until, cfg.horizon + cfg.quiescence);

    int bcasts = 0;
    sim::Time prev = 0;
    for (const auto& timed : g.scenario.ops) {
      EXPECT_GE(timed.at, prev) << "seed " << seed << " not sorted";
      prev = timed.at;
      if (const auto* part = std::get_if<harness::OpPartition>(&timed.op)) {
        EXPECT_NO_THROW(harness::World::validate_partition(cfg.n, part->components));
      }
      if (std::get_if<harness::OpBcast>(&timed.op) != nullptr) ++bcasts;
    }
    EXPECT_EQ(bcasts, g.bcasts);

    // Applies cleanly: every op passes World's strict validation.
    harness::WorldConfig wc;
    wc.n = cfg.n;
    harness::World world(wc);
    EXPECT_NO_THROW(g.scenario.apply(world)) << "seed " << seed;
  }
}

TEST(ScheduleGen, EndsWithStabilization) {
  const auto cfg = small_schedule();
  const auto g = generate_schedule(cfg, 3);
  bool heal_at_horizon = false;
  int good_at_horizon = 0;
  for (const auto& timed : g.scenario.ops) {
    if (timed.at != cfg.horizon) continue;
    if (std::get_if<harness::OpHeal>(&timed.op) != nullptr) heal_at_horizon = true;
    if (const auto* ps = std::get_if<harness::OpProcStatus>(&timed.op))
      if (ps->status == sim::Status::kGood) ++good_at_horizon;
  }
  EXPECT_TRUE(heal_at_horizon);
  EXPECT_GE(good_at_horizon, cfg.n);
}

// --- Shrinker (synthetic predicates: no simulation involved) --------------

int count_type(const harness::Scenario& s, const char* which) {
  int c = 0;
  for (const auto& t : s.ops) {
    if (which[0] == 'b' && std::get_if<harness::OpBcast>(&t.op) != nullptr) ++c;
    if (which[0] == 'h' && std::get_if<harness::OpHeal>(&t.op) != nullptr) ++c;
  }
  return c;
}

TEST(Shrink, DdminFindsTheTwoRelevantOps) {
  // 40 ops of noise around one bcast("needle") and one heal; the "failure"
  // needs both. ddmin must get down to exactly those two.
  harness::Scenario s;
  for (int i = 0; i < 20; ++i) s.add(sim::msec(10 * i), harness::OpBcast{0, "noise"});
  s.add(sim::msec(200), harness::OpBcast{1, "needle"});
  for (int i = 0; i < 19; ++i)
    s.add(sim::msec(210 + 10 * i), harness::OpProcStatus{0, sim::Status::kGood});
  s.add(sim::msec(400), harness::OpHeal{});

  auto fails = [](const harness::Scenario& c, int) {
    bool needle = false;
    for (const auto& t : c.ops)
      if (const auto* b = std::get_if<harness::OpBcast>(&t.op))
        if (b->a == "needle") needle = true;
    return needle && count_type(c, "heal") >= 1;
  };
  const auto out = shrink_schedule(s, 4, fails, {});
  ASSERT_EQ(out.scenario.ops.size(), 2u);
  EXPECT_TRUE(fails(out.scenario, out.n));
  EXPECT_GT(out.reductions, 0);
}

TEST(Shrink, UniverseShrinksWhenHighProcessorsIrrelevant) {
  harness::Scenario s;
  s.add(0, harness::OpBcast{0, "x"});
  s.add(sim::msec(1), harness::OpBcast{5, "high"});
  s.add(sim::msec(2), harness::OpPartition{{{0, 1, 2}, {3, 4, 5}}});
  auto fails = [](const harness::Scenario& c, int) {
    for (const auto& t : c.ops)
      if (const auto* b = std::get_if<harness::OpBcast>(&t.op))
        if (b->p == 0) return true;
    return false;
  };
  const auto out = shrink_schedule(s, 6, fails, {});
  EXPECT_EQ(out.n, 2);  // floor of the universe axis
  EXPECT_EQ(out.scenario.ops.size(), 1u);
  // Any surviving partition would have been restricted to [0, n).
  for (const auto& t : out.scenario.ops)
    if (const auto* part = std::get_if<harness::OpPartition>(&t.op))
      for (const auto& comp : part->components)
        for (ProcId p : comp) {
          EXPECT_LT(p, out.n);
        }
}

TEST(Shrink, TimesCompressTowardZero) {
  harness::Scenario s;
  s.add(sim::sec(4), harness::OpBcast{0, "x"});
  s.add(sim::sec(9), harness::OpHeal{});
  auto fails = [](const harness::Scenario& c, int) { return !c.ops.empty(); };
  const auto out = shrink_schedule(s, 2, fails, {});
  ASSERT_EQ(out.scenario.ops.size(), 1u);
  EXPECT_EQ(out.scenario.ops[0].at, 0);
}

TEST(Shrink, RespectsCandidateBudget) {
  harness::Scenario s;
  for (int i = 0; i < 50; ++i) s.add(sim::msec(i), harness::OpBcast{0, "x"});
  int calls = 0;
  auto fails = [&calls](const harness::Scenario&, int) {
    ++calls;
    return true;
  };
  ShrinkOptions opts;
  opts.max_candidates = 10;
  (void)shrink_schedule(s, 2, fails, opts);
  EXPECT_LE(calls, 10);
}

TEST(Shrink, EchoesInputWhenPredicateNeverFails) {
  harness::Scenario s;
  s.add(sim::msec(5), harness::OpBcast{0, "x"});
  auto never = [](const harness::Scenario&, int) { return false; };
  const auto out = shrink_schedule(s, 3, never, {});
  EXPECT_EQ(out.scenario, s);
  EXPECT_EQ(out.n, 3);
  EXPECT_EQ(out.reductions, 0);
}

// --- Campaign -------------------------------------------------------------

TEST(Campaign, SmokeSeedsRunCleanOnRing) {
  CampaignConfig cfg;
  cfg.schedule = small_schedule();
  cfg.seeds = 4;
  auto metrics = std::make_shared<obs::MetricsRegistry>();
  cfg.metrics = metrics;
  const auto result = run_campaign(cfg);
  EXPECT_EQ(result.runs, 4);
  for (const auto& f : result.failures) {
    ADD_FAILURE() << "seed " << f.seed << " violated:";
    for (const auto& v : f.violations) ADD_FAILURE() << "  " << v;
  }
  EXPECT_EQ(metrics->counter("chaos.runs").value(), 4u);
  EXPECT_GT(metrics->counter("chaos.ops.bcast").value(), 0u);
}

TEST(Campaign, SpecBackendRunsAllThreeOracles) {
  CampaignConfig cfg;
  cfg.schedule = small_schedule();
  cfg.schedule.n = 3;
  cfg.backend = harness::Backend::kSpec;
  cfg.seeds = 2;
  const auto result = run_campaign(cfg);
  EXPECT_TRUE(result.ok()) << (result.failures.empty()
                                   ? ""
                                   : result.failures[0].violations[0]);
}

// --- Parallel executor: --jobs N must change nothing but the wall clock ---

TEST(Campaign, ParallelJobsAreBitIdenticalToSequential) {
  CampaignConfig base;
  base.schedule = small_schedule();
  base.seeds = 12;

  CampaignConfig seq = base;
  seq.jobs = 1;
  auto seq_metrics = std::make_shared<obs::MetricsRegistry>();
  seq.metrics = seq_metrics;
  const auto r1 = run_campaign(seq);

  CampaignConfig par = base;
  par.jobs = 4;
  auto par_metrics = std::make_shared<obs::MetricsRegistry>();
  par.metrics = par_metrics;
  const auto r4 = run_campaign(par);

  // Verdicts, per-seed delivery fingerprints, and the seed-order fold.
  ASSERT_EQ(r1.seed_results.size(), 12u);
  EXPECT_EQ(r1.seed_results, r4.seed_results);
  EXPECT_EQ(r1.campaign_fingerprint, r4.campaign_fingerprint);
  EXPECT_EQ(r1.runs, r4.runs);
  EXPECT_EQ(r1.ops, r4.ops);
  ASSERT_EQ(r1.failures.size(), r4.failures.size());

  // The campaign registry — chaos.* counters plus the merged per-World
  // protocol counters — is bit-identical too (Worlds record no wall-clock
  // series; everything merged is a deterministic function of the seeds).
  EXPECT_EQ(seq_metrics->snapshot(), par_metrics->snapshot());
  EXPECT_GT(seq_metrics->counter("net.packets_sent").value(), 0u)
      << "per-World protocol counters were not merged into the campaign registry";
}

TEST(Campaign, SumsSimEventsAndTakesThePeakPending) {
  CampaignConfig cfg;
  cfg.schedule = small_schedule();
  cfg.seeds = 3;
  cfg.shrink = false;
  const auto result = run_campaign(cfg);
  std::uint64_t events = 0;
  std::uint64_t peak = 0;
  for (int i = 0; i < cfg.seeds; ++i) {
    const auto seed = cfg.first_seed + static_cast<std::uint64_t>(i);
    const auto g = generate_schedule(cfg.schedule, seed);
    const RunResult run = run_one(cfg, g.scenario, cfg.schedule.n, seed, g.run_until, g.bcasts);
    EXPECT_GT(run.sim_events, 0u);
    EXPECT_GT(run.sim_peak_pending, 0u);
    EXPECT_LE(run.sim_peak_pending, run.sim_events);
    events += run.sim_events;
    peak = std::max(peak, run.sim_peak_pending);
  }
  EXPECT_EQ(result.sim_events, events);
  EXPECT_EQ(result.sim_peak_pending, peak);

  // Plain fields: jobs change neither.
  CampaignConfig par = cfg;
  par.jobs = 3;
  const auto r3 = run_campaign(par);
  EXPECT_EQ(r3.sim_events, result.sim_events);
  EXPECT_EQ(r3.sim_peak_pending, result.sim_peak_pending);
}

TEST(Campaign, AdmissionGateCampaignIsJobsInvariant) {
  // Flow control under chaos (docs/FLOWCONTROL.md): a campaign with a
  // per-pass boarding budget AND the defer-policy admission gate armed is
  // still a deterministic function of the seeds — the gate and the drain
  // hook live entirely inside the simulated World.
  CampaignConfig base;
  base.schedule = small_schedule();
  base.seeds = 8;
  base.ring.board_budget_bytes = 64;
  base.ring.admission_max_backlog = 8;

  CampaignConfig seq = base;
  seq.jobs = 1;
  auto seq_metrics = std::make_shared<obs::MetricsRegistry>();
  seq.metrics = seq_metrics;
  const auto r1 = run_campaign(seq);

  CampaignConfig par = base;
  par.jobs = 4;
  auto par_metrics = std::make_shared<obs::MetricsRegistry>();
  par.metrics = par_metrics;
  const auto r4 = run_campaign(par);

  ASSERT_EQ(r1.seed_results.size(), 8u);
  EXPECT_EQ(r1.seed_results, r4.seed_results);
  EXPECT_EQ(r1.campaign_fingerprint, r4.campaign_fingerprint);
  EXPECT_EQ(seq_metrics->snapshot(), par_metrics->snapshot());
}

TEST(Campaign, BudgetIsPinnedInReproText) {
  Failure f;
  f.seed = 5;
  f.budget = 128;
  f.minimal.n = 3;
  f.schedule.run_until = sim::sec(5);
  f.minimal.scenario.add(sim::sec(1), harness::OpHeal{});
  const std::string text = repro_text(f);
  EXPECT_NE(text.find("config budget 128"), std::string::npos);
  const auto parsed = harness::parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.meta.budget, 128u);

  // No budget, no pin — default repros stay byte-identical to PR 9's.
  f.budget = 0;
  EXPECT_EQ(repro_text(f).find("config budget"), std::string::npos);
}

TEST(Campaign, ParallelJobsReproduceFailuresIdentically) {
  // Same equivalence, through the failure path: the injected decode bug
  // fires on worker threads (the thread_local flag is re-asserted per
  // task), and shrinking stays serialized in seed order, so --jobs N
  // produces byte-identical minimized repros.
  util::UncheckedDecodeGuard inject;

  CampaignConfig base;
  base.schedule = small_schedule();
  base.first_seed = 133;  // covers seed 138, the known v3-layout hit
  base.seeds = 10;
  base.shrink_options.max_candidates = 150;

  CampaignConfig seq = base;
  seq.jobs = 1;
  const auto r1 = run_campaign(seq);
  CampaignConfig par = base;
  par.jobs = 4;
  const auto r4 = run_campaign(par);

  ASSERT_FALSE(r1.ok());
  ASSERT_EQ(r1.failures.size(), r4.failures.size());
  EXPECT_EQ(r1.campaign_fingerprint, r4.campaign_fingerprint);
  for (std::size_t i = 0; i < r1.failures.size(); ++i) {
    EXPECT_EQ(r1.failures[i].seed, r4.failures[i].seed);
    EXPECT_EQ(r1.failures[i].violations, r4.failures[i].violations);
    EXPECT_EQ(r1.failures[i].minimal.scenario, r4.failures[i].minimal.scenario);
    EXPECT_EQ(repro_text(r1.failures[i]), repro_text(r4.failures[i]));
  }
}

// --- Regressions found by the campaign ------------------------------------

// Seed 248 (full preset): processor 1 crashed between initiating a view
// proposal and its 2*delta deadline; the deadline handler takes no step on a
// bad processor, so `proposing_` stayed set forever and blocked every future
// proposal — 1 stayed split from the group despite 12s of healed network.
// Fixed in membership.cpp (maybe_propose expires dead proposals). Mirrors
// tests/scenarios/chaos_seed248_stuck_proposal.scn, embedded here so the
// test is path-independent.
TEST(Campaign, Regression_Seed248_StuckProposalAfterCrash) {
  const char* text =
      "config n 4\n"
      "config seed 248\n"
      "config until 17s\n"
      "at 340ms proc 1 ugly\n"
      "at 694ms link 0 1 ugly\n"
      "at 1360ms partition 0,1,2,3\n"
      "at 1667ms link 2 3 bad\n"
      "at 3103ms proc 2 bad\n"
      "at 3273ms link 0 1 bad\n"
      "at 3372ms link 0 3 ugly\n"
      "at 3372ms bcast 0 c0.1\n"
      "at 3797ms heal\n"
      "at 4118ms proc 2 good\n"
      "at 4335ms proc 1 bad\n"
      "at 5s proc 0 good\n"
      "at 5s proc 1 good\n"
      "at 5s proc 2 good\n"
      "at 5s proc 3 good\n"
      "at 5s heal\n";
  const auto parsed = harness::parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  CampaignConfig cfg;  // default link model: ugly_corrupt = 0.25, as found
  const auto result = run_one(cfg, *parsed.scenario, *parsed.meta.n, *parsed.meta.seed,
                              *parsed.meta.until, 1);
  EXPECT_TRUE(result.ok()) << (result.violations.empty() ? "" : result.violations[0]);
}

// --- Repro manifest --------------------------------------------------------

TEST(Manifest, ReproManifestJsonListsArtifacts) {
  ManifestEntry e;
  e.seed = 75;
  e.violations = {"to: bad \"order\"", "recovery: diverged"};
  e.scenario_path = "chaos_seed75.scn";
  e.flight_recorder_path = "chaos_seed75_trace.json";
  e.timeline_path = "chaos_seed75_timeline.json";
  e.health_verdicts = {"health: token_stall [aggregate] at 900000us: flat"};
  const std::string json = repro_manifest_json({e}, "CHAOS.json");
  EXPECT_NE(json.find("to: bad \\\"order\\\""), std::string::npos)
      << "violation text must be JSON-escaped";

  // Parse the document back — substring checks alone would not notice
  // structural breakage like mis-quoted strings.
  obs::json::Reader r(json);
  std::string schema, metrics_export;
  std::int64_t failure_count = -1;
  std::vector<std::string> seen_violations, seen_health;
  std::string scenario, recorder, timeline;
  std::int64_t seed = -1;
  r.object([&](const std::string& key) {
    if (key == "schema") {
      schema = r.string();
    } else if (key == "metrics_export") {
      metrics_export = r.string();
    } else if (key == "failure_count") {
      failure_count = r.integer();
    } else if (key == "failures") {
      r.array([&] {
        r.object([&](const std::string& fk) {
          if (fk == "seed") {
            seed = r.integer();
          } else if (fk == "violations") {
            r.array([&] { seen_violations.push_back(r.string()); });
          } else if (fk == "scenario") {
            scenario = r.string();
          } else if (fk == "flight_recorder") {
            recorder = r.string();
          } else if (fk == "timeline") {
            timeline = r.string();
          } else if (fk == "health_events") {
            r.array([&] { seen_health.push_back(r.string()); });
          } else {
            r.skip_value();
          }
        });
      });
    } else {
      r.skip_value();
    }
  });
  ASSERT_TRUE(r.ok() && r.at_end()) << json;
  EXPECT_EQ(schema, "vsg-repro-manifest-v2");
  EXPECT_EQ(metrics_export, "CHAOS.json");
  EXPECT_EQ(seed, 75);
  EXPECT_EQ(seen_violations, e.violations);
  EXPECT_EQ(scenario, "chaos_seed75.scn");
  EXPECT_EQ(recorder, "chaos_seed75_trace.json");
  EXPECT_EQ(timeline, "chaos_seed75_timeline.json");
  EXPECT_EQ(seen_health, e.health_verdicts);
  EXPECT_EQ(failure_count, 1);
}

TEST(Manifest, EmptyFailureListStillWellFormed) {
  const std::string json = repro_manifest_json({}, "");
  EXPECT_NE(json.find("\"vsg-repro-manifest-v2\""), std::string::npos);
  EXPECT_NE(json.find("\"failures\": []"), std::string::npos);
  EXPECT_NE(json.find("\"failure_count\": 0"), std::string::npos);
}

TEST(Manifest, RoundTripsThroughVersionedParser) {
  ManifestEntry e;
  e.seed = 12;
  e.violations = {"health: token_stall [aggregate] at 1us: x"};
  e.scenario_path = "chaos_seed12.scn";
  e.flight_recorder_path = "chaos_seed12_trace.json";
  e.timeline_path = "chaos_seed12_timeline.json";
  e.health_verdicts = e.violations;
  const std::string json = repro_manifest_json({e}, "CHAOS.json");
  EXPECT_NE(json.find("\"schema\": \"vsg-repro-manifest-v2\""), std::string::npos);
  const auto m = parse_repro_manifest(json);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->metrics_export, "CHAOS.json");
  ASSERT_EQ(m->entries.size(), 1u);
  EXPECT_EQ(m->entries[0].seed, 12u);
  EXPECT_EQ(m->entries[0].timeline_path, e.timeline_path);
  EXPECT_EQ(m->entries[0].health_verdicts, e.health_verdicts);
  EXPECT_EQ(m->entries[0].scenario_path, e.scenario_path);
}

TEST(Manifest, V1DocumentsAreRejected) {
  // chaos_runner writes only v2, so the reader accepts only v2: a
  // pre-timeline v1 document is refused like any other schema tag.
  const std::string v1 =
      "{\n  \"schema\": \"vsg-repro-manifest-v1\",\n  \"metrics_export\": \"M.json\",\n"
      "  \"failures\": [\n    {\n      \"seed\": 75,\n"
      "      \"violations\": [\"to: bad\"],\n"
      "      \"scenario\": \"chaos_seed75.scn\",\n"
      "      \"flight_recorder\": \"chaos_seed75_trace.json\"\n    }\n  ],\n"
      "  \"failure_count\": 1\n}\n";
  EXPECT_FALSE(parse_repro_manifest(v1).has_value());
  // The same document under the v2 tag parses: only the tag is refused.
  std::string v2 = v1;
  v2.replace(v2.find("-v1"), 3, "-v2");
  const auto m = parse_repro_manifest(v2);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->entries.size(), 1u);
  EXPECT_EQ(m->entries[0].seed, 75u);
  EXPECT_TRUE(m->entries[0].timeline_path.empty());
  EXPECT_TRUE(m->entries[0].health_verdicts.empty());

  const std::string unknown = "{\"schema\": \"vsg-repro-manifest-v9\", \"failures\": []}";
  EXPECT_FALSE(parse_repro_manifest(unknown).has_value());
}

// --- Health oracle through the campaign ------------------------------------

// Slowing the ring's token launch spacing (pi) past the watchdog bound is
// the stall-injection knob: the singleton fallback keeps rotations moving
// under any schedule, so a natural durable stall would be a liveness bug.
CampaignConfig stall_injected_config() {
  CampaignConfig cfg;
  cfg.schedule = small_schedule();
  cfg.ring.pi = sim::msec(1500);
  cfg.sampler.enabled = true;
  return cfg;
}

TEST(HealthOracle, ReplayReproducesTheSameHealthEventSequence) {
  const CampaignConfig cfg = stall_injected_config();
  const auto g = generate_schedule(cfg.schedule, 21);
  const auto a = run_one(cfg, g.scenario, cfg.schedule.n, 21, g.run_until, g.bcasts);
  const auto b = run_one(cfg, g.scenario, cfg.schedule.n, 21, g.run_until, g.bcasts);
  ASSERT_FALSE(a.health_events.empty());
  EXPECT_EQ(a.health_events, b.health_events);
  bool stalled = false;
  for (const auto& e : a.health_events) stalled |= e.rule == "token_stall";
  EXPECT_TRUE(stalled) << "pi=1500ms past stall_after must trip the stall watchdog";
  EXPECT_EQ(write_timeseries(a.timeline), write_timeseries(b.timeline))
      << "fixed-seed timelines must be byte-identical";
  // Watchdogs observe without judging unless the oracle is armed.
  EXPECT_TRUE(a.ok()) << a.violations.front();
}

TEST(HealthOracle, CampaignRecordsVerdictsAndShrinkPreservesTheRule) {
  CampaignConfig cfg = stall_injected_config();
  cfg.health_oracle = true;
  cfg.first_seed = 21;
  cfg.seeds = 1;
  cfg.shrink_options.max_candidates = 150;
  const auto result = run_campaign(cfg);
  ASSERT_FALSE(result.ok()) << "armed health oracle must fail the stalled seed";
  ASSERT_EQ(result.seed_timelines.size(), 1u);
  EXPECT_FALSE(result.seed_timelines[0].samples.empty());

  const Failure& f = result.failures.front();
  ASSERT_FALSE(f.health_verdicts.empty());
  EXPECT_EQ(f.health_verdicts.front().rfind("health: ", 0), 0u);
  EXPECT_LT(f.minimal.scenario.ops.size(), f.schedule.scenario.ops.size());

  // The ddmin predicate keeps the health rule set: replaying the minimal
  // scenario still trips token_stall.
  const auto replay = run_one(cfg, f.minimal.scenario, f.minimal.n, f.seed,
                              f.schedule.run_until, 0);
  bool stalled = false;
  for (const auto& e : replay.health_events) stalled |= e.rule == "token_stall";
  EXPECT_TRUE(stalled) << "shrink lost the token_stall health event";
}

// --- Acceptance demo: injected fault caught, shrunk, replayable -----------

TEST(Campaign, InjectedDecodeBugIsCaughtShrunkAndReplayable) {
  util::UncheckedDecodeGuard inject;

  CampaignConfig cfg;
  cfg.schedule = small_schedule();
  // Seeds 133..142 cover seed 138, a known hit for the injected bug under
  // the smoke-preset schedule and the v3 wire layout (found by
  // `chaos_runner --seeds 200 --smoke --inject-unchecked-decode`; which
  // corruption offsets slip past an unchecked decoder depends on the byte
  // layout). The surrounding seeds keep the campaign honest about clean
  // runs.
  cfg.first_seed = 133;
  cfg.seeds = 10;
  cfg.shrink_options.max_candidates = 150;
  const auto result = run_campaign(cfg);
  ASSERT_FALSE(result.ok())
      << "unchecked decode injected but no oracle fired in " << result.runs << " runs";

  const Failure& f = result.failures.front();
  EXPECT_FALSE(f.violations.empty());
  EXPECT_LE(f.minimal.scenario.ops.size(), 10u)
      << "shrinker left " << f.minimal.scenario.ops.size() << " ops";
  EXPECT_LT(f.minimal.scenario.ops.size(), f.schedule.scenario.ops.size());

  // The serialized repro parses back to the identical scenario + metadata.
  const std::string text = repro_text(f);
  const auto parsed = harness::parse_scenario(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error << "\n" << text;
  EXPECT_EQ(*parsed.scenario, f.minimal.scenario);
  ASSERT_TRUE(parsed.meta.n.has_value());
  EXPECT_EQ(*parsed.meta.n, f.minimal.n);
  ASSERT_TRUE(parsed.meta.seed.has_value());
  EXPECT_EQ(*parsed.meta.seed, f.seed);
  ASSERT_TRUE(parsed.meta.until.has_value());

  // Replaying the minimal repro still fails with the bug injected. The
  // expected-bcast count mirrors the shrink predicate's recovery oracle.
  int bcasts = 0;
  for (const auto& t : parsed.scenario->ops)
    if (std::get_if<harness::OpBcast>(&t.op) != nullptr) ++bcasts;
  const auto replay = run_one(cfg, *parsed.scenario, *parsed.meta.n, *parsed.meta.seed,
                              *parsed.meta.until, bcasts);
  EXPECT_FALSE(replay.ok()) << "minimal repro did not reproduce";

  // The failure carries a flight recorder of the minimized failing run — a
  // valid Chrome trace (what --repro-dir dumps next to the scenario and
  // indexes from repro_manifest.json).
  ASSERT_FALSE(f.flight_recorder.empty());
  const auto trace_problems = obs::validate_chrome_trace(f.flight_recorder);
  EXPECT_TRUE(trace_problems.empty()) << trace_problems.front();

  // ...and the violation disappears once decoding is strict again. (A
  // safety-class minimal may legitimately end un-healed and not recover;
  // only the safety oracles must go quiet.)
  util::set_unchecked_decode_for_test(false);
  const auto fixed = run_one(cfg, *parsed.scenario, *parsed.meta.n, *parsed.meta.seed,
                             *parsed.meta.until, bcasts);
  util::set_unchecked_decode_for_test(true);  // guard's dtor expects to restore
  for (const auto& v : fixed.violations)
    EXPECT_EQ(v.rfind("recovery:", 0), 0u) << "safety violation survives the fix: " << v;
}

}  // namespace
}  // namespace vsg::chaos
