// Chaos campaign runner: seeded random fault schedules against the full
// stack with the VS / TO / forward-simulation trace checkers attached as
// online oracles, plus a post-stabilization recovery oracle. Failures are
// delta-debug shrunk and written out as replayable scenario files.
//
//   $ ./chaos_runner --seeds 200 --smoke            # CI smoke campaign
//   $ ./chaos_runner --seeds 50 --n 5 --export CHAOS.json
//   $ ./chaos_runner --replay tests/scenarios/some_repro.scn
//   $ ./chaos_runner --replay repro.scn --trace-out repro.trace.json
//   $ ./chaos_runner --seeds 20 --inject-unchecked-decode --repro-dir /tmp
//   $ ./chaos_runner --seeds 50 --smoke --timeline-out /tmp/tl   # dir, 1/seed
//   $ ./chaos_runner --replay repro.scn --timeline-out repro_timeline.json
//
// With --repro-dir, each failure produces chaos_seed<S>.scn (minimized
// scenario) and chaos_seed<S>_trace.json (flight recorder of the failing
// run, Perfetto-loadable), indexed by a single repro_manifest.json.
//
// Exit status: 0 when every run (or the replay) is clean, 1 on violations,
// 2 on usage/IO errors.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "chaos/campaign.hpp"
#include "exec/parallel.hpp"
#include "harness/scenario_parser.hpp"
#include "membership/messages.hpp"
#include "obs/json_exporter.hpp"
#include "obs/stopwatch.hpp"
#include "util/serde.hpp"

using namespace vsg;

namespace {

struct Options {
  int seeds = 50;
  std::uint64_t first_seed = 1;
  int jobs = 1;  // worker threads for per-seed runs; 0 = hardware concurrency
  int n = 4;
  int shards = 1;   // independent VStoTO stacks per World
  int domains = 0;  // correlated failure-domain events per schedule
  harness::Backend backend = harness::Backend::kTokenRing;
  bool smoke = false;
  bool shrink = true;
  bool inject_unchecked_decode = false;
  bool cross_check = false;  // run each seed under both exchange modes, compare
  // Per-pass boarding budget in bytes (0: unbounded): the campaign squeezes
  // client traffic through a capacity bound (docs/FLOWCONTROL.md).
  std::uint64_t budget = 0;
  double corrupt = 0.25;
  std::string replay_file;
  std::string decode_frame_file;   // decode one canned frame file, report verdict
  std::string emit_golden_dir;     // write the golden frame fixtures and exit
  std::string repro_dir;
  std::string export_path;
  std::string trace_out;  // replay mode: Chrome trace of the replayed run
  // Virtual-time telemetry (docs/OBSERVABILITY.md, "Timelines"): replay
  // mode writes one vsg-timeseries-v1 file; campaign mode treats the value
  // as a directory and writes timeline_seed<S>.json per seed.
  std::string timeline_out;
  bool health_oracle = false;  // health watchdog events fail their seed
  int stall_ms = 0;            // 0: HealthConfig default stall bound
  // Token launch spacing override in ms (0: TokenRingConfig default). The
  // stall-injection knob: pi beyond the watchdog's stall bound makes every
  // inter-launch gap a token_stall episode — the protocol's singleton
  // fallback otherwise keeps rotations moving under any schedule, so a
  // natural durable stall is by construction a liveness bug.
  int pi_ms = 0;
  sim::Time replay_until = 0;  // 0: meta / last op + tail
};

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--seeds") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.seeds = std::atoi(v);
    } else if (arg == "--first-seed") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.first_seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.jobs = std::atoi(v);
      if (opt.jobs < 0) return false;
    } else if (arg == "--n") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.n = std::atoi(v);
      if (opt.n < 1) return false;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.shards = std::atoi(v);
      if (opt.shards < 1 || opt.shards > harness::kMaxShards) return false;
    } else if (arg == "--domains") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.domains = std::atoi(v);
      if (opt.domains < 0) return false;
    } else if (arg == "--backend") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "ring") == 0)
        opt.backend = harness::Backend::kTokenRing;
      else if (std::strcmp(v, "spec") == 0)
        opt.backend = harness::Backend::kSpec;
      else
        return false;
    } else if (arg == "--corrupt") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.corrupt = std::atof(v);
    } else if (arg == "--budget") {
      const char* v = next();
      if (v == nullptr) return false;
      const long long b = std::atoll(v);
      if (b < 1) return false;
      opt.budget = static_cast<std::uint64_t>(b);
    } else if (arg == "--cross-check") {
      opt.cross_check = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--no-shrink") {
      opt.shrink = false;
    } else if (arg == "--inject-unchecked-decode") {
      opt.inject_unchecked_decode = true;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.replay_file = v;
    } else if (arg == "--decode-frame") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.decode_frame_file = v;
    } else if (arg == "--emit-golden-frames") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.emit_golden_dir = v;
    } else if (arg == "--until") {
      const char* v = next();
      if (v == nullptr) return false;
      const auto t = harness::parse_duration(v);
      if (!t.has_value()) return false;
      opt.replay_until = *t;
    } else if (arg == "--repro-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.repro_dir = v;
    } else if (arg == "--export") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.export_path = v;
    } else if (arg.rfind("--export=", 0) == 0) {
      opt.export_path = arg.substr(9);
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.trace_out = v;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      opt.trace_out = arg.substr(12);
    } else if (arg == "--timeline-out") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.timeline_out = v;
    } else if (arg.rfind("--timeline-out=", 0) == 0) {
      opt.timeline_out = arg.substr(15);
    } else if (arg == "--health-oracle") {
      opt.health_oracle = true;
    } else if (arg == "--stall-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.stall_ms = std::atoi(v);
      if (opt.stall_ms < 1) return false;
    } else if (arg == "--pi") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.pi_ms = std::atoi(v);
      if (opt.pi_ms < 1) return false;
    } else {
      return false;
    }
  }
  return true;
}

chaos::CampaignConfig campaign_config(const Options& opt) {
  chaos::CampaignConfig cfg;
  cfg.schedule.n = opt.n;
  cfg.schedule.failure_domains = opt.domains;
  cfg.shards = opt.shards;
  cfg.backend = opt.backend;
  cfg.link.ugly_corrupt = opt.corrupt;
  cfg.first_seed = opt.first_seed;
  cfg.seeds = opt.seeds;
  cfg.jobs = opt.jobs;
  cfg.shrink = opt.shrink;
  if (opt.pi_ms > 0) cfg.ring.pi = sim::msec(opt.pi_ms);
  cfg.ring.board_budget_bytes = static_cast<std::size_t>(opt.budget);
  // --health-oracle implies sampling (the watchdogs evaluate samples).
  if (!opt.timeline_out.empty() || opt.health_oracle) cfg.sampler.enabled = true;
  if (opt.stall_ms > 0) cfg.sampler.health.stall_after = sim::msec(opt.stall_ms);
  cfg.health_oracle = opt.health_oracle;
  if (opt.smoke) {
    // CI preset: shorter chaos window and tail, fewer ops per seed, so 200
    // seeds finish in seconds while still covering every op kind.
    cfg.schedule.horizon = sim::sec(3);
    cfg.schedule.quiescence = sim::sec(8);
    cfg.schedule.partition_rounds = 2;
    cfg.schedule.proc_flips = 2;
    cfg.schedule.link_flips = 4;
    cfg.schedule.traffic = 8;
    cfg.schedule.burst_size = 3;
    cfg.schedule.post_heal_traffic = 1;
  }
  return cfg;
}

int replay(const Options& opt) {
  std::ifstream in(opt.replay_file);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opt.replay_file.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = harness::parse_scenario(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "scenario error in %s: %s\n", opt.replay_file.c_str(),
                 parsed.error.c_str());
    return 2;
  }
  // CLI flags override file metadata; metadata overrides defaults.
  const int n = parsed.meta.n.value_or(opt.n);
  const std::uint64_t seed = parsed.meta.seed.value_or(opt.first_seed);
  sim::Time until = opt.replay_until;
  if (until == 0) until = parsed.meta.until.value_or(parsed.scenario->last_time() + sim::sec(12));

  if (const std::string refusal = harness::refuse_pins(parsed.meta); !refusal.empty()) {
    std::fprintf(stderr, "%s %s\n", opt.replay_file.c_str(), refusal.c_str());
    return 2;
  }
  chaos::CampaignConfig cfg = campaign_config(opt);
  if (parsed.meta.shards.has_value()) {
    cfg.shards = *parsed.meta.shards;
    if (cfg.shards > 1 && cfg.backend == harness::Backend::kSpec) {
      std::fprintf(stderr, "%s pins shards %d, which requires the ring backend\n",
                   opt.replay_file.c_str(), cfg.shards);
      return 2;
    }
  }
  // A repro minimized under a capacity bound replays under the same bound.
  if (parsed.meta.budget.has_value())
    cfg.ring.board_budget_bytes = static_cast<std::size_t>(*parsed.meta.budget);
  // Hand-written scenarios may not deliver every bcast everywhere (e.g. a
  // final partition); only order agreement is enforced on replay.
  const bool trace = !opt.trace_out.empty();
  const auto result = chaos::run_one(cfg, *parsed.scenario, n, seed, until, -1, trace);
  std::printf("replay %s: n=%d seed=%llu until=%s — %s\n", opt.replay_file.c_str(), n,
              static_cast<unsigned long long>(seed),
              harness::format_duration(until).c_str(),
              result.ok() ? "clean" : "VIOLATIONS");
  for (const auto& v : result.violations) std::printf("  %s\n", v.c_str());
  if (cfg.sampler.enabled) {
    // Under --health-oracle these already printed as violations above.
    if (!cfg.health_oracle)
      for (const auto& e : result.health_events)
        std::printf("  %s\n", obs::to_verdict(e).c_str());
    if (!opt.timeline_out.empty()) {
      std::ofstream out(opt.timeline_out);
      out << obs::write_timeseries(result.timeline);
      if (out)
        std::printf("timeline written to %s (%zu samples, %zu health events)\n",
                    opt.timeline_out.c_str(), result.timeline.samples.size(),
                    result.timeline.health_events.size());
      else {
        std::fprintf(stderr, "cannot write %s\n", opt.timeline_out.c_str());
        return 2;
      }
    }
  }
  if (trace) {
    std::ofstream out(opt.trace_out);
    out << result.flight_recorder;
    if (out)
      std::printf("trace written to %s (load in https://ui.perfetto.dev)\n",
                  opt.trace_out.c_str());
    else {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
      return 2;
    }
  }
  return result.ok() ? 0 : 1;
}

// The packet frozen into the golden frame fixtures (tests/wire/). check.sh
// re-decodes the committed files on every run, so a layout change that can
// no longer read the committed bytes fails the gate instead of shipping.
// Regenerate (with --emit-golden-frames tests/wire) only when the layout
// changes on purpose, together with its version byte.
membership::Packet golden_packet() {
  membership::Token t;
  t.gid = core::ViewId{6, 1};
  t.lap = 11;
  t.base = 3;
  t.entries = {{0, util::Bytes{1, 2, 3}},
               {0, util::Bytes{4}},
               {2, util::Bytes{}},
               {1, util::Bytes{5, 6}}};
  t.delivered = {{0, 5}, {1, 4}, {2, 6}};
  return membership::Packet{t};
}

bool write_binary(const std::string& path, const util::Bytes& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
  return true;
}

int emit_golden_frames(const Options& opt) {
  auto bytes = membership::encode_packet(golden_packet()).to_bytes();
  if (!write_binary(opt.emit_golden_dir + "/golden_v3.frame", bytes)) return 2;
  // A structurally valid frame whose version byte is one past the known
  // version: decoders must refuse it outright, never guess a layout.
  auto unknown = bytes;
  unknown[0] = 4;
  if (!write_binary(opt.emit_golden_dir + "/unknown_version.frame", unknown)) return 2;
  return 0;
}

int decode_frame(const Options& opt) {
  std::ifstream in(opt.decode_frame_file, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opt.decode_frame_file.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string& s = buf.str();
  util::Bytes bytes(s.begin(), s.end());
  const std::uint8_t version = bytes.empty() ? 0 : bytes[0];
  const auto out = membership::decode_packet_ex(util::Buffer{std::move(bytes)});
  if (!out.ok()) {
    std::printf("%s: refused — %s\n", opt.decode_frame_file.c_str(), out.error.c_str());
    return 1;
  }
  std::printf("%s: v%u frame, packet tag %zu — decodes clean\n",
              opt.decode_frame_file.c_str(), version, out.value->index());
  return 0;
}

// Exchange cross-check: every seed's schedule runs twice — once with the
// paper's whole-summary state exchange and once with digest/delta — and the
// two shadow runs must agree on every oracle verdict and on the delivered
// (origin, value) multiset at every processor. This is the equivalence
// claim behind the compact exchange: it changes how knowledge moves, never
// what gets delivered.
int cross_check(const Options& opt) {
  chaos::CampaignConfig base = campaign_config(opt);
  std::printf("exchange cross-check: %d seeds from %llu, n=%d, full summary vs "
              "digest/delta%s\n",
              base.seeds, static_cast<unsigned long long>(base.first_seed),
              base.schedule.n, opt.smoke ? " (smoke preset)" : "");

  chaos::CampaignConfig full = base;
  full.exchange = vstoto::ExchangeMode::kFullSummary;
  chaos::CampaignConfig delta = base;
  delta.exchange = vstoto::ExchangeMode::kDigestDelta;

  // Both shadow runs of every seed are independent Worlds; fan them out
  // like the campaign does and report serially in seed order.
  std::vector<chaos::RunResult> full_runs(static_cast<std::size_t>(base.seeds));
  std::vector<chaos::RunResult> delta_runs(static_cast<std::size_t>(base.seeds));
  const bool inject = util::unchecked_decode();  // thread_local: re-assert per worker
  exec::run_parallel(opt.jobs, full_runs.size(), [&](std::size_t i) {
    util::set_unchecked_decode_for_test(inject);
    const std::uint64_t seed = base.first_seed + static_cast<std::uint64_t>(i);
    const chaos::GeneratedSchedule schedule = chaos::generate_schedule(base.schedule, seed);
    full_runs[i] = chaos::run_one(full, schedule.scenario, base.schedule.n, seed,
                                  schedule.run_until, schedule.bcasts);
    delta_runs[i] = chaos::run_one(delta, schedule.scenario, base.schedule.n, seed,
                                   schedule.run_until, schedule.bcasts);
  });

  int mismatches = 0;
  int dirty = 0;
  for (int i = 0; i < base.seeds; ++i) {
    const std::uint64_t seed = base.first_seed + static_cast<std::uint64_t>(i);
    const auto& f = full_runs[static_cast<std::size_t>(i)];
    const auto& d = delta_runs[static_cast<std::size_t>(i)];
    if (!f.ok() || !d.ok()) {
      ++dirty;
      std::printf("seed %llu: violations under %s\n",
                  static_cast<unsigned long long>(seed),
                  !f.ok() && !d.ok() ? "both modes" : (!f.ok() ? "full" : "delta"));
      for (const auto& v : f.violations) std::printf("  [full] %s\n", v.c_str());
      for (const auto& v : d.violations) std::printf("  [delta] %s\n", v.c_str());
    }
    if (f.violations != d.violations) {
      ++mismatches;
      std::printf("seed %llu MISMATCH: oracle verdicts differ (%zu under full, %zu under "
                  "delta)\n",
                  static_cast<unsigned long long>(seed), f.violations.size(),
                  d.violations.size());
    }
    if (f.delivery_fingerprint != d.delivery_fingerprint ||
        f.delivered_total != d.delivered_total) {
      ++mismatches;
      std::printf("seed %llu MISMATCH: deliveries diverge (full %llu values fp=%016llx, "
                  "delta %llu values fp=%016llx)\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(f.delivered_total),
                  static_cast<unsigned long long>(f.delivery_fingerprint),
                  static_cast<unsigned long long>(d.delivered_total),
                  static_cast<unsigned long long>(d.delivery_fingerprint));
    }
  }
  std::printf("%d/%d seeds agree across exchange modes (%d with violations under some "
              "mode)\n",
              base.seeds - mismatches, base.seeds, dirty);
  if (mismatches > 0) return 1;
  return dirty > 0 ? 1 : 0;
}

int campaign(const Options& opt) {
  chaos::CampaignConfig cfg = campaign_config(opt);
  cfg.metrics = std::make_shared<obs::MetricsRegistry>();
  const int jobs =
      exec::effective_jobs(cfg.jobs, static_cast<std::size_t>(cfg.seeds > 0 ? cfg.seeds : 0));
  const std::string shards_note =
      cfg.shards > 1 ? ", shards=" + std::to_string(cfg.shards) : "";
  std::printf("chaos campaign: %d seeds from %llu, n=%d%s, backend=%s, jobs=%d%s%s\n",
              cfg.seeds, static_cast<unsigned long long>(cfg.first_seed), cfg.schedule.n,
              shards_note.c_str(),
              cfg.backend == harness::Backend::kSpec ? "spec" : "ring", jobs,
              opt.smoke ? " (smoke preset)" : "",
              opt.inject_unchecked_decode ? " [FAULT INJECTED: unchecked decode]" : "");

  const std::int64_t wall_start = obs::wall_now_us();
  const auto result = chaos::run_campaign(cfg);
  const std::int64_t wall_us = obs::wall_now_us() - wall_start;
  // Runner-side evidence gauges: wall time and jobs are properties of this
  // invocation, not of the (jobs-invariant) campaign itself, so they are
  // recorded here rather than inside run_campaign.
  cfg.metrics->gauge("chaos.campaign.wall_us").set(wall_us);
  cfg.metrics->gauge("chaos.campaign.jobs").set(jobs);

  if (!opt.timeline_out.empty()) {
    std::size_t health_seeds = 0;
    for (std::size_t i = 0; i < result.seed_timelines.size(); ++i) {
      const std::uint64_t seed = cfg.first_seed + static_cast<std::uint64_t>(i);
      const std::string path =
          opt.timeline_out + "/timeline_seed" + std::to_string(seed) + ".json";
      std::ofstream out(path);
      out << obs::write_timeseries(result.seed_timelines[i]);
      if (!out) {
        std::fprintf(stderr, "cannot write %s (does the directory exist?)\n",
                     path.c_str());
        return 2;
      }
      if (!result.seed_timelines[i].health_events.empty()) ++health_seeds;
    }
    std::printf("%zu timelines written to %s/ (%zu seed%s with health events)\n",
                result.seed_timelines.size(), opt.timeline_out.c_str(), health_seeds,
                health_seeds == 1 ? "" : "s");
  }

  std::vector<chaos::ManifestEntry> manifest;
  for (const auto& f : result.failures) {
    std::printf("seed %llu FAILED (%zu violation%s), shrunk %zu -> %zu ops (n=%d, %d "
                "candidates)\n",
                static_cast<unsigned long long>(f.seed), f.violations.size(),
                f.violations.size() == 1 ? "" : "s", f.schedule.scenario.ops.size(),
                f.minimal.scenario.ops.size(), f.minimal.n, f.minimal.candidates);
    for (const auto& v : f.violations) std::printf("  %s\n", v.c_str());
    if (!opt.repro_dir.empty()) {
      chaos::ManifestEntry entry;
      entry.seed = f.seed;
      entry.violations = f.violations;
      const std::string base = "chaos_seed" + std::to_string(f.seed);
      const std::string path = opt.repro_dir + "/" + base + ".scn";
      std::ofstream out(path);
      out << chaos::repro_text(f);
      if (out) {
        entry.scenario_path = base + ".scn";
        std::printf("  repro written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "  cannot write %s (does the directory exist?)\n",
                     path.c_str());
      }
      if (!f.flight_recorder.empty()) {
        const std::string trace_path = opt.repro_dir + "/" + base + "_trace.json";
        std::ofstream tout(trace_path);
        tout << f.flight_recorder;
        if (tout) {
          entry.flight_recorder_path = base + "_trace.json";
          std::printf("  flight recorder written to %s\n", trace_path.c_str());
        } else {
          std::fprintf(stderr, "  cannot write %s\n", trace_path.c_str());
        }
      }
      // The failing seed's timeline lives next to the trace so the manifest
      // indexes a complete artifact set regardless of --timeline-out.
      const std::size_t idx = static_cast<std::size_t>(f.seed - cfg.first_seed);
      if (cfg.sampler.enabled && idx < result.seed_timelines.size()) {
        const std::string tl_path = opt.repro_dir + "/" + base + "_timeline.json";
        std::ofstream tl(tl_path);
        tl << obs::write_timeseries(result.seed_timelines[idx]);
        if (tl) {
          entry.timeline_path = base + "_timeline.json";
          std::printf("  timeline written to %s\n", tl_path.c_str());
        } else {
          std::fprintf(stderr, "  cannot write %s\n", tl_path.c_str());
        }
      }
      entry.health_verdicts = f.health_verdicts;
      manifest.push_back(std::move(entry));
    }
  }

  if (!opt.repro_dir.empty() && !manifest.empty()) {
    const std::string manifest_path = opt.repro_dir + "/repro_manifest.json";
    std::ofstream out(manifest_path);
    out << chaos::repro_manifest_json(manifest, opt.export_path);
    if (out)
      std::printf("manifest written to %s\n", manifest_path.c_str());
    else
      std::fprintf(stderr, "cannot write %s\n", manifest_path.c_str());
  }

  if (!opt.export_path.empty() &&
      !obs::JsonExporter::write_file(*cfg.metrics, opt.export_path, "chaos_campaign"))
    std::fprintf(stderr, "cannot write %s\n", opt.export_path.c_str());

  // The fingerprint folds every seed's (verdicts, delivery fingerprint,
  // delivery total) in seed order: two invocations over the same seed range
  // must print the same value no matter how many jobs ran (docs/CHAOS.md,
  // "Parallel execution" — check.sh compares a --jobs 1 and a --jobs 4 run).
  std::printf("campaign fingerprint %016llx (%d jobs, %.2fs wall)\n",
              static_cast<unsigned long long>(result.campaign_fingerprint), jobs,
              static_cast<double>(wall_us) / 1e6);
  std::printf("%d/%d runs clean (%llu ops scheduled, %llu sim events, peak %llu pending)\n",
              result.runs - static_cast<int>(result.failures.size()), result.runs,
              static_cast<unsigned long long>(result.ops),
              static_cast<unsigned long long>(result.sim_events),
              static_cast<unsigned long long>(result.sim_peak_pending));
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--first-seed S] [--n N] [--jobs N]\n"
                 "          [--shards K] [--domains N] [--backend ring|spec]\n"
                 "          [--corrupt P] [--budget BYTES] [--cross-check]\n"
                 "          [--smoke]\n"
                 "          [--no-shrink] [--repro-dir DIR] [--export PATH]\n"
                 "          [--timeline-out PATH] [--health-oracle] [--stall-ms N] "
                 "[--pi MS]\n"
                 "          [--inject-unchecked-decode]\n"
                 "          [--replay FILE [--until T] [--trace-out PATH]]\n"
                 "          [--decode-frame FILE] [--emit-golden-frames DIR]\n",
                 argv[0]);
    return 2;
  }
  if (opt.shards > 1 && opt.backend == harness::Backend::kSpec) {
    std::fprintf(stderr, "--shards %d requires the ring backend (the spec backend models "
                         "one group-communication instance)\n", opt.shards);
    return 2;
  }
  if (opt.inject_unchecked_decode) util::set_unchecked_decode_for_test(true);
  if (!opt.emit_golden_dir.empty()) return emit_golden_frames(opt);
  if (!opt.decode_frame_file.empty()) return decode_frame(opt);
  if (!opt.replay_file.empty()) return replay(opt);
  return opt.cross_check ? cross_check(opt) : campaign(opt);
}
