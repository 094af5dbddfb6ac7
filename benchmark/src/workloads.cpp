#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>

#include "app/replicated_kv.hpp"
#include "app/sharded_kv.hpp"
#include "heap.hpp"
#include "rig.hpp"
#include "spec/to_trace_checker.hpp"
#include "spec/vs_trace_checker.hpp"
#include "util/hash.hpp"
#include "util/keydist.hpp"
#include "util/rng.hpp"

namespace bench {

using namespace vsg;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> kAll = {
      {"steady", Kind::kScripted},
      {"saturated", Kind::kScripted},
      {"churn", Kind::kScripted},
      {"kv_sharded", Kind::kKv},
      {"chaos", Kind::kChaos},
  };
  return kAll;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

namespace {

// --- inputs -------------------------------------------------------------------

std::uint64_t unit_seed(std::uint64_t seed, int unit) {
  return util::Rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(unit)).next();
}

core::Value value_name(ProcId p, std::uint64_t k) {
  return "p" + std::to_string(p) + "#" + std::to_string(k);
}

// Every member broadcasts every `gap` over [start, end).
void every_member_sends(Inputs& in, sim::Time start, sim::Time end, sim::Time gap) {
  std::vector<std::uint64_t> next(static_cast<std::size_t>(in.config.n), 0);
  for (sim::Time t = start; t < end; t += gap)
    for (ProcId p = 0; p < in.config.n; ++p)
      in.bcasts.push_back({t, p, value_name(p, next[static_cast<std::size_t>(p)]++)});
}

constexpr sim::Time kStart = sim::msec(100);

// Chaos seeds come from a fixed pool of batches, each batch a run of
// consecutive campaign seeds, so every run draws from seeds that have been
// campaigned clean (README.md, "Workloads").
constexpr std::uint64_t kChaosPoolSeeds = 20000;

}  // namespace

Inputs make_inputs(const Workload& w, std::uint64_t seed, int unit, bool quick) {
  Inputs in;
  in.kind = w.kind;
  const std::uint64_t us = unit_seed(seed, unit);
  in.config.seed = us;
  const std::string name = w.name;

  if (name == "steady") {
    // One stable view with a long history: the per-delivery path through
    // vstoto and to, with no state exchange.
    in.config.n = 8;
    in.config.ring.pi = sim::msec(40);
    const sim::Time load = quick ? sim::sec(2) : sim::sec(12);
    every_member_sends(in, kStart, kStart + load, sim::msec(10));
    in.until = kStart + load + sim::sec(4);
  } else if (name == "saturated") {
    // E6's hottest cell: every member sends every pi/4. No faults, yet the
    // overloaded token keeps timing out and views keep re-forming.
    in.config.n = 8;
    in.config.ring.pi = sim::msec(20);
    const sim::Time load = quick ? sim::msec(100) : sim::msec(250);
    every_member_sends(in, kStart, kStart + load, sim::msec(5));
    in.until = kStart + load + sim::sec(4);
  } else if (name == "churn") {
    // The partitionable case: every 1.5 s a pair (rotating from a seeded
    // offset) is cut off into a minority for 1 s, so non-primary views form
    // and then merge back through state exchange.
    in.config.n = 5;
    in.config.ring.pi = sim::msec(40);
    const sim::Time load = quick ? sim::sec(3) : sim::sec(16);
    every_member_sends(in, kStart, kStart + load, sim::msec(20));
    const int n = in.config.n;
    const int offset = static_cast<int>(us % static_cast<std::uint64_t>(n));
    int cycle = 0;
    for (sim::Time t = kStart + sim::sec(1); t + sim::sec(1) <= kStart + load;
         t += sim::msec(1500), ++cycle) {
      std::set<ProcId> minority = {(offset + cycle) % n, (offset + cycle + 1) % n};
      std::set<ProcId> majority;
      for (ProcId p = 0; p < n; ++p)
        if (minority.count(p) == 0) majority.insert(p);
      in.cuts.push_back({t, {std::move(minority), std::move(majority)}});
      in.cuts.push_back({t + sim::sec(1), {}});
    }
    in.until = kStart + load + sim::sec(4);
  } else if (name == "kv_sharded") {
    // Four rings over one simulator, Zipf-keyed writes plus local reads:
    // short per-shard histories, high event volume, and the app layer used
    // both through TO (writes) and beside it (reads).
    in.config.n = 4;
    in.config.shards = 4;
    const sim::Time load = quick ? sim::sec(1) : sim::sec(10);
    const util::KeyDist keys(4096, 0.99);
    util::Rng rng(us ^ 0x5bd1e9955bd1e995ULL);
    std::uint64_t k = 0;
    for (sim::Time t = kStart; t < kStart + load; t += sim::msec(2))
      for (ProcId p = 0; p < in.config.n; ++p) {
        Inputs::Write wr{t, p, util::KeyDist::key_name(keys.next(rng)), value_name(p, k++), {}};
        for (auto& r : wr.reads) r = util::KeyDist::key_name(keys.next(rng));
        in.writes.push_back(std::move(wr));
      }
    in.until = kStart + load + sim::sec(3);
  } else if (name == "chaos") {
    // Many short Worlds under the default campaign schedule (n = 4, ugly
    // links with 25% corruption, full oracle set): World construction, the
    // spec checkers and schedule generation dominate.
    const std::uint64_t batch = quick ? 10 : 100;
    const std::uint64_t first = 1 + (us % (kChaosPoolSeeds / batch)) * batch;
    for (std::uint64_t s = 0; s < batch; ++s) in.seeds.push_back(first + s);
    in.config.n = in.campaign.schedule.n;
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  return in;
}

namespace {

// --- assembly -----------------------------------------------------------------

template <class A>
std::unique_ptr<A> assemble(harness::WorldConfig config, const RunOptions& opt,
                            Probe* probe) {
  if constexpr (std::is_same_v<A, Rig>) {
    return std::make_unique<Rig>(std::move(config), *probe);
  } else {
    if (opt.phases != nullptr) config.trace.enabled = true;
    auto world = std::make_unique<harness::World>(std::move(config));
    if (opt.phases != nullptr)
      for (int k = 0; k < world->shards(); ++k) world->tracer(k)->bind_metrics(*opt.phases);
    return world;
  }
}

// The TO and VS trace checkers, one pair per shard, fed through recorder
// taps; on the Rig each call is a span of its own.
class Checkers {
 public:
  template <class A>
  void attach(A& a, Probe* probe) {
    for (int k = 0; k < a.shards(); ++k) {
      auto& to = to_.emplace_back(std::make_unique<spec::TOTraceChecker>(a.n()));
      auto& vs = vs_.emplace_back(std::make_unique<spec::VSTraceChecker>(a.n(), a.n0()));
      a.recorder(k).subscribe([c = to.get(), probe](const trace::TimedEvent& te) {
        Span s(probe, Layer::kSpecTo);
        c->on_event(te);
      });
      a.recorder(k).subscribe([c = vs.get(), probe](const trace::TimedEvent& te) {
        Span s(probe, Layer::kSpecVs);
        c->on_event(te);
      });
    }
  }

  void verdicts(std::vector<std::string>& out) const {
    for (const auto& c : to_) out.insert(out.end(), c->violations().begin(), c->violations().end());
    for (const auto& c : vs_) out.insert(out.end(), c->violations().begin(), c->violations().end());
  }

 private:
  std::vector<std::unique_ptr<spec::TOTraceChecker>> to_;
  std::vector<std::unique_ptr<spec::VSTraceChecker>> vs_;
};

using Offered = std::vector<std::vector<std::pair<ProcId, core::Value>>>;  // per shard

// Every processor's delivery sequence must be a prefix of one common
// sequence made only of offered values, each at most once. Values missing
// from the shortest prefix count as missing; anything else is an error.
template <class A>
void check_deliveries(A& a, const Offered& offered, UnitResult& r) {
  for (int k = 0; k < a.shards(); ++k) {
    const auto& want = offered[static_cast<std::size_t>(k)];
    const auto* ref = &a.stack(k).process(0).delivered();
    std::size_t shortest = ref->size();
    for (ProcId p = 0; p < a.n(); ++p) {
      const auto& seq = a.stack(k).process(p).delivered();
      if (seq.size() > ref->size()) ref = &seq;
      shortest = std::min(shortest, seq.size());
      r.deliveries += seq.size();
    }
    const std::string where = "shard " + std::to_string(k) + ": ";
    for (ProcId p = 0; p < a.n(); ++p) {
      const auto& seq = a.stack(k).process(p).delivered();
      if (!std::equal(seq.begin(), seq.end(), ref->begin())) {
        r.errors.push_back(where + "processor " + std::to_string(p) +
                           " delivered in a different order");
        break;
      }
    }
    std::unordered_map<std::string_view, ProcId> origin_of;
    for (const auto& [origin, value] : want) origin_of.emplace(value, origin);
    std::unordered_set<std::string_view> seen;
    for (const auto& [origin, value] : *ref) {
      const auto it = origin_of.find(value);
      if (it == origin_of.end() || it->second != origin || !seen.insert(value).second) {
        r.errors.push_back(where + "delivered '" + value + "' which was not offered once");
        break;
      }
    }
    r.offered += want.size();
    r.missing += want.size() - std::min(want.size(), shortest);
  }
}

template <class A>
std::uint64_t fingerprint(A& a, std::uint64_t h = util::kFnvOffset) {
  for (int k = 0; k < a.shards(); ++k)
    for (ProcId p = 0; p < a.n(); ++p)
      for (const auto& [origin, value] : a.stack(k).process(p).delivered()) {
        const std::uint8_t head[3] = {static_cast<std::uint8_t>(k),
                                      static_cast<std::uint8_t>(p),
                                      static_cast<std::uint8_t>(origin)};
        h = util::fnv1a(util::BufferView(head, sizeof head), h);
        h = util::fnv1a(
            util::BufferView(reinterpret_cast<const std::uint8_t*>(value.data()), value.size()),
            h);
      }
  return h;
}

template <class A>
void collect_latencies(A& a, std::vector<sim::Time>& out) {
  for (int k = 0; k < a.shards(); ++k) {
    std::unordered_map<std::string_view, sim::Time> sent;
    for (const auto& te : a.recorder(k).events()) {
      if (const auto* b = trace::as<trace::BcastEvent>(te)) {
        sent.emplace(b->a, te.at);
      } else if (const auto* d = trace::as<trace::BrcvEvent>(te)) {
        const auto it = sent.find(d->a);
        if (it != sent.end()) out.push_back(te.at - it->second);
      }
    }
  }
}

// Everything read off an assembly once its run is over.
template <class A>
void finish(A& a, const Offered& offered, const Checkers& checkers, const RunOptions& opt,
            UnitResult& r) {
  a.collect_shard_metrics();
  r.snapshot = obs::strip_wall_metrics(a.metrics().snapshot());
  r.sim_events += a.simulator().events_processed();
  for (int k = 0; k < a.shards(); ++k) r.trace_events += a.recorder(k).size();
  check_deliveries(a, offered, r);
  checkers.verdicts(r.errors);
  r.fingerprint = fingerprint(a, r.fingerprint == 0 ? util::kFnvOffset : r.fingerprint);
  if (opt.latencies) collect_latencies(a, r.latencies);
}

// --- units --------------------------------------------------------------------

template <class A>
UnitResult run_scripted(const Inputs& in, const RunOptions& opt, Probe* probe) {
  UnitResult r;
  r.seeds = 1;
  const std::size_t heap0 = heap::reset_peak();
  const std::int64_t t0 = now_ns();
  std::unique_ptr<A> a;
  {
    Span s(probe, Layer::kWorldCtor);
    a = assemble<A>(in.config, opt, probe);
  }
  Checkers checkers;
  if (opt.checkers) checkers.attach(*a, probe);
  {
    Span s(probe, Layer::kSchedule);
    for (const auto& b : in.bcasts) a->bcast_shard_at(b.at, 0, b.p, b.value);
    for (const auto& c : in.cuts) {
      if (c.components.empty())
        a->heal_at(c.at);
      else
        a->partition_at(c.at, c.components);
    }
  }
  r.setup_s = seconds_since(t0);
  const std::int64_t t1 = now_ns();
  a->run_until(in.until);
  r.run_s = seconds_since(t1);
  r.seed_ms.push_back(seconds_since(t0) * 1e3);
  r.peak_heap_bytes = static_cast<double>(heap::peak_bytes() - heap0);

  Offered offered(1);
  for (const auto& b : in.bcasts) offered[0].emplace_back(b.p, b.value);
  finish(*a, offered, checkers, opt, r);
  return r;
}

template <class A>
UnitResult run_kv(const Inputs& in, const RunOptions& opt, Probe* probe) {
  UnitResult r;
  r.seeds = 1;
  const std::size_t heap0 = heap::reset_peak();
  const std::int64_t t0 = now_ns();
  std::unique_ptr<A> a;
  std::unique_ptr<app::ShardedKV> kv;
  {
    Span s(probe, Layer::kWorldCtor);
    a = assemble<A>(in.config, opt, probe);
    std::vector<to::Service*> services;
    for (int k = 0; k < a->shards(); ++k) services.push_back(&to_service(*a, k));
    kv = std::make_unique<app::ShardedKV>(services);
  }
  Checkers checkers;
  if (opt.checkers) checkers.attach(*a, probe);
  {
    Span s(probe, Layer::kSchedule);
    for (const auto& w : in.writes)
      a->simulator().at(w.at, [&kv, &w, &r, probe] {
        {
          Span write(probe, Layer::kAppWrite);
          kv->write(w.p, w.key, w.value);
        }
        for (const auto& key : w.reads) {
          Span read(probe, Layer::kAppRead);
          if (kv->read(w.p, key).has_value()) ++r.read_hits;
        }
      });
  }
  r.setup_s = seconds_since(t0);
  const std::int64_t t1 = now_ns();
  a->run_until(in.until);
  r.run_s = seconds_since(t1);
  r.seed_ms.push_back(seconds_since(t0) * 1e3);
  r.peak_heap_bytes = static_cast<double>(heap::peak_bytes() - heap0);

  Offered offered(static_cast<std::size_t>(a->shards()));
  for (const auto& w : in.writes)
    offered[static_cast<std::size_t>(kv->shard_of(w.key))].emplace_back(
        w.p, app::encode_write(w.key, w.value));
  finish(*a, offered, checkers, opt, r);
  // With every write applied everywhere, all replicas must read alike.
  if (r.missing == 0) {
    std::set<std::string> keys;
    for (const auto& w : in.writes) keys.insert(w.key);
    for (const auto& key : keys) {
      const auto value = kv->read(0, key);
      for (ProcId p = 1; p < a->n(); ++p)
        if (kv->read(p, key) != value) {
          r.errors.push_back("replicas disagree on key " + key);
          return r;
        }
    }
  }
  return r;
}

harness::WorldConfig chaos_world_config(const chaos::CampaignConfig& cfg, std::uint64_t seed) {
  // The World chaos::run_one builds for `seed`.
  harness::WorldConfig wc;
  wc.n = cfg.schedule.n;
  wc.backend = cfg.backend;
  wc.seed = seed;
  wc.link = cfg.link;
  wc.ring = cfg.ring;
  wc.shards = cfg.shards;
  wc.sampler = cfg.sampler;
  return wc;
}

std::vector<chaos::GeneratedSchedule> generate(const Inputs& in, UnitResult& r,
                                               Probe* probe) {
  const std::int64_t t0 = now_ns();
  std::vector<chaos::GeneratedSchedule> out;
  {
    Span s(probe, Layer::kChaosSchedule);
    for (const std::uint64_t seed : in.seeds)
      out.push_back(chaos::generate_schedule(in.campaign.schedule, seed));
  }
  r.setup_s = seconds_since(t0);
  r.seeds = in.seeds.size();
  return out;
}

// chaos::run_one, step for step, on either assembly: the oracles, the
// recovery check (every processor delivered every scripted value, in one
// order) and the registry snapshot, folded over the unit's seeds.
template <class A>
UnitResult run_chaos(const Inputs& in, const RunOptions& opt, Probe* probe) {
  UnitResult r;
  const auto schedules = generate(in, r, probe);
  obs::MetricsRegistry merged;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const std::int64_t t0 = now_ns();
    const auto& schedule = schedules[i];
    std::unique_ptr<A> a;
    {
      Span s(probe, Layer::kWorldCtor);
      a = assemble<A>(chaos_world_config(in.campaign, in.seeds[i]), opt, probe);
    }
    Checkers checkers;
    checkers.attach(*a, probe);
    UnitResult seed;
    try {
      Span s(probe, Layer::kSchedule);
      apply_scenario(*a, schedule.scenario);
    } catch (const std::invalid_argument& e) {
      seed.errors.push_back(std::string("schedule rejected: ") + e.what());
    }
    a->run_until(schedule.run_until);
    const double seed_s = seconds_since(t0);
    r.run_s += seed_s;
    r.seed_ms.push_back(seed_s * 1e3);

    Offered offered(1);
    for (const auto& timed : schedule.scenario.ops)
      if (const auto* b = std::get_if<harness::OpBcast>(&timed.op))
        offered[0].emplace_back(b->p, b->a);
    seed.fingerprint = r.fingerprint;
    finish(*a, offered, checkers, opt, seed);

    if (!seed.errors.empty() || seed.missing > 0) ++r.failed_seeds;
    for (auto& e : seed.errors)
      r.errors.push_back("seed " + std::to_string(in.seeds[i]) + ": " + std::move(e));
    r.offered += seed.offered;
    r.deliveries += seed.deliveries;
    r.missing += seed.missing;
    r.sim_events += seed.sim_events;
    r.trace_events += seed.trace_events;
    r.fingerprint = seed.fingerprint;
    r.latencies.insert(r.latencies.end(), seed.latencies.begin(), seed.latencies.end());
    merged.merge_from(seed.snapshot);
  }
  r.snapshot = merged.snapshot();
  return r;
}

template <class A>
UnitResult run_on(const Inputs& in, const RunOptions& opt, Probe* probe) {
  switch (in.kind) {
    case Kind::kScripted:
      return run_scripted<A>(in, opt, probe);
    case Kind::kKv:
      return run_kv<A>(in, opt, probe);
    case Kind::kChaos:
      return run_chaos<A>(in, opt, probe);
  }
  throw std::logic_error("unreachable");
}

}  // namespace

UnitResult run_on_world(const Inputs& in, const RunOptions& opt) {
  return run_on<harness::World>(in, opt, nullptr);
}

UnitResult run_on_rig(const Inputs& in, Probe& probe) {
  RunOptions opt;
  opt.checkers = true;
  return run_on<Rig>(in, opt, &probe);
}

UnitResult run_campaign(const Inputs& in) {
  if (in.kind != Kind::kChaos) throw std::invalid_argument("run_campaign: not a chaos unit");
  UnitResult r;
  const auto schedules = generate(in, r, nullptr);
  const std::int64_t t1 = now_ns();
  obs::MetricsRegistry merged;
  for (std::size_t i = 0; i < schedules.size(); ++i) {
    const std::int64_t ts = now_ns();
    const std::size_t heap0 = heap::reset_peak();
    const auto& s = schedules[i];
    const chaos::RunResult run = chaos::run_one(in.campaign, s.scenario, in.campaign.schedule.n,
                                                in.seeds[i], s.run_until, s.bcasts);
    r.peak_heap_bytes += static_cast<double>(heap::peak_bytes() - heap0);
    r.seed_ms.push_back(seconds_since(ts) * 1e3);
    if (!run.ok()) ++r.failed_seeds;
    // Values still undelivered at the end make a failed seed; any other
    // verdict (safety, order divergence) is an error.
    for (const auto& v : run.violations)
      if (v.rfind("recovery: processor 0 delivered", 0) != 0)
        r.errors.push_back("seed " + std::to_string(in.seeds[i]) + ": " + v);
    r.offered += static_cast<std::uint64_t>(s.bcasts);
    r.deliveries += run.delivered_total;
    merged.merge_from(run.world_metrics);
  }
  r.run_s = seconds_since(t1);
  r.peak_heap_bytes /= static_cast<double>(schedules.size());
  r.snapshot = obs::strip_wall_metrics(merged.snapshot());
  return r;
}

std::shared_ptr<obs::MetricsRegistry> make_phase_registry() {
  // 0, then 1 us steps rising geometrically by 0.5% up to 100 s.
  std::vector<std::int64_t> bounds = {0};
  for (double b = 1; b <= 1e8; b *= 1.005) {
    const auto v = static_cast<std::int64_t>(std::llround(b));
    if (v > bounds.back()) bounds.push_back(v);
  }
  auto registry = std::make_shared<obs::MetricsRegistry>();
  for (const char* phase : kPhases)
    registry->histogram(std::string("to.phase_latency.") + phase, obs::Unit::kSimMicros, bounds);
  return registry;
}

}  // namespace bench
