// E7 — microbenchmarks of the core machinery (google-benchmark): label and
// viewid comparison, summary-algebra operations at various sizes, wire
// round trips, event-queue operations, one state exchange at growing
// history, and a full invariant-checker sweep.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/summary.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "obs/json_exporter.hpp"
#include "membership/messages.hpp"
#include "sim/event_queue.hpp"
#include "spec/to_trace_checker.hpp"
#include "spec/vs_trace_checker.hpp"
#include "trace/recorder.hpp"
#include "util/rng.hpp"
#include "verify/invariants.hpp"
#include "vstoto/process.hpp"
#include "vstoto/wire.hpp"

using namespace vsg;

namespace {

core::Label make_label(std::uint64_t i) {
  return core::Label{core::ViewId{i % 7, static_cast<ProcId>(i % 5)},
                     static_cast<std::uint32_t>(i), static_cast<ProcId>(i % 3)};
}

core::Summary make_summary(std::size_t size) {
  core::Summary x;
  for (std::size_t i = 0; i < size; ++i) {
    const auto l = make_label(i);
    x.con[l] = "value-" + std::to_string(i);
    x.ord.push_back(l);
  }
  x.next = static_cast<std::uint32_t>(size / 2 + 1);
  x.high = core::ViewId{3, 1};
  return x;
}

void BM_LabelCompare(benchmark::State& state) {
  const auto a = make_label(123456);
  const auto b = make_label(123457);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
    benchmark::DoNotOptimize(b < a);
  }
}
BENCHMARK(BM_LabelCompare);

void BM_RngNext(benchmark::State& state) {
  util::Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

// Stored-form establishment at history N (core::establish, as a primary
// view's process runs it): a confirmed base of N labels from 8 origins, and
// 8 members whose deltas each carry 4 new labels, with the representative
// 16 labels short of the base's order. Each iteration places fullorder and
// cuts the order back to the base, both in place and both proportional to
// what differs, so the time should stay near flat in N.
void BM_FullOrder(benchmark::State& state) {
  constexpr int n = 8;
  constexpr std::size_t kShort = 16;
  const auto history = static_cast<std::size_t>(state.range(0));
  const core::ViewId g{1, 0}, fresh{2, 0};
  core::Summary base;
  for (std::size_t i = 0; i < history; ++i) {
    const core::Label l{g, static_cast<std::uint32_t>(i / n + 1), static_cast<ProcId>(i % n)};
    base.con.emplace(l, "value-" + std::to_string(i));
    base.ord.push_back(l);
  }
  base.next = static_cast<std::uint32_t>(history + 1);
  base.high = g;
  const core::SummaryDigest own = core::digest(base);
  core::StoredMap y;
  for (ProcId p = 0; p < n; ++p) {
    core::SummaryDelta& dl = y[p];
    dl.next = base.next;
    dl.high = g;
    dl.ord_prefix = static_cast<std::uint32_t>(history - std::min(history, kShort));
    dl.ord_suffix.assign(base.ord.begin() + dl.ord_prefix, base.ord.end());
    for (std::uint32_t s = 1; s <= 4; ++s) dl.con.emplace(core::Label{fresh, s, p}, "new");
  }
  std::vector<core::Label> order = base.ord;
  core::OrderIndex index;
  index.assign(order);
  // One untimed round grows the order's capacity and the index's table,
  // which a process has done long before, so a one-iteration run is flat
  // in N too.
  core::establish(order, index, y, base, own, {}, true);
  index.truncate(order, base.ord.size());
  order.resize(base.ord.size());
  for (auto _ : state) {
    core::establish(order, index, y, base, own, {}, true);
    benchmark::DoNotOptimize(order.data());
    index.truncate(order, base.ord.size());
    order.resize(base.ord.size());
  }
  if (order != base.ord) state.SkipWithError("the order did not return to the base");
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullOrder)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

// The full-summary shape (kFullSummary): three whole summaries, each
// stored with the prefix its order shares with the base, which
// establishment keeps in place with its index.
void BM_FullOrderWholeSummaries(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  const core::Summary base = make_summary(size);
  core::StoredMap y;
  for (ProcId p = 0; p < 3; ++p) {
    auto x = make_summary(size);
    x.high = core::ViewId{static_cast<std::uint64_t>(p), p};
    y[p] = core::full_entry(std::move(x), base);
  }
  const core::SummaryDigest own;  // a whole-summary exchange has no marks
  std::vector<core::Label> order = base.ord;
  core::OrderIndex index;
  index.assign(order);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::establish(order, index, y, base, own, {}, true));
    benchmark::DoNotOptimize(order.data());
  }
  if (order != base.ord) state.SkipWithError("the order did not come back the same");
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FullOrderWholeSummaries)->Range(8, 2048)->Complexity();

void BM_Knowncontent(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  core::SummaryMap y{{0, make_summary(size)}, {1, make_summary(size)}};
  for (auto _ : state) benchmark::DoNotOptimize(core::knowncontent(y));
}
BENCHMARK(BM_Knowncontent)->Range(8, 2048);

void BM_SummaryEncodeDecode(benchmark::State& state) {
  const auto x = make_summary(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const auto bytes = vstoto::encode_message(vstoto::Message{x});
    benchmark::DoNotOptimize(vstoto::decode_message_ex(bytes));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(vstoto::encode_message(vstoto::Message{x}).size()));
}
BENCHMARK(BM_SummaryEncodeDecode)->Range(8, 1024);

void BM_TokenEncodeDecode(benchmark::State& state) {
  membership::Token t;
  t.gid = core::ViewId{4, 0};
  for (int i = 0; i < state.range(0); ++i)
    t.entries.emplace_back(static_cast<ProcId>(i % 5),
                           util::Bytes(64, static_cast<std::uint8_t>(i)));
  for (ProcId p = 0; p < 5; ++p) t.delivered.emplace_back(p, 100);
  for (auto _ : state) {
    const auto bytes = membership::encode_packet(membership::Packet{t});
    benchmark::DoNotOptimize(membership::decode_packet_ex(bytes));
  }
}
BENCHMARK(BM_TokenEncodeDecode)->Range(1, 256);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < state.range(0); ++i)
      q.schedule(i * 7 % 1000, [] {});
    while (!q.empty()) q.pop_and_run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Range(64, 4096);

// The hold model at pending depth N: each pop schedules one event at a
// random later time, so the queue stays N deep.
void BM_EventQueueHold(benchmark::State& state) {
  sim::EventQueue q;
  util::Rng rng(42);
  for (int i = 0; i < state.range(0); ++i)
    q.schedule(static_cast<sim::Time>(rng.below(1000)), [] {});
  for (auto _ : state) {
    const sim::Time now = q.pop_and_run();
    benchmark::DoNotOptimize(now);
    q.schedule(now + 1 + static_cast<sim::Time>(rng.below(1000)), [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold)->RangeMultiplier(8)->Range(8, 32768);

void BM_LabeledValueWire(benchmark::State& state) {
  const vstoto::LabeledValue lv{make_label(7), std::string(128, 'x')};
  for (auto _ : state) {
    const auto bytes = vstoto::encode_message(vstoto::Message{lv});
    benchmark::DoNotOptimize(vstoto::decode_message_ex(bytes));
  }
}
BENCHMARK(BM_LabeledValueWire);

// --- Digest and delta at history N -------------------------------------------

// One view, 8 origins and N labels dealt round-robin, all confirmed. Each
// iteration takes the summary's digest plus its delta against the digest of
// a peer 8 labels behind (one label short in every stream). Both read con a
// stream at a time, so the time should stay near flat in N.
void BM_DigestDeltaAtHistory(benchmark::State& state) {
  constexpr int n = 8;
  const auto history = static_cast<std::size_t>(state.range(0));
  const core::ViewId g{1, 0};
  core::Summary x, behind;
  for (std::size_t i = 0; i < history; ++i) {
    const core::Label l{g, static_cast<std::uint32_t>(i / n + 1), static_cast<ProcId>(i % n)};
    x.con.emplace(l, "value-" + std::to_string(i));
    x.ord.push_back(l);
    if (i + n < history) {
      behind.con.emplace(l, "value-" + std::to_string(i));
      behind.ord.push_back(l);
    }
  }
  x.next = static_cast<std::uint32_t>(x.ord.size() + 1);
  behind.next = static_cast<std::uint32_t>(behind.ord.size() + 1);
  const core::SummaryDigest peer = core::digest(behind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::digest(x));
    benchmark::DoNotOptimize(core::delta(x, peer));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DigestDeltaAtHistory)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

// --- One digest/delta state exchange at history H --------------------------

// A VS service driven by hand: it only collects what each processor sends.
class CollectingVS final : public vs::Service {
 public:
  explicit CollectingVS(int n) : sent(static_cast<std::size_t>(n)) {}
  int size() const override { return static_cast<int>(sent.size()); }
  void attach(ProcId p, vs::Client& c) override { clients[p] = &c; }
  void gpsnd(ProcId p, vs::Payload m) override {
    sent[static_cast<std::size_t>(p)].push_back(std::move(m));
  }
  std::map<ProcId, vs::Client*> clients;
  std::vector<std::vector<vs::Payload>> sent;
};

// n = 8 processes share a confirmed history of H labelled values; each
// iteration installs one new view and runs the whole exchange by hand:
// under kDigestDelta every digest to every member, then every delta; under
// kFullSummary every summary. It ends in establishment. Restoring the
// pre-view checkpoints between iterations is not timed.
void state_exchange(benchmark::State& state, vstoto::ExchangeMode mode) {
  constexpr int n = 8;
  const auto history = static_cast<std::size_t>(state.range(0));
  sim::Simulator simulator;
  trace::Recorder recorder(simulator);
  CollectingVS vs(n);
  std::vector<std::unique_ptr<vstoto::Process>> procs;
  for (ProcId p = 0; p < n; ++p) {
    procs.push_back(
        std::make_unique<vstoto::Process>(p, n, core::majorities(n), vs, recorder));
    procs.back()->set_exchange_mode(mode);
    vs.attach(p, *procs.back());
  }
  const auto deliver_all = [&](ProcId src, const vs::Payload& m, bool safe) {
    for (auto& [q, c] : vs.clients) safe ? c->on_safe(src, m) : c->on_gprcv(src, m);
  };
  for (std::size_t i = 0; i < history; ++i) {
    const auto p = static_cast<ProcId>(i % n);
    procs[static_cast<std::size_t>(p)]->bcast("value-" + std::to_string(i) +
                                              std::string(24, 'x'));
    const auto m = vs.sent[static_cast<std::size_t>(p)].back();
    deliver_all(p, m, false);
    deliver_all(p, m, true);
  }
  recorder.clear();
  std::vector<vstoto::Process::Checkpoint> before;
  for (const auto& proc : procs) before.push_back(proc->checkpoint());

  const std::size_t rounds = mode == vstoto::ExchangeMode::kDigestDelta ? 2 : 1;
  core::View v{core::ViewId{1, 0}, {}};
  for (ProcId p = 0; p < n; ++p) v.members.insert(p);
  for (auto _ : state) {
    state.PauseTiming();
    for (std::size_t p = 0; p < procs.size(); ++p) {
      procs[p]->restore(before[p]);
      vs.sent[p].clear();
    }
    recorder.clear();
    state.ResumeTiming();
    for (auto& proc : procs) proc->on_newview(v);
    for (std::size_t r = 0; r < rounds; ++r)
      for (ProcId p = 0; p < n; ++p)
        deliver_all(p, vs.sent[static_cast<std::size_t>(p)][r], false);
    benchmark::DoNotOptimize(procs[0]->state().order.data());
  }
  if (procs[0]->state().status != vstoto::PStatus::kNormal)
    state.SkipWithError("the exchange did not establish the view");
  state.SetComplexityN(state.range(0));
}

void BM_StateExchange(benchmark::State& state) {
  state_exchange(state, vstoto::ExchangeMode::kDigestDelta);
}
BENCHMARK(BM_StateExchange)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_StateExchangeFullSummary(benchmark::State& state) {
  state_exchange(state, vstoto::ExchangeMode::kFullSummary);
}
BENCHMARK(BM_StateExchangeFullSummary)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

// --- Verification machinery at working scale -------------------------------

// Registry the --export flag snapshots; bench_world's layers report into it.
std::shared_ptr<obs::MetricsRegistry>& bench_registry() {
  static auto registry = std::make_shared<obs::MetricsRegistry>();
  return registry;
}

// A settled 4-processor run with traffic and one partition/heal episode.
harness::World& bench_world() {
  static harness::World* world = [] {
    harness::WorldConfig cfg;
    cfg.n = 4;
    cfg.backend = harness::Backend::kSpec;
    cfg.seed = 77;
    cfg.metrics = bench_registry();
    auto* w = new harness::World(cfg);
    w->partition_at(sim::msec(100), {{0, 1, 2}, {3}});
    harness::steady_traffic({0, 1}, 10, sim::msec(150), sim::msec(20)).apply(*w);
    w->heal_at(sim::msec(600));
    w->run_until(sim::sec(3));
    return w;
  }();
  return *world;
}

void BM_InvariantSweep(benchmark::State& state) {
  auto& world = bench_world();
  const auto gs = world.global_state();
  for (auto _ : state) benchmark::DoNotOptimize(verify::check_all_invariants(gs));
}
BENCHMARK(BM_InvariantSweep);

void BM_VSTraceChecker(benchmark::State& state) {
  auto& world = bench_world();
  const auto& events = world.recorder().events();
  for (auto _ : state) {
    spec::VSTraceChecker checker(4, 4);
    checker.check_all(events);
    benchmark::DoNotOptimize(checker.ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_VSTraceChecker);

void BM_TOTraceChecker(benchmark::State& state) {
  auto& world = bench_world();
  const auto& events = world.recorder().events();
  for (auto _ : state) {
    spec::TOTraceChecker checker(4);
    checker.check_all(events);
    benchmark::DoNotOptimize(checker.ok());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_TOTraceChecker);

}  // namespace

// Explicit main (not BENCHMARK_MAIN): --export must be consumed before
// benchmark::Initialize, which rejects flags it does not recognize.
int main(int argc, char** argv) {
  const auto export_path = obs::export_path_from_args(argc, argv);
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--export") {
      ++i;  // skip the PATH operand too
      continue;
    }
    if (arg.rfind("--export=", 0) == 0) continue;
    argv[kept++] = argv[i];
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (export_path) {
    if (!obs::JsonExporter::write_file(*bench_registry(), *export_path, "bench_micro")) {
      std::fprintf(stderr, "failed to write %s\n", export_path->c_str());
      return 1;
    }
    std::printf("metrics snapshot written to %s\n", export_path->c_str());
  }
  return 0;
}
