#include "harness/stats.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "props/trace_index.hpp"

namespace vsg::harness {

namespace {
// Nearest-rank percentile on a sorted sample vector: the smallest sample
// such that at least q of the distribution is <= it, i.e. index
// ceil(q * n) - 1. The previous `n * 9 / 10` indexing overshot on small
// counts (n=10 returned the max as p90) and `n / 2` took the upper median.
sim::Time nearest_rank(const std::vector<sim::Time>& sorted, std::size_t num,
                       std::size_t den) {
  const std::size_t n = sorted.size();
  const std::size_t rank = (n * num + den - 1) / den;  // ceil(n * num / den), >= 1
  return sorted[rank - 1];
}

// For each send of `s` at or after `from`, its lag until every member of Q
// had it, or one more incomplete.
void add_lags(const props::Stream* s, const std::set<ProcId>& q, sim::Time from,
              std::vector<sim::Time>& samples, std::size_t& incomplete) {
  if (s == nullptr) return;
  for (std::size_t k = 0; k < s->sent.size(); ++k) {
    const sim::Time t = s->sent[k];
    if (t < from) continue;
    if (const auto all = props::all_of(s->receipts(k), q))
      samples.push_back(*all - t);
    else
      ++incomplete;
  }
}
}  // namespace

LatencySummary summarize(std::vector<sim::Time> samples, std::size_t incomplete) {
  LatencySummary s;
  s.incomplete = incomplete;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  s.p50 = nearest_rank(samples, 1, 2);
  s.p90 = nearest_rank(samples, 9, 10);
  s.mean = static_cast<double>(std::accumulate(samples.begin(), samples.end(), sim::Time{0})) /
           static_cast<double>(samples.size());
  return s;
}

LatencySummary to_delivery_latency(const trace::EventLog& trace,
                                   const std::set<ProcId>& q, sim::Time from) {
  const props::TraceIndex index(trace, 0);
  std::vector<sim::Time> samples;
  std::size_t incomplete = 0;
  for (ProcId p : q) add_lags(index.to_stream(p), q, from, samples, incomplete);
  return summarize(std::move(samples), incomplete);
}

LatencySummary vs_safe_latency(const trace::EventLog& trace,
                               const std::set<ProcId>& q, int /*n*/, int n0, sim::Time from) {
  // Each member's messages in its own final view, matching the VS-property
  // conclusion.
  const props::TraceIndex index(trace, n0);
  std::vector<sim::Time> samples;
  std::size_t incomplete = 0;
  for (ProcId p : q)
    if (const auto& cur = index.view(p))
      add_lags(index.vs_stream(cur->id, p), q, from, samples, incomplete);
  return summarize(std::move(samples), incomplete);
}

std::size_t deliveries_at(const trace::EventLog& trace, ProcId p,
                          sim::Time from, sim::Time to) {
  std::size_t count = 0;
  for (const auto& te : trace)
    if (const auto* e = trace::as<trace::BrcvEvent>(te))
      if (e->dest == p && te.at >= from && te.at < to) ++count;
  return count;
}

std::string fmt_time(sim::Time t) {
  std::ostringstream os;
  if (t >= 1000000)
    os << static_cast<double>(t) / 1e6 << "s";
  else if (t >= 1000)
    os << static_cast<double>(t) / 1e3 << "ms";
  else
    os << t << "us";
  return os.str();
}

std::string fmt_row(const std::vector<std::string>& cells, const std::vector<int>& widths) {
  std::ostringstream os;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const int w = i < widths.size() ? widths[i] : 12;
    os << cells[i];
    const int pad = w - static_cast<int>(cells[i].size());
    for (int k = 0; k < pad; ++k) os << ' ';
    os << ' ';
  }
  return os.str();
}

}  // namespace vsg::harness
