#include "harness/stats.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>

#include "core/types.hpp"

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
  // Positional matching, exactly as in props/to_property.
  std::map<ProcId, std::vector<sim::Time>> bcasts;
  std::map<std::pair<ProcId, ProcId>, std::size_t> rcount;
  std::map<std::pair<ProcId, std::size_t>, std::map<ProcId, sim::Time>> delivs;
  for (const auto& te : trace) {
    if (const auto* e = trace::as<trace::BcastEvent>(te))
      bcasts[e->p].push_back(te.at);
    else if (const auto* e = trace::as<trace::BrcvEvent>(te)) {
      auto& k = rcount[{e->origin, e->dest}];
      delivs[{e->origin, k}].emplace(e->dest, te.at);
      ++k;
    }
  }
  std::vector<sim::Time> samples;
  std::size_t incomplete = 0;
  for (ProcId p : q) {
    const auto bit = bcasts.find(p);
    if (bit == bcasts.end()) continue;
    for (std::size_t k = 0; k < bit->second.size(); ++k) {
      const sim::Time t = bit->second[k];
      if (t < from) continue;
      const auto dit = delivs.find({p, k});
      sim::Time all = 0;
      bool complete = dit != delivs.end();
      if (complete)
        for (ProcId r : q) {
          const auto rt = dit->second.find(r);
          if (rt == dit->second.end()) {
            complete = false;
            break;
          }
          all = std::max(all, rt->second);
        }
      if (complete)
        samples.push_back(all - t);
      else
        ++incomplete;
    }
  }
  return summarize(std::move(samples), incomplete);
}

LatencySummary vs_safe_latency(const trace::EventLog& trace,
                               const std::set<ProcId>& q, int n, int n0, sim::Time from) {
  std::vector<std::optional<core::ViewId>> current(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n0; ++p)
    current[static_cast<std::size_t>(p)] = core::ViewId::initial();

  std::map<std::pair<core::ViewId, ProcId>, std::vector<sim::Time>> sends;
  std::map<std::tuple<core::ViewId, ProcId, ProcId>, std::size_t> scount;
  std::map<std::tuple<core::ViewId, ProcId, std::size_t>, std::map<ProcId, sim::Time>> safes;

  for (const auto& te : trace) {
    if (const auto* e = trace::as<trace::NewViewEvent>(te)) {
      if (e->p >= 0 && e->p < n) current[static_cast<std::size_t>(e->p)] = e->view().id;
    } else if (const auto* e = trace::as<trace::GpsndEvent>(te)) {
      const auto& cur = current[static_cast<std::size_t>(e->p)];
      if (cur.has_value()) sends[{*cur, e->p}].push_back(te.at);
    } else if (const auto* e = trace::as<trace::SafeEvent>(te)) {
      const auto& cur = current[static_cast<std::size_t>(e->dst)];
      if (!cur.has_value()) continue;
      auto& k = scount[{*cur, e->src, e->dst}];
      safes[{*cur, e->src, k}].emplace(e->dst, te.at);
      ++k;
    }
  }

  // Final views of the members of Q; measure only within the (unique) final
  // view whose membership is Q, matching the VS-property conclusion.
  std::vector<sim::Time> samples;
  std::size_t incomplete = 0;
  for (ProcId p : q) {
    const auto& cur = current[static_cast<std::size_t>(p)];
    if (!cur.has_value()) continue;
    const auto sit = sends.find({*cur, p});
    if (sit == sends.end()) continue;
    for (std::size_t k = 0; k < sit->second.size(); ++k) {
      const sim::Time t = sit->second[k];
      if (t < from) continue;
      const auto fit = safes.find({*cur, p, k});
      sim::Time all = 0;
      bool complete = fit != safes.end();
      if (complete)
        for (ProcId r : q) {
          const auto rt = fit->second.find(r);
          if (rt == fit->second.end()) {
            complete = false;
            break;
          }
          all = std::max(all, rt->second);
        }
      if (complete)
        samples.push_back(all - t);
      else
        ++incomplete;
    }
  }
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
