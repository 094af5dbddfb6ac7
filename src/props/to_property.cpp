#include "props/to_property.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace vsg::props {

TOPropertyReport evaluate_to_property(const trace::EventLog& trace,
                                      const std::set<ProcId>& q, int n, sim::Time d,
                                      sim::Time ignore_after) {
  TOPropertyReport report;
  report.stability = analyze_stability(trace, q, n);
  if (!report.stability.premise_holds) return report;
  const sim::Time l = report.stability.l;

  // Values are identified positionally: (origin, k) is the k-th value bcast
  // by origin, matched to the k-th brcv with that origin at each receiver
  // (per-sender FIFO is enforced separately by TOTraceChecker).
  std::map<ProcId, std::vector<sim::Time>> bcasts;
  std::map<std::pair<ProcId, ProcId>, std::size_t> rcount;  // (origin, dest) -> count
  std::map<std::pair<ProcId, std::size_t>, std::map<ProcId, sim::Time>> delivs;

  for (const auto& te : trace) {
    if (const auto* e = trace::as<trace::BcastEvent>(te)) {
      bcasts[e->p].push_back(te.at);
    } else if (const auto* e = trace::as<trace::BrcvEvent>(te)) {
      auto& k = rcount[{e->origin, e->dest}];
      delivs[{e->origin, k}].emplace(e->dest, te.at);
      ++k;
    }
  }

  sim::Time lprime = 0;
  struct Obs {
    sim::Time sent;
    sim::Time all;
  };
  std::vector<Obs> sent_obs;

  // Conclusion (b): values bcast from members of Q.
  for (ProcId p : q) {
    auto bit = bcasts.find(p);
    if (bit == bcasts.end()) continue;
    for (std::size_t k = 0; k < bit->second.size(); ++k) {
      const sim::Time t = bit->second[k];
      if (t > ignore_after) continue;
      const auto dit = delivs.find({p, k});
      sim::Time all = 0;
      bool complete = dit != delivs.end();
      if (complete) {
        for (ProcId r : q) {
          auto rt = dit->second.find(r);
          if (rt == dit->second.end()) {
            complete = false;
            break;
          }
          all = std::max(all, rt->second);
        }
      }
      if (!complete) {
        std::ostringstream os;
        os << "value #" << k << " bcast by " << p << " at " << t
           << " was never delivered at every member of Q";
        report.violations.push_back(os.str());
        continue;
      }
      sent_obs.push_back({t, all});
      if (all > t + d) lprime = std::max(lprime, all - d - l);
    }
  }

  // Conclusion (c): values delivered to any member of Q.
  for (const auto& [key, by_dest] : delivs) {
    sim::Time t_min = sim::kForever;
    for (ProcId r : q) {
      auto rt = by_dest.find(r);
      if (rt != by_dest.end()) t_min = std::min(t_min, rt->second);
    }
    if (t_min == sim::kForever || t_min > ignore_after) continue;
    sim::Time all = 0;
    bool complete = true;
    for (ProcId r : q) {
      auto rt = by_dest.find(r);
      if (rt == by_dest.end()) {
        complete = false;
        break;
      }
      all = std::max(all, rt->second);
    }
    if (!complete) {
      std::ostringstream os;
      os << "value #" << key.second << " from " << key.first
         << " was delivered to some but not all members of Q";
      report.violations.push_back(os.str());
      continue;
    }
    if (all > t_min + d) lprime = std::max(lprime, all - d - l);
  }

  if (report.violations.empty()) {
    report.required_lprime = lprime;
    for (const auto& obs : sent_obs)
      if (obs.sent >= l + lprime)
        report.max_delivery_lag = std::max(report.max_delivery_lag, obs.all - obs.sent);
    report.values_checked = sent_obs.size();
  }
  return report;
}

}  // namespace vsg::props
