#include "props/to_property.hpp"

#include <algorithm>
#include <sstream>

namespace vsg::props {

std::vector<TOValue> to_values(const TraceIndex& index, const std::set<ProcId>& q,
                               sim::Time ignore_after) {
  std::vector<TOValue> out;
  for (ProcId p : q) {
    const Stream* s = index.to_stream(p);
    if (s == nullptr) continue;
    for (std::size_t k = 0; k < s->sent.size(); ++k)
      if (s->sent[k] <= ignore_after)
        out.push_back({true, p, k, s->sent[k], all_of(s->receipts(k), q)});
  }
  for (const auto& [origin, s] : index.to_streams()) {
    for (std::size_t k = 0; k < s.got.size(); ++k) {
      const auto first = first_of(s.got[k], q);
      if (first && *first <= ignore_after)
        out.push_back({false, origin, k, *first, all_of(s.got[k], q)});
    }
  }
  return out;
}

TOPropertyReport evaluate_to_property(const trace::EventLog& trace,
                                      const std::set<ProcId>& q, int n, sim::Time d,
                                      sim::Time ignore_after) {
  TOPropertyReport report;
  const TraceIndex index(trace, 0);
  report.stability = analyze_stability(index, q, n);
  if (!report.stability.premise_holds) return report;
  const sim::Time l = report.stability.l;

  sim::Time lprime = 0;
  std::vector<TOValue> sent_obs;
  for (const TOValue& v : to_values(index, q, ignore_after)) {
    if (!v.all) {
      std::ostringstream os;
      if (v.bcast_from_q)
        os << "value #" << v.k << " bcast by " << v.origin << " at " << v.from
           << " was never delivered at every member of Q";
      else
        os << "value #" << v.k << " from " << v.origin
           << " was delivered to some but not all members of Q";
      report.violations.push_back(os.str());
      continue;
    }
    if (*v.all > v.from + d) lprime = std::max(lprime, *v.all - d - l);
    if (v.bcast_from_q) sent_obs.push_back(v);
  }

  if (report.violations.empty()) {
    report.required_lprime = lprime;
    for (const auto& v : sent_obs)
      if (v.from >= l + lprime)
        report.max_delivery_lag = std::max(report.max_delivery_lag, *v.all - v.from);
    report.values_checked = sent_obs.size();
  }
  return report;
}

}  // namespace vsg::props
