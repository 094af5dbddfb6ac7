#include "props/vs_property.hpp"

#include <algorithm>
#include <sstream>

#include "props/trace_index.hpp"

namespace vsg::props {

VSPropertyReport evaluate_vs_property(const trace::EventLog& trace,
                                      const std::set<ProcId>& q, int n, int n0, sim::Time d,
                                      sim::Time ignore_after) {
  VSPropertyReport report;
  const TraceIndex index(trace, n0);
  report.stability = analyze_stability(index, q, n);
  if (!report.stability.premise_holds) return report;
  const sim::Time l = report.stability.l;

  // Conclusion (c): converged final view with membership exactly Q.
  const sim::Time last_newview_in_q = std::max(l, index.last_newview(q));
  report.view_stab_time = last_newview_in_q;
  const FinalView fv = index.final_view(q);
  report.final_view = fv.view.value_or(core::View{});
  if (!fv.why_not.empty()) {
    report.violations.push_back(fv.why_not);
    return report;
  }
  if (report.final_view.members != q) {
    report.violations.push_back("final view membership " +
                                core::to_string(report.final_view.members) +
                                " differs from Q " + core::to_string(q));
    return report;
  }
  report.views_converged = true;

  // Conclusions (b) and (d): minimal l'.
  sim::Time lprime = std::max<sim::Time>(0, last_newview_in_q - l);
  bool finite = true;

  const core::ViewId g = report.final_view.id;
  struct MsgObs {
    sim::Time sent;
    sim::Time all_safe;
  };
  std::vector<MsgObs> observations;
  for (ProcId p : q) {
    const Stream* s = index.vs_stream(g, p);
    if (s == nullptr) continue;
    for (std::size_t k = 0; k < s->sent.size(); ++k) {
      const sim::Time t = s->sent[k];
      if (t > ignore_after) continue;
      const auto all_safe = all_of(s->receipts(k), q);
      if (!all_safe) {
        finite = false;
        std::ostringstream os;
        os << "message #" << k << " sent by " << p << " at " << t
           << " in the final view never became safe at every member of Q";
        report.violations.push_back(os.str());
        continue;
      }
      observations.push_back({t, *all_safe});
      if (*all_safe > t + d) lprime = std::max(lprime, *all_safe - d - l);
    }
  }

  if (finite) {
    report.required_lprime = lprime;
    for (const auto& obs : observations) {
      if (obs.sent >= l + lprime)
        report.max_safe_lag = std::max(report.max_safe_lag, obs.all_safe - obs.sent);
    }
    report.messages_checked = observations.size();
  }
  return report;
}

}  // namespace vsg::props
