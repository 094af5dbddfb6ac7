#include "props/vs_property.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace vsg::props {

VSPropertyReport evaluate_vs_property(const trace::EventLog& trace,
                                      const std::set<ProcId>& q, int n, int n0, sim::Time d,
                                      sim::Time ignore_after) {
  VSPropertyReport report;
  report.stability = analyze_stability(trace, q, n);
  if (!report.stability.premise_holds) return report;
  const sim::Time l = report.stability.l;

  // Walk the trace: view timelines, send streams, safe times.
  std::vector<std::optional<core::View>> current(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n0; ++p)
    current[static_cast<std::size_t>(p)] = core::initial_view(n0);

  struct SendRec {
    sim::Time at;
  };
  using StreamKey = std::pair<core::ViewId, ProcId>;            // (view, sender)
  std::map<StreamKey, std::vector<SendRec>> sends;
  // (view, sender, index) -> receiver -> time of its safe event
  std::map<std::tuple<core::ViewId, ProcId, std::size_t>, std::map<ProcId, sim::Time>> safes;
  std::map<std::tuple<core::ViewId, ProcId, ProcId>, std::size_t> scount;
  sim::Time last_newview_in_q = l;

  for (const auto& te : trace) {
    if (const auto* e = trace::as<trace::NewViewEvent>(te)) {
      if (e->p >= 0 && e->p < n) {
        current[static_cast<std::size_t>(e->p)] = e->view();
        if (q.count(e->p) != 0) last_newview_in_q = std::max(last_newview_in_q, te.at);
      }
    } else if (const auto* e = trace::as<trace::GpsndEvent>(te)) {
      const auto& cur = current[static_cast<std::size_t>(e->p)];
      if (cur.has_value()) sends[{cur->id, e->p}].push_back({te.at});
    } else if (const auto* e = trace::as<trace::SafeEvent>(te)) {
      const auto& cur = current[static_cast<std::size_t>(e->dst)];
      if (!cur.has_value()) continue;
      auto& k = scount[{cur->id, e->src, e->dst}];
      safes[{cur->id, e->src, k}].emplace(e->dst, te.at);
      ++k;
    }
  }

  // Conclusion (c): converged final view with membership exactly Q.
  report.view_stab_time = last_newview_in_q;
  bool first = true;
  bool converged = true;
  for (ProcId p : q) {
    const auto& cur = current[static_cast<std::size_t>(p)];
    if (!cur.has_value()) {
      converged = false;
      report.violations.push_back("member " + std::to_string(p) + " has no view");
      break;
    }
    if (first) {
      report.final_view = *cur;
      first = false;
    } else if (!(*cur == report.final_view)) {
      converged = false;
      report.violations.push_back("members of Q disagree on the final view");
      break;
    }
  }
  if (converged && report.final_view.members != q) {
    converged = false;
    report.violations.push_back("final view membership " +
                                core::to_string(report.final_view.members) +
                                " differs from Q " + core::to_string(q));
  }
  report.views_converged = converged;
  if (!converged) return report;

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
    const auto sit = sends.find({g, p});
    if (sit == sends.end()) continue;
    for (std::size_t k = 0; k < sit->second.size(); ++k) {
      const sim::Time t = sit->second[k].at;
      if (t > ignore_after) continue;
      const auto fit = safes.find({g, p, k});
      sim::Time all_safe = 0;
      bool complete = fit != safes.end();
      if (complete) {
        for (ProcId r : q) {
          auto rt = fit->second.find(r);
          if (rt == fit->second.end()) {
            complete = false;
            break;
          }
          all_safe = std::max(all_safe, rt->second);
        }
      }
      if (!complete) {
        finite = false;
        std::ostringstream os;
        os << "message #" << k << " sent by " << p << " at " << t
           << " in the final view never became safe at every member of Q";
        report.violations.push_back(os.str());
        continue;
      }
      observations.push_back({t, all_safe});
      if (all_safe > t + d) lprime = std::max(lprime, all_safe - d - l);
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
