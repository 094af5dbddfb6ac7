#include "props/vstoto_property.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/types.hpp"

namespace vsg::props {

VStoTOPropertyReport evaluate_vstoto_property(const trace::EventLog& trace,
                                              const std::set<ProcId>& q, int n, int n0,
                                              sim::Time d, sim::Time ignore_after) {
  VStoTOPropertyReport report;

  // Premise: VS-level stabilization — final views of Q members are one
  // view with membership Q; record the last newview time at Q.
  std::vector<std::optional<core::View>> current(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n0; ++p)
    current[static_cast<std::size_t>(p)] = core::initial_view(n0);
  sim::Time last_newview = 0;
  for (const auto& te : trace) {
    const auto* e = trace::as<trace::NewViewEvent>(te);
    if (e == nullptr || e->p < 0 || e->p >= n) continue;
    current[static_cast<std::size_t>(e->p)] = e->view();
    if (q.count(e->p) != 0) last_newview = std::max(last_newview, te.at);
  }
  std::optional<core::View> final_view;
  for (ProcId p : q) {
    const auto& cur = current[static_cast<std::size_t>(p)];
    if (!cur.has_value()) {
      report.why_not = "member " + std::to_string(p) + " has no view";
      return report;
    }
    if (!final_view.has_value()) {
      final_view = cur;
    } else if (!(*cur == *final_view)) {
      report.why_not = "members of Q disagree on the final view";
      return report;
    }
  }
  if (!final_view.has_value() || final_view->members != q) {
    report.why_not = "final view membership is not Q";
    return report;
  }
  report.premise_holds = true;
  report.view_stab_time = last_newview;

  // Conclusion: TO-level delivery with the split at view_stab_time + l'''.
  std::map<ProcId, std::vector<sim::Time>> bcasts;
  std::map<std::pair<ProcId, ProcId>, std::size_t> rcount;
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

  sim::Time l3 = 0;
  auto constrain = [&](sim::Time reference, sim::Time all) {
    if (all > reference + d)
      l3 = std::max(l3, all - d - report.view_stab_time);
  };

  for (ProcId p : q) {
    const auto bit = bcasts.find(p);
    if (bit == bcasts.end()) continue;
    for (std::size_t k = 0; k < bit->second.size(); ++k) {
      const sim::Time t = bit->second[k];
      if (t > ignore_after) continue;
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
      if (!complete) {
        std::ostringstream os;
        os << "value #" << k << " from " << p << " never delivered at all of Q";
        report.violations.push_back(os.str());
        continue;
      }
      constrain(t, all);
    }
  }
  for (const auto& [key, by_dest] : delivs) {
    sim::Time t_min = sim::kForever;
    for (ProcId r : q) {
      const auto rt = by_dest.find(r);
      if (rt != by_dest.end()) t_min = std::min(t_min, rt->second);
    }
    if (t_min == sim::kForever || t_min > ignore_after) continue;
    sim::Time all = 0;
    bool complete = true;
    for (ProcId r : q) {
      const auto rt = by_dest.find(r);
      if (rt == by_dest.end()) {
        complete = false;
        break;
      }
      all = std::max(all, rt->second);
    }
    if (!complete) {
      report.violations.push_back("value delivered to part of Q only");
      continue;
    }
    constrain(t_min, all);
  }

  if (report.violations.empty()) report.required_l3 = l3;
  return report;
}

}  // namespace vsg::props
