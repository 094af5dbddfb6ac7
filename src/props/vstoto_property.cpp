#include "props/vstoto_property.hpp"

#include <algorithm>
#include <sstream>

#include "props/to_property.hpp"

namespace vsg::props {

VStoTOPropertyReport evaluate_vstoto_property(const trace::EventLog& trace,
                                              const std::set<ProcId>& q, int /*n*/, int n0,
                                              sim::Time d, sim::Time ignore_after) {
  VStoTOPropertyReport report;
  const TraceIndex index(trace, n0);

  // Premise: VS-level stabilization — final views of Q members are one
  // view with membership Q; record the last newview time at Q.
  const FinalView fv = index.final_view(q);
  if (!fv.why_not.empty()) {
    report.why_not = fv.why_not;
    return report;
  }
  if (!fv.view.has_value() || fv.view->members != q) {
    report.why_not = "final view membership is not Q";
    return report;
  }
  report.premise_holds = true;
  report.view_stab_time = index.last_newview(q);

  // Conclusion: TO-level delivery with the split at view_stab_time + l'''.
  sim::Time l3 = 0;
  for (const TOValue& v : to_values(index, q, ignore_after)) {
    if (!v.all) {
      std::ostringstream os;
      if (v.bcast_from_q)
        os << "value #" << v.k << " from " << v.origin << " never delivered at all of Q";
      else
        os << "value delivered to part of Q only";
      report.violations.push_back(os.str());
      continue;
    }
    if (*v.all > v.from + d) l3 = std::max(l3, *v.all - d - report.view_stab_time);
  }

  if (report.violations.empty()) report.required_l3 = l3;
  return report;
}

}  // namespace vsg::props
