#include "props/stability.hpp"

#include <sstream>

namespace vsg::props {

StabilityInfo analyze_stability(const trace::EventLog& trace,
                                const std::set<ProcId>& q, int n) {
  return analyze_stability(TraceIndex(trace, 0), q, n);
}

StabilityInfo analyze_stability(const TraceIndex& index, const std::set<ProcId>& q, int n) {
  std::ostringstream why;
  for (ProcId p : q)
    if (index.proc(p).status != sim::Status::kGood) why << "processor " << p << " not good; ";
  for (ProcId p : q) {
    for (ProcId r = 0; r < n; ++r) {
      if (r == p) continue;
      const sim::Status out = index.link(p, r).status;
      const sim::Status in = index.link(r, p).status;
      if (q.count(r) != 0) {
        if (out != sim::Status::kGood) why << "intra-Q link (" << p << "," << r << ") not good; ";
      } else if (out != sim::Status::kBad || in != sim::Status::kBad) {
        why << "boundary pair (" << p << "," << r << ") not bad; ";
      }
    }
  }
  StabilityInfo info;
  info.l = index.last_status_touching(q);
  info.why_not = why.str();
  info.premise_holds = info.why_not.empty();
  return info;
}

}  // namespace vsg::props
