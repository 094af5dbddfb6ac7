#include "props/stability.hpp"

#include <sstream>

namespace vsg::props {

StabilityInfo analyze_stability(const trace::EventLog& trace,
                                const std::set<ProcId>& q, int n) {
  StabilityInfo info;

  // Replay statuses (defaults: everything good).
  std::vector<sim::Status> proc(static_cast<std::size_t>(n), sim::Status::kGood);
  std::vector<sim::Status> link(static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
                                sim::Status::kGood);
  auto touches_q = [&q](const sim::StatusEvent& e) {
    if (!e.is_link) return q.count(e.p) != 0;
    return q.count(e.p) != 0 || q.count(e.q) != 0;
  };

  for (const auto& te : trace) {
    const auto* e = trace::as<sim::StatusEvent>(te);
    if (e == nullptr) continue;
    if (e->is_link)
      link[static_cast<std::size_t>(e->p) * n + e->q] = e->status;
    else
      proc[static_cast<std::size_t>(e->p)] = e->status;
    if (touches_q(*e) && te.at > info.l) info.l = te.at;
  }

  std::ostringstream why;
  bool holds = true;
  for (ProcId p : q) {
    if (proc[static_cast<std::size_t>(p)] != sim::Status::kGood) {
      holds = false;
      why << "processor " << p << " not good; ";
    }
  }
  for (ProcId p : q) {
    for (ProcId r = 0; r < n; ++r) {
      if (r == p) continue;
      const sim::Status out = link[static_cast<std::size_t>(p) * n + r];
      const sim::Status in = link[static_cast<std::size_t>(r) * n + p];
      if (q.count(r) != 0) {
        if (out != sim::Status::kGood) {
          holds = false;
          why << "intra-Q link (" << p << "," << r << ") not good; ";
        }
      } else {
        if (out != sim::Status::kBad || in != sim::Status::kBad) {
          holds = false;
          why << "boundary pair (" << p << "," << r << ") not bad; ";
        }
      }
    }
  }
  info.premise_holds = holds;
  if (!holds) info.why_not = why.str();
  return info;
}

}  // namespace vsg::props
