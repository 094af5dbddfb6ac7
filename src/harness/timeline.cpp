#include "harness/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "harness/stats.hpp"

namespace vsg::harness {

Timeline build_timeline(const trace::EventLog& trace, int n, int n0) {
  Timeline tl;
  // Index of each processor's open interval in tl.intervals (-1 = none).
  std::vector<int> open(static_cast<std::size_t>(n), -1);

  const core::View v0 = core::initial_view(n0);
  for (ProcId p = 0; p < n0; ++p) {
    open[static_cast<std::size_t>(p)] = static_cast<int>(tl.intervals.size());
    tl.intervals.push_back(ViewInterval{p, v0, 0, sim::kForever, 0, 0});
  }

  for (const auto& te : trace) {
    tl.end = std::max(tl.end, te.at);
    if (const auto* e = trace::as<trace::NewViewEvent>(te)) {
      if (e->p < 0 || e->p >= n) continue;
      auto& slot = open[static_cast<std::size_t>(e->p)];
      if (slot >= 0) tl.intervals[static_cast<std::size_t>(slot)].to = te.at;
      slot = static_cast<int>(tl.intervals.size());
      tl.intervals.push_back(ViewInterval{e->p, e->view(), te.at, sim::kForever, 0, 0});
    } else if (const auto* e = trace::as<trace::GprcvEvent>(te)) {
      const auto slot = open[static_cast<std::size_t>(e->dst)];
      if (slot >= 0) ++tl.intervals[static_cast<std::size_t>(slot)].gprcvs;
    } else if (const auto* e = trace::as<trace::SafeEvent>(te)) {
      const auto slot = open[static_cast<std::size_t>(e->dst)];
      if (slot >= 0) ++tl.intervals[static_cast<std::size_t>(slot)].safes;
    } else if (const auto* e = trace::as<sim::StatusEvent>(te)) {
      tl.failures.push_back(*e);
    } else if (trace::as<trace::BcastEvent>(te)) {
      ++tl.bcasts;
    } else if (trace::as<trace::BrcvEvent>(te)) {
      ++tl.brcvs;
    }
  }
  // Stable order: by processor, then by start time (the construction above
  // interleaves processors).
  std::stable_sort(tl.intervals.begin(), tl.intervals.end(),
                   [](const ViewInterval& a, const ViewInterval& b) {
                     if (a.p != b.p) return a.p < b.p;
                     return a.from < b.from;
                   });
  return tl;
}

std::string render_timeline(const Timeline& tl) {
  std::ostringstream os;
  os << "timeline: " << tl.bcasts << " bcast, " << tl.brcvs << " brcv, "
     << tl.failures.size() << " failure events, horizon " << fmt_time(tl.end) << "\n";

  ProcId last = kNoProc;
  for (const auto& iv : tl.intervals) {
    if (iv.p != last) {
      os << "processor " << iv.p << ":\n";
      last = iv.p;
    }
    os << "  [" << fmt_time(iv.from) << " .. "
       << (iv.to == sim::kForever ? std::string("end") : fmt_time(iv.to)) << "] "
       << core::to_string(iv.view) << "  gprcv=" << iv.gprcvs << " safe=" << iv.safes
       << "\n";
  }
  if (!tl.failures.empty()) {
    os << "failure events:\n";
    for (const auto& f : tl.failures) {
      os << "  " << fmt_time(f.at) << " " << to_string(f.status) << " ";
      if (f.is_link)
        os << "link(" << f.p << "->" << f.q << ")";
      else
        os << "proc(" << f.p << ")";
      os << "\n";
    }
  }
  return os.str();
}

}  // namespace vsg::harness
