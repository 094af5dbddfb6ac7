#include "spec/cause.hpp"

#include <optional>
#include <set>
#include <sstream>

#include "core/types.hpp"

namespace vsg::spec {
namespace {

struct Walk {
  // Per-event context gathered in one pass over the trace.
  struct SendRec {
    std::size_t idx;
    util::Buffer payload;  // shared reference to the traced buffer
  };
  using Key = std::pair<core::ViewId, ProcId>;  // (view, sender)

  std::map<Key, std::vector<SendRec>> sends;
  std::map<std::size_t, core::ViewId> view_at;  // event idx -> viewid of the acting proc
};

}  // namespace

CauseResult build_cause(const trace::EventLog& trace, int n, int n0) {
  CauseResult result;
  auto complain = [&result](std::size_t idx, const std::string& what) {
    std::ostringstream os;
    os << "Lemma 4.2 violation (event " << idx << "): " << what;
    result.violations.push_back(os.str());
  };

  // Pass 1: track views, collect sends, and positionally assign causes.
  std::vector<std::optional<core::ViewId>> current(static_cast<std::size_t>(n));
  for (ProcId p = 0; p < n0; ++p)
    current[static_cast<std::size_t>(p)] = core::ViewId::initial();

  Walk walk;
  std::map<std::tuple<core::ViewId, ProcId, ProcId>, std::size_t> rcount, scount;

  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& te = trace[i];
    if (const auto* e = trace::as<trace::NewViewEvent>(te)) {
      if (e->p >= 0 && e->p < n) current[static_cast<std::size_t>(e->p)] = e->view().id;
    } else if (const auto* e = trace::as<trace::GpsndEvent>(te)) {
      const auto& cur = current[static_cast<std::size_t>(e->p)];
      if (cur.has_value()) {
        walk.sends[{*cur, e->p}].push_back({i, e->m});
        walk.view_at[i] = *cur;
      }
    } else if (const auto* e = trace::as<trace::GprcvEvent>(te)) {
      const auto& cur = current[static_cast<std::size_t>(e->dst)];
      if (!cur.has_value()) {
        complain(i, "gprcv before any view");
        continue;
      }
      walk.view_at[i] = *cur;
      auto& k = rcount[{*cur, e->src, e->dst}];
      const auto sit = walk.sends.find({*cur, e->src});
      if (sit == walk.sends.end() || k >= sit->second.size())
        complain(i, "no gpsnd available as cause for gprcv");
      else if (sit->second[k].payload != e->m)
        complain(i, "cause payload mismatch for gprcv");
      else
        result.gprcv_cause[i] = sit->second[k].idx;
      ++k;
    } else if (const auto* e = trace::as<trace::SafeEvent>(te)) {
      const auto& cur = current[static_cast<std::size_t>(e->dst)];
      if (!cur.has_value()) {
        complain(i, "safe before any view");
        continue;
      }
      walk.view_at[i] = *cur;
      auto& k = scount[{*cur, e->src, e->dst}];
      const auto sit = walk.sends.find({*cur, e->src});
      if (sit == walk.sends.end() || k >= sit->second.size())
        complain(i, "no gpsnd available as cause for safe");
      else if (sit->second[k].payload != e->m)
        complain(i, "cause payload mismatch for safe");
      else
        result.safe_cause[i] = sit->second[k].idx;
      ++k;
    }
  }

  // Pass 2: verify the lemma's four properties from the mapping itself.
  auto verify = [&](const std::map<std::size_t, std::size_t>& cause, const char* kind) {
    // (1) Message integrity: cause precedes the event, views match.
    for (const auto& [ev, cs] : cause) {
      if (cs >= ev) complain(ev, std::string(kind) + " cause does not precede event");
      const auto vi = walk.view_at.find(ev);
      const auto vc = walk.view_at.find(cs);
      if (vi == walk.view_at.end() || vc == walk.view_at.end() || vi->second != vc->second)
        complain(ev, std::string(kind) + " occurs in a different view than its cause");
    }
    // (2) No duplication: per destination, the mapping is injective.
    std::map<ProcId, std::set<std::size_t>> used;
    for (const auto& [ev, cs] : cause) {
      ProcId dst = kNoProc;
      if (const auto* r = trace::as<trace::GprcvEvent>(trace[ev]))
        dst = r->dst;
      else if (const auto* s = trace::as<trace::SafeEvent>(trace[ev]))
        dst = s->dst;
      if (!used[dst].insert(cs).second)
        complain(ev, std::string(kind) + " duplicates a cause at destination " +
                         std::to_string(dst));
    }
    // (3) No reordering + (4) prefix: per (view, src, dst), the cause indices
    // must be exactly the first k sends, in increasing order.
    std::map<std::tuple<core::ViewId, ProcId, ProcId>, std::vector<std::size_t>> streams;
    for (const auto& [ev, cs] : cause) {
      ProcId src = kNoProc, dst = kNoProc;
      if (const auto* r = trace::as<trace::GprcvEvent>(trace[ev])) {
        src = r->src;
        dst = r->dst;
      } else if (const auto* s = trace::as<trace::SafeEvent>(trace[ev])) {
        src = s->src;
        dst = s->dst;
      }
      streams[{walk.view_at.at(ev), src, dst}].push_back(cs);
    }
    for (const auto& [key, causes] : streams) {
      const auto& [g, src, dst] = key;
      const auto sit = walk.sends.find({g, src});
      if (sit == walk.sends.end()) continue;
      for (std::size_t k = 0; k < causes.size(); ++k) {
        if (k >= sit->second.size() || causes[k] != sit->second[k].idx) {
          complain(causes[k], std::string(kind) + " causes are not the FIFO prefix of sends");
          break;
        }
      }
    }
  };
  verify(result.gprcv_cause, "gprcv");
  verify(result.safe_cause, "safe");

  return result;
}

}  // namespace vsg::spec
