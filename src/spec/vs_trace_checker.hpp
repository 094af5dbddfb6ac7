#pragma once

// Online safety checker for the VS interface.
//
// Accepts a stream of newview/gpsnd/gprcv/safe events and verifies they
// could have been produced by VS-machine (Figure 6). Checked properties
// (Section 1's enumeration plus Lemma 4.2):
//   - self-inclusion and local monotonicity of views;
//   - view-id uniqueness (one membership per id, globally);
//   - initial-view rule: processors outside P0 receive nothing before their
//     first newview;
//   - sending-view delivery, message integrity, at-most-once, per-sender
//     FIFO (the cause function of Lemma 4.2 is constructed positionally);
//   - per-view common total order: every member's gprcv sequence in a view
//     is a prefix of one shared order for that view;
//   - safe soundness: the k-th safe at q in view g refers to the k-th
//     message of the shared order, and every member of the view has
//     already delivered it (next[r,g] > next-safe[q,g]).
//
// The checker also exposes the cause mapping it builds, which is the
// existence half of Lemma 4.2.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "trace/events.hpp"

namespace vsg::trace {
class Recorder;
}

namespace vsg::spec {

class VSTraceChecker {
 public:
  /// n processors, of which 0..n0-1 start in the initial view.
  VSTraceChecker(int n, int n0);

  void on_event(const trace::TimedEvent& te);
  void check_all(const trace::EventLog& trace);

  /// Subscribe as a live oracle on the recorder (see TOTraceChecker::attach).
  void attach(trace::Recorder& recorder);

  bool ok() const noexcept { return violations_.empty(); }
  const std::vector<std::string>& violations() const noexcept { return violations_; }

  /// cause: index of the gprcv (resp. safe) event, counted over all events
  /// fed to the checker, -> index of its gpsnd cause. Partial when the trace
  /// is unsafe.
  const std::map<std::size_t, std::size_t>& gprcv_cause() const noexcept { return gprcv_cause_; }
  const std::map<std::size_t, std::size_t>& safe_cause() const noexcept { return safe_cause_; }

  /// The reconstructed per-view common order (sender, payload). Payloads are
  /// shared references to the traced buffers, not copies.
  const std::vector<std::pair<ProcId, util::Buffer>>& view_order(const core::ViewId& g) const;

  /// Latest view installed at p (nullopt before any newview for p >= n0).
  const std::optional<core::View>& current_view(ProcId p) const;

 private:
  /// Everything the checker knows about one view id, flat and indexed by
  /// processor: a gprcv or safe reaches it through cur_state_ and does no
  /// map lookup.
  struct ViewState {
    ViewState(std::set<ProcId> m, int n);
    std::set<ProcId> members;  // the first membership announced under this id
    /// gpsnd events per sender: (event index, payload).
    std::vector<std::vector<std::pair<std::size_t, util::Buffer>>> sent;
    std::vector<std::uint32_t> gprcv_count;  // [src * n + dst]
    std::vector<std::uint32_t> safe_count;   // [src * n + dst]
    std::vector<std::pair<ProcId, util::Buffer>> order;  // the view's common order
    std::vector<std::size_t> recv_idx;       // per receiver: prefix delivered
    std::vector<std::size_t> safe_idx;       // per receiver: prefix safe
  };

  void complain(const std::string& what);
  void handle_newview(const trace::NewViewEvent& e);
  void handle_gpsnd(const trace::GpsndEvent& e);
  void handle_gprcv(const trace::GprcvEvent& e);
  void handle_safe(const trace::SafeEvent& e);

  int n_;
  std::vector<std::optional<core::View>> current_;
  std::map<core::ViewId, ViewState> views_;  // node-based: cur_state_ stays valid
  std::vector<ViewState*> cur_state_;        // per processor; null before any view
  std::map<std::size_t, std::size_t> gprcv_cause_;
  std::map<std::size_t, std::size_t> safe_cause_;
  std::vector<std::string> violations_;
  std::size_t events_seen_ = 0;
};

}  // namespace vsg::spec
