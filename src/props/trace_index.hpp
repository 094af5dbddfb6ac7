#pragma once

// The positional index of a timed trace that the conditional properties
// (Figures 5, 7 and 11) and the bench latency summaries read.
//
// All of them match events by position: the k-th bcast of an origin is the
// k-th brcv from that origin at each receiver, and the k-th gpsnd of a
// sender in a view is the k-th safe from it in that view at each receiver
// (per-sender FIFO is enforced separately by the trace checkers). The index
// is built by one fold over the trace, add() per event, and keeps what
// those readers ask of it: the final failure statuses, the TO and VS tables
// of send and receipt times, and each processor's current view.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "sim/failure_table.hpp"
#include "sim/time.hpp"
#include "trace/events.hpp"

namespace vsg::props {

/// One sender's sends matched to their receipts by position.
struct Stream {
  /// sent[k]: when the k-th was sent.
  std::vector<sim::Time> sent;
  /// got[k][r]: when r received the k-th. May run past `sent` when a
  /// receipt has no recorded send.
  std::vector<std::map<ProcId, sim::Time>> got;
  /// Per receiver, how many it has received so far.
  std::map<ProcId, std::size_t> received;

  /// got[k], or no receipts at all.
  const std::map<ProcId, sim::Time>& receipts(std::size_t k) const;
};

/// When had every member of Q got it, if ever: the latest of times[r] over
/// r in Q, or nullopt if some member of Q never did.
std::optional<sim::Time> all_of(const std::map<ProcId, sim::Time>& times,
                                const std::set<ProcId>& q);
/// When had some member of Q got it, if ever: the earliest of times[r] over
/// r in Q, or nullopt if no member of Q did.
std::optional<sim::Time> first_of(const std::map<ProcId, sim::Time>& times,
                                  const std::set<ProcId>& q);

/// The view all members of Q are in at the end of the trace.
struct FinalView {
  /// The final view of Q's least member (nullopt if Q is empty or it has
  /// none); the view of all of Q when why_not is empty.
  std::optional<core::View> view;
  /// Why Q shares no view: a member with no view, or members that disagree.
  std::string why_not;
};

class TraceIndex {
 public:
  /// Processors 0..n0-1 start in the initial view, the others in none.
  explicit TraceIndex(int n0);
  /// The index of every event of `trace`, folded in recording order.
  TraceIndex(const trace::EventLog& trace, int n0);

  void add(const trace::TimedEvent& te);

  /// A processor's or link's final failure status and the latest time a
  /// status event named it (good at 0 if none did).
  struct Status {
    sim::Status status = sim::Status::kGood;
    sim::Time at = 0;
  };
  Status proc(ProcId p) const;
  Status link(ProcId p, ProcId q) const;
  /// The latest status event naming a member of Q, a processor or either
  /// end of a link (0 if none).
  sim::Time last_status_touching(const std::set<ProcId>& q) const;

  /// TO table: the values bcast by `origin`; nullptr if none were sent or
  /// received.
  const Stream* to_stream(ProcId origin) const;
  const std::map<ProcId, Stream>& to_streams() const { return to_; }
  /// VS table: the messages gpsnd by `sender` in view g, their safe times
  /// keyed by each receiver's view at the safe; nullptr if none.
  const Stream* vs_stream(const core::ViewId& g, ProcId sender) const;

  /// p's current view at the end of the trace.
  const std::optional<core::View>& view(ProcId p) const;
  /// The latest newview at a member of Q (0 if none).
  sim::Time last_newview(const std::set<ProcId>& q) const;
  FinalView final_view(const std::set<ProcId>& q) const;

 private:
  struct Proc {
    Status status;
    std::optional<core::View> view;
    sim::Time newview_at = 0;
  };
  std::map<ProcId, Proc> procs_;
  std::map<std::pair<ProcId, ProcId>, Status> links_;
  std::map<ProcId, Stream> to_;
  std::map<std::pair<core::ViewId, ProcId>, Stream> vs_;
};

}  // namespace vsg::props
