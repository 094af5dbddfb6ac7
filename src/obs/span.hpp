#pragma once

// Causal span tracing for the VStoTO stack. The paper's performance claims
// are phase budgets — TO-property(b+d, d, Q) and the Section 8 token-ring
// bound — and this layer attributes where that budget is spent by turning
// protocol milestones into timed spans:
//
//   message lifecycle (one chain per TO payload, correlated by its
//   core::Label, which is system-wide unique):
//     tosnd -> label -> gpsnd -> token.board -> net.transit -> gprcv
//           -> tentative -> confirmed -> tobrcv
//   Each span is named after the milestone it *ends* at and covers the time
//   since the previous milestone, so the chain tiles the bcast->brcv
//   interval. Origin-side milestones (label, gpsnd, token.board) exist once
//   per payload; delivery-side milestones (tentative, confirmed, tobrcv)
//   and net.transit exist once per destination processor.
//
//   view lifecycle (per processor): view.proposal (formation round at the
//   proposer, initiate -> install), view.state_exchange (newview ->
//   established), and a view.primary_established instant when the
//   establishing processor holds a quorum.
//
//   packets: one net.packet span per delivered network packet (src -> dst).
//
// Correlation keys. Across the wire, the key is the label: the zero-copy
// plane's storage uids do NOT survive a hop (a token entry decoded at a
// remote node is a slice of the arriving packet's storage, a different
// allocation — see docs/DATAPLANE.md). Origin-side, uids DO correlate for
// free: the buffer handed to gpsnd is the same storage the outbox, the
// token entry and the self-delivery hold, which is how the membership
// layer — which never decodes client payloads — reports token.board: the
// tracer learns uid->label at the gpsnd hook and resolves boarding by uid.
//
// The tracer doubles as a bounded flight recorder: completed spans go into
// a ring of `TraceConfig::capacity` entries; overflow evicts the oldest and
// counts obs.trace.dropped_spans (only spans evicted from the ring).
// Pending correlation state (open chains, the uid->label map, in-flight
// packets) is bounded the same way and uncounted, so the tracer is safe to
// leave on indefinitely. Completed message phases also
// feed to.phase_latency.<phase> histograms in the MetricsRegistry.
//
// Tracing is off by default. Layers hold a `SpanTracer*` that is null
// unless harness::World was configured with trace.enabled, so the disabled
// path costs one pointer test per hook site and perturbs nothing — fixed
// seeds produce bit-identical protocol counters and traces either way.

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "core/label.hpp"
#include "core/types.hpp"
#include "obs/metrics.hpp"
#include "sim/failure_table.hpp"
#include "sim/time.hpp"

namespace vsg::obs {

struct TraceConfig {
  /// Master switch; a World only constructs (and wires) a tracer when set.
  bool enabled = false;
  /// Flight-recorder ring capacity in completed spans. Pending-state maps
  /// (open chains, uid->label, in-flight packets) share this bound.
  std::size_t capacity = 4096;
  /// Prepended to every completed span's name, category and correlation id
  /// (e.g. "shard1."). Multi-shard Worlds run one tracer per shard; the
  /// prefix keeps chains with equal labels from different shards on
  /// distinct tracks when their traces are merged into one export.
  std::string name_prefix;
};

/// One completed (or instant) span, as kept by the flight recorder.
struct Span {
  std::string name;      // milestone / phase, e.g. "token.board"
  std::string cat;       // layer track: "to" | "ring" | "net" | "view" | "fault"
  std::string id;        // async correlation id (shared by one chain+proc)
  ProcId proc = kNoProc; // the processor ("process" in the trace) it belongs to
  sim::Time begin = 0;
  sim::Time end = 0;
  bool instant = false;  // instant marker, not an interval
  std::string arg;       // optional detail (label, view, uid, status)
};

class SpanTracer {
 public:
  explicit SpanTracer(TraceConfig config);

  const TraceConfig& config() const noexcept { return config_; }

  /// Publish obs.trace.* counters and to.phase_latency.* histograms.
  void bind_metrics(MetricsRegistry& registry);

  // --- message lifecycle hooks (times are the recorder's clock) -------------
  /// bcast(a)_p accepted; matched to the next label at p (TO is FIFO per
  /// origin, so the k-th label at p labels p's k-th submission).
  void msg_submitted(ProcId p, sim::Time now);
  /// label_p assigned label l; opens the chain for l.
  void msg_labeled(ProcId p, const core::Label& l, sim::Time now);
  /// gpsnd of <l, a>; `uid` is the encoded buffer's storage id, which the
  /// membership layer will see again when the payload boards the token.
  void msg_sent(ProcId p, const core::Label& l, std::uint64_t uid, sim::Time now);
  /// A client payload with storage id `uid` boarded the token at its origin.
  /// Unknown uids (state-exchange summaries) are ignored.
  void msg_boarded(ProcId p, std::uint64_t uid, sim::Time now);
  /// gprcv of <l, a> at destination p.
  void msg_received(ProcId p, const core::Label& l, sim::Time now);
  /// l entered p's tentative total order (gprcv append or state exchange).
  void msg_tentative(ProcId p, const core::Label& l, sim::Time now);
  /// l confirmed at p (safe + primary).
  void msg_confirmed(ProcId p, const core::Label& l, sim::Time now);
  /// brcv of l's value at p; completes the chain for this destination.
  void msg_delivered(ProcId p, const core::Label& l, sim::Time now);

  // --- view lifecycle hooks -------------------------------------------------
  /// p initiated a formation round for view id g.
  void view_proposed(ProcId p, const core::ViewId& g, sim::Time now);
  /// p installed view g (ends p's open proposal span if g matches it).
  void view_installed(ProcId p, const core::ViewId& g, sim::Time now);
  /// newview(v)_p delivered to the client: state exchange starts at p.
  void view_newview(ProcId p, const core::ViewId& g, sim::Time now);
  /// Delta-mode exchange only: p collected every member's digest for g and
  /// sent its delta. Splits the exchange interval — view_established then
  /// emits view.exchange.digest (newview -> here) and view.exchange.delta
  /// (here -> established) alongside the usual view.state_exchange span.
  void view_digests_collected(ProcId p, const core::ViewId& g, sim::Time now);
  /// p collected all summaries and established g; `primary` per Figure 9.
  void view_established(ProcId p, const core::ViewId& g, bool primary, sim::Time now);

  // --- network hooks --------------------------------------------------------
  /// Packet (storage id `uid`, post copy-on-corrupt) entered the link p->q.
  void packet_sent(ProcId src, ProcId dst, std::uint64_t uid, sim::Time now);
  void packet_delivered(ProcId src, ProcId dst, std::uint64_t uid, sim::Time now);

  /// Failure-status change: an instant marker on the affected processor.
  void fault_marker(const sim::StatusEvent& ev);

  // --- flight recorder ------------------------------------------------------
  /// Completed spans, oldest first (at most config().capacity of them).
  /// Emitted and dropped spans are counted in the bound registry only
  /// (obs.trace.spans, obs.trace.dropped_spans).
  const std::deque<Span>& spans() const noexcept { return ring_; }

 private:
  /// Delivery-side milestones, tracked per (chain, destination).
  struct DestState {
    sim::Time gprcv = -1;
    sim::Time tentative = -1;
    sim::Time confirmed = -1;
    bool delivered = false;
  };
  /// One message chain, keyed by label.
  struct MsgChain {
    sim::Time submit = -1;
    sim::Time label = -1;
    sim::Time gpsnd = -1;
    sim::Time board = -1;
    std::map<ProcId, DestState> dests;
  };
  struct PendingProposal {
    core::ViewId gid;
    sim::Time at = 0;
  };

  void push(Span span);
  void phase(const char* name, const core::Label& l, ProcId proc, sim::Time begin,
             sim::Time end);
  MsgChain* chain(const core::Label& l);
  void evict_chains();

  TraceConfig config_;
  std::deque<Span> ring_;

  // Pending correlation state, all FIFO-bounded by config_.capacity.
  std::map<core::Label, MsgChain> chains_;
  std::deque<core::Label> chain_fifo_;
  std::map<std::uint64_t, core::Label> uid_to_label_;
  std::deque<std::uint64_t> uid_fifo_;
  // In-flight packets. Storage ids are process-unique, so (uid, dst)
  // identifies one delivery even when a multicast shares the allocation.
  std::map<std::pair<std::uint64_t, ProcId>, sim::Time> packets_;
  std::deque<std::pair<std::uint64_t, ProcId>> packet_fifo_;
  std::map<ProcId, std::deque<sim::Time>> submits_;    // unmatched bcast times
  std::map<ProcId, PendingProposal> proposals_;        // open proposal per proc
  std::map<ProcId, std::pair<core::ViewId, sim::Time>> exchanges_;  // newview->established
  std::map<ProcId, std::pair<core::ViewId, sim::Time>> digest_marks_;  // digests collected

  Counter* spans_total_ = nullptr;
  Counter* spans_dropped_ = nullptr;
  std::map<std::string, Histogram*> phase_latency_;
};

}  // namespace vsg::obs
