#pragma once

// VStoTO_p (Figures 9 and 10): the per-processor automaton that implements
// totally ordered broadcast on top of a view-synchronous group service.
//
// The transcription is literal; each handler below is one transition of the
// paper's automaton, and the locally controlled actions (label, gpsnd,
// confirm, brcv) are run eagerly to quiescence after every input — the
// "good processors take enabled steps immediately" discipline of Section 7.
// (Failure modelling — bad/ugly processors — happens in the VS back end's
// delivery pump, not here: a stopped processor simply receives no
// callbacks.)
//
// One deliberate deviation, documented in DESIGN.md: on gprcv of an
// ordinary message in a primary view we append the label to `order` only if
// it is not already present. With a scheduler that may interleave `label`
// between newview and the state-exchange send, the literal code can append
// a label that establishment already placed in `order` via fullorder
// (because the sender's summary contained it), double-delivering the value.
// Our eager executor never produces that interleaving, and the guard makes
// the automaton safe under every scheduler.
//
// History variables established[p,g] and buildorder[p,g] (Section 6) are
// maintained so the verification layer can check the paper's invariants;
// buildorder[p, current] is represented by `order` itself, and the views p
// has left by shared snapshots (ProcessState, vstoto/buildorder.hpp).

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/order_index.hpp"
#include "core/quorum.hpp"
#include "core/summary.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "trace/recorder.hpp"
#include "vs/service.hpp"
#include "vstoto/buildorder.hpp"
#include "vstoto/wire.hpp"

namespace vsg::vstoto {

/// Shared metrics all VStoTO processes of one stack report into (names:
/// to.*). Counters/gauges aggregate over every process bound to them; the
/// depth gauges are maintained incrementally, so for one registry they read
/// as the current totals across processes. Null pointers (the default) are
/// skipped — an unbound process pays one branch per event.
struct ProcessObs {
  obs::Counter* labels_assigned = nullptr;     // label_p actions (label churn)
  obs::Counter* values_sent = nullptr;         // gpsnd of <l, a> messages
  obs::Counter* summaries_sent = nullptr;      // full-summary exchange sends
  obs::Counter* summaries_received = nullptr;  // full-summary exchange receipts
  obs::Counter* digests_sent = nullptr;        // delta mode: digest sends
  obs::Counter* digests_received = nullptr;    // delta mode: digest receipts
  obs::Counter* deltas_sent = nullptr;         // delta mode: delta sends
  obs::Counter* deltas_received = nullptr;     // delta mode: delta receipts
  obs::Counter* payload_copies = nullptr;      // Value copies on the bcast->brcv path
  obs::Counter* payload_moves = nullptr;       // Value moves on the bcast->brcv path
  obs::Gauge* order_depth = nullptr;           // sum over procs of |order|
  obs::Gauge* confirmed_depth = nullptr;       // sum over procs of nextconfirm-1
  obs::Gauge* pending_labels = nullptr;        // sum over procs of |delay| + |buffer|
  obs::Counter* views_established = nullptr;   // establishment completions (any view)
  obs::Counter* primary_established = nullptr; // ... where the view is primary
};

enum class PStatus : std::uint8_t { kNormal, kSend, kCollect };

const char* to_string(PStatus s) noexcept;

/// How a process ships its state on newview. kFullSummary is the paper's
/// literal gpsnd(x): the whole summary in one message. kDigestDelta is the
/// two-phase anti-entropy exchange (docs/WIRE.md, "State exchange"): a
/// compact digest first, then — once every member's digest is in — one
/// delta against the pointwise-weakest digest. Receivers keep each delta
/// as it came and read it against their own frozen exchange base
/// (got_summary), so the establishment algebra sees what core::apply_delta
/// would have rebuilt and the two modes deliver identically; only exchange
/// bytes and message counts move.
enum class ExchangeMode : std::uint8_t { kFullSummary, kDigestDelta };

const char* to_string(ExchangeMode m) noexcept;

/// The full automaton state of Figure 9, plus the proof's history variables.
struct ProcessState {
  std::optional<core::View> current;        // current (views_bot)
  PStatus status = PStatus::kNormal;        // status
  core::Content content;
  std::uint32_t nextseqno = 1;
  std::deque<core::Label> buffer;
  std::vector<core::Label> order;
  std::uint32_t nextconfirm = 1;
  std::uint32_t nextreport = 1;
  std::optional<core::ViewId> highprimary;  // G_bot
  std::deque<core::Value> delay;
  core::StoredMap gotstate;
  std::set<ProcId> safe_exch;
  // Figure 9's safe-labels, stored in two parts and read through
  // Process::is_safe:
  //  - safe_bits: every label whose first position in `order` has its bit
  //    set (a safe in normal status, whose gprcv already appended the
  //    label, or the prefix the state exchange placed, once all its
  //    messages are safe); the vector grows only when a bit is set;
  //  - safe_labels: the labels made safe any other way (before
  //    establishment, or missing from order).
  std::set<core::Label> safe_labels;
  std::vector<bool> safe_bits;

  // Exchange state. exch_base is the local summary frozen at newview (both
  // modes). In delta mode it is also the state our digest and delta
  // describe, and exch_digest = digest(exch_base), computed once at
  // newview, is what we advertised (the digest sent may be relative to
  // the newest of exch_refs, but it stands for this one). gotstate stores
  // per sender its delta as it arrived: the ord prefix it shares with us is
  // a length into exch_base.ord, and the rest of its con is the part of
  // exch_base.con that exch_digest covers, shared by every entry and read
  // through got_summary(). Under kFullSummary exch_digest has no marks and
  // every entry is a whole summary (ord_prefix 0). exch_base changes only
  // at newview, which also clears gotstate. exch_unplaced, frozen beside
  // it, lists (sorted) the labels of exch_base.con that exch_base.ord
  // lacks, which is all establishment reads of the base besides its ord
  // tail.
  core::Summary exch_base;
  core::SummaryDigest exch_digest;
  std::vector<core::Label> exch_unplaced;
  std::map<ProcId, core::SummaryDigest> gotdigest;
  bool delta_sent = false;
  // The last two exact exchanges this process took part in
  // (core::DigestRef), newest first: the view and the meet it computed in
  // each. A received digest relative to either is rebuilt exactly, so a
  // member that missed the view the others last exchanged in can still be
  // read. Newview makes our digest relative to the newest only if it names
  // the view just left, the new view's epoch is the next one, and every
  // new member was in the view just left. An exact exchange pushes its
  // meet in front.
  std::vector<core::DigestRef> exch_refs;
  // The members whose exchange message (summary or delta) decoded at gprcv
  // in this view. safe of an exchange message counts only for them: VS
  // hands the same bytes to gprcv and then to safe, so they are not
  // decoded twice.
  std::set<ProcId> exch_decoded;
  // Length of the order prefix establishment placed (fullorder or
  // shortorder of gotstate). Once every exchange message is safe, exactly
  // these labels become safe (bits [0, exch_placed) are set).
  std::size_t exch_placed = 0;
  // Length of the prefix of order unchanged since the last newview, which
  // resets it to |order|: appends leave it, and establishment lowers it to
  // the first position it changed. exch_base.ord and the newest buildorder
  // snapshot both equal order as of that newview, so on_newview brings the
  // one up to order and freezes the other by copying only
  // order[order_watermark, end).
  std::size_t order_watermark = 0;

  // History variables (not part of the algorithm; used by verify/).
  // buildorder[p, current] is not stored: while builds_current is set it
  // *is* `order`, so appending a label costs no history upkeep, and
  // on_newview freezes it into the map on view exit. The map holds only
  // views this process has left. Each is an OrderSnapshot that shares the
  // first order_watermark labels (as of that exit) with the snapshot of
  // the view left before it and stores the rest, so the stored labels grow
  // with what changed between exits, not with views x history, and
  // copying the state (Process::checkpoint) copies one pointer per view.
  // verify/ reads a whole snapshot through OrderSnapshot::labels().
  std::set<core::ViewId> established;
  std::map<core::ViewId, OrderSnapshot::Ptr> buildorder;
  bool builds_current = false;
};

/// gotstate(q) as Figure 9 defines it: the summary q sent in the current
/// view's state exchange, or nullopt if it has not arrived. The stored
/// entry read through core::with_base against exch_base and exch_digest:
/// its ord is exch_base.ord[0, ord_prefix) then ord_suffix, and its con
/// gains the covered base entries. Under delta exchange it equals
/// core::apply_delta(delta_q, exch_base). verify/ reads whole gotstate
/// summaries only through this accessor.
std::optional<core::Summary> got_summary(const ProcessState& st, ProcId q);

class Process final : public vs::Client {
 public:
  /// Called on each brcv(a)_{origin, p} output. `a` refers into content
  /// and is valid for the call. The callback may bcast at p: that input
  /// only queues its value, and the running step labels it afterwards.
  using DeliveryFn = std::function<void(ProcId origin, const core::Value& a)>;

  /// `n0` is |P0|; processors 0..n0-1 start in the initial view with
  /// highprimary = g0 (Figure 9's initialization).
  Process(ProcId p, int n0, std::shared_ptr<const core::QuorumSystem> quorums,
          vs::Service& service, trace::Recorder& recorder);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcId id() const noexcept { return p_; }

  /// Input bcast(a)_p. Records the trace event and runs to quiescence,
  /// unless it comes from inside a delivery callback at p, where the
  /// running loop picks the value up once the callback returns.
  void bcast(core::Value a);

  void set_delivery(DeliveryFn fn) { deliver_ = std::move(fn); }

  /// Point this process at shared to.* metrics (see ProcessObs).
  void bind_metrics(const ProcessObs& obs) { obs_ = obs; }

  /// Attach a causal span tracer (null detaches). Hooks fire on label
  /// assignment, gpsnd, gprcv, order placement, confirmation, delivery and
  /// view establishment; a null tracer costs one pointer test per hook.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }

  /// Select the state-exchange protocol (default kFullSummary). Must be set
  /// before the first newview; the Stack threads the World's choice here.
  void set_exchange_mode(ExchangeMode m) { exchange_mode_ = m; }
  ExchangeMode exchange_mode() const noexcept { return exchange_mode_; }

  // vs::Client (inputs from the VS layer):
  void on_gprcv(ProcId src, const vs::Payload& m) override;
  void on_safe(ProcId src, const vs::Payload& m) override;
  void on_newview(const core::View& v) override;

  /// Derived variable `primary` (Figure 9).
  bool primary() const;

  /// The summary <content, order, nextconfirm, highprimary> of local state.
  core::Summary local_summary() const;

  /// Whether l is in Figure 9's safe-labels: its first position in order
  /// has its st.safe_bits bit set, or it is in st.safe_labels. The one
  /// reading of safety for try_confirm, verify/ and the tests.
  bool is_safe(const core::Label& l) const;

  const ProcessState& state() const noexcept { return st_; }

  /// The labels of content that order lacks, sorted: kept as content and
  /// order change, so that newview can freeze them (exch_unplaced) without
  /// walking content.
  const std::vector<core::Label>& unplaced() const noexcept { return unplaced_; }

  /// Values confirmed-and-reported so far, in order (for tests).
  const std::vector<std::pair<ProcId, core::Value>>& delivered() const noexcept {
    return delivered_;
  }

  /// Checkpoint/restore of the full automaton state (used by the
  /// exhaustive small-scope explorer to branch over schedules, and handy
  /// for debugging). The service/recorder bindings are not part of the
  /// checkpoint. The frozen buildorder snapshots are immutable, so a
  /// checkpoint shares them with the live state instead of copying them.
  struct Checkpoint {
    ProcessState st;
    std::vector<std::pair<ProcId, core::Value>> delivered;
  };
  Checkpoint checkpoint() const { return Checkpoint{st_, delivered_}; }
  void restore(const Checkpoint& cp);

 private:
  // Locally controlled actions (preconditions checked by callers via the
  // run-to-quiescence loop).
  bool try_label();
  bool try_gpsnd_value();
  bool try_confirm();
  bool try_brcv();
  void run_to_quiescence();

  void handle_labeled(LabeledValue lv);
  /// Merge x.con into content and store the entry x as gotstate[src];
  /// establish the view once every member's entry is in.
  void handle_summary(ProcId src, core::SummaryDelta x);
  void handle_digest(ProcId src, const core::SummaryDigest& g);
  void handle_delta(ProcId src, core::SummaryDelta dl);
  /// Delta mode: once every member's digest is in, broadcast the one delta
  /// against their meet (VS has no point-to-point send).
  void maybe_send_delta();
  void handle_safe_labeled(const core::Label& l);
  /// A state-exchange message (full summary, or delta-mode delta) became
  /// safe at every member; digests carry no labels and do not count.
  void handle_safe_exchange(ProcId src);

  /// Establishment: place fullorder (if `full`) or shortorder of gotstate
  /// into order in place (core::establish), keeping its shared prefix.
  void place_order(bool full);
  /// Append l to order unless it is already there (the duplicate guard of
  /// the header comment); returns whether it was appended.
  bool append_order(const core::Label& l);

  ProcId p_;
  std::shared_ptr<const core::QuorumSystem> quorums_;
  vs::Service* service_;
  trace::Recorder* recorder_;
  DeliveryFn deliver_;
  bool delivering_ = false;  // inside deliver_: bcast must not re-enter
  ExchangeMode exchange_mode_ = ExchangeMode::kFullSummary;
  ProcessObs obs_;
  obs::SpanTracer* tracer_ = nullptr;
  ProcessState st_;
  core::OrderIndex order_index_;  // first position of each label in st_.order
  std::vector<core::Label> unplaced_;  // content \ order, sorted (unplaced())
  std::vector<std::pair<ProcId, core::Value>> delivered_;
};

}  // namespace vsg::vstoto
