#pragma once

// Summaries and the state-exchange algebra of Figure 8.
//
// A summary is the state snapshot a VStoTO process sends at the start of a
// view: summaries = P(L x A) x L* x N x G_bot, with selectors con, ord,
// next, high. The free functions below are literal transcriptions of the
// operations the algorithm applies to the collected summaries (`gotstate`).

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/content.hpp"
#include "core/label.hpp"
#include "core/order_index.hpp"
#include "core/types.hpp"

namespace vsg::core {

struct Summary {
  /// con: the (label, value) pairs known to the sender, kept per label
  /// stream — Lemma 6.5 proves `con` is a partial function from labels to
  /// values.
  Content con;
  /// ord: the sender's tentative total order of labels.
  std::vector<Label> ord;
  /// next: the sender's nextconfirm (1-based; labels ord[0..next-2] are
  /// confirmed).
  std::uint32_t next = 1;
  /// high: the sender's highprimary; nullopt is the paper's bottom, ordered
  /// below every view identifier.
  std::optional<ViewId> high;

  bool operator==(const Summary&) const = default;
};

/// The paper's x.confirm: the prefix of x.ord of length
/// min(x.next - 1, length(x.ord)).
std::vector<Label> confirmed_prefix(const Summary& x);

/// Collected state-exchange summaries, keyed by sender (the paper's Y, the
/// `gotstate` partial function).
using SummaryMap = std::map<ProcId, Summary>;

/// knowncontent(Y): union of all con components. Later entries never
/// contradict earlier ones (allcontent is a function — Lemma 6.5).
Content knowncontent(const SummaryMap& y);

/// maxprimary(Y): greatest `high` among the summaries (nullopt if all are
/// bottom). Requires y to be nonempty.
std::optional<ViewId> maxprimary(const SummaryMap& y);

/// reps(Y): the members whose summary attains maxprimary(Y).
std::vector<ProcId> reps(const SummaryMap& y);

/// chosenrep(Y): deterministic representative choice — the highest processor
/// id among reps(Y). (The paper allows any rule applied consistently.)
ProcId chosenrep(const SummaryMap& y);

/// shortorder(Y): the chosen representative's ord (adopted by non-primary
/// views).
std::vector<Label> shortorder(const SummaryMap& y);

/// fullorder(Y): shortorder(Y) followed by the remaining labels of
/// dom(knowncontent(Y)) in label order (adopted by primary views). This is
/// the literal set-based formulation, kept as the oracle that establish()
/// below is tested against.
std::vector<Label> fullorder(const SummaryMap& y);

/// maxnextconfirm(Y): the highest reported nextconfirm.
std::uint32_t maxnextconfirm(const SummaryMap& y);

// --- Anti-entropy digests and deltas (docs/WIRE.md, "State exchange") -------
//
// The digest/delta algebra below implements the two-phase exchange: instead
// of shipping a whole Summary, a process first advertises what it already
// holds (SummaryDigest) and then ships only what the weakest peer provably
// lacks (SummaryDelta). apply_delta defines what a delta means: the
// sender's summary with exact ord/next/high and a con equal up to entries
// the receiver already holds, which union-style consumers such as
// knowncontent/fullorder cannot distinguish.

/// Per-stream watermarks, sorted by stream, each stream at most once. A
/// label stream's seqnos are dense from 1 (core/content.hpp), so "I hold the
/// full prefix up to w" is one integer per stream.
using StreamMarks = std::vector<std::pair<LabelStream, std::uint32_t>>;

/// Compact advertisement of a Summary: cursors plus one prefix watermark
/// per label stream. A mark (s, w) means the sender holds con entries for
/// every seqno 1..w of stream s (w >= 1; absent streams mean 0). A digest
/// with a `ref` is relative (see DigestRef): its marks are only those that
/// differ from the meet of the exchange `ref` names, and it must be read
/// through rebuild().
struct SummaryDigest {
  std::uint32_t next = 1;
  std::uint32_t ord_len = 0;
  std::optional<ViewId> high;
  StreamMarks marks;
  std::optional<ViewId> ref;

  bool operator==(const SummaryDigest&) const = default;
};

/// What a digest's sender lacks of some Summary `a`: full cursors (they are
/// a few bytes), the ord tail past the provably shared confirmed prefix,
/// and the con entries past the digest's stream watermarks.
struct SummaryDelta {
  std::uint32_t next = 1;
  std::optional<ViewId> high;
  /// The receiver keeps base.ord[0 .. ord_prefix) and appends ord_suffix.
  std::uint32_t ord_prefix = 0;
  std::vector<Label> ord_suffix;
  Content con;

  bool operator==(const SummaryDelta&) const = default;
};

/// The digest of x: cursors plus per-stream prefix watermarks over x.con,
/// one read per stream.
SummaryDigest digest(const Summary& x);

/// Pointwise weakest of the digests (min cursors, min/intersected marks):
/// the digest of "what every peer certainly holds". A delta computed
/// against the meet of all peer digests is sound for every one of those
/// peers. One linear merge over the sorted marks; `ds` must be nonempty.
SummaryDigest meet(std::span<const SummaryDigest* const> ds);
SummaryDigest meet(const SummaryDigest& a, const SummaryDigest& b);

/// An exact exchange a process took part in: its view and the meet of the
/// marks of that exchange's digests. An exchange is exact when every
/// digest in it was rebuilt exactly and either all of them carried the
/// same ref or none did; then every member rebuilt the same digests, so
/// two processes that hold the same view here hold the same marks.
struct DigestRef {
  ViewId view;
  StreamMarks marks;

  bool operator==(const DigestRef&) const = default;
};

/// d relative to ref: d's cursors, ref.view as its ref, and only those
/// marks of d that ref.marks lacks or holds lower. Marks only grow, so for
/// a digest taken after that exchange these are upgrades and new streams.
SummaryDigest relative(const SummaryDigest& d, const DigestRef& ref);

/// A received digest as a receiver holding the exchanges `held` reads it.
/// Without a ref, d as it is. With the view of a held exchange as its ref,
/// that exchange's marks with d's marks over them (the greater mark of a
/// stream wins), which is the sender's whole digest again. With any other
/// ref, d's marks alone, missing streams read as 0: that can only
/// under-claim. The result carries no ref. This is the reading
/// meet_rebuilt is tested against.
SummaryDigest rebuild(const SummaryDigest& d, std::span<const DigestRef> held);

/// The meet of the digests ds, each read through rebuild(., held), and
/// whether the exchange was exact. The digests relative to one held
/// exchange are not rebuilt one by one: their meet is its marks with the
/// meet of their own marks over them, so the cost follows the marks sent,
/// not the history.
struct ExchangeMeet {
  SummaryDigest meet;
  bool exact = false;
};
ExchangeMeet meet_rebuilt(std::span<const SummaryDigest* const> ds,
                          std::span<const DigestRef> held);

/// The delta that upgrades any holder of (at least) digest d to a. The ord
/// split point is the provably shared confirmed prefix:
/// min(a.next - 1, d.next - 1, d.ord_len, |a.ord|) — total-order safety
/// makes confirmed prefixes agree across processes, so the receiver's own
/// base.ord supplies those labels verbatim. con is each stream's suffix
/// above d's watermark, copied a stream at a time.
SummaryDelta delta(const Summary& a, const SummaryDigest& d);

/// Reconstruct the sender's summary from `dl` and the receiver's own frozen
/// exchange base. nullopt when dl.ord_prefix exceeds base.ord (possible
/// only for corrupted input; a correct sender never overshoots a digest it
/// was given). The result's con is dl.con plus base's watermark-covered
/// entries — a superset of the sender's con whose extras the receiver
/// already holds (union-equivalent; see the header comment). VStoTO keeps
/// deltas in the shared-base form below; this is the reference that form
/// is tested against, built one label at a time.
std::optional<Summary> apply_delta(const SummaryDelta& dl, const Summary& base);

// --- Shared-base gotstate ----------------------------------------------------
//
// apply_delta fills every reconstructed summary from the receiver's frozen
// base twice over: the shared ord prefix, and the base entries under the
// receiver's own digest's watermarks. A receiver therefore stores per
// sender the delta as it arrived (StoredMap) and reads both parts through
// the base, which must not change while entries refer to it. with_base()
// materializes one entry; establish() places the order of a view from the
// stored map without reading the base's history (see there).

/// gotstate as a receiver stores it: per sender, its delta's next, high,
/// ord_prefix, ord_suffix and con. An entry's ord is base.ord[0,
/// ord_prefix) followed by ord_suffix, so it cannot be read without the
/// base. A whole summary is stored as full_entry(x, base).
using StoredMap = std::map<ProcId, SummaryDelta>;

/// The stored form of `dl`: dl itself, or nullopt exactly when apply_delta
/// rejects it (an ord_prefix beyond base.ord).
std::optional<SummaryDelta> delta_entry(SummaryDelta dl, const Summary& base);

/// The stored form of a whole summary: ord_prefix the length of the common
/// prefix of x.ord and base.ord, found by comparing them, and ord_suffix the
/// rest of x.ord, so with_base reads x.ord back and establishment keeps
/// that prefix of the order in place.
SummaryDelta full_entry(Summary x, const Summary& base);

/// The summary the stored entry x stands for: its ord read through
/// base.ord, and its con plus the entries of base.con that `own` covers
/// (x's own entries win), merged a stream at a time. A present watermark w
/// covers seqnos 0..w of its stream, an absent one nothing, so an `own`
/// without marks adds nothing. Requires x.ord_prefix <= base.ord.size().
Summary with_base(const SummaryDelta& x, const Summary& base, const SummaryDigest& own);

/// maxprimary, chosenrep and maxnextconfirm of the stored map; they read
/// only each entry's cursors.
std::optional<ViewId> maxprimary(const StoredMap& y);
ProcId chosenrep(const StoredMap& y);
std::uint32_t maxnextconfirm(const StoredMap& y);

/// Establishment in place. Let Y be y with every entry read through
/// with_base(., base, own). On entry `order` holds base.ord, perhaps
/// followed by labels appended since base was frozen, and `index` indexes
/// it. On return `order` is shortorder(Y), and, if `full`, fullorder(Y),
/// and `index` indexes it. Returns the labels cut from the old order.
///
/// Both keep order[0, p), p being the representative's ord_prefix, with its
/// index (OrderIndex::truncate), and append the representative's
/// ord_suffix. fullorder then offers, in label order, the labels that can
/// be new: each entry's con, and those base.con labels `own` covers that
/// lie in base.ord[p, |base.ord|) or in `unplaced`, which lists, sorted,
/// the labels of base.con that base.ord lacks. Every other covered base
/// label lies in base.ord[0, p) and is placed already, so base.con is never
/// walked. Requires p <= |base.ord| <= |order| and order[0, p) ==
/// base.ord[0, p).
std::vector<Label> establish(std::vector<Label>& order, OrderIndex& index, const StoredMap& y,
                             const Summary& base, const SummaryDigest& own,
                             std::span<const Label> unplaced, bool full);

}  // namespace vsg::core
