#pragma once

// Protocol packets of the Section 8 implementation: the Cristian-Schmuck
// membership rounds (call-for-participation / accept / join) plus the
// circulating token that carries the per-view message order and per-member
// delivery counters, and the merge probe.
//
// Every packet travels in a checksummed frame whose layout (frame header,
// varint bodies, batched token entry segments) is specified in
// docs/WIRE.md. The leading version byte is always v3, the one layout this
// build speaks; decoders reject every other version byte loudly, even under
// the chaos unchecked-decode injection. Scalar layouts live in wire::Codec
// specializations (core/codec.hpp); this header's free functions are the
// packet-level entry points.

#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/codec.hpp"
#include "core/types.hpp"
#include "util/buffer.hpp"
#include "util/serde.hpp"

namespace vsg::membership {

/// The frame version byte (wire::Version; docs/WIRE.md).
using WireFormat = wire::Version;

/// The fixed-width frame prelude every packet starts with:
/// u8 version | u32 checksum | u32 body length. The checksum covers the
/// version byte and the body, and is back-patched in place once the body
/// is serialized.
inline constexpr std::size_t kFrameHeaderSize = 9;

/// Round 1: broadcast call-for-participation in a new view.
struct Call {
  core::ViewId gid;
};

/// Round 2: accept — the receiver agrees to participate (and will not reply
/// to any call with a smaller viewid afterwards).
struct CallReply {
  core::ViewId gid;
};

/// Round 3: the proposer announces the decided membership; receivers join
/// unless they have promised a higher viewid.
struct ViewAnnounce {
  core::View view;
};

/// One cached batch of the token's entries section: `count` consecutive
/// entries from one source, plus (when warm) their exact wire image — a
/// slice of the packet that carried them or a one-time encode at boarding.
/// An empty `wire` marks a cold segment rebuilt (and re-cached) by the next
/// encode.
struct TokenSeg {
  std::uint32_t count = 0;
  util::Buffer wire;
};

/// The circulating token. `base` is the order index of entries[0]; entries
/// below `base` are safe everywhere and have been trimmed. The counter of
/// member r in `delivered` is the number of order entries r had passed to
/// its client when the token last left r.
struct Token {
  core::ViewId gid;
  std::uint32_t lap = 0;
  std::uint32_t base = 0;
  /// Ordered payloads; each Buffer is a slice of the packet that carried it
  /// (absorb) or the client's original submission (board) — never a copy.
  std::vector<std::pair<ProcId, util::Buffer>> entries;
  /// One (member, counter) pair per member, sorted by member id. A flat
  /// vector, so decoding a token hop allocates once instead of once per
  /// member; set_delivered() keeps it sorted and duplicate-free.
  std::vector<std::pair<ProcId, std::uint32_t>> delivered;

  /// Set member r's counter, inserting it in id order if r has none.
  void set_delivered(ProcId r, std::uint32_t count);

  /// The smallest counter over `members` (0 for a member without one): the
  /// prefix of the order every member has passed to its client.
  std::uint32_t min_delivered(const std::set<ProcId>& members) const;

  /// Wire cache: per-batch segments covering `entries` front to back (sum
  /// of counts == entries.size() whenever non-empty). Boarding appends one
  /// segment per pass, so the older segments stay warm; trimming drops
  /// leading segments whole and only the split boundary segment goes cold.
  /// Empty with non-empty `entries` <=> no cache (full rebuild on encode).
  /// Any mutation of `entries` must go through note_boarded()/note_trimmed()
  /// to keep it honest.
  mutable std::vector<TokenSeg> entries_segs;

  /// Cache maintenance after appending `n` same-source entries in one
  /// boarding pass: appends one cold segment (or drops the cache if it was
  /// already invalid).
  void note_boarded(std::size_t n);

  /// Cache maintenance after erasing the first `n` entries (trim): drops
  /// covered segments whole and marks a split boundary segment cold.
  void note_trimmed(std::size_t n);

  /// Drop the wire cache (decoded-state consistency checks in tests).
  void invalidate_wire_cache() const;
};

/// Periodic contact attempt towards processors outside the current view;
/// receiving one from a stranger triggers view formation (merge).
struct Probe {
  std::optional<core::ViewId> gid;  // sender's current view, if any
};

using Packet = std::variant<Call, CallReply, ViewAnnounce, Token, Probe>;

/// Wire-cache accounting for one encode (forward_token aggregates these
/// into ring.entries_rebuilds / ring.entries_spliced):
///  - entries_rebuilt: token entries serialized from structs because no
///    warm wire image covered them (the entries of cold segments — each
///    payload once, when its boarding segment is first encoded);
///  - entries_spliced: token entries carried by splicing a warm cached wire
///    image verbatim.
struct WireEncodeStats {
  std::uint64_t entries_rebuilt = 0;
  std::uint64_t entries_spliced = 0;
};

/// Exact wire size of `pkt` (frame header + body). encode_packet reserves
/// precisely this, so the whole encode costs one allocation.
std::size_t encoded_packet_size(const Packet& pkt);

/// Encode with exact measured reserve: one allocation per packet (tests
/// assert Encoder::allocs() == 1). Version-byte + checksum framed; for a
/// Token the warm segments of the entries cache are spliced, and cold ones
/// are rebuilt and re-cached (zero-copy, slices of the returned packet).
/// `stats`, when non-null, receives the splice/rebuild accounting of this
/// encode.
util::Buffer encode_packet(const Packet& pkt, WireEncodeStats* stats = nullptr);

/// encode_packet(Packet{t}) without the copy: the same bytes and the same
/// stats, and it warms `t`'s own entries cache in place. The token hop
/// (Node::forward_token) encodes through this.
util::Buffer encode_packet(const Token& t, WireEncodeStats* stats = nullptr);

/// The packet decode entry point (docs/WIRE.md, "Decode outcome contract"):
/// `error` is non-empty iff `value` is disengaged, and names the reject
/// reason (unknown wire version, checksum mismatch, truncation, ...).
/// Unknown version bytes are rejected even when the chaos unchecked-decode
/// injection is active. Token entry payloads and the wire cache come out as
/// slices of the input (no payload copies).
using DecodeOutcome = wire::DecodeOutcome<Packet>;

DecodeOutcome decode_packet_ex(const util::Buffer& packet);

}  // namespace vsg::membership
