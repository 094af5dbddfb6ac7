#pragma once

// Protocol packets of the Section 8 implementation: the Cristian-Schmuck
// membership rounds (call-for-participation / accept / join) plus the
// circulating token that carries the per-view message order and per-member
// delivery counters, and the merge probe.
//
// Every packet travels in a checksummed frame whose layout (frame header,
// varint bodies, the token's same-source entry runs) is specified in
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
};

/// Periodic contact attempt towards processors outside the current view;
/// receiving one from a stranger triggers view formation (merge).
struct Probe {
  std::optional<core::ViewId> gid;  // sender's current view, if any
};

using Packet = std::variant<Call, CallReply, ViewAnnounce, Token, Probe>;

/// Exact wire size of `pkt` (frame header + body): a counting pass of the
/// body writer encode_packet runs. encode_packet reserves precisely this,
/// so the whole encode costs one allocation.
std::size_t encoded_packet_size(const Packet& pkt);

/// Encode with exact measured reserve: one allocation per packet.
/// Version-byte + checksum framed; a Token's entries section is written as
/// maximal same-source runs (docs/WIRE.md).
util::Buffer encode_packet(const Packet& pkt);

/// encode_packet(Packet{t}) without copying the token: the same bytes. The
/// token hop (Node::forward_token) encodes through this.
util::Buffer encode_packet(const Token& t);

/// The packet decode entry point (docs/WIRE.md, "Decode outcome contract"):
/// `error` is non-empty iff `value` is disengaged, and names the reject
/// reason (unknown wire version, checksum mismatch, truncation, ...).
/// Unknown version bytes are rejected even when the chaos unchecked-decode
/// injection is active. Token entry payloads come out as slices of the
/// input (no payload copies).
using DecodeOutcome = wire::DecodeOutcome<Packet>;

DecodeOutcome decode_packet_ex(const util::Buffer& packet);

}  // namespace vsg::membership
