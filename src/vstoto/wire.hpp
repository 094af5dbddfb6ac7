#pragma once

// Wire format for the two kinds of messages VStoTO processes exchange
// through VS (Figure 9's signature): labeled client values <l, a> during
// normal activity, and state-exchange summaries during recovery.
//
// Each gprcv decodes its payload once, into a Message the receiver owns
// and moves from; `safe` of a labeled value needs only the label, which
// decode_label_ex reads without copying the value out (docs/DATAPLANE.md).

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "core/codec.hpp"
#include "core/label.hpp"
#include "core/summary.hpp"
#include "util/buffer.hpp"
#include "util/serde.hpp"

namespace vsg::vstoto {

/// VSTOTO message tags (docs/WIRE.md, "VSTOTO payload layer"). These bytes
/// ride *inside* VS payloads — they are below the versioned frame header,
/// so changing them does not need a frame version bump, but it does need a
/// WIRE.md update and a scenario re-pin. The values are shared with the
/// membership layer (wire::kPayload*), which peeks at them to classify
/// state-exchange bytes.
inline constexpr std::uint8_t kTagLabeledValue = wire::kPayloadValue;
inline constexpr std::uint8_t kTagSummary = wire::kPayloadSummary;
inline constexpr std::uint8_t kTagDigest = wire::kPayloadDigest;
inline constexpr std::uint8_t kTagDelta = wire::kPayloadDelta;

/// An ordinary message: a labeled client value.
struct LabeledValue {
  core::Label label;
  core::Value value;
  bool operator==(const LabeledValue&) const = default;
};

using Message =
    std::variant<LabeledValue, core::Summary, core::SummaryDigest, core::SummaryDelta>;

/// Exact wire size of encode_message(m): a counting pass of its writer
/// (the Encoder::reserve hint).
std::size_t encoded_message_size(const Message& m);

/// Encode with a measured reserve: exactly one allocation (asserted by
/// vstoto_wire_test via Encoder::allocs()).
util::Buffer encode_message(const Message& m);

/// Outcome-based decode (mirroring membership::decode_packet_ex): `error`
/// names the reject reason iff `value` is disengaged. Defensive — the
/// network layer hands us raw bytes.
wire::DecodeOutcome<Message> decode_message_ex(util::BufferView bytes);

/// The label of a labeled-value payload, with the value skipped under its
/// length check instead of copied out. Accepts exactly the bytes
/// decode_message_ex accepts as a LabeledValue and returns its label; any
/// other tag is an error.
wire::DecodeOutcome<core::Label> decode_label_ex(util::BufferView bytes);

}  // namespace vsg::vstoto
