#pragma once

// The wire codec (docs/WIRE.md).
//
// Every frame body and every VSTOTO payload uses one layout: LEB128 uvarint
// counters and lengths, zigzag svarint deltas for label/viewid components
// (labels in a list are delta-coded against their predecessor). Only the
// 9-byte frame header stays fixed-width, so the checksum can be back-patched
// in place. Codec<T> provides the (encode, decode) pair per wire type, and
// encoded_size(x) counts: it runs the same encode over a util::SizeCounter,
// so a measured Encoder::reserve costs one allocation.
//
// The namespace is vsg::wire (not core or membership): the layout crosses
// every layer.

#include <cstdint>
#include <optional>
#include <string>

#include "core/label.hpp"
#include "core/summary.hpp"
#include "core/types.hpp"
#include "util/serde.hpp"

namespace vsg::wire {

/// The frame version byte (docs/WIRE.md, "Frame header"). This build speaks
/// exactly one layout, v3; the earlier v1/v2 layouts were retired, and their
/// version bytes are refused like any other unknown version.
enum class Version : std::uint8_t { kV3 = 3 };

constexpr bool known_version(std::uint8_t v) noexcept {
  return v == static_cast<std::uint8_t>(Version::kV3);
}

/// VSTOTO payload tags (the byte below the frame layer; docs/WIRE.md,
/// "VSTOTO payload layer"). Hoisted here because the membership layer peeks
/// at them — without decoding — to classify state-exchange bytes for the
/// ring.state_exchange_bytes.{summary,digest,delta} counters.
inline constexpr std::uint8_t kPayloadValue = 1;
inline constexpr std::uint8_t kPayloadSummary = 2;
inline constexpr std::uint8_t kPayloadDigest = 3;
inline constexpr std::uint8_t kPayloadDelta = 4;

/// The codec for one wire type. Specializations provide:
///   template <class Out> static void encode(Out& e, const T& x);
///   static T decode(util::Decoder& d);      // defensive: d.ok()
/// encode is instantiated (in codec.cpp) for util::Encoder and
/// util::SizeCounter. decode never throws; callers check the decoder's
/// ok()/complete() once per message (the outcome-API wrappers do this).
template <typename T>
struct Codec;

/// Exact bytes Codec<T>::encode writes for x: a counting pass of it.
template <typename T>
std::size_t encoded_size(const T& x) {
  util::SizeCounter n;
  Codec<T>::encode(n, x);
  return n.size();
}

/// Outcome of a non-throwing decode: engaged value or a reject reason.
/// membership::decode_packet_ex and vstoto::decode_message_ex return it.
template <typename T>
struct DecodeOutcome {
  std::optional<T> value;
  std::string error;
  bool ok() const noexcept { return value.has_value(); }
};

template <>
struct Codec<core::ViewId> {
  template <class Out>
  static void encode(Out& e, const core::ViewId& g);
  static core::ViewId decode(util::Decoder& d);
};

template <>
struct Codec<core::View> {
  template <class Out>
  static void encode(Out& e, const core::View& v);
  static core::View decode(util::Decoder& d);
};

template <>
struct Codec<core::Label> {
  template <class Out>
  static void encode(Out& e, const core::Label& l);
  static core::Label decode(util::Decoder& d);
};

template <>
struct Codec<core::Summary> {
  template <class Out>
  static void encode(Out& e, const core::Summary& x);
  static core::Summary decode(util::Decoder& d);
};

template <>
struct Codec<core::SummaryDigest> {
  template <class Out>
  static void encode(Out& e, const core::SummaryDigest& g);
  static core::SummaryDigest decode(util::Decoder& d);
};

template <>
struct Codec<core::SummaryDelta> {
  template <class Out>
  static void encode(Out& e, const core::SummaryDelta& dl);
  static core::SummaryDelta decode(util::Decoder& d);
};

}  // namespace vsg::wire
