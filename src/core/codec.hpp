#pragma once

// The wire codec (docs/WIRE.md).
//
// Every frame body and every VSTOTO payload uses one layout: LEB128 uvarint
// counters and lengths, zigzag svarint deltas for label/viewid components
// (labels in a list are delta-coded against their predecessor). Only the
// 9-byte frame header stays fixed-width, so the checksum can be back-patched
// in place. Codec<T> provides the (size, encode, decode) triple per wire
// type; sizes are exact — Codec<T>::size(x) equals the bytes encode
// produces, so a measured Encoder::reserve still costs one allocation.
//
// The namespace is vsg::wire (not core or membership): the layout crosses
// every layer, and membership reopens it to specialize Codec for its packet
// types.

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
///   static std::size_t size(const T& x);    // exact
///   static void encode(util::Encoder& e, const T& x);
///   static T decode(util::Decoder& d);      // defensive: d.ok()
/// decode never throws; callers check the decoder's ok()/complete() once
/// per message (the outcome-API wrappers in each layer do this).
template <typename T>
struct Codec;

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
  static std::size_t size(const core::ViewId& g);
  static void encode(util::Encoder& e, const core::ViewId& g);
  static core::ViewId decode(util::Decoder& d);
};

template <>
struct Codec<core::View> {
  static std::size_t size(const core::View& v);
  static void encode(util::Encoder& e, const core::View& v);
  static core::View decode(util::Decoder& d);
};

template <>
struct Codec<core::Label> {
  static std::size_t size(const core::Label& l);
  static void encode(util::Encoder& e, const core::Label& l);
  static core::Label decode(util::Decoder& d);
};

template <>
struct Codec<core::Summary> {
  static std::size_t size(const core::Summary& x);
  static void encode(util::Encoder& e, const core::Summary& x);
  static core::Summary decode(util::Decoder& d);
};

template <>
struct Codec<core::SummaryDigest> {
  static std::size_t size(const core::SummaryDigest& g);
  static void encode(util::Encoder& e, const core::SummaryDigest& g);
  static core::SummaryDigest decode(util::Decoder& d);
};

template <>
struct Codec<core::SummaryDelta> {
  static std::size_t size(const core::SummaryDelta& dl);
  static void encode(util::Encoder& e, const core::SummaryDelta& dl);
  static core::SummaryDelta decode(util::Decoder& d);
};

/// Delta-coded label lists: each label is four zigzag svarints relative to
/// its predecessor (epoch, viewid origin, seqno, origin), starting from a
/// default Label. Exposed for the summary codecs and the mirror property
/// tests.
struct LabelChain {
  core::Label prev;
  std::size_t size(const core::Label& l) noexcept;
  void encode(util::Encoder& e, const core::Label& l);
  core::Label decode(util::Decoder& d);
};

}  // namespace vsg::wire
