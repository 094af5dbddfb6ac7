#include "membership/messages.hpp"

#include <algorithm>
#include <limits>

#include "util/hash.hpp"

namespace vsg::membership {
namespace {
constexpr std::uint8_t kTagCall = 1;
constexpr std::uint8_t kTagCallReply = 2;
constexpr std::uint8_t kTagViewAnnounce = 3;
constexpr std::uint8_t kTagToken = 4;
constexpr std::uint8_t kTagProbe = 5;

constexpr auto kVersionByte = static_cast<std::uint8_t>(WireFormat::kV3);

std::uint32_t frame_checksum(std::uint8_t version, util::BufferView body) noexcept {
  return static_cast<std::uint32_t>(
      util::fnv1a(body, util::fnv1a(util::BufferView(&version, 1))));
}

using Entries = std::vector<std::pair<ProcId, util::Buffer>>;

/// Walk `entries` as maximal same-source runs: f(src, begin, end) per run.
template <class F>
void for_each_run(const Entries& entries, F&& f) {
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i + 1;
    while (j < entries.size() && entries[j].first == entries[i].first) ++j;
    f(entries[i].first, i, j);
    i = j;
  }
}

/// Entries section: total-count prefix, then one header per maximal
/// same-source run (uvarint src, uvarint count) followed by its
/// uvarint-length-prefixed payloads.
template <class Out>
void encode_entries(Out& e, const Entries& entries) {
  e.uvarint(entries.size());
  for_each_run(entries, [&](ProcId src, std::size_t i, std::size_t end) {
    e.uvarint(static_cast<std::uint64_t>(src));
    e.uvarint(end - i);
    for (; i < end; ++i) e.vraw(entries[i].second.view());
  });
}

/// One writer per packet body (tag byte first), over either sink: the
/// SizeCounter pass sizes the frame, the Encoder pass writes it.
template <class Out>
struct BodyEncoder {
  Out& e;

  void operator()(const Call& p) {
    e.u8(kTagCall);
    wire::Codec<core::ViewId>::encode(e, p.gid);
  }
  void operator()(const CallReply& p) {
    e.u8(kTagCallReply);
    wire::Codec<core::ViewId>::encode(e, p.gid);
  }
  void operator()(const ViewAnnounce& p) {
    e.u8(kTagViewAnnounce);
    wire::Codec<core::View>::encode(e, p.view);
  }
  void operator()(const Token& p) {
    e.u8(kTagToken);
    wire::Codec<core::ViewId>::encode(e, p.gid);
    e.uvarint(p.lap);
    e.uvarint(p.base);
    encode_entries(e, p.entries);
    e.uvarint(p.delivered.size());
    for (const auto& [r, count] : p.delivered) {
      e.uvarint(static_cast<std::uint64_t>(r));
      e.uvarint(count);
    }
  }
  void operator()(const Probe& p) {
    e.u8(kTagProbe);
    e.boolean(p.gid.has_value());
    if (p.gid) wire::Codec<core::ViewId>::encode(e, *p.gid);
  }
};

template <class Body>
std::size_t body_size(const Body& body) {
  util::SizeCounter n;
  BodyEncoder<util::SizeCounter>{n}(body);
  return n.size();
}

/// Frame one body: version byte, checksum (back-patched) and body length,
/// then BodyEncoder's overload for `body`, counted first so the reserve is
/// exact.
template <class Body>
util::Buffer encode_framed(const Body& body) {
  const std::size_t size = body_size(body);
  util::Encoder e;
  e.reserve(kFrameHeaderSize + size);
  e.u8(kVersionByte);
  e.u32(0);  // checksum: back-patched below
  e.u32(static_cast<std::uint32_t>(size));
  BodyEncoder<util::Encoder>{e}(body);
  e.patch_u32(1, frame_checksum(kVersionByte,
                                util::BufferView(e.bytes().data() + kFrameHeaderSize,
                                                 e.size() - kFrameHeaderSize)));
  return e.finish();
}

}  // namespace

void Token::set_delivered(ProcId r, std::uint32_t count) {
  const auto it = std::lower_bound(
      delivered.begin(), delivered.end(), r,
      [](const std::pair<ProcId, std::uint32_t>& e, ProcId id) { return e.first < id; });
  if (it != delivered.end() && it->first == r)
    it->second = count;
  else
    delivered.emplace(it, r, count);
}

std::uint32_t Token::min_delivered(const std::set<ProcId>& members) const {
  // Both sides are sorted by id: one merge walk.
  std::uint32_t low = std::numeric_limits<std::uint32_t>::max();
  auto it = delivered.begin();
  for (ProcId r : members) {
    while (it != delivered.end() && it->first < r) ++it;
    low = std::min(low, it != delivered.end() && it->first == r ? it->second : 0);
  }
  return low;
}

std::size_t encoded_packet_size(const Packet& pkt) {
  return kFrameHeaderSize + std::visit([](const auto& body) { return body_size(body); }, pkt);
}

util::Buffer encode_packet(const Token& t) { return encode_framed(t); }

util::Buffer encode_packet(const Packet& pkt) {
  return std::visit([](const auto& body) { return encode_framed(body); }, pkt);
}

namespace {

/// Decode the token body (everything after the tag byte). `d` reads the
/// frame body; entry payloads are slices of it (zero-copy).
/// Returns the reject reason iff the entries section is malformed or the
/// delivered ids are not strictly increasing under strict decoding, else
/// null; other field damage is left in the decoder's ok() as usual.
const char* decode_token_body(util::Decoder& d, bool strict, Token& p) {
  p.gid = wire::Codec<core::ViewId>::decode(d);
  p.lap = static_cast<std::uint32_t>(d.uvarint());
  p.base = static_cast<std::uint32_t>(d.uvarint());
  const std::uint64_t total = d.uvarint();
  std::size_t acc = 0;
  bool malformed = false;
  while (acc < total && d.ok()) {
    const auto src = static_cast<ProcId>(d.uvarint());
    const std::uint64_t count = d.uvarint();
    if (!d.ok()) break;
    if (count == 0 || acc + count > total) {
      malformed = true;  // zero-length or overrunning segment
      break;
    }
    for (std::uint64_t i = 0; i < count && d.ok(); ++i)
      p.entries.emplace_back(src, d.vraw_buffer());
    acc += count;
  }
  const bool complete = !malformed && acc == total && d.ok();
  if (strict && !complete) return "malformed token entries section";
  // The encoder writes the counters in increasing id order. A lenient
  // decode takes any order and lets a repeated id's last counter win.
  const std::uint64_t nd = d.uvarint();
  p.delivered.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(nd, d.remaining() / 2)));
  for (std::uint64_t i = 0; i < nd && d.ok(); ++i) {
    const auto r = static_cast<ProcId>(d.uvarint());
    const auto count = static_cast<std::uint32_t>(d.uvarint());
    if (p.delivered.empty() || p.delivered.back().first < r)
      p.delivered.emplace_back(r, count);
    else if (strict)
      return "token delivered ids not strictly increasing";
    else
      p.set_delivered(r, count);
  }
  return nullptr;
}

}  // namespace

DecodeOutcome decode_packet_ex(const util::Buffer& packet) {
  // util::unchecked_decode() re-enables the historical accept-anything bug
  // (no checksum, truncated fields read as zero) for chaos-oracle demos.
  // The wire version byte is validated unconditionally: an unknown version
  // must never be interpreted under some other version's layout.
  const bool strict = !util::unchecked_decode();
  DecodeOutcome out;
  if (packet.empty()) {
    out.error = "empty packet";
    return out;
  }
  const std::uint8_t version = packet[0];
  if (!wire::known_version(version)) {
    out.error = "unknown wire version " + std::to_string(version) +
                " (this build speaks only v3; see docs/WIRE.md)";
    return out;
  }

  util::Decoder frame(packet);
  (void)frame.u8();  // version, checked above
  const std::uint32_t checksum = frame.u32();
  const std::uint32_t body_len = frame.u32();
  const util::Buffer body = frame.input_slice(kFrameHeaderSize, kFrameHeaderSize + body_len);
  if (strict && (!frame.ok() || kFrameHeaderSize + body_len != packet.size())) {
    out.error = "truncated or oversized frame";
    return out;
  }
  if (strict && checksum != frame_checksum(version, body.view())) {
    out.error = "frame checksum mismatch";
    return out;
  }

  util::Decoder d(body);
  const std::uint8_t tag = d.u8();
  auto reject_incomplete = [&out, &d, strict](const char* what) {
    if (strict && !d.complete()) {
      out.error = std::string("malformed ") + what + " body";
      return true;
    }
    return false;
  };
  switch (tag) {
    case kTagCall: {
      Call p{wire::Codec<core::ViewId>::decode(d)};
      if (reject_incomplete("call")) return out;
      out.value = Packet{p};
      return out;
    }
    case kTagCallReply: {
      CallReply p{wire::Codec<core::ViewId>::decode(d)};
      if (reject_incomplete("call-reply")) return out;
      out.value = Packet{p};
      return out;
    }
    case kTagViewAnnounce: {
      ViewAnnounce p{wire::Codec<core::View>::decode(d)};
      if (reject_incomplete("view-announce")) return out;
      out.value = Packet{p};
      return out;
    }
    case kTagToken: {
      Token p;
      if (const char* error = decode_token_body(d, strict, p)) {
        out.error = error;
        return out;
      }
      if (reject_incomplete("token")) return out;
      out.value = Packet{std::move(p)};
      return out;
    }
    case kTagProbe: {
      Probe p;
      if (d.boolean()) p.gid = wire::Codec<core::ViewId>::decode(d);
      if (reject_incomplete("probe")) return out;
      out.value = Packet{p};
      return out;
    }
    default:
      out.error = "unknown packet tag " + std::to_string(tag);
      return out;
  }
}

}  // namespace vsg::membership
