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

/// True iff the segment cache covers the entries exactly (an empty cache
/// only matches an entry-less token).
bool segs_cover(const Token& t) {
  std::size_t sum = 0;
  for (const auto& s : t.entries_segs) sum += s.count;
  return sum == t.entries.size() && (!t.entries_segs.empty() || t.entries.empty());
}

/// Exact wire size of entries [off, off+count) as maximal same-source runs:
/// uvarint src and count per run, uvarint-length-prefixed payloads.
std::size_t range_size(const Entries& entries, std::size_t off, std::size_t count) {
  std::size_t n = 0;
  std::size_t i = off;
  const std::size_t end = off + count;
  while (i < end) {
    std::size_t j = i + 1;
    while (j < end && entries[j].first == entries[i].first) ++j;
    n += util::uvarint_size(static_cast<std::uint64_t>(entries[i].first));
    n += util::uvarint_size(j - i);
    for (; i < j; ++i)
      n += util::uvarint_size(entries[i].second.size()) + entries[i].second.size();
  }
  return n;
}

/// Entries section size: total-count prefix plus per-segment warm image or
/// rebuilt-run size. Must agree with BodyEncoder's splice-vs-rebuild
/// choice, so both go through segs_cover.
std::size_t entries_section_size(const Token& p) {
  std::size_t n = util::uvarint_size(p.entries.size());
  if (segs_cover(p)) {
    std::size_t off = 0;
    for (const auto& s : p.entries_segs) {
      n += s.wire.empty() ? range_size(p.entries, off, s.count) : s.wire.size();
      off += s.count;
    }
  } else {
    n += range_size(p.entries, 0, p.entries.size());
  }
  return n;
}

std::size_t token_body_size(const Token& p) {
  std::size_t n = wire::Codec<core::ViewId>::size(p.gid) + util::uvarint_size(p.lap) +
                  util::uvarint_size(p.base) + entries_section_size(p) +
                  util::uvarint_size(p.delivered.size());
  for (const auto& [r, count] : p.delivered)
    n += util::uvarint_size(static_cast<std::uint64_t>(r)) + util::uvarint_size(count);
  return n;
}

struct BodySize {
  std::size_t operator()(const Call& p) const {
    return 1 + wire::Codec<core::ViewId>::size(p.gid);
  }
  std::size_t operator()(const CallReply& p) const {
    return 1 + wire::Codec<core::ViewId>::size(p.gid);
  }
  std::size_t operator()(const ViewAnnounce& p) const {
    return 1 + wire::Codec<core::View>::size(p.view);
  }
  std::size_t operator()(const Token& p) const { return 1 + token_body_size(p); }
  std::size_t operator()(const Probe& p) const {
    return 1 + 1 + (p.gid ? wire::Codec<core::ViewId>::size(*p.gid) : 0);
  }
};

/// Serialize entries [off, off+count) as maximal same-source runs.
void encode_runs(util::Encoder& e, const Entries& entries, std::size_t off,
                 std::size_t count) {
  std::size_t i = off;
  const std::size_t end = off + count;
  while (i < end) {
    std::size_t j = i + 1;
    while (j < end && entries[j].first == entries[i].first) ++j;
    e.uvarint(static_cast<std::uint64_t>(entries[i].first));
    e.uvarint(j - i);
    for (; i < j; ++i) e.vraw(entries[i].second.view());
  }
}

struct BodyEncoder {
  util::Encoder& e;
  WireEncodeStats* stats;

  // Bounds of cold (rebuilt-from-structs) entry regions within the packet,
  // recorded so encode_packet can warm the cache off the finished buffer.
  std::size_t entries_begin = 0;
  std::size_t entries_end = 0;
  bool rebuilt_whole = false;  // segment cache was unusable; one region
  std::vector<std::pair<std::size_t, std::pair<std::size_t, std::size_t>>>
      cold_spans;  // (segment index, [begin, end) in packet)

  void note(std::uint64_t rebuilt, std::uint64_t spliced) const {
    if (stats != nullptr) {
      stats->entries_rebuilt += rebuilt;
      stats->entries_spliced += spliced;
    }
  }

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
    e.uvarint(p.entries.size());
    if (segs_cover(p)) {
      std::size_t off = 0;
      for (std::size_t k = 0; k < p.entries_segs.size(); ++k) {
        const TokenSeg& seg = p.entries_segs[k];
        if (!seg.wire.empty()) {
          e.append(seg.wire.view());
          note(0, seg.count);
        } else {
          const std::size_t begin = e.size();
          encode_runs(e, p.entries, off, seg.count);
          cold_spans.push_back({k, {begin, e.size()}});
          note(seg.count, 0);
        }
        off += seg.count;
      }
    } else {
      rebuilt_whole = true;
      entries_begin = e.size();
      encode_runs(e, p.entries, 0, p.entries.size());
      entries_end = e.size();
      note(p.entries.size(), 0);
    }
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

/// Frame one body: version byte, checksum (back-patched) and body length,
/// then whatever `enc` writes through BodyEncoder's overload for `body`.
template <class Body>
util::Buffer encode_framed(const Body& body, BodyEncoder& enc) {
  const std::size_t body_size = BodySize{}(body);
  util::Encoder& e = enc.e;
  e.reserve(kFrameHeaderSize + body_size);
  e.u8(kVersionByte);
  e.u32(0);  // checksum: back-patched below
  e.u32(static_cast<std::uint32_t>(body_size));
  enc(body);
  e.patch_u32(1, frame_checksum(kVersionByte,
                                util::BufferView(e.bytes().data() + kFrameHeaderSize,
                                                 e.size() - kFrameHeaderSize)));
  return e.finish();
}

}  // namespace

void Token::note_boarded(std::size_t n) {
  if (n == 0) return;
  std::size_t covered = 0;
  for (const auto& s : entries_segs) covered += s.count;
  // The cache was valid before the append iff it covered everything but the
  // new batch; then the batch becomes one cold segment and the warm
  // segments stay warm. Otherwise drop the cache (full rebuild on encode).
  if (covered + n == entries.size())
    entries_segs.push_back(TokenSeg{static_cast<std::uint32_t>(n), util::Buffer{}});
  else
    entries_segs.clear();
}

void Token::note_trimmed(std::size_t n) {
  if (n == 0) return;
  std::size_t drop = n;
  while (drop > 0 && !entries_segs.empty()) {
    TokenSeg& front = entries_segs.front();
    if (front.count <= drop) {
      drop -= front.count;
      entries_segs.erase(entries_segs.begin());
    } else {
      // Trim splits this segment: its surviving tail goes cold (rebuilt,
      // and re-cached, by the next encode); later segments stay warm.
      front.count -= static_cast<std::uint32_t>(drop);
      front.wire = util::Buffer{};
      drop = 0;
    }
  }
  if (drop > 0) entries_segs.clear();  // cache did not cover the trim: invalid
}

void Token::invalidate_wire_cache() const { entries_segs.clear(); }

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
  return kFrameHeaderSize + std::visit(BodySize{}, pkt);
}

util::Buffer encode_packet(const Token& t, WireEncodeStats* stats) {
  util::Encoder e;
  BodyEncoder enc{e, stats, 0, 0, false, {}};
  util::Buffer packet = encode_framed(t, enc);
  // Warm whatever was rebuilt, as zero-copy slices of the packet.
  if (enc.rebuilt_whole) {
    t.entries_segs.clear();
    if (!t.entries.empty())
      t.entries_segs.push_back(
          TokenSeg{static_cast<std::uint32_t>(t.entries.size()),
                   packet.slice(enc.entries_begin, enc.entries_end - enc.entries_begin)});
  } else {
    for (const auto& [seg_index, span] : enc.cold_spans)
      t.entries_segs[seg_index].wire = packet.slice(span.first, span.second - span.first);
  }
  return packet;
}

util::Buffer encode_packet(const Packet& pkt, WireEncodeStats* stats) {
  if (const Token* t = std::get_if<Token>(&pkt); t != nullptr) return encode_packet(*t, stats);
  util::Encoder e;
  BodyEncoder enc{e, stats, 0, 0, false, {}};
  return std::visit([&enc](const auto& body) { return encode_framed(body, enc); }, pkt);
}

namespace {

/// Decode the token body (everything after the tag byte). `d` reads the
/// frame body; the segment cache is warmed with slices of it (zero-copy).
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
  std::vector<std::pair<std::size_t, std::size_t>> seg_spans;
  std::vector<std::uint32_t> seg_counts;
  while (acc < total && d.ok()) {
    const std::size_t seg_begin = d.pos();
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
    seg_spans.emplace_back(seg_begin, d.pos());
    seg_counts.push_back(static_cast<std::uint32_t>(count));
  }
  const bool complete = !malformed && acc == total && d.ok();
  if (strict && !complete) return "malformed token entries section";
  if (complete)
    for (std::size_t k = 0; k < seg_counts.size(); ++k)
      p.entries_segs.push_back(
          TokenSeg{seg_counts[k], d.input_slice(seg_spans[k].first, seg_spans[k].second)});
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
