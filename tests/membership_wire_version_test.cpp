// Frame versioning (docs/WIRE.md): every packet kind round-trips under the
// one layout this build speaks (v3), encoded_packet_size stays exact, and
// every other version byte — the retired v1/v2 included — is rejected with
// a clear error, even under the chaos unchecked-decode injection.

#include <gtest/gtest.h>

#include "membership/messages.hpp"
#include "util/hash.hpp"
#include "util/serde.hpp"

namespace vsg::membership {
namespace {

Token sample_token() {
  Token t;
  t.gid = core::ViewId{6, 1};
  t.lap = 11;
  t.base = 3;
  t.entries = {{0, util::Bytes{1, 2, 3}},
               {0, util::Bytes{4}},
               {2, util::Bytes{}},
               {1, util::Bytes{5, 6}}};
  t.delivered = {{0, 5}, {1, 4}, {2, 6}};
  return t;
}

std::vector<Packet> sample_packets() {
  return {
      Packet{Call{core::ViewId{7, 2}}},
      Packet{CallReply{core::ViewId{9, 0}}},
      Packet{ViewAnnounce{core::View{core::ViewId{3, 1}, {0, 1, 3}}}},
      Packet{sample_token()},
      Packet{Probe{core::ViewId{4, 3}}},
      Packet{Probe{std::nullopt}},
  };
}

bool packets_equal(const Packet& a, const Packet& b) {
  if (a.index() != b.index()) return false;
  if (const auto* ta = std::get_if<Token>(&a)) {
    const auto& tb = std::get<Token>(b);
    return ta->gid == tb.gid && ta->lap == tb.lap && ta->base == tb.base &&
           ta->entries == tb.entries && ta->delivered == tb.delivered;
  }
  if (const auto* ca = std::get_if<Call>(&a)) return ca->gid == std::get<Call>(b).gid;
  if (const auto* ra = std::get_if<CallReply>(&a)) return ra->gid == std::get<CallReply>(b).gid;
  if (const auto* va = std::get_if<ViewAnnounce>(&a))
    return va->view == std::get<ViewAnnounce>(b).view;
  return std::get<Probe>(a).gid == std::get<Probe>(b).gid;
}

TEST(WireVersion, MeasuredSizeIsExactForEveryVersion) {
  for (const auto& pkt : sample_packets())
    EXPECT_EQ(encode_packet(pkt).size(), encoded_packet_size(pkt))
        << "tag index " << pkt.index();
}

TEST(WireVersion, SameSourceRunsShareOneSegmentHeader) {
  // A segment header is (uvarint src, uvarint count): three same-source
  // entries pay for one header, alternating sources for three. Every field
  // here fits one varint byte, so the difference is two 2-byte headers.
  Token run;
  run.gid = core::ViewId{1, 0};
  run.entries = {{0, util::Bytes{1}}, {0, util::Bytes{2}}, {0, util::Bytes{3}}};
  Token alternating = run;
  alternating.entries[1].first = 1;
  EXPECT_EQ(encoded_packet_size(Packet{alternating}) - encoded_packet_size(Packet{run}),
            2u * 2);
}

TEST(WireVersion, V3FramesRoundTripForEveryPacketKind) {
  for (const auto& pkt : sample_packets()) {
    const auto v3 = encode_packet(pkt);
    ASSERT_EQ(v3.view()[0], 3u);
    const auto back = decode_packet_ex(v3);
    ASSERT_TRUE(back.ok()) << back.error;
    EXPECT_TRUE(packets_equal(pkt, *back.value)) << "tag index " << pkt.index();
  }
}

TEST(WireVersion, UnknownVersionByteRejectedWithClearError) {
  // 4 is one past the layout this build speaks; 1 and 2 are the retired
  // layouts, refused before the body is read, never reinterpreted as v3.
  for (const std::uint8_t version : {std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{4}}) {
    auto bytes = encode_packet(Packet{Probe{std::nullopt}}).to_bytes();
    bytes[0] = version;
    const auto out = decode_packet_ex(util::Buffer{bytes});
    EXPECT_FALSE(out.ok());
    EXPECT_NE(out.error.find("unknown wire version " + std::to_string(version)),
              std::string::npos)
        << out.error;
    EXPECT_NE(out.error.find("docs/WIRE.md"), std::string::npos) << out.error;
  }
}

TEST(WireVersion, UnknownVersionRejectedEvenWithUncheckedDecodeInjected) {
  // The chaos injection disables checksums and truncation checks — but the
  // version byte guards *which layout the bytes are read under*, so it must
  // stay load-bearing even in unchecked mode (never UB, never a
  // misinterpreted packet).
  auto bytes = encode_packet(Packet{sample_token()}).to_bytes();
  bytes[0] = 0x7F;
  const util::UncheckedDecodeGuard unchecked;
  const auto out = decode_packet_ex(util::Buffer{bytes});
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("unknown wire version"), std::string::npos) << out.error;
}

TEST(WireVersion, EmptyPacketNamesItself) {
  const auto out = decode_packet_ex(util::Buffer{});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.error, "empty packet");
}

TEST(WireVersion, MalformedSegmentsAreNamed) {
  // Forge a token whose entries section claims one entry but carries a
  // zero-count segment: the decoder must call out the entries section, not
  // crash or accept garbage.
  Token t;
  t.gid = core::ViewId{1, 0};
  t.entries = {{0, util::Bytes{9}}};
  auto bytes = encode_packet(Packet{t}).to_bytes();
  // Layout: frame(9) tag(1) epoch(1) proposer(1) lap(1) base(1) total(1)
  // src(1) count(1) ... — every varint here is one byte.
  const std::size_t count_off = 9 + 1 + 1 + 1 + 1 + 1 + 1 + 1;
  ASSERT_LT(count_off, bytes.size());
  ASSERT_EQ(bytes[count_off], 1u);
  bytes[count_off] = 0;
  // Re-seal the frame (checksum = fnv1a chained over version byte + body)
  // so only the semantic error remains.
  const std::uint32_t checksum = static_cast<std::uint32_t>(util::fnv1a(
      util::BufferView(bytes.data() + 9, bytes.size() - 9),
      util::fnv1a(util::BufferView(bytes.data(), 1))));
  for (int i = 0; i < 4; ++i)
    bytes[1 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(checksum >> (8 * i));
  const auto out = decode_packet_ex(util::Buffer{bytes});
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.error.find("token entries"), std::string::npos) << out.error;
}

// Frame a hand-written token body: version byte, checksum, body length.
util::Bytes seal(const util::Bytes& body) {
  util::Encoder f;
  f.u8(static_cast<std::uint8_t>(WireFormat::kV3));
  f.u32(static_cast<std::uint32_t>(util::fnv1a(
      util::BufferView(body), util::fnv1a(util::Bytes{static_cast<std::uint8_t>(WireFormat::kV3)}))));
  f.u32(static_cast<std::uint32_t>(body.size()));
  f.append(util::BufferView(body));
  return f.take();
}

// A token body whose entries section is the given (count, payloads) runs,
// all from source 1.
util::Bytes token_body(const std::vector<std::vector<util::Bytes>>& runs) {
  util::Encoder e;
  e.u8(4);  // token tag
  wire::Codec<core::ViewId>::encode(e, core::ViewId{2, 0});
  e.uvarint(1);  // lap
  e.uvarint(0);  // base
  std::size_t total = 0;
  for (const auto& run : runs) total += run.size();
  e.uvarint(total);
  for (const auto& run : runs) {
    e.uvarint(1);  // src
    e.uvarint(run.size());
    for (const auto& payload : run) e.vraw(util::BufferView(payload));
  }
  e.uvarint(0);  // no delivered counters
  return e.take();
}

TEST(WireVersion, SplitSameSourceRunsReencodeAsOneRun) {
  // Decoders accept any split of a same-source run; the encoder always
  // writes the maximal run, so (src 1, count 1)(src 1, count 2) comes back
  // as one (src 1, count 3) run, one src and one count varint shorter.
  const util::Bytes a{7}, b{8}, c{9, 9};
  const util::Bytes split = seal(token_body({{a}, {b, c}}));
  const auto out = decode_packet_ex(util::Buffer{split});
  ASSERT_TRUE(out.ok()) << out.error;
  const auto& t = std::get<Token>(*out.value);
  ASSERT_EQ(t.entries.size(), 3u);
  for (const auto& [src, payload] : t.entries) EXPECT_EQ(src, 1);
  EXPECT_EQ(t.entries[2].second.to_bytes(), c);
  const util::Bytes merged = encode_packet(t).to_bytes();
  EXPECT_EQ(merged, seal(token_body({{a, b, c}})));
  EXPECT_EQ(merged.size() + 2, split.size());
}

}  // namespace
}  // namespace vsg::membership
