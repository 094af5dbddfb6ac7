// Membership/token packet round trips and defensive decoding.

#include <gtest/gtest.h>

#include "membership/messages.hpp"
#include "util/rng.hpp"

namespace vsg::membership {
namespace {

TEST(Messages, CallRoundTrip) {
  const Call c{core::ViewId{7, 2}};
  const auto back = decode_packet_ex(encode_packet(Packet{c})).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<Call>(*back).gid, c.gid);
}

TEST(Messages, CallReplyRoundTrip) {
  const CallReply r{core::ViewId{9, 0}};
  const auto back = decode_packet_ex(encode_packet(Packet{r})).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<CallReply>(*back).gid, r.gid);
}

TEST(Messages, ViewAnnounceRoundTrip) {
  const ViewAnnounce a{core::View{core::ViewId{3, 1}, {0, 1, 3}}};
  const auto back = decode_packet_ex(encode_packet(Packet{a})).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<ViewAnnounce>(*back).view, a.view);
}

TEST(Messages, TokenRoundTrip) {
  Token t;
  t.gid = core::ViewId{5, 0};
  t.lap = 42;
  t.base = 7;
  t.entries = {{0, util::Bytes{1, 2}}, {2, util::Bytes{}}, {1, util::Bytes{9}}};
  t.delivered = {{0, 9}, {1, 8}, {2, 10}};
  const auto bytes = encode_packet(Packet{t});
  const auto back = decode_packet_ex(bytes).value;
  ASSERT_TRUE(back.has_value());
  const auto& got = std::get<Token>(*back);
  EXPECT_EQ(got.gid, t.gid);
  EXPECT_EQ(got.lap, t.lap);
  EXPECT_EQ(got.base, t.base);
  EXPECT_EQ(got.entries, t.entries);
  EXPECT_EQ(got.delivered, t.delivered);
  EXPECT_EQ(encode_packet(got), bytes) << "a decoded token re-encodes identically";
}

TEST(Messages, EmptyTokenRoundTrip) {
  Token t;
  t.gid = core::ViewId{1, 0};
  const auto back = decode_packet_ex(encode_packet(Packet{t})).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(std::get<Token>(*back).entries.empty());
}

TEST(Messages, ProbeRoundTripWithAndWithoutView) {
  const Probe with{core::ViewId{4, 3}};
  auto back = decode_packet_ex(encode_packet(Packet{with})).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<Probe>(*back).gid, with.gid);

  const Probe without{std::nullopt};
  back = decode_packet_ex(encode_packet(Packet{without})).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(std::get<Probe>(*back).gid.has_value());
}

TEST(Messages, MeasuredSizeIsExactForEveryPacketType) {
  Token t;
  t.gid = core::ViewId{5, 0};
  t.entries = {{0, util::Bytes{1, 2, 3}}, {1, util::Bytes{}}};
  t.delivered = {{0, 2}, {1, 1}};
  const std::vector<Packet> packets{
      Packet{Call{core::ViewId{7, 2}}},
      Packet{CallReply{core::ViewId{9, 0}}},
      Packet{ViewAnnounce{core::View{core::ViewId{3, 1}, {0, 1, 3}}}},
      Packet{t},
      Packet{Probe{core::ViewId{4, 3}}},
      Packet{Probe{std::nullopt}},
  };
  // encode_packet reserves exactly this much, so the encode is a single
  // allocation (Serde.MeasuredReserveCostsExactlyOneAllocation pins the
  // Encoder side of that claim).
  for (const auto& p : packets)
    EXPECT_EQ(encode_packet(p).size(), encoded_packet_size(p)) << "tag index " << p.index();
}

// Node::forward_token encodes the token by reference. Over a run of
// boarding and trim passes it must produce the bytes that encoding a
// Packet copy does, and encoded_packet_size must stay exact.
TEST(Messages, TokenByReferenceMatchesPacketCopy) {
  util::Rng rng(17);
  Token t;
  t.gid = core::ViewId{6, 2};
  t.delivered = {{0, 0}, {1, 0}, {2, 0}};
  for (int pass = 0; pass < 60; ++pass) {
    const auto src = static_cast<ProcId>(pass % 3);
    // Boarding: one same-source batch (possibly empty), as process_token.
    const std::size_t boarded = rng.below(4);
    for (std::size_t i = 0; i < boarded; ++i)
      t.entries.emplace_back(src, util::Bytes(1 + rng.below(6), static_cast<std::uint8_t>(pass)));
    // Trim: drop a prefix now and then.
    if (pass % 4 == 3 && !t.entries.empty()) {
      const std::size_t drop = 1 + rng.below(t.entries.size());
      t.entries.erase(t.entries.begin(), t.entries.begin() + static_cast<std::ptrdiff_t>(drop));
      t.base += static_cast<std::uint32_t>(drop);
    }
    t.lap = static_cast<std::uint32_t>(pass);
    t.set_delivered(src, t.base);

    const util::Buffer ref_bytes = encode_packet(t);
    ASSERT_EQ(ref_bytes, encode_packet(Packet{t})) << "pass " << pass;
    EXPECT_EQ(encoded_packet_size(Packet{t}), ref_bytes.size()) << "pass " << pass;
  }
}

TEST(Messages, DecodedTokenEntriesAreSlicesOfThePacket) {
  Token t;
  t.gid = core::ViewId{2, 0};
  t.entries = {{0, util::Bytes{1, 2, 3}}, {1, util::Bytes{4, 5}}};
  const auto packet = encode_packet(Packet{t});
  const auto back = decode_packet_ex(packet).value;
  ASSERT_TRUE(back.has_value());
  const auto& got = std::get<Token>(*back);
  for (const auto& [src, payload] : got.entries)
    EXPECT_EQ(payload.id(), packet.id()) << "entry from " << src << " must share storage";
}

TEST(Messages, UnknownTagRejected) {
  EXPECT_FALSE(decode_packet_ex(util::Bytes{0x42}).ok());
  EXPECT_FALSE(decode_packet_ex(util::Bytes{}).ok());
}

TEST(Messages, TruncatedPacketRejected) {
  auto bytes = encode_packet(Packet{Call{core::ViewId{7, 2}}}).to_bytes();
  bytes.pop_back();
  EXPECT_FALSE(decode_packet_ex(bytes).ok());
}

TEST(Messages, TrailingGarbageRejected) {
  auto bytes = encode_packet(Packet{Probe{std::nullopt}}).to_bytes();
  bytes.push_back(0x01);
  EXPECT_FALSE(decode_packet_ex(bytes).ok());
}

TEST(Messages, SingleByteCorruptionAlwaysDetected) {
  Token t;
  t.gid = core::ViewId{5, 0};
  t.entries = {{0, util::Bytes{1, 2, 3}}, {1, util::Bytes{4}}};
  t.delivered = {{0, 2}, {1, 1}};
  const auto bytes = encode_packet(Packet{t}).to_bytes();
  // Flip every byte position in turn: the checksum must reject each
  // mutation (payload corruption must never produce a different valid
  // packet).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mutated = bytes;
    mutated[i] ^= 0x5A;
    EXPECT_FALSE(decode_packet_ex(mutated).ok()) << "byte " << i;
  }
}

class PacketFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzz, RandomBytesNeverCrash) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    util::Bytes buf;
    const auto len = rng.below(64);
    for (std::uint64_t k = 0; k < len; ++k)
      buf.push_back(static_cast<std::uint8_t>(rng.next()));
    (void)decode_packet_ex(buf);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace vsg::membership
