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
  const auto back = decode_packet_ex(encode_packet(Packet{t})).value;
  ASSERT_TRUE(back.has_value());
  const auto& got = std::get<Token>(*back);
  EXPECT_EQ(got.gid, t.gid);
  EXPECT_EQ(got.lap, t.lap);
  EXPECT_EQ(got.base, t.base);
  EXPECT_EQ(got.entries, t.entries);
  EXPECT_EQ(got.delivered, t.delivered);
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

TEST(Messages, WarmEntriesCacheReencodesIdentically) {
  Token t;
  t.gid = core::ViewId{5, 1};
  t.lap = 3;
  t.entries = {{0, util::Bytes{1, 2, 3}}, {2, util::Bytes{4}}};
  t.delivered = {{0, 1}, {2, 2}};
  const Packet pkt{t};
  const auto cold = encode_packet(pkt);  // warms the segment cache
  ASSERT_FALSE(std::get<Token>(pkt).entries_segs.empty());
  ASSERT_FALSE(std::get<Token>(pkt).entries_segs.front().wire.empty());
  const auto warm = encode_packet(pkt);  // splices the cached section
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(encoded_packet_size(pkt), warm.size());
}

// Node::forward_token encodes the token by reference. Over a run of
// boarding and trim passes it must produce the bytes, the warmed cache and
// the splice/rebuild stats that encoding a Packet copy (and writing the
// copy's cache back) did.
TEST(Messages, TokenByReferenceMatchesPacketCopy) {
  util::Rng rng(17);
  Token by_ref;
  by_ref.gid = core::ViewId{6, 2};
  by_ref.delivered = {{0, 0}, {1, 0}, {2, 0}};
  Token by_copy = by_ref;
  auto same_segs = [](const Token& a, const Token& b) {
    if (a.entries_segs.size() != b.entries_segs.size()) return false;
    for (std::size_t k = 0; k < a.entries_segs.size(); ++k)
      if (a.entries_segs[k].count != b.entries_segs[k].count ||
          a.entries_segs[k].wire != b.entries_segs[k].wire)
        return false;
    return true;
  };
  WireEncodeStats total;
  for (int pass = 0; pass < 60; ++pass) {
    const auto src = static_cast<ProcId>(pass % 3);
    // Boarding: one same-source batch (possibly empty), as process_token.
    const std::size_t boarded = rng.below(4);
    for (std::size_t i = 0; i < boarded; ++i) {
      const util::Bytes payload(1 + rng.below(6), static_cast<std::uint8_t>(pass));
      by_ref.entries.emplace_back(src, payload);
      by_copy.entries.emplace_back(src, payload);
    }
    by_ref.note_boarded(boarded);
    by_copy.note_boarded(boarded);
    // Trim: drop a prefix now and then, splitting a segment or not.
    if (pass % 4 == 3 && !by_ref.entries.empty()) {
      const std::size_t drop = 1 + rng.below(by_ref.entries.size());
      for (Token* t : {&by_ref, &by_copy}) {
        t->entries.erase(t->entries.begin(),
                         t->entries.begin() + static_cast<std::ptrdiff_t>(drop));
        t->base += static_cast<std::uint32_t>(drop);
        t->note_trimmed(drop);
      }
    }
    by_ref.lap = by_copy.lap = static_cast<std::uint32_t>(pass);
    by_ref.set_delivered(src, by_ref.base);
    by_copy.set_delivered(src, by_copy.base);

    WireEncodeStats ref_stats;
    WireEncodeStats copy_stats;
    const util::Buffer ref_bytes = encode_packet(by_ref, &ref_stats);
    const Packet pkt{by_copy};
    const util::Buffer copy_bytes = encode_packet(pkt, &copy_stats);
    by_copy.entries_segs = std::get<Token>(pkt).entries_segs;

    ASSERT_EQ(ref_bytes, copy_bytes) << "pass " << pass;
    ASSERT_TRUE(same_segs(by_ref, by_copy)) << "pass " << pass;
    EXPECT_EQ(ref_stats.entries_rebuilt, copy_stats.entries_rebuilt) << "pass " << pass;
    EXPECT_EQ(ref_stats.entries_spliced, copy_stats.entries_spliced) << "pass " << pass;
    EXPECT_EQ(encoded_packet_size(Packet{by_ref}), ref_bytes.size());
    total.entries_rebuilt += ref_stats.entries_rebuilt;
    total.entries_spliced += ref_stats.entries_spliced;
  }
  // The run exercised both the splice and the rebuild path.
  EXPECT_GT(total.entries_rebuilt, 0u);
  EXPECT_GT(total.entries_spliced, 0u);
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
  // Decoding also warms the segment cache with packet slices.
  ASSERT_FALSE(got.entries_segs.empty());
  for (const auto& seg : got.entries_segs) EXPECT_EQ(seg.wire.id(), packet.id());
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
