// Decode-hardening regression tests: every wire message and membership
// packet type must reject every strict-prefix truncation, any single-byte
// corruption (membership packets are checksummed), and arbitrary garbage —
// without crashing. The historical zero-filled-decode bug stays reproducible
// behind util::unchecked_decode() and is pinned down here too.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <string>

#include "membership/messages.hpp"
#include "util/rng.hpp"
#include "util/serde.hpp"
#include "vstoto/wire.hpp"

namespace vsg {
namespace {

std::vector<vstoto::Message> all_messages() {
  const core::Label label{core::ViewId{3, 1}, 7, 2};
  core::Summary x;
  x.con = {{label, "alpha"}, {core::Label{core::ViewId{3, 1}, 8, 0}, "beta"}};
  x.ord = {label};
  x.next = 1;
  x.high = core::ViewId{3, 1};
  const core::SummaryDigest whole = core::digest(x);
  return {vstoto::Message{vstoto::LabeledValue{label, "payload"}}, vstoto::Message{x},
          vstoto::Message{whole},
          vstoto::Message{core::relative(whole, core::DigestRef{core::ViewId{2, 0}, {}})}};
}

std::vector<membership::Packet> all_packets() {
  membership::Token token;
  token.gid = core::ViewId{5, 0};
  token.lap = 2;
  token.base = 1;
  token.entries = {{0, util::Bytes{1, 2, 3}}, {2, util::Bytes{}}};
  token.delivered = {{0, 4}, {2, 3}};
  return {
      membership::Packet{membership::Call{core::ViewId{7, 2}}},
      membership::Packet{membership::CallReply{core::ViewId{9, 0}}},
      membership::Packet{membership::ViewAnnounce{core::View{core::ViewId{3, 1}, {0, 1, 3}}}},
      membership::Packet{token},
      membership::Packet{membership::Probe{core::ViewId{4, 3}}},
      membership::Packet{membership::Probe{std::nullopt}},
  };
}

TEST(WireFuzz, EveryMessageTypeRejectsEveryTruncation) {
  for (const auto& m : all_messages()) {
    const auto bytes = vstoto::encode_message(m);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const util::Bytes prefix(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(vstoto::decode_message_ex(prefix).ok())
          << "message index accepted a " << len << "/" << bytes.size() << " prefix";
    }
  }
}

TEST(WireFuzz, EveryPacketTypeRejectsEveryTruncation) {
  for (const auto& p : all_packets()) {
    const auto bytes = membership::encode_packet(p);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const util::Bytes prefix(bytes.begin(),
                               bytes.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(membership::decode_packet_ex(prefix).ok())
          << "packet index " << p.index() << " accepted a " << len << "/" << bytes.size()
          << " prefix";
    }
  }
}

// The frame checksum covers the whole body, so no single-byte corruption may
// slip through (a flip in the length prefix truncates the frame instead).
TEST(WireFuzz, EveryPacketTypeRejectsEverySingleByteFlip) {
  for (const auto& p : all_packets()) {
    const auto bytes = membership::encode_packet(p).to_bytes();
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      for (std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0xFF}}) {
        util::Bytes corrupt = bytes;
        corrupt[i] ^= flip;
        EXPECT_FALSE(membership::decode_packet_ex(corrupt).ok())
            << "packet index " << p.index() << " accepted byte " << i << " ^ " << int(flip);
      }
    }
  }
}

TEST(WireFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng(2026);
  for (int i = 0; i < 500; ++i) {
    util::Bytes buf(rng.below(64));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
    (void)vstoto::decode_message_ex(buf);   // must not crash; accept/reject is free
    (void)membership::decode_packet_ex(buf);
  }
}

TEST(WireFuzz, RandomlyMangledEncodingsNeverCrash) {
  util::Rng rng(4049);
  const auto messages = all_messages();
  const auto packets = all_packets();
  for (int i = 0; i < 300; ++i) {
    auto mangle = [&rng](util::Bytes bytes) {
      const auto flips = 1 + rng.below(4);
      for (std::uint64_t k = 0; k < flips && !bytes.empty(); ++k)
        bytes[rng.below(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      return bytes;
    };
    (void)vstoto::decode_message_ex(
        mangle(encode_message(messages[rng.below(messages.size())]).to_bytes()));
    (void)membership::decode_packet_ex(
        mangle(encode_packet(packets[rng.below(packets.size())]).to_bytes()));
  }
}

// --- BufferView / shared-buffer decoding ----------------------------------
//
// The zero-copy plane decodes out of views into shared storage at arbitrary
// offsets. These pin down that (a) a decode through a misaligned window of a
// bigger buffer equals the owning decode, (b) every strict-prefix view is
// rejected, and (c) token entries sliced from a shared arena stay valid after
// the arena Buffer is released (ASan enforces the lifetime half).

TEST(WireFuzz, MisalignedViewDecodingMatchesOwningDecode) {
  for (const auto& m : all_messages()) {
    const auto wire = vstoto::encode_message(m).to_bytes();
    for (std::size_t pad : {1u, 3u, 5u}) {  // odd pads: deliberately unaligned
      util::Bytes arena(pad, 0xEE);
      arena.insert(arena.end(), wire.begin(), wire.end());
      const auto via_view =
          vstoto::decode_message_ex(util::BufferView(arena.data() + pad, wire.size())).value;
      ASSERT_TRUE(via_view.has_value()) << "pad " << pad;
      EXPECT_EQ(via_view->index(), m.index());
    }
  }
}

TEST(WireFuzz, TruncatedViewsAlwaysRejected) {
  for (const auto& m : all_messages()) {
    const auto wire = vstoto::encode_message(m);
    const util::BufferView full = wire.view();
    for (std::size_t len = 0; len < full.size(); ++len)
      EXPECT_FALSE(vstoto::decode_message_ex(full.subview(0, len)).ok())
          << len << "/" << full.size();
  }
}

TEST(WireFuzz, PacketsDecodeFromSlicesOfASharedArena) {
  // Pack every packet back-to-back into one storage (as a receive ring
  // would) and decode each through a slice; token entries must come out as
  // slices of the arena and survive its release.
  const auto packets = all_packets();
  util::Bytes raw;
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (const auto& p : packets) {
    const auto wire = membership::encode_packet(p).to_bytes();
    spans.emplace_back(raw.size(), wire.size());
    raw.insert(raw.end(), wire.begin(), wire.end());
  }
  std::vector<membership::Packet> decoded;
  {
    const util::Buffer arena{std::move(raw)};
    for (std::size_t i = 0; i < packets.size(); ++i) {
      auto back =
          membership::decode_packet_ex(arena.slice(spans[i].first, spans[i].second)).value;
      ASSERT_TRUE(back.has_value()) << "packet " << i;
      EXPECT_EQ(back->index(), packets[i].index());
      if (const auto* t = std::get_if<membership::Token>(&*back)) {
        for (const auto& [src, payload] : t->entries) {
          if (!payload.empty()) {  // an empty slice carries no storage (id 0)
            EXPECT_EQ(payload.id(), arena.id()) << "entry of " << src;
          }
        }
      }
      decoded.push_back(std::move(*back));
    }
  }  // arena Buffer released; entry slices must keep the storage alive
  const auto& token = std::get<membership::Token>(decoded[3]);
  const auto& orig = std::get<membership::Token>(packets[3]);
  ASSERT_EQ(token.entries.size(), orig.entries.size());
  for (std::size_t i = 0; i < token.entries.size(); ++i)
    EXPECT_EQ(token.entries[i].second, orig.entries[i].second);
}

// --- The token's delivered counters ---------------------------------------
//
// The encoder writes one counter per member, in increasing id order. Strict
// decoding refuses any other order; the lenient decode keeps what a map of
// counters did: any order is accepted and a repeated id's last counter wins.

membership::Token token_with_delivered(
    std::vector<std::pair<ProcId, std::uint32_t>> delivered) {
  membership::Token t;
  t.gid = core::ViewId{5, 0};
  t.delivered = std::move(delivered);  // encoded exactly as listed
  return t;
}

const std::vector<std::pair<ProcId, std::uint32_t>> kDuplicateId = {{0, 7}, {1, 6}, {0, 2}};

TEST(WireFuzz, StrictDecodeRefusesDeliveredIdsThatDoNotIncrease) {
  for (const auto& delivered : {kDuplicateId, {{1, 6}, {0, 7}}, {{2, 1}, {2, 1}}}) {
    const auto out =
        membership::decode_packet_ex(membership::encode_packet(token_with_delivered(delivered)));
    EXPECT_FALSE(out.ok());
    EXPECT_EQ(out.error, "token delivered ids not strictly increasing");
  }
  EXPECT_TRUE(membership::decode_packet_ex(
                  membership::encode_packet(token_with_delivered({{0, 7}, {1, 6}, {3, 2}})))
                  .ok());
}

TEST(WireFuzz, UncheckedDecodeLetsTheLastDuplicateCounterWin) {
  const auto frame = membership::encode_packet(token_with_delivered(kDuplicateId));
  util::UncheckedDecodeGuard guard;
  const auto out = membership::decode_packet_ex(frame);
  ASSERT_TRUE(out.ok()) << out.error;
  const auto& t = std::get<membership::Token>(*out.value);
  EXPECT_EQ(t.delivered, (std::vector<std::pair<ProcId, std::uint32_t>>{{0, 2}, {1, 6}}));
  // The safe threshold a map gave: member 0's last counter, 2, not its first.
  EXPECT_EQ(t.min_delivered({0, 1}), 2u);
  EXPECT_EQ(t.min_delivered({1}), 6u);
  EXPECT_EQ(t.min_delivered({0, 1, 2}), 0u) << "a member without a counter counts 0";
}

TEST(WireFuzz, GoldenFrameDecodesAndReencodesByteIdentically) {
  std::ifstream in(VSG_WIRE_FIXTURES "/golden_v3.frame", std::ios::binary);
  ASSERT_TRUE(in) << "cannot open the golden frame fixture";
  const util::Bytes golden{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  const auto out = membership::decode_packet_ex(util::Buffer{golden});
  ASSERT_TRUE(out.ok()) << out.error;
  const auto& t = std::get<membership::Token>(*out.value);
  EXPECT_EQ(t.delivered, (std::vector<std::pair<ProcId, std::uint32_t>>{{0, 5}, {1, 4}, {2, 6}}));
  EXPECT_EQ(membership::encode_packet(t).to_bytes(), golden);
}

// --- The label-only decode of `safe` -------------------------------------
//
// Process::on_safe reads only the label of a labeled value
// (vstoto::decode_label_ex). It must accept exactly the bytes
// decode_message_ex accepts as a labeled value, and return that label.

std::string hex(const util::Bytes& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += digits[b >> 4];
    out += digits[b & 15];
  }
  return out;
}

// Whether decode_label_ex accepted `bytes`; fails the test if it disagrees
// with decode_message_ex.
bool label_decode_agrees(const util::Bytes& bytes) {
  const auto full = vstoto::decode_message_ex(bytes);
  const auto* lv = full.ok() ? std::get_if<vstoto::LabeledValue>(&*full.value) : nullptr;
  const auto label = vstoto::decode_label_ex(bytes);
  EXPECT_EQ(label.ok(), lv != nullptr) << hex(bytes);
  if (label.ok() && lv != nullptr) {
    EXPECT_EQ(*label.value, lv->label) << hex(bytes);
  }
  return label.ok();
}

TEST(WireFuzz, LabelDecodeAcceptsExactlyWhatTheFullDecodeAccepts) {
  util::Rng rng(1616);
  std::vector<util::Bytes> corpus;
  for (const auto& m : all_messages()) corpus.push_back(vstoto::encode_message(m).to_bytes());
  for (const auto& p : all_packets()) corpus.push_back(membership::encode_packet(p).to_bytes());
  // Labeled values whose label varints and value length prefix take one to
  // five bytes each.
  for (int i = 0; i < 60; ++i) {
    const core::Label l{core::ViewId{rng.below(std::uint64_t{1} << (7 * (i % 5))),
                                     static_cast<ProcId>(rng.below(300))},
                        static_cast<std::uint32_t>(rng.below(1u << (6 * (i % 6)))),
                        static_cast<ProcId>(rng.below(300))};
    core::Value v(rng.below(i % 3 == 0 ? 300 : 20), 'x');
    for (auto& c : v) c = static_cast<char>(rng.below(256));
    corpus.push_back(vstoto::encode_message(vstoto::LabeledValue{l, v}).to_bytes());
  }

  int accepted_mutants = 0, rejected_mutants = 0;
  for (const auto& frame : corpus) {
    label_decode_agrees(frame);
    auto longer = frame;
    longer.push_back(0);
    EXPECT_FALSE(label_decode_agrees(longer)) << "a trailing byte must be refused";
    for (std::size_t len = 0; len < frame.size(); ++len)
      label_decode_agrees(util::Bytes(frame.begin(),
                                      frame.begin() + static_cast<std::ptrdiff_t>(len)));
    // Every single-bit flip of the tag, label and length prefix, then random
    // flips anywhere.
    for (std::size_t i = 0; i < std::min<std::size_t>(frame.size(), 24); ++i)
      for (int bit = 0; bit < 8; ++bit) {
        auto corrupt = frame;
        corrupt[i] ^= static_cast<std::uint8_t>(1u << bit);
        (label_decode_agrees(corrupt) ? accepted_mutants : rejected_mutants)++;
      }
    for (int k = 0; k < 40; ++k) {
      auto corrupt = frame;
      const auto flips = 1 + rng.below(3);
      for (std::uint64_t f = 0; f < flips; ++f)
        corrupt[rng.below(corrupt.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      (label_decode_agrees(corrupt) ? accepted_mutants : rejected_mutants)++;
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(accepted_mutants, 100) << "flips that keep the frame well-formed must be accepted";
  EXPECT_GT(rejected_mutants, 100);
}

TEST(WireFuzz, LabelDecodeRefusesEveryOtherTag) {
  for (const auto& m : all_messages()) {
    if (std::holds_alternative<vstoto::LabeledValue>(m)) continue;
    EXPECT_FALSE(vstoto::decode_label_ex(vstoto::encode_message(m).view()).ok());
  }
  EXPECT_FALSE(vstoto::decode_label_ex(util::BufferView{}).ok());
}

// --- The injectable historical bug ---------------------------------------

TEST(WireFuzz, UncheckedDecodeAcceptsTruncatedMessage) {
  auto bytes = vstoto::encode_message(all_messages()[0]).to_bytes();
  bytes.resize(bytes.size() - 3);
  ASSERT_FALSE(vstoto::decode_message_ex(bytes).ok());

  util::UncheckedDecodeGuard guard;
  const auto lenient = vstoto::decode_message_ex(bytes).value;
  ASSERT_TRUE(lenient.has_value());  // zero-filled fields — the old bug
}

// Under the injected fault the length checks lapse in both decoders alike,
// so the label `safe` reads is still the one the full decoder reads.
TEST(WireFuzz, UncheckedDecodeReadsTheSameLabelAsTheFullDecode) {
  util::UncheckedDecodeGuard guard;
  int accepted_truncations = 0;
  for (const auto& m : all_messages()) {
    const auto frame = vstoto::encode_message(m).to_bytes();
    auto longer = frame;
    longer.push_back(0);
    label_decode_agrees(longer);
    for (std::size_t len = 0; len < frame.size(); ++len)
      if (label_decode_agrees(
              util::Bytes(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len))))
        ++accepted_truncations;
  }
  EXPECT_GT(accepted_truncations, 0) << "truncated labeled values decode, zero-filled";
}

TEST(WireFuzz, UncheckedDecodeAcceptsCorruptPacket) {
  auto bytes = membership::encode_packet(all_packets()[0]).to_bytes();
  bytes.back() ^= 0x40;  // body payload byte: checksum is the only defense
  ASSERT_FALSE(membership::decode_packet_ex(bytes).ok());

  util::UncheckedDecodeGuard guard;
  EXPECT_TRUE(membership::decode_packet_ex(bytes).ok());
}

TEST(WireFuzz, GuardRestoresStrictDecoding) {
  {
    util::UncheckedDecodeGuard guard;
    EXPECT_TRUE(util::unchecked_decode());
  }
  EXPECT_FALSE(util::unchecked_decode());
  auto bytes = vstoto::encode_message(all_messages()[0]).to_bytes();
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(vstoto::decode_message_ex(bytes).ok());
}

}  // namespace
}  // namespace vsg
