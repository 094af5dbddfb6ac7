// VStoTO wire format: round trips and defensive decoding.

#include <gtest/gtest.h>

#include "to/sequencer_to.hpp"
#include "util/rng.hpp"
#include "vstoto/wire.hpp"

namespace vsg::vstoto {
namespace {

core::Label lab(std::uint64_t epoch, std::uint32_t seqno, ProcId origin) {
  return core::Label{core::ViewId{epoch, 0}, seqno, origin};
}

TEST(Wire, LabeledValueRoundTrip) {
  const LabeledValue lv{lab(3, 7, 1), "payload"};
  const auto bytes = encode_message(Message{lv});
  const auto back = decode_message_ex(bytes).value;
  ASSERT_TRUE(back.has_value());
  const auto* got = std::get_if<LabeledValue>(&*back);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, lv);
}

TEST(Wire, EmptyValueRoundTrip) {
  const LabeledValue lv{lab(1, 1, 0), ""};
  const auto back = decode_message_ex(encode_message(Message{lv})).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<LabeledValue>(*back).value, "");
}

TEST(Wire, SummaryRoundTrip) {
  core::Summary x;
  x.con = {{lab(1, 1, 0), "a"}, {lab(1, 2, 1), "b"}};
  x.ord = {lab(1, 1, 0), lab(1, 2, 1)};
  x.next = 2;
  x.high = core::ViewId{1, 0};
  const auto back = decode_message_ex(encode_message(Message{x})).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<core::Summary>(*back), x);
}

TEST(Wire, EmptySummaryRoundTrip) {
  const core::Summary x;
  const auto back = decode_message_ex(encode_message(Message{x})).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<core::Summary>(*back), x);
}

TEST(Wire, MeasuredSizeIsExact) {
  // encode_message reserves encoded_message_size() up front; exactness here
  // plus Serde.MeasuredReserveCostsExactlyOneAllocation means every message
  // encode costs a single allocation.
  const LabeledValue lv{lab(3, 7, 1), "payload"};
  EXPECT_EQ(encode_message(Message{lv}).size(), encoded_message_size(Message{lv}));

  core::Summary x;
  x.con = {{lab(1, 1, 0), "a"}, {lab(1, 2, 1), "bb"}};
  x.ord = {lab(1, 1, 0), lab(1, 2, 1)};
  x.next = 2;
  x.high = core::ViewId{1, 0};
  EXPECT_EQ(encode_message(Message{x}).size(), encoded_message_size(Message{x}));

  const core::Summary empty;
  EXPECT_EQ(encode_message(Message{empty}).size(), encoded_message_size(Message{empty}));

  // The sequencer baseline's frames (u32 checksum | u32 body length | body)
  // take their length field from a counting pass of the body writer: it
  // must equal the body bytes the writing pass produced, and the layout
  // (tag, u64, [u32 origin,] u32-prefixed value) stays as it was.
  const std::pair<util::Buffer, std::size_t> frames[] = {
      {to::encode_submit(9, "value"), 1 + 8 + 4 + 5},
      {to::encode_stamped(7, 3, "stamped"), 1 + 8 + 4 + 4 + 7},
      {to::encode_stamped(1, 0, ""), 1 + 8 + 4 + 4},
      {to::encode_nack(12), 1 + 8},
  };
  for (const auto& [frame, body_size] : frames) {
    util::Decoder d(frame);
    (void)d.u32();  // checksum
    EXPECT_EQ(d.u32(), body_size);
    EXPECT_EQ(frame.size(), 8 + body_size);
  }
}

TEST(Wire, UnknownTagRejected) {
  util::Bytes garbage{0x7F, 1, 2, 3};
  EXPECT_FALSE(decode_message_ex(garbage).ok());
}

TEST(Wire, EmptyBufferRejected) {
  EXPECT_FALSE(decode_message_ex(util::Bytes{}).ok());
}

TEST(Wire, TruncatedMessageRejected) {
  const LabeledValue lv{lab(3, 7, 1), "payload"};
  auto bytes = encode_message(Message{lv}).to_bytes();
  bytes.resize(bytes.size() - 3);
  EXPECT_FALSE(decode_message_ex(bytes).ok());
}

TEST(Wire, TrailingGarbageRejected) {
  const LabeledValue lv{lab(3, 7, 1), "p"};
  auto bytes = encode_message(Message{lv}).to_bytes();
  bytes.push_back(0xAA);
  EXPECT_FALSE(decode_message_ex(bytes).ok());
}

// --- Frozen exchange payloads -------------------------------------------------
//
// Literal bytes of one payload of each exchange kind. Their cons interleave
// three origins over two views, with a gap in one stream and a seqno-0
// entry, so the literals pin the label-order walk the codec makes over con.

std::string hex(const util::Buffer& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : b.to_bytes()) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xF];
  }
  return out;
}

core::Label vlab(std::uint64_t epoch, ProcId view_origin, std::uint32_t seqno, ProcId origin) {
  return core::Label{core::ViewId{epoch, view_origin}, seqno, origin};
}

core::Summary frozen_summary() {
  core::Summary x;
  for (const core::Label& l :
       {vlab(1, 0, 1, 0), vlab(1, 0, 2, 0), vlab(1, 0, 3, 0), vlab(1, 0, 1, 1),
        vlab(1, 0, 2, 1), vlab(1, 0, 0, 2), vlab(1, 0, 1, 2), vlab(2, 1, 1, 0),
        vlab(2, 1, 3, 0), vlab(2, 1, 4, 0), vlab(2, 1, 1, 2), vlab(2, 1, 2, 2)})
    x.con.emplace(l, core::to_string(l));
  x.ord = {vlab(1, 0, 1, 0), vlab(1, 0, 1, 1), vlab(1, 0, 2, 0), vlab(2, 1, 1, 2)};
  x.next = 3;
  x.high = core::ViewId{1, 0};
  return x;
}

template <typename T>
void expect_frozen(const T& x, const std::string& bytes) {
  const util::Buffer b = encode_message(Message{x});
  EXPECT_EQ(hex(b), bytes);
  const auto back = decode_message_ex(b.view()).value;
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(std::get<T>(*back), x);
}

TEST(Wire, FrozenSummaryBytes) {
  expect_frozen(frozen_summary(),
                "020c020001040c3c6728312e3029233040323e000002030c3c6728312e302923"
                "3140303e000000020c3c6728312e3029233140313e000000020c3c6728312e30"
                "29233140323e000002030c3c6728312e3029233240303e000000020c3c672831"
                "2e3029233240313e000002010c3c6728312e3029233340303e020203000c3c67"
                "28322e3129233140303e000000040c3c6728322e3129233140323e000002000c"
                "3c6728322e3129233240323e000002030c3c6728322e3129233340303e000002"
                "000c3c6728322e3129233440303e040200000000000002000002010202010403"
                "010100");
}

TEST(Wire, FrozenDigestBytes) {
  expect_frozen(core::digest(frozen_summary()),
                "03030401010000050200000300000202000002010202030100000402");
  // Relative to an earlier exchange's meet: its view as the ref, then only
  // the upgraded stream (1.0, 1) and the two streams the meet lacks.
  const core::ViewId g{1, 0}, h{2, 1};
  const core::DigestRef ref{g, {{{g, 0}, 3}, {{g, 1}, 1}, {{h, 0}, 1}}};
  expect_frozen(core::relative(core::digest(frozen_summary()), ref),
                "03030401010001010003020002020000020102020002");
}

TEST(Wire, FrozenDeltaBytes) {
  core::SummaryDelta dl;
  dl.next = 2;
  dl.high = core::ViewId{2, 1};
  dl.ord_prefix = 1;
  dl.ord_suffix = {vlab(1, 0, 2, 1), vlab(2, 1, 0, 1)};
  for (const core::Label& l : {vlab(1, 0, 3, 0), vlab(1, 0, 2, 1), vlab(1, 0, 0, 2),
                               vlab(2, 1, 1, 0), vlab(2, 1, 4, 0), vlab(2, 1, 0, 1),
                               vlab(2, 1, 2, 2), vlab(2, 1, 5, 2)})
    dl.con.emplace(l, core::to_string(l));
  expect_frozen(dl,
                "04020102010102020002020202030008020001040c3c6728312e302923304032"
                "3e000004010c3c6728312e3029233240313e000002010c3c6728312e30292333"
                "40303e020205020c3c6728322e3129233040313e000002010c3c6728322e3129"
                "233140303e000002040c3c6728322e3129233240323e000004030c3c6728322e"
                "3129233440303e000002040c3c6728322e3129233540323e");
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, RandomBytesNeverCrash) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    util::Bytes buf;
    const auto len = rng.below(40);
    for (std::uint64_t k = 0; k < len; ++k)
      buf.push_back(static_cast<std::uint8_t>(rng.next()));
    (void)decode_message_ex(buf);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace vsg::vstoto
