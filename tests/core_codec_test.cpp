// The Codec API (core/codec.hpp): one Codec<T> per wire type. Pins (a)
// round trips, with encoded_size matching the bytes written, (b) golden v3
// bytes so the compact layout cannot drift silently, and (c) the size
// claims the delta-coded layout and the digest exchange rest on.

#include <gtest/gtest.h>

#include "core/codec.hpp"
#include "core/summary.hpp"
#include "util/serde.hpp"

namespace vsg::wire {
namespace {

core::Label lab(std::uint64_t epoch, std::uint32_t seqno, ProcId origin) {
  return core::Label{core::ViewId{epoch, 0}, seqno, origin};
}

core::Summary sample_summary() {
  core::Summary x;
  for (std::uint32_t s = 1; s <= 6; ++s) {
    x.con.emplace(lab(3, s, 0), "value-" + std::to_string(s));
    x.ord.push_back(lab(3, s, 0));
  }
  x.con.emplace(lab(3, 1, 2), "other");
  x.next = 4;
  x.high = core::ViewId{3, 1};
  return x;
}

template <typename T>
void roundtrip(const T& v) {
  util::Encoder e;
  Codec<T>::encode(e, v);
  EXPECT_EQ(e.size(), encoded_size(v));
  util::Decoder d(e.bytes());
  EXPECT_EQ(Codec<T>::decode(d), v);
  EXPECT_TRUE(d.complete());
}

TEST(Codec, ViewIdRoundTripsUnderEveryVersion) {
  roundtrip(core::ViewId{0, 0});
  roundtrip(core::ViewId{5, 2});
  roundtrip(core::ViewId{std::uint64_t{1} << 40, 31});
}

TEST(Codec, ViewRoundTripsUnderEveryVersion) {
  roundtrip(core::View{core::ViewId{7, 1}, {0, 1, 2, 5}});
  roundtrip(core::View{core::ViewId{}, {}});
}

TEST(Codec, LabelRoundTripsUnderEveryVersion) {
  roundtrip(lab(0, 1, 0));
  roundtrip(lab(300, 2, 3));
  roundtrip(core::Label{core::ViewId{std::uint64_t{1} << 33, 4}, 1 << 20, 30});
}

TEST(Codec, SummaryRoundTripsUnderEveryVersion) {
  roundtrip(core::Summary{});
  roundtrip(sample_summary());
}

TEST(Codec, DigestAndDeltaRoundTripUnderV3) {
  roundtrip(core::digest(sample_summary()));
  roundtrip(core::relative(core::digest(sample_summary()), core::DigestRef{core::ViewId{4, 1}, {}}));
  roundtrip(core::delta(sample_summary(), core::SummaryDigest{}));
}

TEST(Codec, GoldenV3Bytes) {
  // Hand-assembled expected bytes; a layout change must show up here as a
  // deliberate golden update, never as silent drift (see docs/WIRE.md).
  util::Encoder ev;
  Codec<core::ViewId>::encode(ev, core::ViewId{5, 2});
  EXPECT_EQ(ev.bytes(), (util::Bytes{0x05, 0x02}));

  // Label (epoch 300, id.origin 1, seqno 2, origin 3) from a fresh chain.
  // The chain's initial predecessor is a default Label (seqno 1), so the
  // deltas are 300, 1, 1, 3 — zigzagged 600, 2, 2, 6; 600 = 0xD8 0x04 in
  // LEB128.
  util::Encoder el;
  Codec<core::Label>::encode(el, core::Label{core::ViewId{300, 1}, 2, 3});
  EXPECT_EQ(el.bytes(), (util::Bytes{0xD8, 0x04, 0x02, 0x02, 0x06}));
}

TEST(Codec, ChainedLabelsCostOneOrTwoBytesEach) {
  // The delta-coding claim: consecutive labels of one stream differ only in
  // seqno, so each label after the first costs 4 svarints of mostly zero.
  core::Summary x;
  for (std::uint32_t s = 1; s <= 100; ++s) x.ord.push_back(lab(9, s, 2));
  // Around the chain: the con and ord counts, next and the high flag, one
  // byte each. The first label pays for the epoch; the other 99 are 4
  // one-byte svarints (a fixed-width label would cost 20 bytes each).
  EXPECT_LE(encoded_size(x), 4 + 5 + 99 * 4u);
}

TEST(Codec, DigestsAreSmallerThanSummaries) {
  // The digest exchange's premise: advertising what one holds costs far
  // less than shipping it.
  const core::Summary x = sample_summary();
  EXPECT_LT(encoded_size(core::digest(x)), encoded_size(x) / 2);
}

TEST(Codec, TruncatedV3InputSetsNotOk) {
  const core::Summary x = sample_summary();
  util::Encoder e;
  Codec<core::Summary>::encode(e, x);
  for (std::size_t keep = 0; keep < e.size(); keep += 3) {
    util::Bytes cut(e.bytes().begin(),
                    e.bytes().begin() + static_cast<std::ptrdiff_t>(keep));
    util::Decoder d(cut);
    (void)Codec<core::Summary>::decode(d);
    EXPECT_FALSE(d.complete()) << keep;
  }
}

TEST(Codec, KnownVersionPredicate) {
  // One layout: the retired v1/v2 bytes are as unknown as any other.
  EXPECT_FALSE(known_version(0));
  EXPECT_FALSE(known_version(1));
  EXPECT_FALSE(known_version(2));
  EXPECT_TRUE(known_version(3));
  EXPECT_FALSE(known_version(4));
  EXPECT_FALSE(known_version(0x7F));
}

}  // namespace
}  // namespace vsg::wire
