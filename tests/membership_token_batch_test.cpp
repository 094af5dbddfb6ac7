// Batched boarding property (docs/WIRE.md): the encoder writes the token's
// entries section as maximal same-source runs from the entries alone, so a
// token that boarded N payloads in one pass must encode byte-identically to
// one that boarded them one at a time, and a trimmed token must round-trip
// to the same entries and base as a freshly built one.

#include <gtest/gtest.h>

#include "membership/messages.hpp"
#include "util/rng.hpp"

namespace vsg::membership {
namespace {

Token fresh_token() {
  Token t;
  t.gid = core::ViewId{3, 0};
  t.lap = 1;
  t.delivered = {{0, 0}, {1, 0}};
  return t;
}

util::Buffer payload(util::Rng& rng) {
  util::Bytes b;
  const auto len = rng.below(12);
  for (std::uint64_t i = 0; i < len; ++i)
    b.push_back(static_cast<std::uint8_t>(rng.next()));
  return util::Buffer{std::move(b)};
}

void board(Token& t, ProcId src, const std::vector<util::Buffer>& batch) {
  for (const auto& p : batch) t.entries.emplace_back(src, p);
}

TEST(TokenBatch, BatchedSpliceEqualsSingleBoards) {
  util::Rng rng(2024);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = rng.below(9);  // includes the empty backlog
    std::vector<util::Buffer> batch;
    for (std::size_t i = 0; i < n; ++i) batch.push_back(payload(rng));

    // One pass of n payloads...
    Token batched = fresh_token();
    board(batched, 1, batch);
    // ...versus n passes of one payload, with an encode between passes.
    Token singles = fresh_token();
    for (const auto& p : batch) {
      board(singles, 1, {p});
      (void)encode_packet(singles);
    }

    const auto wire_batched = encode_packet(batched);
    EXPECT_EQ(wire_batched, encode_packet(singles)) << "round " << round;
    const auto decoded = decode_packet_ex(wire_batched).value;
    ASSERT_TRUE(decoded.has_value()) << "round " << round;
    EXPECT_EQ(std::get<Token>(*decoded).entries, batched.entries) << "round " << round;
  }
}

TEST(TokenBatch, TrimMidPassDropsWholeSegmentsAndSplitsTheBoundary) {
  util::Rng rng(99);
  for (std::size_t trim = 0; trim <= 6; ++trim) {
    Token t = fresh_token();
    board(t, 0, {payload(rng), payload(rng)});
    (void)encode_packet(t);
    board(t, 1, {payload(rng), payload(rng), payload(rng)});
    (void)encode_packet(t);
    board(t, 2, {payload(rng)});

    // Trim mid-pass, inside a same-source run for trim in 1 and 3..4.
    t.entries.erase(t.entries.begin(), t.entries.begin() + static_cast<std::ptrdiff_t>(trim));
    t.base += static_cast<std::uint32_t>(trim);
    Token fresh = fresh_token();
    fresh.entries = t.entries;
    fresh.base = t.base;

    const auto wire = encode_packet(t);
    EXPECT_EQ(wire, encode_packet(fresh)) << "trim " << trim;
    const auto decoded = decode_packet_ex(wire).value;
    ASSERT_TRUE(decoded.has_value()) << "trim " << trim;
    EXPECT_EQ(std::get<Token>(*decoded).entries, fresh.entries) << "trim " << trim;
    EXPECT_EQ(std::get<Token>(*decoded).base, fresh.base) << "trim " << trim;
  }
}

}  // namespace
}  // namespace vsg::membership
