// Batched boarding property (docs/WIRE.md): encoding a token after boarding
// N payloads in one pass — one cold segment, one splice build — must be
// byte- and content-equivalent to boarding them one at a time, across
// boarding, trimming, and decode round trips. Also pins the cache-honesty
// rules note_boarded/note_trimmed enforce.

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
  t.note_boarded(batch.size());
}

bool same_entries(const Token& a, const Token& b) { return a.entries == b.entries; }

// encode_packet warms the caches of the Packet it is handed — a copy. Real
// callers (forward_token) copy the warmed caches back onto the live token;
// mirror that here so warm-cache behavior is actually exercised.
util::Buffer encode_warm(Token& t, WireEncodeStats* stats = nullptr) {
  Packet pkt{t};
  auto wire = encode_packet(pkt, stats);
  t.entries_segs = std::get<Token>(pkt).entries_segs;
  return wire;
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
    // ...versus n passes of one payload (with an encode between passes, the
    // worst case for cache bookkeeping).
    Token singles = fresh_token();
    for (const auto& p : batch) {
      board(singles, 1, {p});
      (void)encode_warm(singles);
    }

    ASSERT_TRUE(same_entries(batched, singles)) << "round " << round;
    const auto wire_batched = encode_warm(batched);
    const auto wire_singles = encode_warm(singles);
    // Warm single-boarded caches may keep finer-grained segments than a cold
    // rebuild would produce, so the packets need not be byte-identical —
    // but both must decode to the same entry sequence.
    const auto a = decode_packet_ex(wire_batched).value;
    const auto b = decode_packet_ex(wire_singles).value;
    ASSERT_TRUE(a.has_value() && b.has_value()) << "round " << round;
    EXPECT_TRUE(same_entries(std::get<Token>(*a), std::get<Token>(*b))) << "round " << round;
    // A re-encode from decoded state is a cold single-segment rebuild on
    // both sides: those ARE byte-identical.
    auto ta = std::get<Token>(*a);
    auto tb = std::get<Token>(*b);
    ta.invalidate_wire_cache();
    tb.invalidate_wire_cache();
    EXPECT_EQ(encode_packet(Packet{ta}), encode_packet(Packet{tb})) << "round " << round;
  }
}

TEST(TokenBatch, EmptyBacklogLeavesTheCacheWarm) {
  Token t = fresh_token();
  board(t, 0, {util::Bytes{1, 2}});
  WireEncodeStats first;
  (void)encode_warm(t, &first);
  EXPECT_EQ(first.entries_rebuilt, 1u);

  t.note_boarded(0);  // a pass that boarded nothing must not invalidate
  WireEncodeStats second;
  (void)encode_warm(t, &second);
  EXPECT_EQ(second.entries_rebuilt, 0u);
  EXPECT_EQ(second.entries_spliced, 1u);
}

TEST(TokenBatch, EachPayloadIsRebuiltExactlyOnceAcrossPasses) {
  // The headline claim behind ring.entries_rebuilds: a payload is
  // serialized from structs exactly once (its boarding pass); every later
  // pass carries it by splice.
  util::Rng rng(7);
  Token t = fresh_token();
  std::uint64_t rebuilt_total = 0;
  std::uint64_t boarded_total = 0;
  for (int pass = 0; pass < 20; ++pass) {
    std::vector<util::Buffer> batch;
    const std::size_t n = rng.below(5);
    for (std::size_t i = 0; i < n; ++i) batch.push_back(payload(rng));
    board(t, static_cast<ProcId>(pass % 3), batch);
    boarded_total += n;
    WireEncodeStats s;
    (void)encode_warm(t, &s);
    EXPECT_EQ(s.entries_rebuilt, n) << "pass " << pass;
    rebuilt_total += s.entries_rebuilt;
  }
  EXPECT_EQ(rebuilt_total, boarded_total);
}

TEST(TokenBatch, TrimMidPassDropsWholeSegmentsAndSplitsTheBoundary) {
  util::Rng rng(99);
  for (std::size_t trim = 0; trim <= 6; ++trim) {
    Token t = fresh_token();
    board(t, 0, {payload(rng), payload(rng)});
    (void)encode_warm(t);  // warm segment [0,2)
    board(t, 1, {payload(rng), payload(rng), payload(rng)});
    (void)encode_warm(t);  // warm segments [0,2) [2,5)
    board(t, 2, {payload(rng)});     // cold tail [5,6)

    Token reference = fresh_token();
    reference.entries = t.entries;

    // Trim mid-pass, straddling segment boundaries for trim in 1..4.
    t.entries.erase(t.entries.begin(), t.entries.begin() + static_cast<std::ptrdiff_t>(trim));
    t.base += static_cast<std::uint32_t>(trim);
    t.note_trimmed(trim);
    reference.entries.erase(reference.entries.begin(),
                            reference.entries.begin() + static_cast<std::ptrdiff_t>(trim));
    reference.base = t.base;

    const auto cached = decode_packet_ex(encode_warm(t)).value;
    const auto rebuilt = decode_packet_ex(encode_packet(Packet{reference})).value;
    ASSERT_TRUE(cached.has_value() && rebuilt.has_value()) << "trim " << trim;
    EXPECT_TRUE(same_entries(std::get<Token>(*cached), std::get<Token>(*rebuilt)))
        << "trim " << trim;
    EXPECT_EQ(std::get<Token>(*cached).base, std::get<Token>(*rebuilt).base) << "trim " << trim;
  }
}

}  // namespace
}  // namespace vsg::membership
