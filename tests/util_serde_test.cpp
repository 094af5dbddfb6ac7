// Binary serialization: round trips, defensive decoding of truncated and
// garbage input, zero-copy blob slicing.

#include <gtest/gtest.h>

#include <string>

#include "util/rng.hpp"
#include "util/serde.hpp"

namespace vsg::util {
namespace {

// A u32-length-prefixed blob, the layout raw_buffer() reads.
void put_blob(Encoder& e, const Bytes& b) {
  e.u32(static_cast<std::uint32_t>(b.size()));
  e.append(BufferView(b));
}

TEST(Serde, ScalarRoundTrip) {
  Encoder e;
  e.u8(0xAB);
  e.u32(0xDEADBEEF);
  e.u64(0x0123456789ABCDEFULL);
  e.boolean(true);
  e.boolean(false);
  const Bytes buf = e.take();

  Decoder d(buf);
  EXPECT_EQ(d.u8(), 0xAB);
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(d.boolean());
  EXPECT_FALSE(d.boolean());
  EXPECT_TRUE(d.complete());
}

TEST(Serde, StringRoundTrip) {
  Encoder e;
  e.str("");
  e.str("hello");
  e.str(std::string("emb\0edded", 9));
  const Bytes buf = e.take();

  Decoder d(buf);
  EXPECT_EQ(d.str(), "");
  EXPECT_EQ(d.str(), "hello");
  EXPECT_EQ(d.str(), std::string("emb\0edded", 9));
  EXPECT_TRUE(d.complete());
}

TEST(Serde, TruncatedInputSetsNotOk) {
  Encoder e;
  e.u64(7);
  Bytes buf = e.take();
  buf.resize(4);  // cut the u64 in half
  Decoder d(buf);
  EXPECT_EQ(d.u64(), 0u);
  EXPECT_FALSE(d.ok());
  EXPECT_FALSE(d.complete());
}

TEST(Serde, OnceNotOkStaysNotOk) {
  const Bytes buf{1};
  Decoder d(buf);
  (void)d.u32();  // too short
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.u8(), 0);  // still not ok, returns zero
  EXPECT_FALSE(d.ok());
}

TEST(Serde, HostileLengthPrefixDoesNotCrash) {
  Encoder e;
  e.u32(0xFFFFFFFFu);  // claims a 4 GiB string follows
  const Bytes buf = e.take();
  Decoder d(buf);
  EXPECT_EQ(d.str(), "");
  EXPECT_FALSE(d.ok());
}

TEST(Serde, CompleteRequiresFullConsumption) {
  Encoder e;
  e.u32(1);
  e.u32(2);
  const Bytes buf = e.take();
  Decoder d(buf);
  (void)d.u32();
  EXPECT_TRUE(d.ok());
  EXPECT_FALSE(d.complete());  // one u32 left unread
}

// --- Zero-copy encoder/decoder surface ------------------------------------

TEST(Serde, MeasuredReserveCostsExactlyOneAllocation) {
  Encoder e;
  e.reserve(4 + 4 + (4 + 3));  // u32 + u32 + length-prefixed 3-byte blob
  e.u32(1);
  e.u32(2);
  put_blob(e, Bytes{7, 8, 9});
  EXPECT_EQ(e.allocs(), 1u);

  // An unreserved encode of the same content costs more.
  Encoder cold;
  cold.u32(1);
  cold.u32(2);
  put_blob(cold, Bytes{7, 8, 9});
  EXPECT_GE(cold.allocs(), 1u);
}

// Runs `write` over an Encoder and over a SizeCounter; the count must be
// the number of bytes written.
template <class Write>
void expect_count_matches(const Write& write, const std::string& what) {
  Encoder e;
  SizeCounter c;
  write(e);
  write(c);
  EXPECT_EQ(c.size(), e.size()) << what;
}

TEST(Serde, SizeCounterMirrorsTheEncoder) {
  // Every measured size is a SizeCounter pass of the writer that encodes,
  // so exactness of every wire type rests on each primitive counting what
  // the Encoder writes.
  const std::uint64_t uvarints[] = {0, 127, 128, 16383, 16384, UINT64_MAX};
  const std::int64_t svarints[] = {-1, INT64_MIN, INT64_MAX};
  const std::string strings[] = {std::string(), std::string(300, 's')};
  const Bytes blobs[] = {Bytes{}, Bytes{1, 2, 3, 4, 5}};
  for (const auto v : uvarints)
    expect_count_matches([v](auto& o) { o.uvarint(v); }, "uvarint " + std::to_string(v));
  for (const auto v : svarints)
    expect_count_matches([v](auto& o) { o.svarint(v); }, "svarint " + std::to_string(v));
  for (const auto& v : strings) {
    expect_count_matches([&v](auto& o) { o.str(v); }, "str of " + std::to_string(v.size()));
    expect_count_matches([&v](auto& o) { o.vstr(v); }, "vstr of " + std::to_string(v.size()));
  }
  for (const auto& v : blobs) {
    expect_count_matches([&v](auto& o) { o.vraw(BufferView(v)); }, "vraw");
    expect_count_matches([&v](auto& o) { o.append(BufferView(v)); }, "append");
  }
  expect_count_matches([](auto& o) { o.boolean(true); }, "boolean");
  expect_count_matches([](auto& o) { o.u8(0xFF); }, "u8");
  expect_count_matches([](auto& o) { o.u32(0xFFFFFFFFu); }, "u32");
  expect_count_matches([](auto& o) { o.u64(UINT64_MAX); }, "u64");

  // All of them in sequence, and the count as the reserve: one allocation.
  const auto write_all = [&](auto& o) {
    for (const auto v : uvarints) o.uvarint(v);
    for (const auto v : svarints) o.svarint(v);
    for (const auto& v : strings) {
      o.str(v);
      o.vstr(v);
    }
    for (const auto& v : blobs) {
      o.vraw(BufferView(v));
      o.append(BufferView(v));
    }
    o.boolean(false);
    o.u8(1);
    o.u32(2);
    o.u64(3);
  };
  expect_count_matches(write_all, "all in sequence");
  SizeCounter count;
  write_all(count);
  Encoder measured;
  measured.reserve(count.size());
  write_all(measured);
  EXPECT_EQ(measured.size(), count.size());
  EXPECT_EQ(measured.allocs(), 1u);
}

TEST(Serde, FinishHandsOffWithoutCopy) {
  Encoder e;
  e.reserve(8);
  e.u64(0x1122334455667788ull);
  const std::uint8_t* p = e.bytes().data();
  const Buffer b = e.finish();
  EXPECT_EQ(b.data(), p) << "finish() must move the backing store, not copy";
  EXPECT_EQ(b.size(), 8u);
}

TEST(Serde, PatchU32RewritesInPlace) {
  Encoder e;
  e.u32(0);  // placeholder
  e.u32(42);
  e.patch_u32(0, 0xDEADBEEF);
  Decoder d(e.bytes());
  EXPECT_EQ(d.u32(), 0xDEADBEEFu);
  EXPECT_EQ(d.u32(), 42u);
}

TEST(Serde, RawBufferSlicesWhenDecodingFromBuffer) {
  Encoder e;
  put_blob(e, Bytes{1, 2, 3, 4});
  const Buffer packet = e.finish();
  Decoder d(packet);
  const Buffer blob = d.raw_buffer();
  EXPECT_EQ(blob, Bytes({1, 2, 3, 4}));
  EXPECT_EQ(blob.id(), packet.id()) << "must be a slice of the input storage";
  EXPECT_EQ(blob.data(), packet.data() + 4);
}

TEST(Serde, RawBufferCopiesWhenDecodingBorrowedBytes) {
  Encoder e;
  put_blob(e, Bytes{9, 9});
  const Bytes wire = e.take();
  Decoder d(wire);
  const Buffer blob = d.raw_buffer();
  EXPECT_EQ(blob, Bytes({9, 9}));
  EXPECT_NE(static_cast<const void*>(blob.data()), static_cast<const void*>(wire.data() + 4));
}

TEST(Serde, DecoderFromTemporaryBufferKeepsStorageAlive) {
  // The decoder refcounts its origin, so decoding a temporary is safe and
  // raw_buffer slices outlive the expression (ASan guards this).
  Encoder e;
  put_blob(e, Bytes{5, 6, 7});
  Buffer blob;
  {
    Decoder d{[&] {
      return e.finish();
    }()};
    blob = d.raw_buffer();
  }
  EXPECT_EQ(blob, Bytes({5, 6, 7}));
}

TEST(Serde, InputSliceReturnsWindowedBuffer) {
  Encoder e;
  e.u32(0xAABBCCDD);
  e.u32(0x11223344);
  const Buffer packet = e.finish();
  Decoder d(packet);
  (void)d.u32();
  const std::size_t from = d.pos();
  (void)d.u32();
  const Buffer section = d.input_slice(from, d.pos());
  EXPECT_EQ(section.size(), 4u);
  EXPECT_EQ(section.id(), packet.id());
  EXPECT_EQ(section.storage_offset(), 4u);
}

class SerdeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerdeFuzz, RandomGarbageNeverCrashesDecoder) {
  Rng rng(GetParam());
  Bytes buf;
  const auto len = rng.below(64);
  for (std::uint64_t i = 0; i < len; ++i) buf.push_back(static_cast<std::uint8_t>(rng.next()));
  Decoder d(buf);
  // Interleave reads of every kind; must never crash or loop.
  (void)d.u8();
  (void)d.str();
  (void)d.u64();
  (void)d.raw_buffer();
  (void)d.boolean();
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzz, ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace vsg::util
