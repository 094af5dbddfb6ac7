#pragma once

// Compact binary serialization used on the simulated wire.
//
// The membership/token-ring implementation and the VStoTO peer protocol
// exchange real byte buffers (so message sizes in benchmarks are honest and
// the decode path is exercised by failure-injection tests). The format is a
// simple length-prefixed little-endian encoding; Decoder is defensive and
// reports malformed input via ok() rather than UB.
//
// Zero-copy data plane (docs/DATAPLANE.md): Encoder::finish() hands the
// encoded bytes off as an immutable shared Buffer without copying, and a
// Decoder constructed from a Buffer can slice blobs out of it by reference
// (raw_buffer) instead of copying them.

#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/buffer.hpp"

namespace vsg::util {

/// Append-only binary writer.
class Encoder {
 public:
  /// Pre-size the output; with a measured hint, the whole encode costs one
  /// allocation (allocs() lets tests assert exactly that).
  void reserve(std::size_t n);

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void boolean(bool v);
  void str(const std::string& v);
  void append(BufferView v);      // splice bytes verbatim (no length prefix)

  // Variable-width integers (docs/WIRE.md, "Varint rules"): LEB128 with the
  // low 7 bits first and the high bit as continuation; svarint zigzags so
  // small-magnitude signed deltas stay short. These are the v3 frame-body
  // primitives; SizeCounter below counts them without writing.
  void uvarint(std::uint64_t v);
  void svarint(std::int64_t v);
  void vstr(const std::string& v);  // uvarint-length-prefixed string
  void vraw(BufferView v);          // uvarint-length-prefixed blob

  /// Overwrite 4 previously written bytes at `pos` (checksum back-patching,
  /// so a framed packet needs no second buffer).
  void patch_u32(std::size_t pos, std::uint32_t v);

  std::size_t size() const noexcept { return buf_.size(); }
  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() noexcept { return std::move(buf_); }
  /// Hand the encoded bytes off as an immutable shared Buffer (no copy).
  Buffer finish() noexcept { return Buffer(std::move(buf_)); }

  /// Number of backing-store (re)allocations so far, including the one made
  /// by reserve(). A measured reserve + encode shows exactly 1.
  std::size_t allocs() const noexcept { return allocs_; }

 private:
  void note_capacity();

  Bytes buf_;
  std::size_t last_cap_ = 0;
  std::size_t allocs_ = 0;
};

/// Sequential binary reader over a borrowed byte range. Any out-of-bounds
/// read sets ok() to false and yields zero values; callers check ok() once
/// at the end of decoding a message.
///
/// Constructed from a Buffer, the decoder remembers the owning storage so
/// raw_buffer() can return refcounted slices instead of copies. The other
/// constructors borrow; the source must outlive the decoder.
class Decoder {
 public:
  explicit Decoder(const Bytes& buf) noexcept : view_(buf) {}
  explicit Decoder(BufferView view) noexcept : view_(view) {}
  /// Holds a (cheap, refcounted) reference to the Buffer, so decoding from a
  /// temporary is safe and raw_buffer() slices stay alive.
  explicit Decoder(const Buffer& buf) noexcept : view_(buf.view()), origin_(buf) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  bool boolean();
  std::string str();
  /// u32-length-prefixed string, borrowed from the input (no copy); the
  /// view lives as long as the bytes the decoder reads.
  std::string_view str_view();

  /// LEB128 uvarint/svarint (v3 frame bodies). Defensive like every other
  /// read: a missing terminator or an encoding longer than 10 bytes sets
  /// ok() to false and yields 0.
  std::uint64_t uvarint();
  std::int64_t svarint();
  std::string vstr();      // uvarint-length-prefixed string
  BufferView vraw_view();  // uvarint-length-prefixed blob (borrowed)
  Buffer vraw_buffer();    // uvarint-length-prefixed blob (slice when possible)
  /// u32-length-prefixed blob as a Buffer. Zero-copy (a slice sharing the
  /// input's storage) when the decoder was constructed from a Buffer; a
  /// copying fallback otherwise.
  Buffer raw_buffer();

  bool ok() const noexcept { return ok_; }
  /// Mark the input malformed — for codec-level validation failures the
  /// field readers cannot see (e.g. a zero-count token segment).
  void fail() noexcept { ok_ = false; }
  bool at_end() const noexcept { return pos_ == view_.size(); }
  /// True iff decoding consumed the whole buffer without error.
  bool complete() const noexcept { return ok_ && at_end(); }
  /// Current read offset (for slicing sections out of the input).
  std::size_t pos() const noexcept { return pos_; }
  /// Bytes not yet read.
  std::size_t remaining() const noexcept { return view_.size() - pos_; }
  /// Slice [from, to) of the input as a Buffer (zero-copy when possible).
  Buffer input_slice(std::size_t from, std::size_t to) const;

 private:
  bool take(std::size_t n, const std::uint8_t** out);

  BufferView view_;
  Buffer origin_;  // empty unless constructed from a Buffer
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Exact encoded length of Encoder::uvarint(v): 1..10 bytes.
constexpr std::size_t uvarint_size(std::uint64_t v) noexcept {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Zigzag mapping used by svarint: small magnitudes (either sign) get small
/// codes. Exposed so size accounting and the mirror tests share one truth.
constexpr std::uint64_t zigzag(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t unzigzag(std::uint64_t u) noexcept {
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Exact encoded length of Encoder::svarint(v).
constexpr std::size_t svarint_size(std::int64_t v) noexcept {
  return uvarint_size(zigzag(v));
}

/// A sink with Encoder's writing methods that only counts the bytes they
/// would write. Every wire writer is a template over its sink: run once
/// over a SizeCounter it measures the reserve, run again over the Encoder
/// it writes those bytes, so size and bytes come from one piece of code.
class SizeCounter {
 public:
  void u8(std::uint8_t) noexcept { n_ += 1; }
  void u32(std::uint32_t) noexcept { n_ += 4; }
  void u64(std::uint64_t) noexcept { n_ += 8; }
  void boolean(bool) noexcept { n_ += 1; }
  void str(const std::string& v) noexcept { n_ += 4 + v.size(); }
  void append(BufferView v) noexcept { n_ += v.size(); }
  void uvarint(std::uint64_t v) noexcept { n_ += uvarint_size(v); }
  void svarint(std::int64_t v) noexcept { n_ += svarint_size(v); }
  void vstr(const std::string& v) noexcept { n_ += uvarint_size(v.size()) + v.size(); }
  void vraw(BufferView v) noexcept { n_ += uvarint_size(v.size()) + v.size(); }

  /// Bytes an Encoder would hold after the same calls.
  std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
};

// --- Chaos fault injection ------------------------------------------------
//
// Historical bug, kept re-enableable so the chaos campaign's oracles can be
// demonstrated against a known fault: when unchecked decode is on, the wire
// decoders in vstoto/wire.cpp and membership/messages.cpp skip their
// ok()/complete()/checksum validation, so truncated or corrupted packets
// decode as zero-filled messages instead of being rejected. Never enable
// outside tests or `chaos_runner --inject-unchecked-decode`.
//
// The flag is thread_local: it scopes to the calling thread, i.e. to the
// World the current thread is executing. Worlds running in parallel
// (docs/CHAOS.md, "Parallel execution") each see their own flag, and a
// guard taken on one thread neither injects into nor races with another.
// Toggle it on the thread that runs the World, before the World decodes.

bool unchecked_decode() noexcept;
void set_unchecked_decode_for_test(bool on) noexcept;

/// RAII scope for the injection flag (restores the previous value).
class UncheckedDecodeGuard {
 public:
  UncheckedDecodeGuard() : prev_(unchecked_decode()) { set_unchecked_decode_for_test(true); }
  ~UncheckedDecodeGuard() { set_unchecked_decode_for_test(prev_); }
  UncheckedDecodeGuard(const UncheckedDecodeGuard&) = delete;
  UncheckedDecodeGuard& operator=(const UncheckedDecodeGuard&) = delete;

 private:
  bool prev_;
};

}  // namespace vsg::util
