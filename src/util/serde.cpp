#include "util/serde.hpp"

namespace vsg::util {

namespace {
// thread_local, not a process global: the flag is read on every packet
// decode, and independent Worlds may run on executor threads concurrently
// (chaos --jobs, bench sweeps). A plain bool here was a data race the
// moment two Worlds ran at once; per-thread scoping also means an
// UncheckedDecodeGuard in one World can never leak the injection into a
// World running on another thread.
thread_local bool t_unchecked_decode = false;
}  // namespace

bool unchecked_decode() noexcept { return t_unchecked_decode; }
void set_unchecked_decode_for_test(bool on) noexcept { t_unchecked_decode = on; }

void Encoder::note_capacity() {
  if (buf_.capacity() != last_cap_) {
    last_cap_ = buf_.capacity();
    ++allocs_;
  }
}

void Encoder::reserve(std::size_t n) {
  buf_.reserve(n);
  note_capacity();
}

void Encoder::u8(std::uint8_t v) {
  buf_.push_back(v);
  note_capacity();
}

void Encoder::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  note_capacity();
}

void Encoder::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  note_capacity();
}

void Encoder::boolean(bool v) { u8(v ? 1 : 0); }

void Encoder::str(const std::string& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
  note_capacity();
}

void Encoder::uvarint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
  note_capacity();
}

void Encoder::svarint(std::int64_t v) { uvarint(zigzag(v)); }

void Encoder::vstr(const std::string& v) {
  uvarint(v.size());
  buf_.insert(buf_.end(), v.begin(), v.end());
  note_capacity();
}

void Encoder::vraw(BufferView v) {
  uvarint(v.size());
  append(v);
}

void Encoder::append(BufferView v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
  note_capacity();
}

void Encoder::patch_u32(std::size_t pos, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_[pos + static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(v >> (8 * i));
}

bool Decoder::take(std::size_t n, const std::uint8_t** out) {
  if (!ok_ || view_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *out = view_.data() + pos_;
  pos_ += n;
  return true;
}

std::uint8_t Decoder::u8() {
  const std::uint8_t* p = nullptr;
  if (!take(1, &p)) return 0;
  return *p;
}

std::uint32_t Decoder::u32() {
  const std::uint8_t* p = nullptr;
  if (!take(4, &p)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t Decoder::u64() {
  const std::uint8_t* p = nullptr;
  if (!take(8, &p)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

bool Decoder::boolean() { return u8() != 0; }

std::string Decoder::str() { return std::string(str_view()); }

std::string_view Decoder::str_view() {
  const std::uint32_t n = u32();
  const std::uint8_t* p = nullptr;
  if (!take(n, &p)) return {};
  return std::string_view(reinterpret_cast<const char*>(p), n);
}

std::uint64_t Decoder::uvarint() {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 10; ++i) {
    const std::uint8_t* p = nullptr;
    if (!take(1, &p)) return 0;
    const std::uint64_t bits = *p & 0x7F;
    // The 10th byte carries the final bit 63; anything above it means the
    // encoding does not fit a u64 (hostile input).
    if (i == 9 && (*p & 0xFE) != 0) {
      ok_ = false;
      return 0;
    }
    v |= bits << (7 * i);
    if ((*p & 0x80) == 0) return v;
  }
  ok_ = false;  // unreachable: the loop returns by byte 10
  return 0;
}

std::int64_t Decoder::svarint() { return unzigzag(uvarint()); }

std::string Decoder::vstr() {
  const std::uint64_t n = uvarint();
  const std::uint8_t* p = nullptr;
  if (!take(static_cast<std::size_t>(n), &p)) return {};
  return std::string(reinterpret_cast<const char*>(p), static_cast<std::size_t>(n));
}

BufferView Decoder::vraw_view() {
  const std::uint64_t n = uvarint();
  const std::uint8_t* p = nullptr;
  if (!take(static_cast<std::size_t>(n), &p)) return {};
  return BufferView(p, static_cast<std::size_t>(n));
}

Buffer Decoder::vraw_buffer() {
  const BufferView v = vraw_view();
  if (!ok_ || v.empty()) return {};
  const std::size_t start = pos_ - v.size();
  if (!origin_.empty()) return origin_.slice(start, v.size());
  return Buffer::copy(v);
}

Buffer Decoder::raw_buffer() {
  const std::uint32_t n = u32();
  const std::size_t start = pos_;
  const std::uint8_t* p = nullptr;
  if (!take(n, &p) || n == 0) return {};
  if (!origin_.empty()) return origin_.slice(start, n);
  return Buffer::copy(BufferView(p, n));
}

Buffer Decoder::input_slice(std::size_t from, std::size_t to) const {
  if (to > view_.size() || from > to) return {};
  if (!origin_.empty()) return origin_.slice(from, to - from);
  return Buffer::copy(view_.subview(from, to - from));
}

}  // namespace vsg::util
