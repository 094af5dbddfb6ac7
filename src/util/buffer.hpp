#pragma once

// Zero-copy data plane primitives (docs/DATAPLANE.md).
//
// Buffer is a refcounted, immutable byte buffer: once constructed, the bytes
// behind it never change, so one allocation can be shared by every layer that
// touches a packet — the network fans a broadcast out to k destinations with
// k refcount bumps instead of k payload copies, the trace recorder retains
// payloads by reference, and decoded token entries are slices into the packet
// that carried them. slice() produces a Buffer sharing the same storage; a
// slice keeps the storage alive after the parent Buffer is released.
//
// Every distinct storage carries a process-unique 64-bit id (never reused,
// unlike a heap address), which gives the trace layer a safe identity for
// "these are the same bytes".
//
// BufferView is the non-owning counterpart (pointer + length): the cheap
// currency for scanning and decoding within a call, where no lifetime needs
// extending.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace vsg::util {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view of a contiguous byte range. Valid only while the owner
/// (a Buffer, a Bytes, a stack array) lives; never stores one beyond a call.
class BufferView {
 public:
  constexpr BufferView() noexcept = default;
  constexpr BufferView(const std::uint8_t* data, std::size_t size) noexcept
      : data_(data), size_(size) {}
  BufferView(const Bytes& b) noexcept : data_(b.data()), size_(b.size()) {}

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }
  const std::uint8_t* begin() const noexcept { return data_; }
  const std::uint8_t* end() const noexcept { return data_ + size_; }

  /// Sub-view; clamps to the valid range (off > size yields an empty view).
  BufferView subview(std::size_t off, std::size_t len) const noexcept;

  bool operator==(const BufferView& o) const noexcept;

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Refcounted immutable byte buffer; may window a slice of shared storage.
class Buffer {
 public:
  Buffer() noexcept = default;

  /// Wrap: take ownership of the vector, no byte copy (the data plane's
  /// default — Encoder::finish() and explicit moves land here).
  Buffer(Bytes&& b);
  /// Copy: one allocation + memcpy. Implicit for migration ergonomics
  /// (tests and out-of-tree callers holding util::Bytes); hot paths move.
  Buffer(const Bytes& b);

  static Buffer wrap(Bytes&& b) { return Buffer(std::move(b)); }
  static Buffer copy(BufferView v);

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data_[i]; }
  const std::uint8_t* begin() const noexcept { return data_; }
  const std::uint8_t* end() const noexcept { return data_ + size_; }

  BufferView view() const noexcept { return BufferView(data_, size_); }
  operator BufferView() const noexcept { return view(); }

  /// Share the same storage, windowed to [off, off+len). The slice keeps the
  /// storage alive past release of this Buffer. Clamped to the valid range.
  Buffer slice(std::size_t off, std::size_t len) const;

  /// Process-unique id of the backing storage (0 for an empty Buffer).
  /// Slices of one storage share its id; ids are never reused.
  std::uint64_t id() const noexcept;
  /// Offset of this window within its storage (0 for an empty Buffer).
  std::size_t storage_offset() const noexcept;
  /// Number of Buffers sharing this storage (refcount; 0 when empty).
  long use_count() const noexcept { return storage_.use_count(); }

  /// Copy out as an owned vector (explicit: this is the only way a Buffer
  /// turns back into mutable bytes).
  Bytes to_bytes() const { return Bytes(data_, data_ + size_); }

  /// Content equality (not identity).
  bool operator==(const Buffer& o) const noexcept { return view() == o.view(); }
  bool operator==(const Bytes& o) const noexcept { return view() == BufferView(o); }

 private:
  struct Storage {
    Bytes bytes;
    std::uint64_t uid;
    explicit Storage(Bytes&& b);
  };

  std::shared_ptr<const Storage> storage_;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

inline bool operator==(const Bytes& a, const Buffer& b) noexcept { return b == a; }

}  // namespace vsg::util
