#pragma once

// Content: a partial function from labels to values (Figure 9's `content`,
// Figure 8's `con`), stored one label stream at a time.
//
// A label is (view, seqno, origin), and an origin numbers the labels it mints
// in a view 1, 2, 3, ... So the labels of one (view, origin) stream form a
// dense seqno range in every real state, and a stream keeps its entries as a
// first seqno plus a vector of values. Seqnos past a gap (only corrupted or
// fuzzed input makes one) go to a sparse tail, kept out of line so a stream
// without one pays a single null pointer. Streams sort by (view, origin):
// the order of LabelStream, and of a digest's marks, so the state-exchange
// algebra (core/summary.cpp) works a stream at a time.
//
// Reads look like a std::map<Label, Value>: iteration is in label order, a
// merge of each view's streams by seqno, which is the order the codec writes
// a con in. There is no erase: content only grows.

#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/label.hpp"
#include "core/types.hpp"

namespace vsg::core {

/// A label stream: all labels minted by one processor in one view.
using LabelStream = std::pair<ViewId, ProcId>;

class Content {
 public:
  /// The entries of one stream. Normal form: `run` is nonempty and holds
  /// seqnos first .. first + run.size() - 1, and every tail seqno lies above
  /// run's end past a gap. The run is thus the lowest dense block, and equal
  /// content has equal streams.
  class Stream {
   public:
    explicit Stream(const LabelStream& key) : key_(key) {}
    Stream(const Stream& o);
    Stream& operator=(const Stream& o);
    Stream(Stream&&) noexcept = default;
    Stream& operator=(Stream&&) noexcept = default;

    const LabelStream& key() const noexcept { return key_; }
    /// The greatest w with every seqno 1..w held (0 if seqno 1 is not).
    std::uint32_t prefix() const noexcept {
      return first_ <= 1 && run_end() > 1 ? static_cast<std::uint32_t>(run_end() - 1) : 0;
    }
    const Value* get(std::uint32_t s) const;
    std::size_t size() const noexcept { return run_.size() + (tail_ ? tail_->size() : 0); }
    bool operator==(const Stream& o) const;

   private:
    friend class Content;
    using Tail = std::map<std::uint32_t, Value>;
    static constexpr std::uint64_t kNone = std::uint64_t{1} << 32;

    std::uint64_t run_end() const noexcept { return first_ + run_.size(); }
    /// The least held seqno above s, or kNone.
    std::uint64_t next_after(std::uint32_t s) const;
    /// The slot of s, inserting v there if s is absent.
    std::pair<Value*, bool> slot(std::uint32_t s, Value&& v);
    /// Append an entry above every held seqno.
    void push(std::uint32_t s, Value v);
    /// Add src's entries with seqno in [lo, hi] that this stream lacks;
    /// returns how many were added.
    std::size_t merge_from(const Stream& src, std::uint64_t lo, std::uint64_t hi);
    /// Move leading tail entries that now continue the run into it.
    void absorb();

    LabelStream key_;
    std::uint32_t first_ = 0;
    std::vector<Value> run_;
    std::unique_ptr<Tail> tail_;
  };

  /// Iterates (label, value) pairs in label order; dereferences to a pair
  /// by value, whose value half refers into the content.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using difference_type = std::ptrdiff_t;
    using value_type = std::pair<Label, Value>;
    using reference = std::pair<Label, const Value&>;
    struct pointer {
      reference r;
      const reference* operator->() const noexcept { return &r; }
    };

    const_iterator() = default;
    reference operator*() const {
      const LabelStream& key = (*streams_)[k_].key();
      return {Label{key.first, s_, key.second}, *v_};
    }
    pointer operator->() const { return {**this}; }
    const_iterator& operator++();
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const const_iterator& o) const noexcept {
      return k_ == o.k_ && s_ == o.s_;
    }
    /// Index of the current entry's stream in streams().
    std::size_t stream_index() const noexcept { return k_; }

   private:
    friend class Content;
    const_iterator(const std::vector<Stream>& streams, std::size_t k, std::uint32_t s,
                   const Value* v);
    /// Position at the first label of the view whose streams start at b.
    void enter_view(std::size_t b);

    const std::vector<Stream>* streams_ = nullptr;
    std::size_t k_ = 0;   // current stream (streams_->size() at the end)
    std::size_t vb_ = 0;  // the current view's streams are [vb_, ve_)
    std::size_t ve_ = 0;
    std::uint32_t s_ = 0;  // current seqno (0 at the end)
    const Value* v_ = nullptr;
  };
  using iterator = const_iterator;

  /// An inclusive seqno window for one stream; lo > hi selects nothing.
  struct Window {
    std::uint64_t lo = 0;
    std::uint64_t hi = UINT32_MAX;
  };

  Content() = default;
  Content(std::initializer_list<std::pair<const Label, Value>> entries);

  const_iterator begin() const;
  const_iterator end() const { return const_iterator(streams_, streams_.size(), 0, nullptr); }
  const_iterator find(const Label& l) const;
  std::size_t count(const Label& l) const { return get(l) != nullptr ? 1 : 0; }
  /// The value bound to l, or null.
  const Value* get(const Label& l) const;
  /// The value bound to l; throws std::out_of_range if there is none.
  const Value& at(const Label& l) const;
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  bool operator==(const Content& o) const { return size_ == o.size_ && streams_ == o.streams_; }

  /// Bind l to v unless l is bound already.
  std::pair<const_iterator, bool> try_emplace(const Label& l, Value v);
  std::pair<const_iterator, bool> emplace(const Label& l, Value v) {
    return try_emplace(l, std::move(v));
  }
  /// The value bound to l, bound to an empty value first if there is none.
  Value& operator[](const Label& l);

  /// The streams, sorted by key.
  std::span<const Stream> streams() const noexcept { return streams_; }

  /// Add every entry of `other` whose label is unbound here. Entries already
  /// here win, which never matters in a real state: allcontent is a function
  /// (Lemma 6.5), so no label is bound to two values.
  void merge(const Content& other) { merge(other, {}); }
  /// The same, restricted to the entries of other.streams()[i] whose seqno
  /// lies in windows[i] (an empty span selects everything).
  void merge(const Content& other, std::span<const Window> windows);

 private:
  /// The first stream at or after `from` whose key is not below `key`.
  std::size_t seek(std::size_t from, const LabelStream& key) const;
  Stream& stream_for(const LabelStream& key);
  const_iterator at_entry(const Stream& st, std::uint32_t s, const Value* v) const {
    return const_iterator(streams_, static_cast<std::size_t>(&st - streams_.data()), s, v);
  }

  std::vector<Stream> streams_;
  std::size_t size_ = 0;
};

}  // namespace vsg::core
