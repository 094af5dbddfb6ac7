#include "core/content.hpp"

#include <algorithm>
#include <stdexcept>

namespace vsg::core {

// --- Stream ------------------------------------------------------------------

Content::Stream::Stream(const Stream& o)
    : key_(o.key_),
      first_(o.first_),
      run_(o.run_),
      tail_(o.tail_ ? std::make_unique<Tail>(*o.tail_) : nullptr) {}

Content::Stream& Content::Stream::operator=(const Stream& o) {
  if (this != &o) *this = Stream(o);
  return *this;
}

bool Content::Stream::operator==(const Stream& o) const {
  static const Tail kEmpty;
  return key_ == o.key_ && first_ == o.first_ && run_ == o.run_ &&
         (tail_ ? *tail_ : kEmpty) == (o.tail_ ? *o.tail_ : kEmpty);
}

const Value* Content::Stream::get(std::uint32_t s) const {
  if (s < first_) return nullptr;
  if (s - first_ < run_.size()) return &run_[s - first_];
  if (!tail_) return nullptr;
  const auto it = tail_->find(s);
  return it == tail_->end() ? nullptr : &it->second;
}

std::uint64_t Content::Stream::next_after(std::uint32_t s) const {
  if (s < first_) return first_;
  if (std::uint64_t{s} + 1 < run_end()) return std::uint64_t{s} + 1;
  if (tail_) {
    const auto it = tail_->upper_bound(s);
    if (it != tail_->end()) return it->first;
  }
  return kNone;
}

void Content::Stream::absorb() {
  if (!tail_) return;
  while (!tail_->empty() && tail_->begin()->first == run_end()) {
    run_.push_back(std::move(tail_->begin()->second));
    tail_->erase(tail_->begin());
  }
  if (tail_->empty()) tail_.reset();
}

std::pair<Value*, bool> Content::Stream::slot(std::uint32_t s, Value&& v) {
  if (run_.empty()) {
    first_ = s;
    run_.push_back(std::move(v));
    return {&run_.back(), true};
  }
  if (s >= first_ && s < run_end()) return {&run_[s - first_], false};
  if (s == run_end()) {
    run_.push_back(std::move(v));
    absorb();
    return {&run_[s - first_], true};
  }
  if (s > run_end()) {
    if (!tail_) tail_ = std::make_unique<Tail>();
    const auto [it, inserted] = tail_->try_emplace(s, std::move(v));
    return {&it->second, inserted};
  }
  if (s + 1 == first_) {  // just below the run: extend it downward
    run_.insert(run_.begin(), std::move(v));
    first_ = s;
    return {&run_.front(), true};
  }
  // A new lowest block, past a gap: the old run moves to the tail.
  if (!tail_) tail_ = std::make_unique<Tail>();
  auto hint = tail_->begin();
  for (std::size_t i = run_.size(); i-- > 0;)
    hint = tail_->emplace_hint(hint, first_ + static_cast<std::uint32_t>(i), std::move(run_[i]));
  run_.clear();
  run_.push_back(std::move(v));
  first_ = s;
  return {&run_.front(), true};
}

void Content::Stream::push(std::uint32_t s, Value v) {
  if (run_.empty()) first_ = s;
  if (!tail_ && s == run_end()) {
    run_.push_back(std::move(v));
    return;
  }
  if (!tail_) tail_ = std::make_unique<Tail>();
  tail_->emplace_hint(tail_->end(), s, std::move(v));
}

std::size_t Content::Stream::merge_from(const Stream& src, std::uint64_t lo, std::uint64_t hi) {
  // src's run clipped to the window [lo, hi] (hi <= UINT32_MAX) is [a, b],
  // empty when a > b; src's tail matters only if the window reaches past
  // the run, and then every tail seqno lies above b.
  const std::uint64_t a = std::max<std::uint64_t>(src.first_, lo);
  const std::uint64_t b = std::min(src.run_end() - 1, hi);
  std::vector<std::pair<std::uint32_t, const Value*>> theirs;
  if (src.tail_ != nullptr && hi >= src.run_end())
    for (auto it = src.tail_->lower_bound(static_cast<std::uint32_t>(lo));
         it != src.tail_->end() && it->first <= hi; ++it)
      theirs.emplace_back(it->first, &it->second);
  const std::size_t before = size();
  if (a > b && theirs.empty()) return 0;
  if (run_.empty()) {  // a new stream: copy the window
    if (a <= b) {
      first_ = static_cast<std::uint32_t>(a);
      run_.assign(src.run_.begin() + static_cast<std::ptrdiff_t>(a - src.first_),
                  src.run_.begin() + static_cast<std::ptrdiff_t>(b - src.first_ + 1));
    }
    for (const auto& [s, v] : theirs) push(s, *v);
    return size();
  }
  if (theirs.empty() && a >= first_ && b < run_end()) return 0;  // inside the run
  if (theirs.empty() && !tail_ && a >= first_ && a <= run_end()) {
    // The window meets or continues the run: append what lies above it.
    for (std::uint64_t s = run_end(); s <= b; ++s) run_.push_back(src.run_[s - src.first_]);
    return size() - before;
  }
  // Anything else (a gap on either side, or src reaching below the run):
  // merge the two seqno-ordered entry lists into a fresh stream.
  std::vector<std::pair<std::uint32_t, const Value*>> window;
  for (std::uint64_t s = a; s <= b; ++s)
    window.emplace_back(static_cast<std::uint32_t>(s), &src.run_[s - src.first_]);
  window.insert(window.end(), theirs.begin(), theirs.end());
  std::vector<std::pair<std::uint32_t, Value*>> ours;
  for (std::size_t i = 0; i < run_.size(); ++i)
    ours.emplace_back(first_ + static_cast<std::uint32_t>(i), &run_[i]);
  if (tail_)
    for (auto& [s, v] : *tail_) ours.emplace_back(s, &v);
  Stream out(key_);
  auto t = window.begin();
  for (const auto& [s, v] : ours) {
    for (; t != window.end() && t->first < s; ++t) out.push(t->first, *t->second);
    if (t != window.end() && t->first == s) ++t;  // ours wins
    out.push(s, std::move(*v));
  }
  for (; t != window.end(); ++t) out.push(t->first, *t->second);
  *this = std::move(out);
  return size() - before;
}

// --- const_iterator ----------------------------------------------------------

Content::const_iterator::const_iterator(const std::vector<Stream>& streams, std::size_t k,
                                        std::uint32_t s, const Value* v)
    : streams_(&streams), k_(k), vb_(k), ve_(k), s_(s), v_(v) {
  if (k_ == streams.size()) return;
  const ViewId& view = streams[k_].key().first;
  while (vb_ > 0 && streams[vb_ - 1].key().first == view) --vb_;
  while (ve_ < streams.size() && streams[ve_].key().first == view) ++ve_;
}

void Content::const_iterator::enter_view(std::size_t b) {
  const std::vector<Stream>& ss = *streams_;
  vb_ = ve_ = k_ = b;
  if (b == ss.size()) {
    s_ = 0;
    v_ = nullptr;
    return;
  }
  std::uint32_t low = ss[b].first_;
  while (ve_ < ss.size() && ss[ve_].key().first == ss[b].key().first)
    low = std::min(low, ss[ve_++].first_);
  s_ = low;
  while (ss[k_].first_ != low) ++k_;
  v_ = &ss[k_].run_.front();
}

Content::const_iterator& Content::const_iterator::operator++() {
  const std::vector<Stream>& ss = *streams_;
  // The next stream of this view that holds the current seqno...
  for (std::size_t k = k_ + 1; k < ve_; ++k)
    if (const Value* v = ss[k].get(s_)) {
      k_ = k;
      v_ = v;
      return *this;
    }
  // ...else the first stream holding the least seqno above it...
  std::uint64_t next = Stream::kNone;
  for (std::size_t k = vb_; k < ve_; ++k) next = std::min(next, ss[k].next_after(s_));
  if (next != Stream::kNone) {
    s_ = static_cast<std::uint32_t>(next);
    for (std::size_t k = vb_;; ++k)
      if (const Value* v = ss[k].get(s_)) {
        k_ = k;
        v_ = v;
        return *this;
      }
  }
  // ...else the next view.
  enter_view(ve_);
  return *this;
}

// --- Content -----------------------------------------------------------------

Content::Content(std::initializer_list<std::pair<const Label, Value>> entries) {
  for (const auto& [l, v] : entries) try_emplace(l, v);
}

Content::const_iterator Content::begin() const {
  const_iterator it(streams_, streams_.size(), 0, nullptr);
  it.enter_view(0);
  return it;
}

const Value* Content::get(const Label& l) const {
  const LabelStream key{l.id, l.origin};
  const std::size_t k = seek(0, key);
  return k < streams_.size() && streams_[k].key() == key ? streams_[k].get(l.seqno) : nullptr;
}

Content::const_iterator Content::find(const Label& l) const {
  const Value* v = get(l);
  return v == nullptr ? end() : at_entry(streams_[seek(0, {l.id, l.origin})], l.seqno, v);
}

const Value& Content::at(const Label& l) const {
  const Value* v = get(l);
  if (v == nullptr) throw std::out_of_range("core::Content::at: unbound label " + to_string(l));
  return *v;
}

std::size_t Content::seek(std::size_t from, const LabelStream& key) const {
  // Gallop, then binary search: a merge of a few streams into many costs
  // O(log) per stream, and one of many into many stays linear.
  std::size_t step = 1, lo = from, hi = from;
  while (hi < streams_.size() && streams_[hi].key() < key) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, streams_.size());
  return static_cast<std::size_t>(
      std::lower_bound(streams_.begin() + static_cast<std::ptrdiff_t>(lo),
                       streams_.begin() + static_cast<std::ptrdiff_t>(hi), key,
                       [](const Stream& s, const LabelStream& k) { return s.key() < k; }) -
      streams_.begin());
}

Content::Stream& Content::stream_for(const LabelStream& key) {
  const std::size_t k = seek(0, key);
  if (k == streams_.size() || streams_[k].key() != key)
    streams_.insert(streams_.begin() + static_cast<std::ptrdiff_t>(k), Stream(key));
  return streams_[k];
}

std::pair<Content::const_iterator, bool> Content::try_emplace(const Label& l, Value v) {
  Stream& st = stream_for(LabelStream{l.id, l.origin});
  const auto [slot, inserted] = st.slot(l.seqno, std::move(v));
  size_ += inserted ? 1 : 0;
  return {at_entry(st, l.seqno, slot), inserted};
}

Value& Content::operator[](const Label& l) {
  const auto [slot, inserted] = stream_for(LabelStream{l.id, l.origin}).slot(l.seqno, Value{});
  size_ += inserted ? 1 : 0;
  return *slot;
}

void Content::merge(const Content& other, std::span<const Window> windows) {
  const auto by_key = [](const Stream& x, const Stream& y) { return x.key() < y.key(); };
  std::vector<Stream> added;
  std::size_t k = 0;
  for (std::size_t i = 0; i < other.streams_.size(); ++i) {
    const Stream& src = other.streams_[i];
    const Window w = windows.empty() ? Window{} : windows[i];
    if (w.lo > w.hi) continue;
    k = seek(k, src.key());
    if (k < streams_.size() && streams_[k].key() == src.key()) {
      size_ += streams_[k].merge_from(src, w.lo, w.hi);
      continue;
    }
    Stream fresh(src.key());
    size_ += fresh.merge_from(src, w.lo, w.hi);
    if (!fresh.run_.empty()) added.push_back(std::move(fresh));
  }
  if (added.empty()) return;
  const std::size_t mid = streams_.size();
  const bool at_end = streams_.empty() || streams_.back().key() < added.front().key();
  streams_.insert(streams_.end(), std::make_move_iterator(added.begin()),
                  std::make_move_iterator(added.end()));
  if (!at_end)
    std::inplace_merge(streams_.begin(), streams_.begin() + static_cast<std::ptrdiff_t>(mid),
                       streams_.end(), by_key);
}

}  // namespace vsg::core
