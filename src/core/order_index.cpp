#include "core/order_index.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace vsg::core {
namespace {

constexpr std::size_t kMinCapacity = 16;

// Mixes every field of the label into the low bits the table masks.
std::uint64_t hash(const Label& l) {
  std::uint64_t h = l.id.epoch * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<std::uint64_t>(static_cast<std::uint32_t>(l.id.origin)) << 32) | l.seqno;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= static_cast<std::uint32_t>(l.origin);
  h *= 0x94D049BB133111EBull;
  return h ^ (h >> 31);
}

}  // namespace

void OrderIndex::assign(const std::vector<Label>& order) {
  std::size_t capacity = kMinCapacity;
  while (capacity < 2 * order.size()) capacity *= 2;
  slots_.assign(capacity, 0);
  size_ = 0;
  for (std::size_t i = 0; i < order.size(); ++i) insert(order, order[i], i);
}

bool OrderIndex::insert(const std::vector<Label>& order, const Label& l,
                        std::size_t pos) {
  assert(pos < UINT32_MAX);
  if (2 * (size_ + 1) > slots_.size())
    rehash(order, std::max(kMinCapacity, 2 * slots_.size()));
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash(l) & mask;; s = (s + 1) & mask) {
    if (slots_[s] == 0) {
      slots_[s] = static_cast<std::uint32_t>(pos + 1);
      ++size_;
      return true;
    }
    if (order[slots_[s] - 1] == l) return false;
  }
}

std::size_t OrderIndex::find(const std::vector<Label>& order, const Label& l) const {
  if (slots_.empty()) return npos;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = hash(l) & mask;; s = (s + 1) & mask) {
    if (slots_[s] == 0) return npos;
    if (order[slots_[s] - 1] == l) return slots_[s] - 1;
  }
}

void OrderIndex::truncate(const std::vector<Label>& order, std::size_t n) {
  if (n >= order.size() || slots_.empty()) return;
  if (n == 0) {
    std::fill(slots_.begin(), slots_.end(), 0);
    size_ = 0;
    return;
  }
  for (std::size_t i = order.size(); i-- > n;) erase(order, i);
}

void OrderIndex::erase(const std::vector<Label>& order, std::size_t pos) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = hash(order[pos]) & mask;
  while (slots_[hole] != 0 && !(order[slots_[hole] - 1] == order[pos])) hole = (hole + 1) & mask;
  if (slots_[hole] != pos + 1) return;  // an earlier first position
  // Shift back every later slot of the cluster that may sit in the hole:
  // one whose home does not lie cyclically in (hole, j].
  for (std::size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
    const std::size_t home = hash(order[slots_[j] - 1]) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = 0;
  --size_;
}

void OrderIndex::rehash(const std::vector<Label>& order, std::size_t capacity) {
  std::vector<std::uint32_t> old = std::exchange(slots_, std::vector<std::uint32_t>(capacity, 0));
  const std::size_t mask = capacity - 1;
  for (const std::uint32_t p : old) {
    if (p == 0) continue;
    std::size_t s = hash(order[p - 1]) & mask;
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = p;
  }
}

}  // namespace vsg::core
