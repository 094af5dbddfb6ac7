#pragma once

// First-position index over VStoTO's `order`: the duplicate guard of the
// append path, the lookup behind the safe bits (vstoto::Process::is_safe),
// and the dedupe of establishment (core::establish), which cuts the index
// back to the order prefix it keeps and extends it with the labels it
// places, so that a view change never indexes the shared prefix again.
//
// A flat open-addressing hash table (linear probing, at most half full)
// that stores only positions, 4 bytes a slot; a slot's key is the label at
// its position. The index therefore never copies a label, and the sequence
// it indexes is passed to every call. A node-based set or map would cost
// over 60 bytes and an allocation per label; this costs 8 to 16 bytes, and
// a rebuild is one pass with no allocation once the table has grown.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/label.hpp"

namespace vsg::core {

class OrderIndex {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Index `order` from scratch; a repeated label keeps its first position.
  void assign(const std::vector<Label>& order);

  /// Index l at position `pos` unless l is indexed already; returns whether
  /// it was. `order` must hold every indexed position; `pos` may be
  /// order.size(), for a label the caller appends next.
  bool insert(const std::vector<Label>& order, const Label& l, std::size_t pos);

  /// The first position of l in the indexed `order`, or npos.
  std::size_t find(const std::vector<Label>& order, const Label& l) const;

  /// Drop every position at or past n, leaving the index of order[0, n)
  /// that assign would build: a label whose first position lies below n
  /// stays. `order` must still hold every indexed position; the caller
  /// shortens it afterwards. Deletes the cut positions one at a time, so it
  /// costs O(|order| - n), whatever the prefix.
  void truncate(const std::vector<Label>& order, std::size_t n);

 private:
  void rehash(const std::vector<Label>& order, std::size_t capacity);
  /// Remove position pos unless its label's first position lies below it,
  /// by backward-shift deletion (linear probing keeps no tombstones).
  void erase(const std::vector<Label>& order, std::size_t pos);

  std::vector<std::uint32_t> slots_;  // position + 1; 0 is an empty slot
  std::size_t size_ = 0;
};

}  // namespace vsg::core
