#pragma once

// First-position index over VStoTO's `order`: the duplicate guard of the
// append path, the lookup behind the safe bits (vstoto::Process::is_safe),
// and the dedupe of fullorder, which builds the index together with the
// order it places so that establishment does not index that order again.
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

 private:
  void rehash(const std::vector<Label>& order, std::size_t capacity);

  std::vector<std::uint32_t> slots_;  // position + 1; 0 is an empty slot
  std::size_t size_ = 0;
};

}  // namespace vsg::core
