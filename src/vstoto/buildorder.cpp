#include "vstoto/buildorder.hpp"

#include <algorithm>
#include <cassert>

namespace vsg::vstoto {

OrderSnapshot::OrderSnapshot(Ptr base, std::size_t kept, std::vector<core::Label> tail)
    : base_(std::move(base)), kept_(kept), tail_(std::move(tail)) {}

OrderSnapshot::~OrderSnapshot() {
  // While this destructor holds the last reference to the next link, take
  // that link's base before letting it go: its own destructor then finds
  // no base, and the walk goes on here instead of one frame deeper.
  Ptr next = std::move(base_);
  while (next != nullptr && next.use_count() == 1) next = std::move(next->base_);
}

OrderSnapshot::Ptr OrderSnapshot::freeze(const Ptr& prev, const std::vector<core::Label>& order,
                                         std::size_t kept) {
  assert(kept <= order.size());
  assert(kept == 0 || (prev != nullptr && kept <= prev->size()));
  const auto from = order.begin() + static_cast<std::ptrdiff_t>(kept);
  return std::make_shared<const OrderSnapshot>(kept == 0 ? nullptr : prev, kept,
                                               std::vector<core::Label>(from, order.end()));
}

std::vector<core::Label> OrderSnapshot::labels() const {
  std::vector<core::Label> out(size());
  // Each link holds positions [kept, size) of itself; `end` is how much of
  // the front is still to fill.
  std::size_t end = out.size();
  for (const OrderSnapshot* s = this; s != nullptr && end > 0; s = s->base_.get()) {
    const std::size_t hi = std::min(end, s->size());
    if (hi > s->kept_)
      std::copy_n(s->tail_.begin(), hi - s->kept_,
                  out.begin() + static_cast<std::ptrdiff_t>(s->kept_));
    end = std::min(end, s->kept_);
  }
  return out;
}

}  // namespace vsg::vstoto
