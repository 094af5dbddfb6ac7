#pragma once

// buildorder[p, g] for a view g that p has left (Section 6's history
// variable), stored as a chain of shared snapshots. Between two view exits
// a process's order changes only past some prefix: appends leave it alone,
// and establishment cuts order back to the prefix it keeps. So each
// snapshot keeps the first `kept` labels of the snapshot taken at the
// previous exit and stores only the labels after them. A freeze costs the
// labels that changed, and a copy of a process's history (a checkpoint)
// copies pointers, not labels.

#include <cstddef>
#include <memory>
#include <vector>

#include "core/label.hpp"

namespace vsg::vstoto {

class OrderSnapshot {
 public:
  using Ptr = std::shared_ptr<const OrderSnapshot>;

  /// The first `kept` labels of base, then tail. A null base keeps none.
  OrderSnapshot(Ptr base, std::size_t kept, std::vector<core::Label> tail);
  /// Frees the links of the chain that no one else holds one at a time, so
  /// releasing a long history does not recurse once per view.
  ~OrderSnapshot();
  OrderSnapshot(const OrderSnapshot&) = delete;
  OrderSnapshot& operator=(const OrderSnapshot&) = delete;

  /// A snapshot of `order` whose first `kept` labels are prev's first
  /// `kept`: it shares them with prev and stores order[kept, end). With
  /// kept == 0 it stores the whole order and holds no base.
  static Ptr freeze(const Ptr& prev, const std::vector<core::Label>& order, std::size_t kept);

  const Ptr& base() const noexcept { return base_; }
  std::size_t kept() const noexcept { return kept_; }
  const std::vector<core::Label>& tail() const noexcept { return tail_; }
  std::size_t size() const noexcept { return kept_ + tail_.size(); }

  /// The whole snapshot, rebuilt in a loop that walks back only as far as
  /// the kept prefix reaches. A link that keeps more than its base holds
  /// (which check_history_wellformed reports) reads as default labels
  /// there, never past a tail.
  std::vector<core::Label> labels() const;

 private:
  mutable Ptr base_;  // mutable only so the destructor can unlink it
  std::size_t kept_;
  std::vector<core::Label> tail_;
};

}  // namespace vsg::vstoto
