#pragma once

// core::establish run the way a process runs it, for the core summary
// tests: from an order that is a frozen base's ord (perhaps grown since),
// with the base's unplaced labels, and with the index it leaves held to a
// fresh OrderIndex::assign of the order it places.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/summary.hpp"

namespace vsg::core {

/// The order establish() places from y when the process's order is base.ord
/// followed by `grown`. Fails the test unless the index it leaves finds
/// every label of the old and the new order where assign's index would.
inline std::vector<Label> establish_from(const StoredMap& y, const Summary& base,
                                         const SummaryDigest& own, bool full,
                                         const std::vector<Label>& grown = {}) {
  std::vector<Label> order = base.ord;
  order.insert(order.end(), grown.begin(), grown.end());
  const std::vector<Label> before = order;
  OrderIndex index;
  index.assign(order);
  std::vector<Label> unplaced;
  for (const auto& [l, a] : base.con)
    if (std::find(base.ord.begin(), base.ord.end(), l) == base.ord.end()) unplaced.push_back(l);
  establish(order, index, y, base, own, unplaced, full);
  OrderIndex fresh;
  fresh.assign(order);
  const auto same_index = [&](const std::vector<Label>& labels) {
    for (const Label& l : labels)
      EXPECT_EQ(index.find(order, l), fresh.find(order, l)) << to_string(l);
  };
  same_index(before);
  same_index(order);
  return order;
}

}  // namespace vsg::core
