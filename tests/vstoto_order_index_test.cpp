// core::OrderIndex against a first-occurrence scan of the same sequence,
// through growth, rebuilds, truncation and repeated labels.

#include <gtest/gtest.h>

#include <map>

#include "core/order_index.hpp"
#include "util/rng.hpp"

namespace vsg::core {
namespace {

core::Label random_label(util::Rng& rng) {
  return core::Label{core::ViewId{rng.below(4), static_cast<ProcId>(rng.below(3))},
                     static_cast<std::uint32_t>(rng.below(200)),
                     static_cast<ProcId>(rng.below(5))};
}

std::map<core::Label, std::size_t> first_positions(const std::vector<core::Label>& order) {
  std::map<core::Label, std::size_t> first;
  for (std::size_t i = 0; i < order.size(); ++i) first.emplace(order[i], i);
  return first;
}

void expect_matches(const OrderIndex& index, const std::vector<core::Label>& order,
                    util::Rng& rng) {
  const auto first = first_positions(order);
  for (const auto& [l, i] : first) ASSERT_EQ(index.find(order, l), i) << core::to_string(l);
  for (int k = 0; k < 50; ++k) {
    const core::Label l = random_label(rng);
    const auto it = first.find(l);
    EXPECT_EQ(index.find(order, l), it == first.end() ? OrderIndex::npos : it->second);
  }
}

TEST(OrderIndex, EmptyIndexFindsNothing) {
  const OrderIndex index;
  const std::vector<core::Label> order;
  EXPECT_EQ(index.find(order, core::Label{}), OrderIndex::npos);
}

TEST(OrderIndex, AppendsGrowTheTableAndRefuseRepeats) {
  util::Rng rng(7);
  OrderIndex index;
  std::vector<core::Label> order;
  std::map<core::Label, std::size_t> first;
  for (int i = 0; i < 3000; ++i) {
    const core::Label l = random_label(rng);
    const bool fresh = first.emplace(l, order.size()).second;
    ASSERT_EQ(index.insert(order, l, order.size()), fresh) << "append " << i;
    if (fresh) order.push_back(l);
    if (i % 500 == 0) expect_matches(index, order, rng);
  }
  expect_matches(index, order, rng);
}

TEST(OrderIndex, AssignKeepsTheFirstOfRepeatedLabels) {
  util::Rng rng(8);
  OrderIndex index;
  for (int round = 0; round < 40; ++round) {
    std::vector<core::Label> order;
    for (std::uint64_t k = rng.below(300); k > 0; --k)
      order.push_back(rng.chance(0.2) && !order.empty() ? order[rng.below(order.size())]
                                                        : random_label(rng));
    index.assign(order);  // shrinks as well as grows
    expect_matches(index, order, rng);
    // Appending past a rebuilt index behaves like a fresh one.
    const core::Label l = random_label(rng);
    const bool fresh = first_positions(order).count(l) == 0;
    EXPECT_EQ(index.insert(order, l, order.size()), fresh);
    if (fresh) order.push_back(l);
    expect_matches(index, order, rng);
  }
}

// Establishment cuts the index back to the order prefix it keeps. After
// truncate(order, n) the index must find every label of the old order
// where OrderIndex::assign of order[0, n) would, repeats included, and keep
// growing like a fresh one. The orders keep repeated labels (establishment
// appends the representative's suffix verbatim), and the cut points range
// over the whole order, empty prefix included.
TEST(OrderIndex, TruncateMatchesAssignOfThePrefix) {
  util::Rng rng(9);
  OrderIndex index;
  std::vector<core::Label> order;
  int cleared = 0, cut = 0;
  for (int round = 0; round < 300; ++round) {
    for (std::uint64_t k = rng.below(300); k > 0; --k) {
      const core::Label l = rng.chance(0.2) && !order.empty() ? order[rng.below(order.size())]
                                                              : random_label(rng);
      index.insert(order, l, order.size());
      order.push_back(l);
    }
    const std::size_t n = rng.chance(0.1) ? 0 : rng.below(order.size() + 1);
    if (n < order.size()) ++(n == 0 ? cleared : cut);
    const std::vector<core::Label> old = order;
    index.truncate(order, n);
    order.resize(n);
    OrderIndex fresh;
    fresh.assign(order);
    for (const core::Label& l : old)
      ASSERT_EQ(index.find(order, l), fresh.find(order, l))
          << core::to_string(l) << " after a cut to " << n << " in round " << round;
    expect_matches(index, order, rng);
  }
  EXPECT_GT(cleared, 0);
  EXPECT_GT(cut, 0);
}

}  // namespace
}  // namespace vsg::core
