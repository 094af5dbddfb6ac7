// Malformed-scenario validation: World's scheduling helpers (and
// Scenario::apply through them) reject bad processor ids and bad partition
// component sets eagerly, with descriptive errors — one test per rejection.

#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/scenario.hpp"
#include "harness/world.hpp"

namespace vsg::harness {
namespace {

World make_world(int n = 4) {
  WorldConfig cfg;
  cfg.n = n;
  return World(cfg);
}

// EXPECT_THROW plus a substring check on the message, so the errors stay
// descriptive and not just typed.
template <typename Fn>
void expect_rejected(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument containing '" << needle << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(WorldValidation, PartitionEmptyComponentList) {
  auto w = make_world();
  expect_rejected([&] { w.partition_at(0, {}); }, "component list is empty");
}

TEST(WorldValidation, PartitionEmptyComponent) {
  auto w = make_world();
  expect_rejected([&] { w.partition_at(0, {{0, 1, 2, 3}, {}}); }, "is empty");
}

TEST(WorldValidation, PartitionOutOfRangeProcessor) {
  auto w = make_world();
  expect_rejected([&] { w.partition_at(0, {{0, 1}, {2, 3, 4}}); }, "out of range");
}

TEST(WorldValidation, PartitionNegativeProcessor) {
  auto w = make_world();
  expect_rejected([&] { w.partition_at(0, {{-1, 0, 1, 2, 3}}); }, "out of range");
}

TEST(WorldValidation, PartitionOverlappingComponents) {
  auto w = make_world();
  expect_rejected([&] { w.partition_at(0, {{0, 1, 2}, {2, 3}}); },
                  "more than one component");
}

TEST(WorldValidation, PartitionMustCoverAllProcessors) {
  auto w = make_world();
  // The old silent footgun: {{0,1}} looks like "cut 0,1 off" but dropped
  // 2 and 3 entirely. Now it must be spelled with explicit singletons.
  expect_rejected([&] { w.partition_at(0, {{0, 1}}); }, "is in no component");
}

TEST(WorldValidation, PartitionSingletonsAreFine) {
  auto w = make_world();
  EXPECT_NO_THROW(w.partition_at(0, {{0, 1}, {2}, {3}}));
}

TEST(WorldValidation, ValidatePartitionStandalone) {
  EXPECT_NO_THROW(World::validate_partition(3, {{0}, {1, 2}}));
  EXPECT_THROW(World::validate_partition(3, {{0, 1}}), std::invalid_argument);
}

TEST(WorldValidation, BcastBadProcessor) {
  auto w = make_world();
  expect_rejected([&] { w.bcast_at(0, 4, "x"); }, "out of range");
  expect_rejected([&] { w.bcast_at(0, -1, "x"); }, "out of range");
}

TEST(WorldValidation, ProcStatusBadProcessor) {
  auto w = make_world();
  expect_rejected([&] { w.proc_status_at(0, 9, sim::Status::kBad); }, "out of range");
}

TEST(WorldValidation, LinkStatusBadEndpoints) {
  auto w = make_world();
  expect_rejected([&] { w.link_status_at(0, 5, 1, sim::Status::kBad); }, "out of range");
  expect_rejected([&] { w.link_status_at(0, 1, 5, sim::Status::kBad); }, "out of range");
  expect_rejected([&] { w.link_status_at(0, 2, 2, sim::Status::kBad); }, "self-link");
}

TEST(WorldValidation, ReportGroupBadMember) {
  auto w = make_world(3);
  expect_rejected([&] { w.vs_report({0, 7}, 1000); }, "vs_report: processor 7 out of range");
  expect_rejected([&] { w.to_report({-1, 0}, 1000); }, "to_report: processor -1 out of range");
  EXPECT_NO_THROW(w.vs_report({0, 1, 2}, 1000));
  EXPECT_NO_THROW(w.to_report({0, 1, 2}, 1000));
}

TEST(WorldValidation, ScenarioApplyPropagatesRejection) {
  auto w = make_world();
  Scenario s;
  s.add(sim::msec(10), OpBcast{0, "ok"});
  s.add(sim::msec(20), OpPartition{{{0, 1}}});  // non-covering
  EXPECT_THROW(s.apply(w), std::invalid_argument);
}

TEST(WorldValidation, RejectionIsEagerNotAtRunTime) {
  auto w = make_world();
  // partition_at throws immediately; nothing runs, the world stays usable.
  EXPECT_THROW(w.partition_at(sim::sec(1), {{0}}), std::invalid_argument);
  EXPECT_NO_THROW(w.bcast_at(sim::msec(1), 0, "still-alive"));
  w.run_until(sim::sec(2));
  EXPECT_TRUE(w.check_to_safety().empty());
}

TEST(FailureTableValidation, MutatorsThrowOnBadIds) {
  sim::FailureTable ft(3);
  EXPECT_THROW(ft.set_proc(3, sim::Status::kBad, 0), std::invalid_argument);
  EXPECT_THROW(ft.set_proc(-1, sim::Status::kBad, 0), std::invalid_argument);
  EXPECT_THROW(ft.set_link(0, 3, sim::Status::kBad, 0), std::invalid_argument);
  EXPECT_THROW(ft.set_link(1, 1, sim::Status::kBad, 0), std::invalid_argument);
  EXPECT_THROW(ft.partition({{0, 1}, {1, 2}}, 0), std::invalid_argument);
  EXPECT_THROW(ft.partition({{0, 5}}, 0), std::invalid_argument);
  // FailureTable keeps the documented "absent = isolated" semantics; the
  // covering requirement is World-level.
  EXPECT_NO_THROW(ft.partition({{0, 1}}, 0));
}

}  // namespace
}  // namespace vsg::harness
