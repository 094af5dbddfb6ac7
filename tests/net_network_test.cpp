// Simulated network: good links deliver within delta, bad links drop
// (including in flight), ugly links behave within their envelope, self-sends
// always arrive. These are the channel axioms of Sections 3.2 and 8.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.hpp"

namespace vsg::net {
namespace {

struct Fixture {
  sim::Simulator sim;
  sim::FailureTable failures;
  LinkModel model;
  Network net;
  obs::MetricsRegistry metrics;
  std::vector<std::vector<std::pair<ProcId, util::Buffer>>> got;

  explicit Fixture(int n, std::uint64_t seed = 1, LinkModel m = LinkModel{})
      : failures(n), model(m), net(sim, failures, m, util::Rng(seed)), got(n) {
    net.bind_metrics(metrics);
    for (ProcId p = 0; p < n; ++p)
      net.attach(p, [this, p](ProcId src, const util::Buffer& pkt) {
        got[static_cast<std::size_t>(p)].emplace_back(src, pkt);
      });
  }

  std::uint64_t count(const std::string& name) const {
    const obs::Counter* c = metrics.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? 0 : c->value();
  }
};

util::Bytes bytes(std::initializer_list<std::uint8_t> b) { return util::Bytes(b); }

TEST(Network, GoodLinkDeliversWithinDelta) {
  Fixture f(2);
  f.net.send(0, 1, bytes({42}));
  f.sim.run();
  ASSERT_EQ(f.got[1].size(), 1u);
  EXPECT_EQ(f.got[1][0].first, 0);
  EXPECT_EQ(f.got[1][0].second, bytes({42}));
  EXPECT_LE(f.sim.now(), f.model.delta);
  EXPECT_GE(f.sim.now(), f.model.min_delay);
}

TEST(Network, BadLinkDropsAtSendTime) {
  Fixture f(2);
  f.failures.set_link(0, 1, sim::Status::kBad, 0);
  f.net.send(0, 1, bytes({1}));
  f.sim.run();
  EXPECT_TRUE(f.got[1].empty());
  EXPECT_EQ(f.count("net.packets_dropped"), 1u);
}

TEST(Network, LinkGoingBadInFlightDropsPacket) {
  Fixture f(2);
  f.net.send(0, 1, bytes({1}));
  // Cut the link immediately, before the propagation delay elapses.
  f.failures.set_link(0, 1, sim::Status::kBad, 0);
  f.sim.run();
  EXPECT_TRUE(f.got[1].empty());
}

TEST(Network, DirectionalityRespected) {
  Fixture f(2);
  f.failures.set_link(0, 1, sim::Status::kBad, 0);
  f.net.send(1, 0, bytes({9}));  // reverse direction still good
  f.sim.run();
  ASSERT_EQ(f.got[0].size(), 1u);
}

TEST(Network, SelfSendAlwaysDelivered) {
  Fixture f(2);
  f.failures.set_link_sym(0, 1, sim::Status::kBad, 0);
  f.failures.set_proc(0, sim::Status::kBad, 0);  // even a "bad" proc loops back
  f.net.send(0, 0, bytes({5}));
  f.sim.run();
  ASSERT_EQ(f.got[0].size(), 1u);
}

TEST(Network, BroadcastReachesEveryoneButSelf) {
  Fixture f(4);
  f.net.broadcast(2, bytes({7}));
  f.sim.run();
  EXPECT_TRUE(f.got[2].empty());
  for (ProcId p : {0, 1, 3}) ASSERT_EQ(f.got[static_cast<std::size_t>(p)].size(), 1u);
}

TEST(Network, MulticastHitsListedDestinations) {
  Fixture f(4);
  f.net.multicast(0, {1, 3}, bytes({8}));
  f.sim.run();
  EXPECT_EQ(f.got[1].size(), 1u);
  EXPECT_TRUE(f.got[2].empty());
  EXPECT_EQ(f.got[3].size(), 1u);
}

TEST(Network, StatsCountBytes) {
  Fixture f(2);
  f.net.send(0, 1, bytes({1, 2, 3}));
  f.sim.run();
  EXPECT_EQ(f.count("net.packets_sent"), 1u);
  EXPECT_EQ(f.count("net.packets_delivered"), 1u);
  EXPECT_EQ(f.count("net.bytes_sent"), 3u);
  EXPECT_EQ(f.count("net.bytes_delivered"), 3u);
}

TEST(Network, UglyLinkDropsRoughlyAtConfiguredRate) {
  LinkModel model;
  model.ugly_drop = 0.5;
  Fixture f(2, 99, model);
  f.failures.set_link(0, 1, sim::Status::kUgly, 0);
  for (int i = 0; i < 400; ++i) f.net.send(0, 1, bytes({static_cast<std::uint8_t>(i)}));
  f.sim.run();
  const double rate = static_cast<double>(f.got[1].size()) / 400.0;
  EXPECT_NEAR(rate, 0.5, 0.12);
}

TEST(Network, UglyDeliveriesBoundedByUglyMaxDelay) {
  LinkModel model;
  model.ugly_drop = 0.0;
  Fixture f(2, 3, model);
  f.failures.set_link(0, 1, sim::Status::kUgly, 0);
  for (int i = 0; i < 50; ++i) f.net.send(0, 1, bytes({1}));
  f.sim.run();
  EXPECT_EQ(f.got[1].size(), 50u);
  EXPECT_LE(f.sim.now(), model.ugly_max_delay);
}

TEST(LinkModel, DecideRespectsStatuses) {
  LinkModel model;
  util::Rng rng(5);
  EXPECT_FALSE(model.decide(sim::Status::kBad, rng).has_value());
  for (int i = 0; i < 100; ++i) {
    const auto d = model.decide(sim::Status::kGood, rng);
    ASSERT_TRUE(d.has_value());
    EXPECT_GE(*d, model.min_delay);
    EXPECT_LE(*d, model.delta);
  }
}

}  // namespace
}  // namespace vsg::net
