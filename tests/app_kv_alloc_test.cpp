// Allocation gate for the replica's apply and read paths. This executable
// replaces the global operator new with a counting one, attaches a
// ReplicatedKV to a fake to::Service that hands its clients deliveries
// directly, and checks that overwriting a held key with a value that fits
// the slot's capacity, and reading it back, allocate nothing. It lives in
// its own executable so the replacement counts no other test's allocations.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "app/replicated_kv.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace vsg {
namespace {

// Captures the attached clients; deliver() is brcv at one processor.
class FakeService final : public to::Service {
 public:
  explicit FakeService(int n) : clients_(static_cast<std::size_t>(n), nullptr) {}
  int size() const override { return static_cast<int>(clients_.size()); }
  void bcast(ProcId, core::Value) override {}
  void attach(ProcId p, to::Client& client) override {
    clients_[static_cast<std::size_t>(p)] = &client;
  }
  void set_delivery(to::DeliveryFn) override {}

  void deliver(ProcId dest, ProcId origin, const core::Value& a) {
    clients_[static_cast<std::size_t>(dest)]->on_brcv(origin, a);
  }

 private:
  std::vector<to::Client*> clients_;
};

std::size_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(ReplicatedKVAllocations, NewKeyAllocatesAndTheCounterSeesIt) {
  FakeService service(2);
  app::ReplicatedKV kv(service);
  const core::Value write = app::encode_write("a-key-longer-than-any-sso-buffer", "v");
  const std::size_t before = allocations();
  service.deliver(0, 1, write);
  const std::size_t made = allocations() - before;
  EXPECT_GT(made, 0u) << "a new key creates its strings";
  EXPECT_EQ(kv.applied_count(0), 1u);
}

TEST(ReplicatedKVAllocations, OverwriteThatFitsAndReadAllocateNothing) {
  FakeService service(2);
  app::ReplicatedKV kv(service);
  const std::string key = "a-held-key-longer-than-any-sso-buffer";
  const core::Value first = app::encode_write(key, std::string(40, 'a'));
  const core::Value same_size = app::encode_write(key, std::string(40, 'b'));
  const core::Value shorter = app::encode_write(key, "short");
  service.deliver(0, 1, first);
  service.deliver(1, 1, first);

  const std::size_t before = allocations();
  service.deliver(0, 1, same_size);  // a remote write
  service.deliver(1, 1, same_size);  // the writer's own write
  service.deliver(0, 1, shorter);
  service.deliver(1, 1, shorter);
  const std::optional<std::string> read = kv.read(0, key);
  const std::size_t made = allocations() - before;

  EXPECT_EQ(made, 0u) << "overwrite or read allocated";
  EXPECT_EQ(read, std::optional<std::string>("short"));
  EXPECT_EQ(kv.applied_count(0), 3u);
  EXPECT_EQ(kv.applied_count(1), 3u);
}

}  // namespace
}  // namespace vsg
