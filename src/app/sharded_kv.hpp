#pragma once

// Key-partitioned replicated memory over K independent TO shards. One
// ReplicatedKV per shard, a stable hash (app::ShardRouter) placing every
// key on exactly one shard, and the classic scaling bet: each shard's token
// ring orders only its own writes, so aggregate write throughput grows with
// K while the per-shard guarantee stays the paper's footnote-3 sequential
// consistency.
//
// What sharding costs: there is NO total order across shards. A process
// that writes key a (shard A) then key b (shard B) can have its b-write
// applied at a remote replica long before its a-write — readers observing b
// then reading a see a cross-shard sequential-consistency violation that
// app::CrossShardChecker detects as a constraint-graph cycle. The repair is
// the per-shard barrier (ReplicatedKV::barrier): writers fence the earlier
// shard before touching the next; readers fence a shard before trusting a
// cross-shard implication. docs/SHARDING.md walks through the exact
// anomaly and the fence placement.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/load_balancer.hpp"
#include "app/replicated_kv.hpp"

namespace vsg::app {

class ShardedKV {
 public:
  /// One TO service per shard, all spanning the same n processors.
  explicit ShardedKV(const std::vector<to::Service*>& shards);

  int shards() const noexcept { return static_cast<int>(kvs_.size()); }
  int n() const noexcept { return n_; }

  /// The stable key placement (same arithmetic on every client).
  int shard_of(const std::string& key) const noexcept { return router_.shard_of(key); }

  /// Submit a write at processor p, routed to the key's shard.
  void write(ProcId p, const std::string& key, const std::string& value);

  /// Local read at processor p from the key's shard replica (sequentially
  /// consistent per shard; see the header comment for what that does NOT
  /// promise across shards).
  std::optional<std::string> read(ProcId p, const std::string& key) const;

  /// Fence shard `shard` at processor p: the callback fires once p's
  /// replica of that shard has applied everything ordered before the fence.
  /// Throws std::invalid_argument for a shard outside [0, shards()).
  void barrier(int shard, ProcId p, ReplicatedKV::BarrierFn done);
  /// Fence the shard that owns `key`.
  void barrier_for(const std::string& key, ProcId p, ReplicatedKV::BarrierFn done);

  /// Shard k's store; throws std::invalid_argument unless 0 <= k < shards().
  /// Entry points taking a processor p throw likewise for p outside [0, n()).
  ReplicatedKV& shard(int k);
  const ReplicatedKV& shard(int k) const;
  ShardRouter& router() noexcept { return router_; }

  /// Writes applied at `replica` across all shards (the aggregate
  /// delivered-ops number the throughput bench reports).
  std::size_t total_applied(ProcId replica) const;

  /// Writes submitted at p (all shards) that have not yet been applied at p.
  std::size_t writes_in_flight(ProcId p) const;

 private:
  int n_;
  ShardRouter router_;
  std::vector<std::unique_ptr<ReplicatedKV>> kvs_;
};

}  // namespace vsg::app
