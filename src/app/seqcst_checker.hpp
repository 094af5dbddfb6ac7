#pragma once

// Independent checker for the sequentially consistent memory built in
// app/replicated_kv. It trusts nothing about the implementation: it is fed
// the raw observations (which writes each replica applied, in order, and
// what each read returned together with how many writes the replica had
// applied at that moment) and verifies:
//   1. all replicas apply the same write sequence (each a prefix of one
//      common order) — the replicated-state-machine core;
//   2. every applied write was actually submitted, per-submitter FIFO;
//   3. every read returns exactly the latest value for its key among the
//      writes the replica had applied (or "missing" if none) — i.e. reads
//      are consistent with a prefix of the common order.
// Together these imply the history is sequentially consistent: order all
// writes by the common order and insert each read after the prefix it
// observed; program order is preserved because submissions are FIFO and
// reads at p observe a monotonically growing prefix.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "app/replicated_kv.hpp"
#include "util/types.hpp"

namespace vsg::app {

class SeqCstChecker {
 public:
  explicit SeqCstChecker(int n);

  /// A write was submitted at p (program order).
  void on_submit(ProcId p, const std::string& key, const std::string& value);

  /// Replica `replica` applied a write.
  void on_apply(ProcId replica, const AppliedWrite& w);

  /// A read at `replica` returned `result` when the replica had applied
  /// `applied_count` writes.
  void on_read(ProcId replica, const std::string& key,
               const std::optional<std::string>& result, std::size_t applied_count);

  bool ok() const noexcept { return violations_.empty(); }
  const std::vector<std::string>& violations() const noexcept { return violations_; }

  /// The reconstructed common write order.
  const std::vector<AppliedWrite>& common_order() const noexcept { return common_; }

 private:
  int n_;
  std::vector<std::vector<std::pair<std::string, std::string>>> submitted_;
  std::vector<std::size_t> ordered_per_submitter_;
  std::vector<AppliedWrite> common_;
  std::vector<std::size_t> applied_count_;
  std::vector<std::string> violations_;
};

/// Cross-shard sequential-consistency checker for the sharded KV. Each
/// shard's TO yields one common write order *per shard*; a process's
/// operations interleave across shards. Sequential consistency of the
/// combined history demands a single serialization of all operations that
/// respects (a) every process's program order, (b) every shard's write
/// order, and (c) every read returning the latest write to its key in the
/// serialization. The checker encodes those demands as a constraint graph
/// over the observed operations:
///   po:  consecutive operations of one process (across shards!),
///   so:  consecutive writes in one shard's common order,
///   rf:  the write a read observed -> the read,
///   fr:  the read -> the next write to the same key in its shard's order
///        (a read of "missing" precedes the shard's first write to the key).
/// Every edge is an ordering any witness serialization must satisfy, so a
/// cycle proves no witness exists — a real violation, not a heuristic. This
/// is exactly how the classic two-shard anomaly shows up: w(x)@A -po->
/// w(y)@B -rf-> r(y) -po-> r(x)=missing -fr-> w(x) closes the cycle.
class CrossShardChecker {
 public:
  explicit CrossShardChecker(int shards);

  /// Program-order events: call in issue order at process p.
  void on_write(ProcId p, int shard, const std::string& key, const std::string& value);
  /// A read at p routed to `shard`, returning `result` when p's replica of
  /// that shard had applied `applied_count` writes.
  void on_read(ProcId p, int shard, const std::string& key,
               const std::optional<std::string>& result, std::size_t applied_count);

  /// Feed shard `shard`'s common write order, front to back (e.g. one
  /// replica's apply tap, ReplicatedKV::on_apply, once the replicas are
  /// known to agree). Each write's on_write must come first; call every
  /// on_order before check().
  void on_order(int shard, const AppliedWrite& w);

  /// Build the constraint graph and search for a cycle. Call once after
  /// the run; repeated calls return the same result.
  const std::vector<std::string>& check();

  bool ok() { return check().empty(); }

 private:
  struct Op {
    bool is_write = false;
    ProcId proc = kNoProc;
    int shard = 0;
    std::string key;
    std::string value;            // write payload
    std::optional<std::string> result;  // read outcome
    std::size_t applied_count = 0;      // read: observed prefix length
    std::size_t order_pos = 0;          // write: position in shard order
    bool ordered = false;
  };

  std::string describe(const Op& op) const;

  int shards_;
  bool checked_ = false;
  std::vector<Op> ops_;
  std::vector<std::vector<std::size_t>> by_proc_;          // program order (op ids)
  std::vector<std::vector<std::size_t>> shard_orders_;     // per shard: ordered write op ids
  std::map<std::pair<ProcId, int>, std::vector<std::size_t>> unmatched_;  // FIFO per (p, shard)
  std::vector<std::string> violations_;
};

}  // namespace vsg::app
