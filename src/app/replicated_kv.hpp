#pragma once

// Replicated memory over TO — the application of the paper's footnote 3
// (the replicated state machine approach):
//   - every replica holds a full copy of the store;
//   - a (fast) read is answered immediately from the local copy;
//   - a write is sent through totally ordered broadcast, and *every*
//     replica (including the writer) applies it only when TO delivers it.
// Sequential consistency follows from all replicas applying the same write
// sequence (the TO order) and each process's operations taking effect in
// program order.
//
// Footnote 3 also sketches the stronger alternative — "send all operations
// (not just updates) through the totally ordered broadcast service; this
// approach constructs an atomic shared memory". atomic_read implements it:
// the read is broadcast as a marker and answered when the issuing replica
// delivers its own marker, so the result reflects exactly the writes
// ordered before the read in the one common order (linearizability).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "to/service.hpp"

namespace vsg::app {

/// One applied update, as seen by a replica. Replicas keep no history of
/// these; one is built only for an attached apply tap (ReplicatedKV::on_apply).
struct AppliedWrite {
  ProcId origin = kNoProc;
  std::string key;
  std::string value;
};

class ReplicatedKV {
 public:
  /// Hashes by std::string_view, so looking up a key allocates nothing.
  /// Deliberately not noexcept: libstdc++ then keeps each node's hash, as it
  /// does for std::hash<std::string>, and a probe compares hashes before
  /// keys instead of rehashing its neighbours' keys.
  struct KeyHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };
  using Store = std::unordered_map<std::string, std::string, KeyHash, std::equal_to<>>;

  /// Attaches one replica, itself a to::Client, per processor of
  /// `to_service` (the legacy global set_delivery callback stays free for
  /// observers).
  explicit ReplicatedKV(to::Service& to_service);
  ~ReplicatedKV();
  // The service holds the replicas' addresses.
  ReplicatedKV(const ReplicatedKV&) = delete;
  ReplicatedKV& operator=(const ReplicatedKV&) = delete;

  // Every entry point taking a processor p throws std::invalid_argument
  // unless 0 <= p < the service's size.

  /// Submit a write at processor p (takes effect when TO delivers it).
  void write(ProcId p, const std::string& key, const std::string& value);

  /// Read at processor p: immediate, from the local replica (sequentially
  /// consistent).
  std::optional<std::string> read(ProcId p, const std::string& key) const;

  /// Atomic (linearizable) read at p: routed through TO; the callback
  /// fires when p delivers its own read marker, with the value at that
  /// point of the common order and the number of writes applied by then.
  using AtomicReadFn =
      std::function<void(const std::optional<std::string>& value, std::size_t applied)>;
  void atomic_read(ProcId p, const std::string& key, AtomicReadFn done);

  /// Atomic reads issued at p whose markers have not come back yet.
  std::size_t atomic_reads_in_flight(ProcId p) const;

  /// Write barrier: a TO-routed no-op marker. The callback fires when p
  /// delivers its own marker; at that point p's replica has applied every
  /// write ordered before the marker in this stack's common order — in
  /// particular every write that had already been applied anywhere when the
  /// barrier was issued. One barrier fences one stack only; the cross-shard
  /// recipe (docs/SHARDING.md) inserts it per shard: a writer barriers
  /// shard A between a write to A and a later write to B, a reader barriers
  /// shard A after observing the B-write and before reading A.
  using BarrierFn = std::function<void(std::size_t applied)>;
  void barrier(ProcId p, BarrierFn done);

  /// Barriers issued at p whose markers have not come back yet.
  std::size_t barriers_in_flight(ProcId p) const;

  /// Compare-and-swap: set key to `desired` iff its value equals `expected`
  /// (nullopt = key absent) *at the operation's position in the common
  /// order*. Every replica evaluates the same deterministic outcome; the
  /// issuing replica reports it through the callback. This is the classic
  /// consensus-strength primitive built for free on totally ordered
  /// broadcast (the replicated-state-machine payoff of footnote 3).
  using CasFn = std::function<void(bool succeeded)>;
  void cas(ProcId p, const std::string& key, const std::optional<std::string>& expected,
           const std::string& desired, CasFn done);

  /// The local replica store of p.
  const Store& store(ProcId p) const;

  /// Updates (writes and successful CAS) applied at p so far.
  std::size_t applied_count(ProcId p) const;

  /// Writes submitted at p that have not yet been applied at p.
  std::size_t writes_in_flight(ProcId p) const;

  /// Apply tap: `fn` is called synchronously after each update a replica
  /// applies, in that replica's delivery order, with the store and
  /// applied_count already showing it. Replaces any earlier tap; an empty
  /// fn detaches it.
  using ApplyFn = std::function<void(ProcId replica, const AppliedWrite& w)>;
  void on_apply(ApplyFn fn);

 private:
  class Replica;
  Replica& at(ProcId p, const char* what);
  const Replica& at(ProcId p, const char* what) const;

  to::Service* to_;
  ApplyFn tap_;
  std::vector<Replica> replicas_;  // one per processor, attached to to_
};

/// One delivered operation, parsed in place: every view borrows the bytes
/// it was parsed from, so it lives only as long as they do.
struct OpView {
  enum class Kind : std::uint8_t { kWrite = 1, kReadMarker = 2, kCas = 3, kBarrier = 4 };
  Kind kind = Kind::kBarrier;
  std::string_view key;                      // write, CAS, read marker
  std::string_view value;                    // write: the value; CAS: desired
  std::optional<std::string_view> expected;  // CAS: nullopt = key absent
};

/// The one parser of the four operation kinds carried as TO data values.
/// nullopt for foreign or malformed bytes: empty input, an unknown op byte,
/// a truncated length, a length past the end, or trailing bytes.
std::optional<OpView> parse_op(std::string_view encoded);

/// Wire format of operations carried as TO data values: a write (key,
/// value) or a read marker (key). decode returns nullopt for foreign data.
core::Value encode_write(const std::string& key, const std::string& value);
std::optional<std::pair<std::string, std::string>> decode_write(const core::Value& v);
core::Value encode_read_marker(const std::string& key);
std::optional<std::string> decode_read_marker(const core::Value& v);

}  // namespace vsg::app
