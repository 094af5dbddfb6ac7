#include "app/replicated_kv.hpp"

#include <deque>
#include <stdexcept>

#include "util/serde.hpp"

namespace vsg::app {

namespace {
constexpr std::uint8_t op_byte(OpView::Kind kind) { return static_cast<std::uint8_t>(kind); }

core::Value to_value(const util::Encoder& e) {
  const auto& b = e.bytes();
  return core::Value(b.begin(), b.end());
}

core::Value encode_cas(const std::string& key, const std::optional<std::string>& expected,
                       const std::string& desired) {
  util::Encoder e;
  e.u8(op_byte(OpView::Kind::kCas));
  e.str(key);
  e.boolean(expected.has_value());
  if (expected) e.str(*expected);
  e.str(desired);
  return to_value(e);
}
}  // namespace

std::optional<OpView> parse_op(std::string_view encoded) {
  util::Decoder d(util::BufferView(reinterpret_cast<const std::uint8_t*>(encoded.data()),
                                   encoded.size()));
  OpView op;
  op.kind = static_cast<OpView::Kind>(d.u8());
  switch (op.kind) {
    case OpView::Kind::kWrite:
      op.key = d.str_view();
      op.value = d.str_view();
      break;
    case OpView::Kind::kReadMarker:
      op.key = d.str_view();
      break;
    case OpView::Kind::kCas:
      op.key = d.str_view();
      if (d.boolean()) op.expected = d.str_view();
      op.value = d.str_view();
      break;
    case OpView::Kind::kBarrier:
      break;
    default:
      return std::nullopt;
  }
  if (!d.complete()) return std::nullopt;
  return op;
}

core::Value encode_write(const std::string& key, const std::string& value) {
  util::Encoder e;
  e.u8(op_byte(OpView::Kind::kWrite));
  e.str(key);
  e.str(value);
  return to_value(e);
}

std::optional<std::pair<std::string, std::string>> decode_write(const core::Value& v) {
  const auto op = parse_op(v);
  if (!op || op->kind != OpView::Kind::kWrite) return std::nullopt;
  return std::make_pair(std::string(op->key), std::string(op->value));
}

core::Value encode_read_marker(const std::string& key) {
  util::Encoder e;
  e.u8(op_byte(OpView::Kind::kReadMarker));
  e.str(key);
  return to_value(e);
}

std::optional<std::string> decode_read_marker(const core::Value& v) {
  const auto op = parse_op(v);
  if (!op || op->kind != OpView::Kind::kReadMarker) return std::nullopt;
  return std::string(op->key);
}

// One processor's replica: its store, its counts and the callbacks of the
// markers it issued. Per-sender FIFO brings a replica's own markers back in
// issue order, so each queue's front matches the next marker positionally.
class ReplicatedKV::Replica final : public to::Client {
 public:
  Replica() = default;
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  void on_brcv(ProcId origin, const core::Value& a) override;

  ProcId self = kNoProc;
  const ApplyFn* tap = nullptr;
  Store store;
  std::size_t applied = 0;      // writes and successful CAS applied here
  std::size_t submitted = 0;    // writes submitted here
  std::size_t applied_own = 0;  // of those, applied here
  std::deque<std::pair<std::string, AtomicReadFn>> pending_reads;
  std::deque<CasFn> pending_cas;
  std::deque<BarrierFn> pending_barriers;

 private:
  void apply(ProcId origin, std::string_view key, std::string_view value);
};

void ReplicatedKV::Replica::apply(ProcId origin, std::string_view key, std::string_view value) {
  // An overwrite reuses the slot's string; only a new key creates strings.
  if (const auto it = store.find(key); it != store.end())
    it->second.assign(value);
  else
    store.emplace(std::string(key), std::string(value));
  ++applied;
  if (*tap) (*tap)(self, AppliedWrite{origin, std::string(key), std::string(value)});
}

void ReplicatedKV::Replica::on_brcv(ProcId origin, const core::Value& a) {
  const auto op = parse_op(a);
  if (!op) return;  // foreign data
  switch (op->kind) {
    case OpView::Kind::kWrite:
      apply(origin, op->key, op->value);
      if (origin == self) ++applied_own;
      return;
    case OpView::Kind::kCas: {
      // Every replica evaluates the same outcome at the same position in
      // the common order; success applies the write (and counts like one).
      const auto it = store.find(op->key);
      const bool succeeded = it == store.end() ? !op->expected
                                               : op->expected && *op->expected == it->second;
      if (succeeded) apply(origin, op->key, op->value);
      if (origin != self || pending_cas.empty()) return;
      auto done = std::move(pending_cas.front());
      pending_cas.pop_front();
      if (done) done(succeeded);
      return;
    }
    case OpView::Kind::kBarrier: {
      // A no-op in the common order; only the issuing replica answers.
      if (origin != self || pending_barriers.empty()) return;
      auto done = std::move(pending_barriers.front());
      pending_barriers.pop_front();
      if (done) done(applied);
      return;
    }
    case OpView::Kind::kReadMarker: {
      // Only the issuing replica answers.
      if (origin != self) return;
      if (pending_reads.empty() || pending_reads.front().first != op->key) return;  // foreign
      auto done = std::move(pending_reads.front().second);
      pending_reads.pop_front();
      const auto it = store.find(op->key);
      done(it == store.end() ? std::nullopt : std::optional<std::string>(it->second), applied);
      return;
    }
  }
}

ReplicatedKV::ReplicatedKV(to::Service& to_service)
    : to_(&to_service), replicas_(static_cast<std::size_t>(to_service.size())) {
  for (ProcId p = 0; p < to_->size(); ++p) {
    Replica& r = replicas_[static_cast<std::size_t>(p)];
    r.self = p;
    r.tap = &tap_;
    to_->attach(p, r);
  }
}

ReplicatedKV::~ReplicatedKV() = default;

ReplicatedKV::Replica& ReplicatedKV::at(ProcId p, const char* what) {
  return const_cast<Replica&>(std::as_const(*this).at(p, what));
}

const ReplicatedKV::Replica& ReplicatedKV::at(ProcId p, const char* what) const {
  if (p < 0 || static_cast<std::size_t>(p) >= replicas_.size())
    throw std::invalid_argument("ReplicatedKV::" + std::string(what) + ": processor " +
                                std::to_string(p) + " out of range [0, " +
                                std::to_string(replicas_.size()) + ")");
  return replicas_[static_cast<std::size_t>(p)];
}

void ReplicatedKV::write(ProcId p, const std::string& key, const std::string& value) {
  ++at(p, "write").submitted;
  to_->bcast(p, encode_write(key, value));
}

std::optional<std::string> ReplicatedKV::read(ProcId p, const std::string& key) const {
  const Store& store = at(p, "read").store;
  const auto it = store.find(key);
  if (it == store.end()) return std::nullopt;
  return it->second;
}

void ReplicatedKV::atomic_read(ProcId p, const std::string& key, AtomicReadFn done) {
  at(p, "atomic_read").pending_reads.emplace_back(key, std::move(done));
  to_->bcast(p, encode_read_marker(key));
}

std::size_t ReplicatedKV::atomic_reads_in_flight(ProcId p) const {
  return at(p, "atomic_reads_in_flight").pending_reads.size();
}

void ReplicatedKV::barrier(ProcId p, BarrierFn done) {
  at(p, "barrier").pending_barriers.push_back(std::move(done));
  to_->bcast(p, core::Value{static_cast<char>(op_byte(OpView::Kind::kBarrier))});
}

std::size_t ReplicatedKV::barriers_in_flight(ProcId p) const {
  return at(p, "barriers_in_flight").pending_barriers.size();
}

void ReplicatedKV::cas(ProcId p, const std::string& key,
                       const std::optional<std::string>& expected,
                       const std::string& desired, CasFn done) {
  at(p, "cas").pending_cas.push_back(std::move(done));
  to_->bcast(p, encode_cas(key, expected, desired));
}

const ReplicatedKV::Store& ReplicatedKV::store(ProcId p) const { return at(p, "store").store; }

std::size_t ReplicatedKV::applied_count(ProcId p) const { return at(p, "applied_count").applied; }

std::size_t ReplicatedKV::writes_in_flight(ProcId p) const {
  const Replica& r = at(p, "writes_in_flight");
  return r.submitted - r.applied_own;
}

void ReplicatedKV::on_apply(ApplyFn fn) { tap_ = std::move(fn); }

}  // namespace vsg::app
