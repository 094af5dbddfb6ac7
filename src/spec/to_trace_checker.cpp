#include "spec/to_trace_checker.hpp"

#include <cassert>
#include <sstream>

#include "trace/recorder.hpp"

namespace vsg::spec {

TOTraceChecker::TOTraceChecker(int n)
    : n_(n),
      sent_(static_cast<std::size_t>(n)),
      ordered_per_sender_(static_cast<std::size_t>(n), 0),
      recv_idx_(static_cast<std::size_t>(n), 0) {
  assert(n > 0);
}

void TOTraceChecker::attach(trace::Recorder& recorder) {
  recorder.subscribe([this](const trace::TimedEvent& te) { on_event(te); });
}

void TOTraceChecker::complain(const std::string& what) {
  std::ostringstream os;
  os << "TO safety violation (event " << events_seen_ << "): " << what;
  violations_.push_back(os.str());
}

void TOTraceChecker::on_event(const trace::TimedEvent& te) {
  ++events_seen_;
  if (const auto* b = trace::as<trace::BcastEvent>(te)) {
    if (b->p < 0 || b->p >= n_) {
      complain("bcast at unknown processor");
      return;
    }
    sent_[static_cast<std::size_t>(b->p)].push_back(b->a);
    return;
  }
  const auto* r = trace::as<trace::BrcvEvent>(te);
  if (r == nullptr) return;

  if (r->dest < 0 || r->dest >= n_ || r->origin < 0 || r->origin >= n_) {
    complain("brcv with unknown processor");
    return;
  }
  auto& pos = recv_idx_[static_cast<std::size_t>(r->dest)];
  if (pos < global_.size()) {
    // Receiver extends its prefix of the already-reconstructed order.
    const auto& expect = global_[pos];
    if (expect.first != r->origin || expect.second != r->a) {
      std::ostringstream os;
      os << "receiver " << r->dest << " delivered (" << r->a << " from " << r->origin
         << ") at position " << pos << " but the common order has (" << expect.second
         << " from " << expect.first << ")";
      complain(os.str());
      return;  // do not advance: subsequent checks stay meaningful
    }
  } else {
    // Receiver is ahead of everyone: it defines the next element of the
    // common order. Integrity + per-sender FIFO: this must be the next
    // not-yet-ordered value broadcast by its origin.
    const auto origin = static_cast<std::size_t>(r->origin);
    const std::size_t k = ordered_per_sender_[origin];
    if (k >= sent_[origin].size()) {
      std::ostringstream os;
      os << "delivery of (" << r->a << " from " << r->origin
         << ") has no corresponding bcast (only " << sent_[origin].size() << " sent)";
      complain(os.str());
      return;
    }
    if (sent_[origin][k] != r->a) {
      std::ostringstream os;
      os << "per-sender FIFO violated: sender " << r->origin << "'s value #" << k
         << " is '" << sent_[origin][k] << "' but '" << r->a << "' was ordered";
      complain(os.str());
      return;
    }
    ++ordered_per_sender_[origin];
    global_.emplace_back(r->origin, r->a);
  }
  ++pos;
}

void TOTraceChecker::check_all(const trace::EventLog& trace) {
  for (const auto& te : trace) on_event(te);
}

std::size_t TOTraceChecker::delivered(ProcId q) const {
  assert(q >= 0 && q < n_);
  return recv_idx_[static_cast<std::size_t>(q)];
}

}  // namespace vsg::spec
