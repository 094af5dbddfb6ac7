#pragma once

// Baseline: sequencer-based totally ordered broadcast WITHOUT group
// membership — the classic Isis-era design the paper positions itself
// against ("The Isis system was designed for an environment where ...
// the network does not partition", Section 1).
//
// Processor 0 is the fixed sequencer: every bcast is forwarded to it, it
// stamps a global sequence number and rebroadcasts; receivers deliver in
// stamp order, buffering gaps and NACKing missing stamps on a timer (the
// sequencer keeps full history for retransmission).
//
// Safety: its traces satisfy the same TO specification (one total order,
// per-sender FIFO via sequencer-side per-sender queues? no — FIFO holds
// because each sender's values reach the sequencer over one FIFO-by-
// retransmission channel; see note below). Liveness: NONE of the paper's
// conditional guarantees hold under partition — any component without the
// sequencer stalls completely, and the sequencer's component delivers only
// its own submissions. bench_baseline compares this against VStoTO, which
// keeps every quorum component live and reconciles on merge.
//
// Note on per-sender FIFO: the network may reorder two submissions from
// one sender in flight to the sequencer, which would break TO's
// per-sender-order requirement. Senders therefore tag submissions with a
// per-sender sequence number and the sequencer orders each sender's
// stream by it (buffering gaps), exactly like a FIFO channel
// implementation would.

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "to/service.hpp"
#include "trace/recorder.hpp"

namespace vsg::to {

struct SequencerConfig {
  /// The fixed sequencer processor.
  ProcId sequencer = 0;
  /// Receivers NACK missing stamps at this interval.
  sim::Time nack_interval = sim::msec(50);
};

/// The sequencer protocol's frames: u32 checksum | u32 body length | body,
/// the body a tag byte and its fields. Each body writer runs once over a
/// util::SizeCounter to size the reserve and once over the Encoder, so a
/// frame costs one allocation.
util::Buffer encode_submit(std::uint64_t seq, const core::Value& a);
util::Buffer encode_stamped(std::uint64_t seq, ProcId origin, const core::Value& a);
util::Buffer encode_nack(std::uint64_t from);

class SequencerTO final : public Service {
 public:
  SequencerTO(sim::Simulator& simulator, net::Network& network, trace::Recorder& recorder,
              SequencerConfig config);

  int size() const override { return network_->size(); }
  void bcast(ProcId p, core::Value a) override;
  void attach(ProcId p, Client& client) override;
  void set_delivery(DeliveryFn fn) override { delivery_ = std::move(fn); }

  /// Values delivered at p so far (origin, value), in order.
  const std::vector<std::pair<ProcId, core::Value>>& delivered(ProcId p) const {
    return delivered_[static_cast<std::size_t>(p)];
  }

 private:
  struct Stamped {
    std::uint64_t seq;
    ProcId origin;
    core::Value value;
  };

  void on_packet(ProcId me, ProcId src, const util::Buffer& packet);
  void sequencer_admit(ProcId origin, std::uint64_t sender_seq, core::Value a);
  void stamp_and_broadcast(ProcId origin, core::Value a);
  void receiver_accept(ProcId me, const Stamped& s);
  void nack_tick(ProcId me);

  sim::Simulator* sim_;
  net::Network* network_;
  trace::Recorder* recorder_;
  SequencerConfig config_;
  DeliveryFn delivery_;

  // Sender side: per-sender submission counters.
  std::vector<std::uint64_t> sender_seq_;

  // Sequencer side.
  std::uint64_t next_stamp_ = 1;
  std::vector<std::uint64_t> admitted_;                      // per-sender next expected
  std::map<std::pair<ProcId, std::uint64_t>, core::Value> admit_buffer_;  // out-of-order
  std::vector<Stamped> history_;                             // for retransmission

  // Receiver side.
  std::vector<std::uint64_t> next_deliver_;                  // per-receiver next stamp
  std::vector<std::map<std::uint64_t, Stamped>> reorder_;    // per-receiver gap buffer
  std::vector<std::vector<std::pair<ProcId, core::Value>>> delivered_;
  std::vector<Client*> clients_;  // per-processor delivery clients
};

}  // namespace vsg::to
