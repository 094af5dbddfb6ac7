#include "to/sequencer_to.hpp"

#include <cassert>

#include "util/hash.hpp"
#include "util/serde.hpp"

namespace vsg::to {
namespace {

constexpr std::uint8_t kMsgSubmit = 1;   // sender -> sequencer
constexpr std::uint8_t kMsgStamped = 2;  // sequencer -> everyone
constexpr std::uint8_t kMsgNack = 3;     // receiver -> sequencer

// Checksum framing (u32 checksum | u32 length | body) built in a single
// buffer: `write_body(sink)` runs once over a SizeCounter to size the
// reserve, then over the Encoder after a placeholder checksum, which is
// back-patched.
template <class WriteBody>
util::Buffer frame(const WriteBody& write_body) {
  util::SizeCounter body_size;
  write_body(body_size);
  util::Encoder e;
  e.reserve(8 + body_size.size());
  e.u32(0);  // checksum placeholder
  e.u32(static_cast<std::uint32_t>(body_size.size()));
  write_body(e);
  e.patch_u32(0, static_cast<std::uint32_t>(
                     util::fnv1a(util::BufferView(e.bytes().data() + 8, e.size() - 8))));
  return e.finish();
}

std::optional<util::Buffer> unframe(const util::Buffer& packet) {
  util::Decoder d(packet);
  const std::uint32_t checksum = d.u32();
  util::Buffer body = d.raw_buffer();  // zero-copy slice of packet
  if (!d.complete()) return std::nullopt;
  if (checksum != static_cast<std::uint32_t>(util::fnv1a(body.view()))) return std::nullopt;
  return body;
}

}  // namespace

util::Buffer encode_submit(std::uint64_t seq, const core::Value& a) {
  return frame([&](auto& e) {
    e.u8(kMsgSubmit);
    e.u64(seq);
    e.str(a);
  });
}

util::Buffer encode_stamped(std::uint64_t seq, ProcId origin, const core::Value& a) {
  return frame([&](auto& e) {
    e.u8(kMsgStamped);
    e.u64(seq);
    e.u32(static_cast<std::uint32_t>(origin));
    e.str(a);
  });
}

util::Buffer encode_nack(std::uint64_t from) {
  return frame([&](auto& e) {
    e.u8(kMsgNack);
    e.u64(from);
  });
}

SequencerTO::SequencerTO(sim::Simulator& simulator, net::Network& network,
                         trace::Recorder& recorder, SequencerConfig config)
    : sim_(&simulator),
      network_(&network),
      recorder_(&recorder),
      config_(config),
      sender_seq_(static_cast<std::size_t>(network.size()), 0),
      admitted_(static_cast<std::size_t>(network.size()), 1),
      next_deliver_(static_cast<std::size_t>(network.size()), 1),
      reorder_(static_cast<std::size_t>(network.size())),
      delivered_(static_cast<std::size_t>(network.size())),
      clients_(static_cast<std::size_t>(network.size()), nullptr) {
  assert(config_.sequencer >= 0 && config_.sequencer < network.size());
  for (ProcId p = 0; p < network.size(); ++p) {
    network_->attach(p, [this, p](ProcId src, const util::Buffer& pkt) {
      on_packet(p, src, pkt);
    });
    sim_->after(config_.nack_interval + p, [this, p] { nack_tick(p); });
  }
}

void SequencerTO::bcast(ProcId p, core::Value a) {
  recorder_->record(trace::BcastEvent{p, a});
  const std::uint64_t seq = ++sender_seq_[static_cast<std::size_t>(p)];
  if (p == config_.sequencer) {
    sequencer_admit(p, seq, std::move(a));
    return;
  }
  network_->send(p, config_.sequencer, encode_submit(seq, a));
}

void SequencerTO::sequencer_admit(ProcId origin, std::uint64_t sender_seq, core::Value a) {
  // Admit each sender's stream in submission order (buffer gaps), so the
  // global order respects per-sender FIFO even if the network reordered.
  auto& expected = admitted_[static_cast<std::size_t>(origin)];
  if (sender_seq < expected) return;  // duplicate
  admit_buffer_[{origin, sender_seq}] = std::move(a);
  for (;;) {
    const auto it = admit_buffer_.find({origin, expected});
    if (it == admit_buffer_.end()) break;
    stamp_and_broadcast(origin, std::move(it->second));
    admit_buffer_.erase(it);
    ++expected;
  }
}

void SequencerTO::stamp_and_broadcast(ProcId origin, core::Value a) {
  const Stamped stamped{next_stamp_++, origin, std::move(a)};
  history_.push_back(stamped);
  // One shared buffer for the whole rebroadcast.
  std::vector<ProcId> dests;
  for (ProcId q = 0; q < network_->size(); ++q)
    if (q != config_.sequencer) dests.push_back(q);
  if (!dests.empty())
    network_->multicast(config_.sequencer, dests,
                        encode_stamped(stamped.seq, stamped.origin, stamped.value));
  receiver_accept(config_.sequencer, stamped);
}

void SequencerTO::attach(ProcId p, Client& client) {
  assert(p >= 0 && p < size());
  clients_[static_cast<std::size_t>(p)] = &client;
}

void SequencerTO::receiver_accept(ProcId me, const Stamped& s) {
  auto& next = next_deliver_[static_cast<std::size_t>(me)];
  if (s.seq < next) return;  // duplicate (retransmission)
  reorder_[static_cast<std::size_t>(me)].emplace(s.seq, s);
  auto& pending = reorder_[static_cast<std::size_t>(me)];
  for (;;) {
    const auto it = pending.find(next);
    if (it == pending.end()) break;
    const Stamped& ready = it->second;
    recorder_->record(trace::BrcvEvent{ready.origin, me, ready.value});
    delivered_[static_cast<std::size_t>(me)].emplace_back(ready.origin, ready.value);
    if (clients_[static_cast<std::size_t>(me)] != nullptr)
      clients_[static_cast<std::size_t>(me)]->on_brcv(ready.origin, ready.value);
    if (delivery_) delivery_(me, ready.origin, ready.value);
    pending.erase(it);
    ++next;
  }
}

void SequencerTO::on_packet(ProcId me, ProcId src, const util::Buffer& packet) {
  const auto body = unframe(packet);
  if (!body.has_value()) return;
  util::Decoder d(*body);
  const std::uint8_t tag = d.u8();
  if (tag == kMsgSubmit && me == config_.sequencer) {
    const std::uint64_t seq = d.u64();
    core::Value a = d.str();
    if (d.complete()) sequencer_admit(src, seq, std::move(a));
  } else if (tag == kMsgStamped) {
    Stamped s;
    s.seq = d.u64();
    s.origin = static_cast<ProcId>(d.u32());
    s.value = d.str();
    if (d.complete()) receiver_accept(me, s);
  } else if (tag == kMsgNack && me == config_.sequencer) {
    const std::uint64_t from = d.u64();
    if (!d.complete()) return;
    // Retransmit everything the receiver is missing (bounded burst).
    for (std::uint64_t seq = from; seq < next_stamp_ && seq < from + 64; ++seq) {
      const Stamped& s = history_[static_cast<std::size_t>(seq - 1)];
      network_->send(config_.sequencer, src, encode_stamped(s.seq, s.origin, s.value));
    }
  }
}

void SequencerTO::nack_tick(ProcId me) {
  if (me != config_.sequencer) {
    // Ask for anything missing: either a gap (buffered ahead) or possibly
    // stamps we have never seen. We cannot know about unseen stamps, so we
    // nack whenever a gap exists, and probe blindly otherwise — a real
    // implementation piggybacks the latest stamp on heartbeats; our probe
    // asks from next_deliver_, which the sequencer answers only if there
    // is history beyond it.
    network_->send(me, config_.sequencer,
                   encode_nack(next_deliver_[static_cast<std::size_t>(me)]));
  }
  sim_->after(config_.nack_interval, [this, me] { nack_tick(me); });
}

}  // namespace vsg::to
