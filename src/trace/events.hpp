#pragma once

// Timed trace events at the two service interfaces of Figure 2, plus the
// failure-status input actions of Figure 4.
//
// Everything the property checkers (spec/, props/) consume is one of these
// records; checkers never look inside implementations. Payloads at the VS
// interface are the raw bytes handed to gpsnd, so event identity and
// correlation work for any client protocol.

#include <deque>
#include <memory>
#include <string>
#include <variant>

#include "core/types.hpp"
#include "sim/failure_table.hpp"
#include "sim/time.hpp"
#include "util/buffer.hpp"
#include "util/serde.hpp"

namespace vsg::trace {

/// bcast(a)_p — client at p submits value a to the TO service.
struct BcastEvent {
  ProcId p = kNoProc;
  core::Value a;
};

/// brcv(a)_{p,q} — delivery at q of value a originated at p.
struct BrcvEvent {
  ProcId origin = kNoProc;
  ProcId dest = kNoProc;
  core::Value a;
};

/// gpsnd(m)_p — client at p hands message m to the VS service. The recorder
/// stores a shared reference to the submitted buffer (its storage id), not a
/// copy of the bytes.
struct GpsndEvent {
  ProcId p = kNoProc;
  util::Buffer m;
};

/// gprcv(m)_{p,q} — VS delivers to q the message m sent by p.
struct GprcvEvent {
  ProcId src = kNoProc;
  ProcId dst = kNoProc;
  util::Buffer m;
};

/// safe(m)_{p,q} — VS notifies q that m (sent by p) reached every member of
/// q's current view.
struct SafeEvent {
  ProcId src = kNoProc;
  ProcId dst = kNoProc;
  util::Buffer m;
};

/// newview(v)_p — VS informs p of its new current view. The view, member
/// set included, lives behind a shared pointer, so this alternative is no
/// larger than the value events and does not size every stored event.
struct NewViewEvent {
  NewViewEvent(ProcId proc, core::View v)
      : p(proc), view_(std::make_shared<const core::View>(std::move(v))) {}

  const core::View& view() const noexcept { return *view_; }

  ProcId p = kNoProc;

 private:
  std::shared_ptr<const core::View> view_;
};
static_assert(sizeof(NewViewEvent) <= sizeof(BrcvEvent),
              "a newview must not make every event larger than a delivery");

/// One event, any interface. sim::StatusEvent covers good/bad/ugly actions.
using Event = std::variant<BcastEvent, BrcvEvent, GpsndEvent, GprcvEvent, SafeEvent,
                           NewViewEvent, sim::StatusEvent>;

struct TimedEvent {
  sim::Time at = 0;
  Event event;
};

/// The stored timed trace, in recording order. A deque grows a node at a
/// time: no doubling copy, at most one node of slack, and a reference to a
/// stored event stays valid while later events are appended.
using EventLog = std::deque<TimedEvent>;

/// Typed access: pointer to the alternative if the event holds it.
template <typename T>
const T* as(const TimedEvent& te) {
  return std::get_if<T>(&te.event);
}

std::string describe(const TimedEvent& te);

}  // namespace vsg::trace
