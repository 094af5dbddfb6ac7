#include "trace/events.hpp"

#include <sstream>

namespace vsg::trace {
namespace {

std::string hex_prefix(util::BufferView b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  const std::size_t n = b.size() < 6 ? b.size() : 6;
  for (std::size_t i = 0; i < n; ++i) {
    s.push_back(digits[b[i] >> 4]);
    s.push_back(digits[b[i] & 0xf]);
  }
  if (b.size() > n) s += "..";
  return s;
}

struct Describer {
  std::ostringstream os;

  void operator()(const BcastEvent& e) { os << "bcast(" << e.a << ")_" << e.p; }
  void operator()(const BrcvEvent& e) {
    os << "brcv(" << e.a << ")_{" << e.origin << "," << e.dest << "}";
  }
  void operator()(const GpsndEvent& e) { os << "gpsnd(" << hex_prefix(e.m) << ")_" << e.p; }
  void operator()(const GprcvEvent& e) {
    os << "gprcv(" << hex_prefix(e.m) << ")_{" << e.src << "," << e.dst << "}";
  }
  void operator()(const SafeEvent& e) {
    os << "safe(" << hex_prefix(e.m) << ")_{" << e.src << "," << e.dst << "}";
  }
  void operator()(const NewViewEvent& e) {
    os << "newview(" << core::to_string(e.view()) << ")_" << e.p;
  }
  void operator()(const sim::StatusEvent& e) {
    os << to_string(e.status) << "_";
    if (e.is_link)
      os << "{" << e.p << "," << e.q << "}";
    else
      os << e.p;
  }
};

}  // namespace

std::string describe(const TimedEvent& te) {
  Describer d;
  d.os << "@" << te.at << " ";
  std::visit(d, te.event);
  return d.os.str();
}

}  // namespace vsg::trace
