#include "vstoto/wire.hpp"

namespace vsg::vstoto {

namespace {

/// The one writer of a VSTOTO payload (tag byte, then the codec body), over
/// either sink: counting for encoded_message_size, writing for
/// encode_message.
template <class Out>
void write_message(Out& e, const Message& m) {
  if (const auto* lv = std::get_if<LabeledValue>(&m)) {
    e.u8(kTagLabeledValue);
    wire::Codec<core::Label>::encode(e, lv->label);
    e.vstr(lv->value);
  } else if (const auto* x = std::get_if<core::Summary>(&m)) {
    e.u8(kTagSummary);
    wire::Codec<core::Summary>::encode(e, *x);
  } else if (const auto* g = std::get_if<core::SummaryDigest>(&m)) {
    e.u8(kTagDigest);
    wire::Codec<core::SummaryDigest>::encode(e, *g);
  } else {
    e.u8(kTagDelta);
    wire::Codec<core::SummaryDelta>::encode(e, std::get<core::SummaryDelta>(m));
  }
}

}  // namespace

std::size_t encoded_message_size(const Message& m) {
  util::SizeCounter n;
  write_message(n, m);
  return n.size();
}

util::Buffer encode_message(const Message& m) {
  util::Encoder e;
  e.reserve(encoded_message_size(m));
  write_message(e, m);
  return e.finish();
}

wire::DecodeOutcome<Message> decode_message_ex(util::BufferView bytes) {
  // util::unchecked_decode() re-enables the historical accept-anything bug
  // (truncated input decodes as a zero-filled message) for chaos-oracle demos.
  const bool strict = !util::unchecked_decode();
  wire::DecodeOutcome<Message> out;
  if (bytes.empty()) {
    out.error = "empty VSTOTO payload";
    return out;
  }
  util::Decoder d(bytes);
  const std::uint8_t tag = d.u8();
  switch (tag) {
    case kTagLabeledValue: {
      LabeledValue lv;
      lv.label = wire::Codec<core::Label>::decode(d);
      lv.value = d.vstr();
      if (strict && !d.complete()) {
        out.error = "truncated or oversized labeled-value payload";
        return out;
      }
      out.value = Message{std::move(lv)};
      return out;
    }
    case kTagSummary: {
      core::Summary x = wire::Codec<core::Summary>::decode(d);
      if (strict && !d.complete()) {
        out.error = "truncated or oversized summary payload";
        return out;
      }
      out.value = Message{std::move(x)};
      return out;
    }
    case kTagDigest: {
      core::SummaryDigest g = wire::Codec<core::SummaryDigest>::decode(d);
      if (strict && !d.complete()) {
        out.error = "truncated or oversized digest payload";
        return out;
      }
      out.value = Message{std::move(g)};
      return out;
    }
    case kTagDelta: {
      core::SummaryDelta dl = wire::Codec<core::SummaryDelta>::decode(d);
      if (strict && !d.complete()) {
        out.error = "truncated or oversized delta payload";
        return out;
      }
      out.value = Message{std::move(dl)};
      return out;
    }
    default:
      out.error = "unknown VSTOTO payload tag " + std::to_string(tag) +
                  " (known tags 1..4; see docs/WIRE.md)";
      return out;
  }
}

wire::DecodeOutcome<core::Label> decode_label_ex(util::BufferView bytes) {
  // Under util::unchecked_decode() the length checks lapse exactly as in
  // decode_message_ex, so both read the same label from the same bytes.
  const bool strict = !util::unchecked_decode();
  wire::DecodeOutcome<core::Label> out;
  util::Decoder d(bytes);
  if (d.u8() != kTagLabeledValue) {
    out.error = "not a labeled-value payload";
    return out;
  }
  const core::Label l = wire::Codec<core::Label>::decode(d);
  d.vraw_view();
  if (strict && !d.complete()) {
    out.error = "truncated or oversized labeled-value payload";
    return out;
  }
  out.value = l;
  return out;
}

}  // namespace vsg::vstoto
