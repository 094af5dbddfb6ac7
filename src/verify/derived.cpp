#include "verify/derived.hpp"

#include <algorithm>
#include <set>

#include "util/sequence.hpp"

namespace vsg::verify {

std::optional<core::Summary> payload_summary(util::BufferView payload) {
  auto msg = vstoto::decode_message_ex(payload);
  if (!msg.ok()) return std::nullopt;
  if (const auto* x = std::get_if<core::Summary>(&*msg.value)) return *x;
  return std::nullopt;
}

std::optional<vstoto::LabeledValue> payload_labeled(util::BufferView payload) {
  auto msg = vstoto::decode_message_ex(payload);
  if (!msg.ok()) return std::nullopt;
  if (const auto* lv = std::get_if<vstoto::LabeledValue>(&*msg.value)) return *lv;
  return std::nullopt;
}

std::vector<core::Summary> allstate_pg(const GlobalState& s, ProcId p, const core::ViewId& g) {
  std::vector<core::Summary> out;
  const auto& st = s.st(p);

  // (1) p's local summary when its current view is g.
  if (st.current.has_value() && st.current->id == g)
    out.push_back(s.procs[static_cast<std::size_t>(p)]->local_summary());

  // (2) summaries pending in the VS machine for (p, g).
  for (const auto& payload : s.machine->pending(p, g))
    if (auto x = payload_summary(payload)) out.push_back(std::move(*x));

  // (3) summaries from p in queue[g].
  for (const auto& entry : s.machine->queue(g))
    if (entry.p == p)
      if (auto x = payload_summary(entry.m)) out.push_back(std::move(*x));

  // (4) gotstate(p) at any q currently in view g, read through the one
  // accessor that adds the shared exchange base back (vstoto::got_summary).
  for (ProcId q = 0; q < s.size(); ++q) {
    const auto& stq = s.st(q);
    if (!stq.current.has_value() || !(stq.current->id == g)) continue;
    if (auto x = vstoto::got_summary(stq, p)) out.push_back(std::move(*x));
  }
  return out;
}

std::vector<core::ViewId> relevant_viewids(const GlobalState& s) {
  std::set<core::ViewId> ids;
  for (const auto& g : s.machine->touched_viewids()) ids.insert(g);
  for (ProcId p = 0; p < s.size(); ++p) {
    const auto& st = s.st(p);
    if (st.current.has_value()) ids.insert(st.current->id);
  }
  return std::vector<core::ViewId>(ids.begin(), ids.end());
}

std::vector<core::Summary> allstate_g(const GlobalState& s, const core::ViewId& g) {
  std::vector<core::Summary> out;
  for (ProcId p = 0; p < s.size(); ++p) {
    auto part = allstate_pg(s, p, g);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

std::vector<core::Summary> allstate(const GlobalState& s) {
  std::vector<core::Summary> out;
  for (const auto& g : relevant_viewids(s)) {
    auto part = allstate_g(s, g);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  return out;
}

std::map<core::Label, core::Value> allcontent(const GlobalState& s,
                                              std::vector<std::string>* violations) {
  std::map<core::Label, core::Value> all;
  auto merge = [&](const core::Content& con) {
    for (const auto& [l, a] : con) {
      auto [it, inserted] = all.emplace(l, a);
      if (!inserted && it->second != a && violations != nullptr)
        violations->push_back("Lemma 6.5 violated: label " + core::to_string(l) +
                              " bound to two values");
    }
  };
  for (const auto& x : allstate(s)) merge(x.con);
  // Labeled values in flight also carry content bindings; include them so
  // allcontent truly is "all the information available anywhere".
  for (const auto& g : relevant_viewids(s)) {
    for (const auto& entry : s.machine->queue(g))
      if (auto lv = payload_labeled(entry.m)) merge({{lv->label, lv->value}});
    for (ProcId p = 0; p < s.size(); ++p)
      for (const auto& payload : s.machine->pending(p, g))
        if (auto lv = payload_labeled(payload)) merge({{lv->label, lv->value}});
  }
  return all;
}

std::optional<std::vector<core::Label>> allconfirm(const GlobalState& s,
                                                   std::vector<std::string>* violations) {
  std::vector<std::vector<core::Label>> prefixes;
  for (const auto& x : allstate(s)) prefixes.push_back(core::confirmed_prefix(x));
  auto result = util::lub(prefixes);
  if (!result.has_value() && violations != nullptr)
    violations->push_back("Corollary 6.24 violated: confirm prefixes are inconsistent");
  return result;
}

}  // namespace vsg::verify
