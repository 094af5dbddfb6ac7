#include "obs/health.hpp"

#include <algorithm>

namespace vsg::obs {

namespace {

const std::uint64_t* counter_value(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = std::lower_bound(
      snap.counters.begin(), snap.counters.end(), name,
      [](const auto& e, const std::string& n) { return e.first < n; });
  return it != snap.counters.end() && it->first == name ? &it->second : nullptr;
}

const std::int64_t* gauge_value(const MetricsSnapshot& snap, const std::string& name) {
  const auto it = std::lower_bound(
      snap.gauges.begin(), snap.gauges.end(), name,
      [](const auto& e, const std::string& n) { return e.first < n; });
  return it != snap.gauges.end() && it->first == name ? &it->second : nullptr;
}

}  // namespace

void Health::bind_metrics(MetricsRegistry& registry) {
  ev_stall_ = &registry.counter("health.token_stall");
  ev_growth_ = &registry.counter("health.backlog_growth");
  ev_convergence_ = &registry.counter("health.view_convergence");
}

void Health::emit(const std::string& rule, const std::string& series, sim::Time at,
                  std::string detail, Counter* metric) {
  events_.push_back(HealthEvent{at, rule, series, std::move(detail)});
  bump(metric);
}

void Health::observe(const std::string& series, sim::Time at,
                     const MetricsSnapshot& snap) {
  SeriesState& st = state_[series];
  const bool live = !live_ || live_();

  // --- token_stall -------------------------------------------------------
  // Skipped entirely while the counter is absent (spec-backend Worlds have
  // no ring); present-but-flat-at-zero is a ring that never launched, which
  // does count as a stall.
  const std::uint64_t* rot_ptr =
      cfg_.token_stall ? counter_value(snap, "ring.token_rotations") : nullptr;
  if (cfg_.token_stall && rot_ptr != nullptr) {
    const std::uint64_t rot = *rot_ptr;
    if (!st.seen || rot != st.rotations) {
      st.rotations = rot;
      st.rotation_progress_at = at;
      st.live_since_progress = false;
      st.stall_flagged = false;  // progress re-arms the episode
    }
    // A stall only counts against windows where the liveness probe held:
    // all-members-down quiet periods are expected, not watchdog material.
    if (live) st.live_since_progress = true;
    if (!st.stall_flagged && st.live_since_progress && live &&
        at - st.rotation_progress_at >= cfg_.stall_after) {
      emit("token_stall", series, at,
           "ring.token_rotations flat at " + std::to_string(st.rotations) + " for " +
               std::to_string(at - st.rotation_progress_at) + "us with members live",
           ev_stall_);
      st.stall_flagged = true;
    }
  }

  // --- backlog_growth ----------------------------------------------------
  if (cfg_.backlog_growth) {
    for (const char* name : {"ring.backlog_depth", "to.pending_labels"}) {
      const std::int64_t* v = gauge_value(snap, name);
      if (v == nullptr) continue;
      GaugeWatch& w = st.backlog[name];
      if (st.seen && *v > w.last) {
        ++w.streak;
      } else if (st.seen && *v < w.last) {
        w.streak = 0;
        w.flagged = false;  // drain re-arms the episode
      }
      // Equal samples neither extend nor reset the streak: a plateau is
      // not unbounded growth, but it also is not a drain.
      w.last = *v;
      if (!w.flagged && w.streak >= cfg_.growth_windows) {
        emit("backlog_growth", series, at,
             std::string(name) + " rose for " + std::to_string(w.streak) +
                 " consecutive windows to " + std::to_string(*v),
             ev_growth_);
        w.flagged = true;
      }
    }
  }

  // --- view_convergence --------------------------------------------------
  if (cfg_.view_convergence) {
    const std::uint64_t* r = counter_value(snap, "ring.formation_rounds");
    const std::uint64_t* e = counter_value(snap, "to.primary_established");
    const std::uint64_t rounds = r != nullptr ? *r : 0;
    const std::uint64_t est = e != nullptr ? *e : 0;
    // Arm first, settle second: a window in which formation activity and a
    // primary establishment both land closes its own episode.
    if (st.seen && rounds != st.formation_rounds && !st.awaiting_convergence) {
      st.awaiting_convergence = true;
      st.formation_seen_at = at;
    }
    if (st.seen && est != st.established) {
      // Any primary establishment settles every pending formation episode.
      st.awaiting_convergence = false;
      st.convergence_flagged = false;
    }
    if (st.awaiting_convergence && !st.convergence_flagged &&
        at - st.formation_seen_at >= cfg_.convergence_bound) {
      emit("view_convergence", series, at,
           "formation activity at " + std::to_string(st.formation_seen_at) +
               "us but no primary established within " +
               std::to_string(cfg_.convergence_bound) + "us",
           ev_convergence_);
      st.convergence_flagged = true;
    }
    st.formation_rounds = rounds;
    st.established = est;
  }

  st.seen = true;
}

std::string to_verdict(const HealthEvent& e) {
  return "health: " + e.rule + " [" + e.series + "] at " + std::to_string(e.at) +
         "us: " + e.detail;
}

std::vector<std::string> Health::verdicts() const {
  std::vector<std::string> out;
  out.reserve(events_.size());
  for (const HealthEvent& e : events_) out.push_back(to_verdict(e));
  return out;
}

}  // namespace vsg::obs
