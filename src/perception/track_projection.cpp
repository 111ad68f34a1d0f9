#include "perception/track_projection.hpp"

#include <algorithm>

#include "perception/track_liveness.hpp"

namespace rt::perception {

void TrackProjector::project_into(const std::vector<TrackView>& tracks,
                                  std::vector<WorldTrack>& out) {
  out.clear();
  out.reserve(tracks.size());
  for (const TrackView& t : tracks) {
    const auto pos = camera_.back_project(t.bbox);
    if (!pos) continue;

    WorldTrack w;
    w.track_id = t.track_id;
    w.cls = t.cls;
    w.rel_position = *pos;
    w.hits = t.hits;
    w.matched_this_frame = t.matched_this_frame;
    w.last_truth_id = t.last_truth_id;

    History& h = history_[t.track_id];
    if (h.has_velocity) {
      math::Vec2 raw = (*pos - h.last_position) / dt_;
      // Physical plausibility clamp: road users do not exceed ~40 m/s
      // longitudinally or ~5 m/s laterally; larger jumps are estimator
      // noise (range-from-bbox errors), not motion.
      raw.x = std::clamp(raw.x, -40.0, 40.0);
      raw.y = std::clamp(raw.y, -5.0, 5.0);
      h.velocity = h.velocity * (1.0 - alpha_) + raw * alpha_;
    } else {
      h.velocity = {0.0, 0.0};
      h.has_velocity = true;
    }
    h.last_position = *pos;
    w.rel_velocity = h.velocity;
    out.push_back(w);
  }
  // Forget vanished tracks so their stale velocity never leaks into a
  // recycled id.
  erase_dead_tracks(history_, out,
                    [](const WorldTrack& w) { return w.track_id; });
}

}  // namespace rt::perception
