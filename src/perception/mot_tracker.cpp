#include "perception/mot_tracker.hpp"

#include <algorithm>

#include "perception/hungarian.hpp"

namespace rt::perception {

MotTracker::MotTracker(double dt, MotConfig config, DetectorNoiseModel noise)
    : dt_(dt), config_(config), noise_(noise) {}

TrackView MotTracker::view_of(const BboxTrack& t, bool matched) {
  TrackView v;
  v.track_id = t.id();
  v.cls = t.cls();
  v.bbox = t.bbox();
  v.predicted_bbox = t.predicted_bbox();
  v.vu = t.vu();
  v.vv = t.vv();
  v.hits = t.hits();
  v.consecutive_misses = t.consecutive_misses();
  v.matched_this_frame = matched;
  v.last_truth_id = t.last_truth_id();
  v.innovation_m2 = matched ? t.last_innovation_m2() : -1.0;
  v.innovation_x = matched ? t.last_innovation_x() : 0.0;
  v.innovation_y = matched ? t.last_innovation_y() : 0.0;
  return v;
}

void MotTracker::update_into(const CameraFrame& frame,
                             std::vector<TrackView>& out) {
  // 1. Time update for every live track.
  for (BboxTrack& t : tracks_) t.predict();

  const auto& dets = frame.detections;
  auto& det_to_track = det_to_track_;
  auto& track_matched = track_matched_;
  det_to_track.assign(dets.size(), -1);
  track_matched.assign(tracks_.size(), 0);

  // 2. Hungarian association on IoU cost between detections and predicted
  //    track boxes, with class consistency and the gate from config. The
  //    cost matrix and solver scratch are members reused every frame.
  if (!dets.empty() && !tracks_.empty()) {
    math::Matrix& cost = cost_scratch_;
    cost.resize(dets.size(), tracks_.size());
    for (std::size_t i = 0; i < dets.size(); ++i) {
      for (std::size_t j = 0; j < tracks_.size(); ++j) {
        const double overlap =
            math::iou(dets[i].bbox, tracks_[j].predicted_bbox());
        const bool class_ok = dets[i].cls == tracks_[j].cls();
        cost(i, j) = class_ok ? 1.0 - overlap : 1e3;
      }
    }
    solve_assignment_into(cost, assign_scratch_, assign_result_scratch_);
    const AssignmentResult& res = assign_result_scratch_;
    for (std::size_t i = 0; i < dets.size(); ++i) {
      const int j = res.assignment[i];
      if (j < 0) continue;
      if (cost(i, static_cast<std::size_t>(j)) > config_.max_cost) continue;
      // Innovation gating against the characterized class noise: outlier
      // detections (the population's heavy tail) must not drag the filter.
      const auto& track = tracks_[static_cast<std::size_t>(j)];
      const auto& cls_noise = noise_.for_class(dets[i].cls);
      const math::Bbox& pred = track.predicted_bbox();
      const double ex =
          (dets[i].bbox.cx - pred.cx) / std::max(1.0, dets[i].bbox.w);
      const double ey =
          (dets[i].bbox.cy - pred.cy) / std::max(1.0, dets[i].bbox.h);
      const double gx = config_.innovation_gate_mult *
                        (std::abs(cls_noise.center_x.mu) +
                         cls_noise.center_x.sigma);
      const double gy = config_.innovation_gate_mult *
                        (std::abs(cls_noise.center_y.mu) +
                         cls_noise.center_y.sigma);
      // Skip the gate while the track velocity is still locking in (young
      // tracks legitimately show large innovations).
      if (track.hits() >= 3 &&
          (std::abs(ex) > gx || std::abs(ey) > gy)) {
        continue;
      }
      det_to_track[i] = j;
      track_matched[static_cast<std::size_t>(j)] = 1;
    }
  }

  // 3. Measurement updates and track spawning.
  for (std::size_t i = 0; i < dets.size(); ++i) {
    if (det_to_track[i] >= 0) {
      tracks_[static_cast<std::size_t>(det_to_track[i])].update(dets[i]);
    } else {
      tracks_.emplace_back(next_id_++, dets[i], dt_,
                            noise_.for_class(dets[i].cls));
      track_matched.push_back(1);
    }
  }
  for (std::size_t j = 0; j < tracks_.size(); ++j) {
    if (!track_matched[j]) tracks_[j].mark_missed();
  }

  // 4. Retire stale tracks, compacting in place.
  std::size_t kept = 0;
  matched_flags_.resize(tracks_.size());
  for (std::size_t j = 0; j < tracks_.size(); ++j) {
    if (tracks_[j].consecutive_misses() <= config_.max_misses) {
      if (kept != j) tracks_[kept] = tracks_[j];
      matched_flags_[kept] = track_matched[j];
      ++kept;
    }
  }
  tracks_.erase(tracks_.begin() + static_cast<std::ptrdiff_t>(kept),
                tracks_.end());
  matched_flags_.resize(kept);

  // 5. Report confirmed tracks.
  out.clear();
  out.reserve(tracks_.size());
  for (std::size_t j = 0; j < tracks_.size(); ++j) {
    if (tracks_[j].hits() >= config_.min_hits) {
      out.push_back(view_of(tracks_[j], matched_flags_[j] != 0));
    }
  }
}

std::vector<TrackView> MotTracker::live_tracks() const {
  std::vector<TrackView> out;
  out.reserve(tracks_.size());
  for (std::size_t j = 0; j < tracks_.size(); ++j) {
    const bool matched = j < matched_flags_.size() && matched_flags_[j] != 0;
    out.push_back(view_of(tracks_[j], matched));
  }
  return out;
}

std::optional<math::Bbox> MotTracker::predict_next_bbox(int track_id) const {
  for (const BboxTrack& t : tracks_) {
    if (t.id() != track_id) continue;
    math::Bbox b = t.bbox();
    return b.translated(t.vu() * dt_, t.vv() * dt_);
  }
  return std::nullopt;
}

std::optional<TrackView> MotTracker::track(int track_id) const {
  for (std::size_t j = 0; j < tracks_.size(); ++j) {
    if (tracks_[j].id() == track_id) {
      const bool matched =
          j < matched_flags_.size() && matched_flags_[j] != 0;
      return view_of(tracks_[j], matched);
    }
  }
  return std::nullopt;
}

}  // namespace rt::perception
