#include <gtest/gtest.h>

#include <algorithm>

#include "perception/camera_model.hpp"
#include "perception/detector_model.hpp"
#include "perception/fusion.hpp"
#include "perception/hungarian.hpp"
#include "perception/kalman_filter.hpp"
#include "stats/hash.hpp"
#include "perception/lidar_model.hpp"
#include "perception/lidar_tracker.hpp"
#include "perception/mot_tracker.hpp"
#include "perception/perception_system.hpp"
#include "perception/track_projection.hpp"

namespace rt::perception {
namespace {

sim::GroundTruthObject make_object(double x, double y, sim::ActorType type) {
  sim::GroundTruthObject g;
  g.id = 1;
  g.type = type;
  g.dims = sim::default_dimensions(type);
  g.rel_position = {x, y};
  return g;
}

// ---------------------------------------------------------------- camera

class CameraRoundTripTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(CameraRoundTripTest, ProjectBackProject) {
  const auto [x, y] = GetParam();
  CameraModel cam;
  const auto obj = make_object(x, y, sim::ActorType::kVehicle);
  const auto box = cam.project(obj);
  ASSERT_TRUE(box.has_value());
  const auto pos = cam.back_project(*box);
  ASSERT_TRUE(pos.has_value());
  EXPECT_NEAR(pos->x, x, 1e-6);
  EXPECT_NEAR(pos->y, y, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CameraRoundTripTest,
    ::testing::Values(std::tuple{10.0, 0.0}, std::tuple{30.0, -3.0},
                      std::tuple{60.0, 3.7}, std::tuple{100.0, -6.0},
                      std::tuple{15.0, 2.0}));

TEST(CameraModel, FrustumLimits) {
  CameraModel cam;
  EXPECT_FALSE(cam.project(make_object(1.0, 0.0, sim::ActorType::kVehicle)));
  EXPECT_FALSE(
      cam.project(make_object(200.0, 0.0, sim::ActorType::kVehicle)));
  // Far to the side: out of the image.
  EXPECT_FALSE(
      cam.project(make_object(10.0, 30.0, sim::ActorType::kVehicle)));
}

TEST(CameraModel, SizeScalesInverselyWithRange) {
  CameraModel cam;
  const auto near = cam.project(make_object(20.0, 0.0, sim::ActorType::kVehicle));
  const auto far = cam.project(make_object(40.0, 0.0, sim::ActorType::kVehicle));
  ASSERT_TRUE(near && far);
  EXPECT_NEAR(near->w / far->w, 2.0, 1e-9);
}

TEST(CameraModel, LateralConversionInverse) {
  CameraModel cam;
  const double px = cam.lateral_m_to_px(1.5, 30.0);
  EXPECT_NEAR(cam.lateral_px_to_m(px, 30.0), 1.5, 1e-12);
  // Leftward (positive y) means smaller u.
  EXPECT_LT(px, 0.0);
}

TEST(CameraModel, BackProjectAboveHorizonFails) {
  CameraModel cam;
  // A bbox whose bottom edge is above the image center cannot be grounded.
  const math::Bbox floating{960.0, 100.0, 50.0, 50.0};
  EXPECT_FALSE(cam.back_project(floating).has_value());
}

// -------------------------------------------------------------- detector

TEST(DetectorModel, DetectsVisibleObjects) {
  DetectorModel det(CameraModel{}, DetectorNoiseModel::paper_defaults(),
                    stats::Rng(1));
  std::vector<sim::GroundTruthObject> objs{
      make_object(30.0, 0.0, sim::ActorType::kVehicle)};
  CameraFrame frame;
  int detected = 0;
  for (int f = 0; f < 300; ++f) {
    det.detect_into(objs, f / 15.0, frame);
    detected += static_cast<int>(!frame.detections.empty());
  }
  // Most frames produce a detection; streaks cause the rest.
  EXPECT_GT(detected, 240);
  EXPECT_LT(detected, 300);
}

TEST(DetectorModel, MisdetectionStreaksAreConsecutive) {
  DetectorModel det(CameraModel{}, DetectorNoiseModel::paper_defaults(),
                    stats::Rng(3));
  std::vector<sim::GroundTruthObject> objs{
      make_object(30.0, 0.0, sim::ActorType::kPedestrian)};
  // Count streak structure: once in a streak, in_streak holds until over.
  CameraFrame frame;
  int streak_frames = 0;
  for (int f = 0; f < 2000; ++f) {
    det.detect_into(objs, f / 15.0, frame);
    if (det.in_streak(1)) ++streak_frames;
  }
  EXPECT_GT(streak_frames, 0);
}

TEST(DetectorModel, CenterErrorRoughlyMatchesPopulationSigma) {
  CameraModel cam;
  DetectorModel det(cam, DetectorNoiseModel::paper_defaults(),
                    stats::Rng(17));
  const std::vector<sim::GroundTruthObject> objs{
      make_object(25.0, 0.0, sim::ActorType::kVehicle)};
  const auto truth = cam.project(objs[0]);
  CameraFrame frame;
  std::vector<double> deltas;
  for (int f = 0; f < 6000; ++f) {
    det.detect_into(objs, f / 15.0, frame);
    if (frame.detections.empty()) continue;
    const auto& b = frame.detections[0].bbox;
    if (math::iou(b, *truth) <= 0.0) continue;
    deltas.push_back((b.cx - truth->cx) / truth->w);
  }
  const auto fit = stats::fit_normal(deltas);
  // Overlap-conditioning (IoU > 0, as in the paper's protocol) removes most
  // wide-component samples, so the measured sigma sits well below the
  // configured population sigma but well above the core sigma.
  EXPECT_GT(fit.sigma, 0.08);
  EXPECT_LT(fit.sigma, 0.30);
  EXPECT_NEAR(fit.mu, 0.023, 0.08);
}

// -------------------------------------------------------------- hungarian

AssignmentResult brute_force(const math::Matrix& cost) {
  std::vector<int> cols(cost.cols());
  for (std::size_t i = 0; i < cols.size(); ++i) cols[i] = static_cast<int>(i);
  AssignmentResult best;
  best.total_cost = 1e18;
  std::vector<int> perm = cols;
  std::sort(perm.begin(), perm.end());
  do {
    double total = 0.0;
    for (std::size_t r = 0; r < cost.rows() && r < perm.size(); ++r) {
      total += cost(r, static_cast<std::size_t>(perm[r]));
    }
    if (total < best.total_cost) {
      best.total_cost = total;
      best.assignment.assign(perm.begin(),
                             perm.begin() + static_cast<long>(cost.rows()));
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

class HungarianRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(HungarianRandomTest, MatchesBruteForceOptimum) {
  stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam() % 5);
  math::Matrix cost(n, n);
  for (auto& v : cost.data()) v = rng.uniform(0.0, 10.0);
  AssignmentScratch scratch;
  AssignmentResult fast;
  solve_assignment_into(cost, scratch, fast);
  const auto slow = brute_force(cost);
  EXPECT_NEAR(fast.total_cost, slow.total_cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianRandomTest, ::testing::Range(0, 20));

TEST(Hungarian, RectangularMoreRowsThanCols) {
  math::Matrix cost{{1.0}, {0.5}, {2.0}};
  AssignmentScratch scratch;
  AssignmentResult res;
  solve_assignment_into(cost, scratch, res);
  // Only one column: exactly one row assigned, the cheapest.
  int assigned = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    if (res.assignment[r] >= 0) {
      ++assigned;
      EXPECT_EQ(r, 1u);
    }
  }
  EXPECT_EQ(assigned, 1);
  EXPECT_NEAR(res.total_cost, 0.5, 1e-12);
}

/// Minimum cost over every partial permutation that matches
/// min(rows, cols) rows, each to a distinct column: the optimum the padded
/// Hungarian solver must reach on rectangular inputs.
double brute_force_partial(const math::Matrix& cost, std::size_t row,
                           std::vector<char>& col_used, std::size_t left) {
  if (left == 0) return 0.0;
  if (cost.rows() - row < left) return 1e18;  // too few rows remain
  double best = brute_force_partial(cost, row + 1, col_used, left);
  for (std::size_t c = 0; c < cost.cols(); ++c) {
    if (col_used[c]) continue;
    col_used[c] = 1;
    best = std::min(best, cost(row, c) + brute_force_partial(
                                             cost, row + 1, col_used,
                                             left - 1));
    col_used[c] = 0;
  }
  return best;
}

TEST(Hungarian, TieHeavyAssignmentsArePinned) {
  // Every shape 1..6 x 1..6, costs drawn from four values so that exact
  // ties are common, plus 1e3 class-mismatch blocks as the tracker builds
  // them. Each result must be an optimal partial permutation, and the
  // exact assignments the solver picks among tied optima are pinned.
  stats::Rng rng(2107);
  const double values[] = {0.0, 0.25, 0.5, 1.0};
  AssignmentScratch scratch;
  AssignmentResult res;
  std::uint64_t h = stats::kFnv1aOffset;
  for (std::size_t rows = 1; rows <= 6; ++rows) {
    for (std::size_t cols = 1; cols <= 6; ++cols) {
      for (int rep = 0; rep < 4; ++rep) {
        math::Matrix cost(rows, cols);
        for (double& v : cost.data()) v = values[rng.uniform_int(0, 3)];
        if (rep % 2 == 1) {
          // A class-mismatch block: these rows may not take these columns.
          const auto r0 = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(rows) - 1));
          const auto c0 = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(cols) - 1));
          for (std::size_t r = r0; r < rows; r += 2) {
            for (std::size_t c = c0; c < cols; ++c) cost(r, c) = 1e3;
          }
        }
        solve_assignment_into(cost, scratch, res);
        SCOPED_TRACE(testing::Message() << rows << "x" << cols << " #" << rep);
        ASSERT_EQ(res.assignment.size(), rows);
        std::vector<char> taken(cols, 0);
        std::size_t matched = 0;
        double total = 0.0;
        for (std::size_t r = 0; r < rows; ++r) {
          const int c = res.assignment[r];
          h = stats::fnv1a_u64(h, static_cast<std::uint64_t>(c + 1));
          if (c < 0) continue;
          ASSERT_LT(static_cast<std::size_t>(c), cols);
          ASSERT_FALSE(taken[static_cast<std::size_t>(c)]) << "column reused";
          taken[static_cast<std::size_t>(c)] = 1;
          total += cost(r, static_cast<std::size_t>(c));
          ++matched;
        }
        EXPECT_EQ(matched, std::min(rows, cols));
        std::vector<char> col_used(cols, 0);
        const double optimum =
            brute_force_partial(cost, 0, col_used, std::min(rows, cols));
        EXPECT_EQ(total, optimum);
        EXPECT_EQ(res.total_cost, optimum);
      }
    }
  }
  EXPECT_EQ(h, 0x9c4bdf2fd9d99d23ull) << std::hex << h;
}

TEST(Hungarian, EmptyInputs) {
  AssignmentScratch scratch;
  AssignmentResult res;
  solve_assignment_into(math::Matrix(0, 0), scratch, res);
  EXPECT_TRUE(res.assignment.empty());
  solve_assignment_into(math::Matrix(2, 0), scratch, res);
  EXPECT_EQ(res.assignment.size(), 2u);
  EXPECT_EQ(res.assignment[0], -1);
}

// ---------------------------------------------------------------- kalman

TEST(CvKalmanFilter, ConvergesOnConstantVelocityTarget) {
  const double dt = 0.1;
  CvKalmanFilter kf(dt, {0.01, 0.01, 0.01, 0.01, 0.01, 0.01},
                    {0.0, 0.0, 10.0, 10.0, 0.0, 0.0},
                    {10.0, 10.0, 10.0, 10.0, 10.0, 10.0},
                    {1.0, 1.0, 1.0, 1.0});

  stats::Rng rng(5);
  double u = 0.0;
  double v = 0.0;
  const double vu = 3.0;
  const double vv = -2.0;
  for (int i = 0; i < 300; ++i) {
    u += vu * dt;
    v += vv * dt;
    kf.predict();
    kf.update({u + rng.normal(0.0, 1.0), v + rng.normal(0.0, 1.0),
               10.0 + rng.normal(0.0, 1.0), 10.0 + rng.normal(0.0, 1.0)});
  }
  EXPECT_NEAR(kf.state()[4], vu, 0.4);
  EXPECT_NEAR(kf.state()[5], vv, 0.4);
  EXPECT_NEAR(kf.state()[0], u, 1.5);
  EXPECT_NEAR(kf.state()[1], v, 1.5);
  EXPECT_NEAR(kf.state()[2], 10.0, 1.5);
}

TEST(CvKalmanFilter, MahalanobisGrowsWithInnovation) {
  CvKalmanFilter kf(1.0 / 15.0, {0.1, 0.1, 0.1, 0.1, 0.1, 0.1},
                    {100.0, 100.0, 40.0, 40.0, 0.0, 0.0},
                    {1.0, 1.0, 1.0, 1.0, 1.0, 1.0}, {1.0, 1.0, 1.0, 1.0});
  EXPECT_LT(kf.mahalanobis2({100.5, 100.0, 40.0, 40.0}),
            kf.mahalanobis2({105.0, 100.0, 40.0, 40.0}));
  EXPECT_LT(kf.mahalanobis2({100.0, 100.0, 40.0, 40.5}),
            kf.mahalanobis2({100.0, 100.0, 40.0, 45.0}));
  // The update records the distance of the measurement it consumed, bit
  // for bit what a call just before the update returns.
  EXPECT_EQ(kf.last_update_mahalanobis2(), -1.0);
  kf.predict();
  const CvKalmanFilter::Measurement z{103.0, 99.0, 41.0, 40.0};
  const double before = kf.mahalanobis2(z);
  kf.update(z);
  EXPECT_EQ(kf.last_update_mahalanobis2(), before);
}

// ------------------------------------------------------------------- MOT

Detection make_detection(double cx, double cy, double w, double h,
                         sim::ActorType cls = sim::ActorType::kVehicle) {
  Detection d;
  d.bbox = {cx, cy, w, h};
  d.cls = cls;
  return d;
}

TEST(MotTracker, TracksAcrossFramesWithStableId) {
  MotTracker mot(1.0 / 15.0);
  std::vector<TrackView> tracks;
  for (int f = 0; f < 10; ++f) {
    CameraFrame frame;
    frame.detections.push_back(
        make_detection(100.0 + 2.0 * f, 200.0, 50.0, 40.0));
    mot.update_into(frame, tracks);
  }
  ASSERT_EQ(tracks.size(), 1u);
  EXPECT_EQ(tracks[0].track_id, 1);
  EXPECT_GE(tracks[0].hits, 9);
  EXPECT_NEAR(tracks[0].bbox.cx, 118.0, 6.0);
  // Velocity locked onto ~2 px/frame = 30 px/s.
  EXPECT_NEAR(tracks[0].vu, 30.0, 12.0);
}

TEST(MotTracker, ConfirmationRequiresMinHits) {
  MotTracker mot(1.0 / 15.0);
  CameraFrame frame;
  frame.detections.push_back(make_detection(100.0, 100.0, 40.0, 40.0));
  std::vector<TrackView> tracks;
  mot.update_into(frame, tracks);
  EXPECT_TRUE(tracks.empty());  // first hit: unconfirmed
  mot.update_into(frame, tracks);
  EXPECT_FALSE(tracks.empty());  // second hit: confirmed
}

TEST(MotTracker, DropsTrackAfterMaxMisses) {
  MotConfig cfg;
  cfg.max_misses = 3;
  MotTracker mot(1.0 / 15.0, cfg);
  CameraFrame frame;
  frame.detections.push_back(make_detection(100.0, 100.0, 40.0, 40.0));
  std::vector<TrackView> tracks;
  mot.update_into(frame, tracks);
  mot.update_into(frame, tracks);
  EXPECT_EQ(mot.live_track_count(), 1u);
  CameraFrame empty;
  for (int i = 0; i < 4; ++i) mot.update_into(empty, tracks);
  EXPECT_EQ(mot.live_track_count(), 0u);
}

TEST(MotTracker, ClassConsistencyInAssociation) {
  MotTracker mot(1.0 / 15.0);
  CameraFrame veh;
  veh.detections.push_back(make_detection(100.0, 100.0, 40.0, 40.0));
  std::vector<TrackView> tracks;
  mot.update_into(veh, tracks);
  mot.update_into(veh, tracks);
  CameraFrame ped;
  ped.detections.push_back(
      make_detection(100.0, 100.0, 40.0, 40.0, sim::ActorType::kPedestrian));
  mot.update_into(ped, tracks);
  // Same position but different class: a second track is born.
  EXPECT_EQ(mot.live_track_count(), 2u);
}

TEST(MotTracker, InnovationGateRejectsOutliers) {
  MotTracker mot(1.0 / 15.0);
  CameraFrame frame;
  frame.detections.push_back(make_detection(100.0, 100.0, 40.0, 40.0));
  std::vector<TrackView> tracks;
  for (int i = 0; i < 5; ++i) mot.update_into(frame, tracks);
  // An outlier jump far beyond the characterized noise: must not drag the
  // track (it spawns a new one or is dropped).
  CameraFrame outlier;
  outlier.detections.push_back(make_detection(100.0, 160.0, 40.0, 40.0));
  mot.update_into(outlier, tracks);
  const auto t = mot.track(1);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(t->bbox.cy, 100.0, 5.0);
}

TEST(MotTracker, PredictNextBbox) {
  MotTracker mot(1.0 / 15.0);
  CameraFrame frame;
  std::vector<TrackView> tracks;
  for (int f = 0; f < 8; ++f) {
    frame.detections.clear();
    frame.detections.push_back(
        make_detection(100.0 + 3.0 * f, 100.0, 40.0, 40.0));
    mot.update_into(frame, tracks);
  }
  const auto pred = mot.predict_next_bbox(1);
  ASSERT_TRUE(pred.has_value());
  EXPECT_GT(pred->cx, 118.0);  // ahead of the last update
  EXPECT_FALSE(mot.predict_next_bbox(99).has_value());
}

// ----------------------------------------------------------------- lidar

TEST(LidarModel, ClassDependentRange) {
  LidarModel lidar(LidarConfig{}, stats::Rng(2));
  const auto far_vehicle = make_object(70.0, 0.0, sim::ActorType::kVehicle);
  auto far_ped = make_object(70.0, 0.0, sim::ActorType::kPedestrian);
  far_ped.id = 2;
  std::vector<LidarMeasurement> scan;
  int veh_hits = 0;
  int ped_hits = 0;
  for (int i = 0; i < 200; ++i) {
    lidar.scan_into({far_vehicle, far_ped}, scan);
    for (const auto& m : scan) {
      if (m.truth_id == 1) ++veh_hits;
      if (m.truth_id == 2) ++ped_hits;
    }
  }
  // 70 m: inside vehicle range (80), far outside pedestrian range (35).
  EXPECT_GT(veh_hits, 150);
  EXPECT_EQ(ped_hits, 0);
}

TEST(LidarModel, PointCountFallsWithRange) {
  LidarModel lidar(LidarConfig{}, stats::Rng(4));
  std::vector<LidarMeasurement> near;
  std::vector<LidarMeasurement> far;
  lidar.scan_into({make_object(10.0, 0.0, sim::ActorType::kVehicle)}, near);
  lidar.scan_into({make_object(60.0, 0.0, sim::ActorType::kVehicle)}, far);
  ASSERT_FALSE(near.empty());
  ASSERT_FALSE(far.empty());
  EXPECT_GT(near[0].point_count, far[0].point_count);
}

TEST(LidarTracker, TracksAndEstimatesVelocity) {
  LidarTracker tracker(0.1);
  for (int i = 0; i < 30; ++i) {
    LidarMeasurement m;
    m.rel_position = {20.0 - 0.5 * i, 0.0};  // approaching at 5 m/s
    tracker.update({m});
  }
  ASSERT_EQ(tracker.tracks().size(), 1u);
  EXPECT_NEAR(tracker.tracks()[0].rel_velocity.x, -5.0, 1.0);
}

TEST(LidarTracker, DropsSilentTracks) {
  LidarTracker tracker(0.1);
  LidarMeasurement m;
  m.rel_position = {20.0, 0.0};
  tracker.update({m});
  for (int i = 0; i < 5; ++i) tracker.update({});
  EXPECT_TRUE(tracker.tracks().empty());
}

// ---------------------------------------------------------------- fusion

WorldTrack make_world_track(int id, double x, double y, sim::ActorType cls,
                            int hits) {
  WorldTrack w;
  w.track_id = id;
  w.cls = cls;
  w.rel_position = {x, y};
  w.hits = hits;
  return w;
}

LidarTrack make_lidar_track(int id, double x, double y) {
  LidarTrack l;
  l.track_id = id;
  l.rel_position = {x, y};
  l.hits = 5;
  return l;
}

TEST(Fusion, PairedPublishesQuicklyWithBlendedPosition) {
  Fusion fusion(FusionConfig{}, LidarConfig{}, 1.0 / 15.0);
  const auto cam = make_world_track(1, 30.0, 1.0, sim::ActorType::kVehicle, 2);
  const auto lid = make_lidar_track(1, 30.0, 0.0);
  std::vector<FusedObject> out;
  fusion.fuse_into({cam}, {lid}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].lidar_corroborated);
  // Vehicle: 85% lidar weight -> y = 0.15 * 1.0
  EXPECT_NEAR(out[0].rel_position.y, 0.15, 1e-9);
}

TEST(Fusion, CameraOnlyFarPublishesAfterShortAge) {
  Fusion fusion(FusionConfig{}, LidarConfig{}, 1.0 / 15.0);
  // Pedestrian at 60 m: beyond LiDAR pedestrian coverage -> age 4 suffices.
  const auto young =
      make_world_track(1, 60.0, 0.0, sim::ActorType::kPedestrian, 3);
  std::vector<FusedObject> out;
  fusion.fuse_into({young}, {}, out);
  EXPECT_TRUE(out.empty());
  const auto old =
      make_world_track(1, 60.0, 0.0, sim::ActorType::kPedestrian, 4);
  fusion.fuse_into({old}, {}, out);
  EXPECT_EQ(out.size(), 1u);
}

TEST(Fusion, CameraOnlyInCoverageNeedsLongerAge) {
  Fusion fusion(FusionConfig{}, LidarConfig{}, 1.0 / 15.0);
  // Vehicle at 30 m with NO lidar track: sensor disagreement.
  const auto t10 = make_world_track(1, 30.0, 0.0, sim::ActorType::kVehicle, 10);
  std::vector<FusedObject> out;
  fusion.fuse_into({t10}, {}, out);
  EXPECT_TRUE(out.empty());
  const auto t12 = make_world_track(1, 30.0, 0.0, sim::ActorType::kVehicle, 12);
  fusion.fuse_into({t12}, {}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].lidar_expected);
  EXPECT_FALSE(out[0].lidar_corroborated);
}

TEST(Fusion, LidarOnlyNeverPublished) {
  Fusion fusion(FusionConfig{}, LidarConfig{}, 1.0 / 15.0);
  std::vector<FusedObject> out;
  fusion.fuse_into({}, {make_lidar_track(1, 20.0, 0.0)}, out);
  EXPECT_TRUE(out.empty());
}

TEST(Fusion, LateralHijackBreaksPairing) {
  Fusion fusion(FusionConfig{}, LidarConfig{}, 1.0 / 15.0);
  const auto lid = make_lidar_track(1, 30.0, 0.0);
  // Camera track laterally displaced beyond the 2.0 m lateral gate.
  const auto cam =
      make_world_track(1, 30.0, 2.5, sim::ActorType::kVehicle, 20);
  std::vector<FusedObject> out;
  fusion.fuse_into({cam}, {lid}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].lidar_corroborated);
  EXPECT_NEAR(out[0].rel_position.y, 2.5, 1e-9);  // camera-only position
}

TEST(Fusion, CoastsThenDropsVanishedObject) {
  FusionConfig cfg;
  cfg.coast_frames = 2;
  Fusion fusion(cfg, LidarConfig{}, 1.0 / 15.0);
  // 100 m: beyond LiDAR coverage, so camera-only age 4 publishes.
  const auto cam =
      make_world_track(1, 100.0, 0.0, sim::ActorType::kVehicle, 10);
  std::vector<FusedObject> out;
  fusion.fuse_into({cam}, {}, out);
  EXPECT_EQ(out.size(), 1u);
  fusion.fuse_into({}, {}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].coasting);
  fusion.fuse_into({}, {}, out);
  EXPECT_EQ(out.size(), 1u);
  fusion.fuse_into({}, {}, out);
  EXPECT_TRUE(out.empty());
}

// --------------------------------------------------------------- pipeline

TEST(PerceptionSystem, EndToEndTracksGroundTruth) {
  CameraModel cam;
  PerceptionSystem sys(cam, 1.0 / 15.0, 0.1);
  DetectorModel det(cam, DetectorNoiseModel::paper_defaults(), stats::Rng(9));
  LidarModel lidar(LidarConfig{}, stats::Rng(10));

  const std::vector<sim::GroundTruthObject> objs{
      make_object(35.0, 0.0, sim::ActorType::kVehicle)};
  std::vector<LidarMeasurement> scan;
  CameraFrame frame;
  PerceptionOutput out;
  for (int f = 0; f < 45; ++f) {
    if (f % 2 == 0) {
      lidar.scan_into(objs, scan);
      sys.ingest_lidar(scan);
    }
    det.detect_into(objs, f / 15.0, frame);
    sys.step_into(frame, out);
  }
  ASSERT_FALSE(out.world.empty());
  EXPECT_NEAR(out.world[0].rel_position.x, 35.0, 2.0);
  EXPECT_NEAR(out.world[0].rel_position.y, 0.0, 0.8);
  EXPECT_TRUE(out.world[0].lidar_corroborated);
}


// --------------------------------- scratch-based hot-path refactor pins

// Golden pin computed on the pre-kernel-refactor implementation (chained
// allocating Matrix operators): a 200-step noisy BboxTrack walk, folding
// the post-step state estimate and the Mahalanobis gate value. The
// scratch-based Kalman step must reproduce it bit for bit.
//
// Re-pinned for the PR 8 counter-based noise migration (Rng::normal is now
// one engine word through the inverse CDF): the trace's noise draws moved,
// the KF algebra did not — before the migration window closed, this walk
// hashed to 0x9d97ae90dde06aacULL under the (now removed) legacy
// std::normal_distribution path, which also proved the PR 8
// fixed-dimension matrix kernels are bit-identical to the generic paths.
TEST(KalmanFilter, GoldenTrackTraceIsBitIdenticalToPreRefactor) {
  Detection d;
  d.bbox = {100.0, 100.0, 40.0, 40.0};
  BboxTrack track(1, d, 1.0 / 15.0,
                  DetectorNoiseModel::paper_defaults().vehicle);
  stats::Rng rng(77);
  std::uint64_t h = stats::kFnv1aOffset;
  for (int i = 0; i < 200; ++i) {
    track.predict();
    d.bbox.cx += rng.normal(0.4, 1.2);
    d.bbox.cy += rng.normal(-0.1, 0.8);
    d.bbox.w += rng.normal(0.0, 0.5);
    d.bbox.h += rng.normal(0.0, 0.5);
    if (i % 7 != 3) track.update(d);
    const auto b = track.bbox();
    for (const double v :
         {b.cx, b.cy, b.w, b.h, track.vu(), track.vv()}) {
      h = stats::fnv1a_double(h, v);
    }
    h = stats::fnv1a_double(h, track.mahalanobis2(d.bbox));
  }
  EXPECT_EQ(h, 0x52ffad82edfddd8aULL);
}

}  // namespace
}  // namespace rt::perception
