// Heap-allocation pins for the destination-passing kernel work: the
// campaign hot paths (track step and birth, oracle inference) must not
// allocate at steady state. A counting global operator new is the only reliable
// observer, so these live in their own binary — the counter covers every
// allocation in the process, including gtest's own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/robotack.hpp"
#include "core/safety_oracle.hpp"
#include "defense/monitor_stack.hpp"
#include "math/matrix.hpp"
#include "nn/adam.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "obs/trace.hpp"
#include "perception/bbox_track.hpp"
#include "perception/detector_model.hpp"
#include "perception/lidar_tracker.hpp"
#include "perception/mot_tracker.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rt {
namespace {

// Sanitizer builds interpose their own allocator machinery; the counts are
// not representative there, so the pins only run in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

TEST(AllocationPins, BboxTrackStepIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  perception::Detection d;
  d.bbox = {100.0, 100.0, 40.0, 40.0};
  perception::BboxTrack track(
      1, d, 1.0 / 15.0,
      perception::DetectorNoiseModel::paper_defaults().vehicle);
  for (int i = 0; i < 3; ++i) {
    track.predict();
    track.update(d);
    (void)track.mahalanobis2(d.bbox);
  }
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) {
    track.predict();
    d.bbox.cx += 0.25;
    track.update(d);
    (void)track.mahalanobis2(d.bbox);
  }
  EXPECT_EQ(allocations(), before)
      << "BboxTrack predict/update/mahalanobis2 allocated on the steady "
         "state path";
}

TEST(AllocationPins, TrackBirthIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // A track is a plain value: once the tracker's vectors have seen three
  // tracks, spawning one allocates nothing.
  perception::MotTracker mot(1.0 / 15.0);
  std::vector<perception::TrackView> out;
  perception::Detection a;
  a.bbox = {300.0, 500.0, 80.0, 60.0};
  perception::Detection b = a;
  b.bbox.cx = 900.0;
  perception::Detection c = a;
  c.bbox.cx = 1500.0;
  perception::CameraFrame frame;
  frame.detections = {a, b, c};
  for (int i = 0; i < 5; ++i) mot.update_into(frame, out);
  // Retire b and c: the vectors keep their capacity.
  frame.detections = {a};
  for (int i = 0; i < 12; ++i) mot.update_into(frame, out);
  ASSERT_EQ(mot.live_track_count(), 1u);
  frame.detections.push_back(c);
  const std::uint64_t before = allocations();
  mot.update_into(frame, out);
  EXPECT_EQ(allocations(), before) << "a track birth allocated";
  EXPECT_EQ(mot.live_track_count(), 2u);
}

TEST(AllocationPins, LidarTrackerUpdateIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // Three objects approach, then one goes silent and is retired; once the
  // tracker has seen three tracks and three returns, no scan allocates.
  perception::LidarTracker tracker(0.1);
  std::vector<perception::LidarMeasurement> three(3);
  std::vector<perception::LidarMeasurement> two(2);
  const auto place = [](std::vector<perception::LidarMeasurement>& scan,
                        int step) {
    for (std::size_t i = 0; i < scan.size(); ++i) {
      scan[i].rel_position = {30.0 - 0.5 * step,
                              4.0 * static_cast<double>(i)};
    }
  };
  for (int step = 0; step < 5; ++step) {
    place(three, step);
    tracker.update(three);
  }
  const std::uint64_t before = allocations();
  for (int step = 5; step < 15; ++step) {
    place(two, step);
    tracker.update(two);
  }
  EXPECT_EQ(allocations(), before) << "LidarTracker::update allocated";
  EXPECT_EQ(tracker.tracks().size(), 2u);
}

TEST(AllocationPins, MlpPredictIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  stats::Rng rng(7);
  nn::Mlp net = nn::make_safety_hijacker_net(rng);
  math::Matrix x(6, 1, 0.5);
  nn::Mlp::Workspace ws;
  // Warm-up sizes the caller-owned workspace.
  (void)net.predict_into(x, ws);
  (void)net.predict_into(x, ws);
  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 100; ++i) {
    x(0, 0) = static_cast<double>(i);
    sink += net.predict_into(x, ws)(0, 0);
  }
  EXPECT_EQ(allocations(), before)
      << "Mlp::predict_into allocated on the steady-state path (sink " << sink
      << ")";
}

TEST(AllocationPins, MlpTrainingStepIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // The trainer's minibatch step on the safety-hijacker net: after one warm
  // step sizes the workspace (activations, gradients, transpose scratch),
  // the loss gradient and Adam's moments, a step allocates nothing.
  stats::Rng rng(7);
  nn::Mlp net = nn::make_safety_hijacker_net(rng);
  math::Matrix x(6, 64);
  math::Matrix y(1, 64);
  for (double& v : x.data()) v = rng.uniform(-1.0, 1.0);
  for (double& v : y.data()) v = rng.uniform(0.0, 30.0);
  nn::Mlp::Workspace ws;
  math::Matrix grad;
  nn::Adam optimizer;
  const std::vector<math::Matrix*> params = net.parameters();
  const std::vector<math::Matrix*> grads = net.gradients();
  const auto step = [&] {
    const math::Matrix& pred = net.forward_into(x, ws);
    nn::MseLoss::gradient_into(pred, y, grad);
    net.backward_into(grad, ws);
    optimizer.step(params, grads);
  };
  step();
  const std::uint64_t before = allocations();
  for (int i = 0; i < 5; ++i) step();
  EXPECT_EQ(allocations(), before)
      << "the Mlp training step allocated after warm-up";
}

TEST(AllocationPins, RobotackAttackOnPathIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // The malware's man-in-the-middle step on an ACTIVE Move_Out attack:
  // truth-replica update, trajectory hijack in place, ADS-replica update —
  // all over member scratch, no CameraFrame copy, no heap traffic.
  core::RobotackConfig cfg;
  cfg.vector = core::AttackVector::kMoveOut;
  cfg.timing = core::TimingPolicy::kAtDeltaThreshold;
  cfg.delta_trigger = 30.0;  // triggers immediately at this geometry
  cfg.fixed_k = 1000;        // keep the attack active for the whole pin
  core::Robotack bot(cfg, perception::CameraModel{},
                     perception::DetectorNoiseModel::paper_defaults(),
                     perception::MotConfig{}, 99);

  // A stationary in-lane vehicle at ~30 m (bottom edge v=620).
  perception::Detection det;
  det.cls = sim::ActorType::kVehicle;
  det.bbox = {960.0, 580.0, 96.0, 80.0};
  perception::CameraFrame frame;
  const double dt = cfg.dt;
  for (int i = 0; i < 40; ++i) {
    frame.time += dt;
    frame.detections.clear();
    frame.detections.push_back(det);
    bot.process_in_place(frame, 10.0);
  }
  ASSERT_TRUE(bot.attack_active()) << "attack did not arm during warm-up";
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) {
    frame.time += dt;
    frame.detections.clear();
    frame.detections.push_back(det);
    bot.process_in_place(frame, 10.0);
  }
  EXPECT_EQ(allocations(), before)
      << "Robotack::process_in_place allocated on the active-attack path";
  EXPECT_TRUE(bot.attack_active());
  EXPECT_GT(bot.log().frames_perturbed, 0);
}

TEST(AllocationPins, DormantRobotackIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // The dormant step: truth-replica update, the ADS-view replica refreshed
  // as a copy of the truth replica, victim selection and the timing check.
  core::RobotackConfig cfg;
  cfg.vector = core::AttackVector::kMoveOut;
  cfg.timing = core::TimingPolicy::kAtDeltaThreshold;
  cfg.delta_trigger = -1e9;  // never fires
  core::Robotack bot(cfg, perception::CameraModel{},
                     perception::DetectorNoiseModel::paper_defaults(),
                     perception::MotConfig{}, 99);
  perception::Detection det;
  det.cls = sim::ActorType::kVehicle;
  det.bbox = {960.0, 580.0, 96.0, 80.0};
  perception::Detection ped;
  ped.cls = sim::ActorType::kPedestrian;
  ped.bbox = {400.0, 560.0, 20.0, 50.0};
  perception::CameraFrame frame;
  auto step = [&] {
    frame.time += cfg.dt;
    frame.detections.clear();
    frame.detections.push_back(det);
    frame.detections.push_back(ped);
    bot.process_in_place(frame, 10.0);
  };
  for (int i = 0; i < 20; ++i) step();
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) step();
  EXPECT_EQ(allocations(), before)
      << "Robotack::process_in_place allocated on the dormant path";
  EXPECT_FALSE(bot.log().triggered);
}

/// One matched, mature vehicle track seen by camera and LiDAR alike: the
/// stable track set the monitor pins observe.
perception::PerceptionOutput steady_perception() {
  perception::PerceptionOutput out;
  perception::TrackView t;
  t.track_id = 1;
  t.cls = sim::ActorType::kVehicle;
  t.bbox = {960.0, 600.0, 90.0, 40.0};
  t.predicted_bbox = t.bbox;
  t.hits = 12;
  t.matched_this_frame = true;
  t.innovation_m2 = 1.0;
  out.camera_tracks = {t};
  perception::WorldTrack w;
  w.track_id = 1;
  w.cls = sim::ActorType::kVehicle;
  w.rel_position = {30.0, 0.0};
  w.rel_velocity = {-2.0, 0.0};
  w.hits = 12;
  w.matched_this_frame = true;
  out.camera_world = {w};
  perception::LidarTrack l;
  l.track_id = 7;
  l.rel_position = {30.0, 0.0};
  l.hits = 6;
  out.lidar_tracks = {l};
  return out;
}

TEST(AllocationPins, MonitorStackObserveIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // The defense hook sits on the same per-frame hot path: once the track
  // set is stable, a full three-monitor observe allocates nothing.
  defense::MonitorContext ctx;
  defense::MonitorStack stack(
      {"innovation-gate", "sensor-consistency", "kinematics"}, ctx);
  perception::CameraFrame frame;
  perception::PerceptionOutput out = steady_perception();
  for (int i = 0; i < 10; ++i) {
    out.time = 0.1 * i;
    stack.on_perception(frame, out);
  }
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) {
    out.time = 1.0 + 0.1 * i;
    stack.on_perception(frame, out);
  }
  EXPECT_EQ(allocations(), before)
      << "MonitorStack::on_perception allocated at steady state";
}

TEST(AllocationPins, GroupedThreeStackObserveIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  // A drive shared by a grid cell's three monitor variants (and an
  // undefended member) observes through one fan-out: still no allocation
  // per frame once the track set is stable.
  defense::MonitorContext ctx;
  defense::MonitorFanOut fan_out({{"innovation-gate"},
                                  {"sensor-consistency"},
                                  {"kinematics"},
                                  {}},
                                 ctx);
  perception::CameraFrame frame;
  perception::PerceptionOutput out = steady_perception();
  for (int i = 0; i < 10; ++i) {
    out.time = 0.1 * i;
    fan_out.on_perception(frame, out);
  }
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) {
    out.time = 1.0 + 0.1 * i;
    fan_out.on_perception(frame, out);
  }
  EXPECT_EQ(allocations(), before)
      << "MonitorFanOut::on_perception allocated at steady state";
}

/// A small trained oracle: 64 synthetic launches, two epochs.
core::SafetyOracle tiny_oracle() {
  core::SafetyOracle oracle(3);
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
  stats::Rng rng(4);
  for (int i = 0; i < 64; ++i) {
    xs.push_back({rng.uniform(0.0, 40.0), -5.0, 0.0, 0.0, 0.0,
                  rng.uniform(3.0, 70.0)});
    ys.push_back(xs.back()[0] - 0.3 * xs.back()[5]);
  }
  nn::TrainConfig cfg;
  cfg.epochs = 2;
  oracle.train(nn::Dataset::from_samples(xs, ys), cfg);
  return oracle;
}

TEST(AllocationPins, SafetyOraclePredictIsAllocationFreeAfterWarmup) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  const core::SafetyOracle oracle = tiny_oracle();
  (void)oracle.predict(20.0, {-5.0, 0.0}, {0.0, 0.0}, 30.0);
  (void)oracle.predict(18.0, {-5.0, 0.0}, {0.0, 0.0}, 24.0);
  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 100; ++i) {
    sink += oracle.predict(20.0 + i * 0.1, {-5.0, 0.1}, {0.1, 0.0}, 30.0);
  }
  EXPECT_EQ(allocations(), before)
      << "SafetyOracle::predict allocated on the steady-state path (sink "
      << sink << ")";
}

// Tracing must not buy observability with heap traffic: with the global
// tracer ARMED, the instrumented hot paths stay allocation-free. The only
// allocation tracing ever makes is the one-time per-thread ring
// acquisition, which the warm-up span absorbs.

TEST(AllocationPins, TracedBboxTrackStepIsAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  obs::Tracer::global().arm(obs::TraceConfig{1 << 12});
  perception::Detection d;
  d.bbox = {100.0, 100.0, 40.0, 40.0};
  perception::BboxTrack track(
      1, d, 1.0 / 15.0,
      perception::DetectorNoiseModel::paper_defaults().vehicle);
  for (int i = 0; i < 3; ++i) {
    RT_TRACE_SPAN("kf_step_warmup", "test");
    track.predict();
    track.update(d);
    (void)track.mahalanobis2(d.bbox);
  }
  const std::uint64_t before = allocations();
  for (int i = 0; i < 200; ++i) {
    RT_TRACE_SPAN("kf_step", "test", static_cast<std::uint64_t>(i), "i");
    track.predict();
    d.bbox.cx += 0.25;
    track.update(d);
    (void)track.mahalanobis2(d.bbox);
  }
  EXPECT_EQ(allocations(), before)
      << "traced BboxTrack step allocated — span recording must be free";
  EXPECT_GE(obs::Tracer::global().span_count(), 200u);
  obs::Tracer::global().disarm();
  obs::Tracer::global().clear();
}

TEST(AllocationPins, TracedOraclePredictIsAllocationFree) {
  if (kSanitized) GTEST_SKIP() << "allocation counts not meaningful";
  const core::SafetyOracle oracle = tiny_oracle();
  obs::Tracer::global().arm(obs::TraceConfig{1 << 12});
  {
    RT_TRACE_SPAN("predict_warmup", "test");
    (void)oracle.predict(20.0, {-5.0, 0.1}, {0.1, 0.0}, 30.0);
    (void)oracle.predict(18.0, {-5.0, 0.1}, {0.1, 0.0}, 24.0);
  }
  const std::uint64_t before = allocations();
  double sink = 0.0;
  for (int i = 0; i < 100; ++i) {
    RT_TRACE_SPAN("oracle_predict", "test");
    sink += oracle.predict(20.0 + 0.01 * i, {-5.0, 0.1}, {0.1, 0.0}, 30.0);
  }
  EXPECT_EQ(allocations(), before)
      << "traced SafetyOracle::predict allocated on the steady-state path "
      << "(sink " << sink << ")";
  obs::Tracer::global().disarm();
  obs::Tracer::global().clear();
}

}  // namespace
}  // namespace rt
