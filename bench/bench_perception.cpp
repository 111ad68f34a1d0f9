// Microbenchmarks of the perception substrate (google-benchmark):
// Hungarian assignment, Kalman updates, track births, MOT steps, fusion,
// full pipeline, plus end-to-end campaign throughput through the parallel
// scheduler.

#include <benchmark/benchmark.h>

#include "bench_json_main.hpp"

#include "experiments/campaign.hpp"
#include "perception/detector_model.hpp"
#include "perception/hungarian.hpp"
#include "perception/mot_tracker.hpp"
#include "perception/perception_system.hpp"
#include "sim/scenario_registry.hpp"

using namespace rt;

namespace {

void BM_Hungarian(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stats::Rng rng(1);
  math::Matrix cost(n, n);
  for (auto& v : cost.data()) v = rng.uniform(0.0, 1.0);
  perception::AssignmentScratch scratch;
  perception::AssignmentResult result;
  for (auto _ : state) {
    perception::solve_assignment_into(cost, scratch, result);
    benchmark::DoNotOptimize(result.assignment.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Hungarian)->Arg(4)->Arg(16)->Arg(64);

void BM_KalmanPredictUpdate(benchmark::State& state) {
  perception::Detection d;
  d.bbox = {100.0, 100.0, 40.0, 40.0};
  perception::BboxTrack track(
      1, d, 1.0 / 15.0,
      perception::DetectorNoiseModel::paper_defaults().vehicle);
  for (auto _ : state) {
    track.predict();
    track.update(d);
  }
}
BENCHMARK(BM_KalmanPredictUpdate);

// What MotTracker pays for every unmatched detection: building a track and
// its filter.
void BM_TrackBirth(benchmark::State& state) {
  perception::Detection d;
  d.bbox = {100.0, 100.0, 40.0, 40.0};
  const auto noise = perception::DetectorNoiseModel::paper_defaults().vehicle;
  for (auto _ : state) {
    perception::BboxTrack track(1, d, 1.0 / 15.0, noise);
    benchmark::DoNotOptimize(track);
  }
}
BENCHMARK(BM_TrackBirth);

void BM_MotTrackerStep(benchmark::State& state) {
  const auto n_objects = static_cast<int>(state.range(0));
  perception::MotTracker mot(1.0 / 15.0);
  perception::CameraFrame frame;
  for (int i = 0; i < n_objects; ++i) {
    perception::Detection d;
    d.bbox = {100.0 + 120.0 * i, 300.0, 50.0, 50.0};
    frame.detections.push_back(d);
  }
  std::vector<perception::TrackView> tracks;
  for (auto _ : state) {
    mot.update_into(frame, tracks);
    benchmark::DoNotOptimize(tracks.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MotTrackerStep)->Arg(2)->Arg(8)->Arg(24);

void BM_DetectorModel(benchmark::State& state) {
  perception::DetectorModel det(perception::CameraModel{},
                                perception::DetectorNoiseModel::paper_defaults(),
                                stats::Rng(3));
  stats::Rng rng(4);
  sim::Scenario sc = sim::make_scenario("DS-5", rng);
  sim::World world = sc.make_world();
  std::vector<sim::GroundTruthObject> gt;
  world.ground_truth_into(gt);
  perception::CameraFrame frame;
  double t = 0.0;
  for (auto _ : state) {
    det.detect_into(gt, t, frame);
    benchmark::DoNotOptimize(frame.detections.data());
    t += 1.0 / 15.0;
  }
}
BENCHMARK(BM_DetectorModel);

void BM_FullPerceptionStep(benchmark::State& state) {
  perception::CameraModel cam;
  perception::PerceptionSystem sys(cam, 1.0 / 15.0, 0.1);
  perception::DetectorModel det(
      cam, perception::DetectorNoiseModel::paper_defaults(), stats::Rng(5));
  perception::LidarModel lidar(perception::LidarConfig{}, stats::Rng(6));
  stats::Rng rng(7);
  sim::Scenario sc = sim::make_scenario("DS-5", rng);
  sim::World world = sc.make_world();
  std::vector<sim::GroundTruthObject> gt;
  world.ground_truth_into(gt);
  std::vector<perception::LidarMeasurement> scan;
  perception::CameraFrame frame;
  perception::PerceptionOutput out;
  double t = 0.0;
  for (auto _ : state) {
    lidar.scan_into(gt, scan);
    sys.ingest_lidar(scan);
    det.detect_into(gt, t, frame);
    sys.step_into(frame, out);
    benchmark::DoNotOptimize(out.world.data());
    t += 1.0 / 15.0;
  }
}
BENCHMARK(BM_FullPerceptionStep);

// Closed-loop campaign throughput through the CampaignScheduler, by thread
// count. items_per_second is campaign runs/sec — the number every scaling
// PR should move. Uses the no-oracle NoSh mode so the benchmark is hermetic
// (no training, no cache directory).
void BM_CampaignSchedulerThroughput(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  experiments::LoopConfig loop;
  experiments::CampaignRunner runner(loop, {});
  experiments::CampaignScheduler scheduler(runner, threads);
  const experiments::CampaignSpec spec{
      "DS-1-Disappear-NoSh-bench", "DS-1",
      core::AttackVector::kDisappear, experiments::AttackMode::kNoSh, 16,
      4242};
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.run_all({spec}).front());
  }
  state.SetItemsProcessed(state.iterations() * spec.runs);
}
BENCHMARK(BM_CampaignSchedulerThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rt::bench::bench_json_main(argc, argv);
}
