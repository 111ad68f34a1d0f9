#include "traced_cell.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "alloc_count.hpp"
#include "experiments/campaign_serde.hpp"
#include "experiments/closed_loop.hpp"
#include "perception/mot_tracker.hpp"
#include "sim/scenario_registry.hpp"
#include "stats/rng.hpp"

namespace perfbench {

namespace ex = rt::experiments;
namespace pc = rt::perception;

namespace {

/// Wraps the run's real MonitorStack (or nothing, on an undefended run)
/// and timestamps the PerceptionObserver callback, which splits
/// AdsSystem::step_into into perception (before it) and plan (after it).
class TimingObserver final : public pc::PerceptionObserver {
 public:
  explicit TimingObserver(rt::defense::MonitorStack* inner) : inner_(inner) {}

  void on_perception(const pc::CameraFrame& frame,
                     const pc::PerceptionOutput& out) override {
    enter_ns = now_ns();
    if (inner_ != nullptr) inner_->on_perception(frame, out);
    exit_ns = now_ns();
  }

  std::uint64_t enter_ns{0};
  std::uint64_t exit_ns{0};

 private:
  rt::defense::MonitorStack* inner_;
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_box(const rt::math::Bbox& a, const rt::math::Bbox& b) {
  return same_bits(a.cx, b.cx) && same_bits(a.cy, b.cy) &&
         same_bits(a.w, b.w) && same_bits(a.h, b.h);
}

bool same_view(const pc::TrackView& a, const pc::TrackView& b) {
  return a.track_id == b.track_id && a.cls == b.cls &&
         same_box(a.bbox, b.bbox) &&
         same_box(a.predicted_bbox, b.predicted_bbox) &&
         same_bits(a.vu, b.vu) && same_bits(a.vv, b.vv) &&
         a.hits == b.hits && a.consecutive_misses == b.consecutive_misses &&
         a.matched_this_frame == b.matched_this_frame &&
         a.last_truth_id == b.last_truth_id &&
         same_bits(a.innovation_m2, b.innovation_m2) &&
         same_bits(a.innovation_x, b.innovation_x) &&
         same_bits(a.innovation_y, b.innovation_y);
}

/// What a traced cell hands the MOT replay: every camera frame the ADS
/// consumed and the confirmed camera tracks it produced from it.
struct AdsTape {
  std::vector<pc::CameraFrame> frames;
  std::vector<std::vector<pc::TrackView>> tracks;
};

/// Runs `call` and adds its wall time to `sum`. Each stage has its own start
/// and end stamps, so the loop glue between stages stays unattributed.
template <typename Call>
inline void timed(std::uint64_t& sum, Call&& call) {
  const std::uint64_t start = now_ns();
  call();
  sum += now_ns() - start;
}

/// CampaignRunner::run_one + ClosedLoop::run, step for step, with a timer
/// around each public call.
ex::RunResult run_traced(const ex::CampaignRunner& runner,
                         const ex::CampaignSpec& spec, int run_index,
                         StageTotals& t, AdsTape& tape) {
  const std::uint64_t cell_start = now_ns();
  std::uint64_t bookkeeping = 0;

  rt::stats::Rng run_rng = rt::stats::Rng::from_stream(
      spec.seed, static_cast<std::uint64_t>(run_index) + 1);
  const auto scenario_seed = run_rng.engine()();
  const auto loop_seed = run_rng.engine()();
  const auto attacker_seed = run_rng.engine()();
  rt::stats::Rng scenario_rng(scenario_seed);
  const auto& registry = rt::sim::ScenarioRegistry::global();
  const rt::sim::Scenario scenario =
      spec.params ? registry.make(spec.scenario, *spec.params, scenario_rng)
                  : registry.make(spec.scenario, scenario_rng);

  ex::LoopConfig cfg = runner.loop_config();
  cfg.keep_timeline = false;
  cfg.monitors = spec.monitors;
  const std::unique_ptr<rt::core::Robotack> attacker =
      runner.make_attacker(spec, attacker_seed);

  const double dt = cfg.camera_dt();
  rt::stats::Rng root(loop_seed);
  rt::sim::World world = scenario.make_world();
  pc::DetectorModel detector(cfg.camera, cfg.noise, root.derive(1));
  pc::LidarModel lidar(cfg.lidar, root.derive(2));
  rt::ads::PlannerConfig planner_cfg = cfg.planner;
  planner_cfg.cruise_speed = scenario.ego_cruise_speed;
  rt::ads::AdsSystem ads(cfg.camera, dt, cfg.lidar_dt(), planner_cfg, cfg.mot,
                         cfg.fusion, cfg.lidar, cfg.noise);
  rt::safety::SafetyMonitor monitor(rt::safety::SafetyModel(cfg.safety),
                                    cfg.keep_timeline);
  rt::safety::AttackIds ids(cfg.ids, cfg.noise, cfg.camera);
  rt::defense::MonitorStack monitors;
  if (!cfg.monitors.empty()) {
    monitors = rt::defense::MonitorStack(cfg.monitors, cfg.monitor_context());
  }
  TimingObserver tap(monitors.empty() ? nullptr : &monitors);
  ads.set_perception_observer(&tap);

  ex::RunResult result;
  double next_lidar = 0.0;
  const int steps = static_cast<int>(std::ceil(scenario.duration / dt));
  std::vector<rt::sim::GroundTruthObject> gt;
  std::vector<pc::LidarMeasurement> scan;
  pc::CameraFrame frame;
  rt::ads::AdsOutput out;
  tape.frames.reserve(static_cast<std::size_t>(steps));
  tape.tracks.reserve(static_cast<std::size_t>(steps));
  t.cell_setup_ns += now_ns() - cell_start;
  for (int i = 0; i < steps; ++i) {
    ++t.frames;
    const double time = world.time();
    timed(t.ground_truth_ns, [&] { world.ground_truth_into(gt); });

    if (time + 1e-9 >= next_lidar) {
      timed(t.lidar_scan_ns, [&] { lidar.scan_into(gt, scan); });
      timed(t.ingest_lidar_ns, [&] { ads.ingest_lidar(scan); });
      next_lidar += cfg.lidar_dt();
    }

    timed(t.detect_ns, [&] { detector.detect_into(gt, time, frame); });
    if (attacker) {
      timed(t.robotack_ns, [&] {
        attacker->process_in_place(frame, world.ego().speed());
      });
    }

    const std::uint64_t ads_start = now_ns();
    ads.step_into(frame, world.ego().speed(), world.ego().acceleration(),
                  out);
    const std::uint64_t ads_end = now_ns();
    t.ads_perception_ns += tap.enter_ns - ads_start;
    t.defense_observe_ns += tap.exit_ns - tap.enter_ns;
    t.ads_plan_ns += ads_end - tap.exit_ns;

    timed(bookkeeping, [&] {
      tape.frames.push_back(frame);
      tape.tracks.push_back(out.perception.camera_tracks);
    });

    if (cfg.enable_ids) {
      ids.observe(frame, out.perception.camera_tracks,
                  out.perception.lidar_tracks);
    }
    timed(t.safety_record_ns, [&] {
      monitor.record(world, out.eb_active,
                     attacker && attacker->attack_active(),
                     scenario.target_id);
    });

    bool halt = false;
    timed(t.step_ns, [&] {
      const auto nearest = world.nearest_in_path();
      const bool too_close =
          nearest &&
          nearest->longitudinal_gap(world.ego().dims().length) <
              cfg.halt_gap &&
          world.ego().speed() > 0.5;
      halt = world.collision() || too_close;
      if (!halt) world.step(dt, out.accel_command);
    });
    if (halt) {
      result.halted_early = true;
      break;
    }
  }

  result.eb = monitor.emergency_braking_occurred();
  result.eb_episodes = monitor.eb_episodes();
  result.collision = monitor.collision_occurred();
  result.min_delta = monitor.min_delta();
  result.min_delta_since_attack = monitor.min_delta_since_attack();
  result.crash = monitor.accident();
  result.end_time = world.time();
  if (attacker) result.attack = attacker->log();
  result.ids_flagged = ids.report().flagged;
  result.ids_reason = ids.report().reason;
  if (!monitors.empty()) {
    result.defense = monitors.report();
    // Ground-truth detection labels, judged per monitor (as ClosedLoop).
    if (result.attack.triggered) {
      const double launch = result.attack.start_time;
      double best_time = 0.0;
      for (const auto& m : result.defense.monitors) {
        if (!m.fired || m.first_alert_time < launch - 1e-9) continue;
        if (result.defense.detected && m.first_alert_time >= best_time) {
          continue;
        }
        best_time = m.first_alert_time;
        result.defense.detected = true;
        result.defense.frames_to_detection =
            static_cast<int>(std::lround((best_time - launch) / dt));
        result.defense.detected_by = m.monitor;
      }
    }
  }
  result.timeline = monitor.timeline();
  t.cell_ns += now_ns() - cell_start - bookkeeping;
  ++t.cells;
  return result;
}

}  // namespace

std::uint64_t StageTotals::attributed_ns() const {
  return ground_truth_ns + step_ns + detect_ns + lidar_scan_ns + robotack_ns +
         ingest_lidar_ns + ads_perception_ns + ads_plan_ns +
         defense_observe_ns + safety_record_ns + cell_setup_ns;
}

double StageTotals::coverage() const {
  return cell_ns == 0 ? 0.0
                      : static_cast<double>(attributed_ns()) /
                            static_cast<double>(cell_ns);
}

std::uint64_t run_one_allocations(const ex::CampaignRunner& runner,
                                  const ex::CampaignSpec& spec, int run_index) {
  const std::uint64_t before = thread_allocations();
  (void)runner.run_one(spec, run_index);
  return thread_allocations() - before;
}

void CellProbe::probe_grid(const std::vector<ex::CampaignSpec>& specs,
                           std::size_t max_cells, Report& report) {
  const std::vector<ex::GridCell> cells = ex::grid_cells(specs);
  const std::size_t n = std::min(cells.size(), max_cells);
  // References first, as one serial grid, so run_one is timed warm and
  // unaffected by the traced pass.
  std::vector<std::string> reference(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ex::CampaignSpec& spec = specs[cells[i].spec];
    const std::uint64_t allocs_before = thread_allocations();
    const std::uint64_t t0 = now_ns();
    const ex::RunResult r = runner_.run_one(spec, cells[i].run);
    totals_.ref_ns += now_ns() - t0;
    totals_.ref_allocs += thread_allocations() - allocs_before;
    ++totals_.ref_cells;
    reference[i] = ex::serialize_run_result(r);
  }
  for (std::size_t i = 0; i < n; ++i) {
    report.attempt();
    std::string why;
    if (!probe_traced(specs[cells[i].spec], cells[i].run, reference[i],
                      why)) {
      report.fail(why);
    }
  }
}

bool CellProbe::probe_traced(const ex::CampaignSpec& spec, int run_index,
                             const std::string& reference, std::string& why) {
  AdsTape tape;
  const ex::RunResult traced =
      run_traced(runner_, spec, run_index, totals_, tape);
  bool ok = true;
  if (ex::serialize_run_result(traced) != reference) {
    ++totals_.byte_mismatches;
    why = spec.name + " run " + std::to_string(run_index) +
          ": traced cell differs from run_one";
    ok = false;
  }

  const ex::LoopConfig& cfg = runner_.loop_config();
  pc::MotTracker mot(cfg.camera_dt(), cfg.mot, cfg.noise);
  std::vector<pc::TrackView> views;
  for (std::size_t k = 0; k < tape.frames.size(); ++k) {
    const std::uint64_t m0 = now_ns();
    mot.update_into(tape.frames[k], views);
    totals_.mot_ns += now_ns() - m0;
    ++totals_.mot_frames;
    totals_.mot_live_tracks += mot.live_track_count();
    const auto& expected = tape.tracks[k];
    bool same = views.size() == expected.size();
    for (std::size_t v = 0; same && v < views.size(); ++v) {
      same = same_view(views[v], expected[v]);
    }
    if (!same) {
      if (totals_.mot_mismatched_frames == 0 && ok) {
        why = spec.name + " run " + std::to_string(run_index) + " frame " +
              std::to_string(k) + ": MOT replay differs from the ADS tracks";
      }
      ++totals_.mot_mismatched_frames;
      ok = false;
    }
  }
  return ok;
}

void add_stage_metrics(const StageTotals& t, const StageTotals& fixed,
                       Report& report) {
  const double frames = t.frames == 0 ? 1.0 : static_cast<double>(t.frames);
  const auto per_frame = [&](std::uint64_t ns) {
    return static_cast<double>(ns) / frames;
  };
  report.add("sim.ground_truth_ns", per_frame(t.ground_truth_ns), "ns");
  report.add("sim.step_ns", per_frame(t.step_ns), "ns");
  report.add("perception.detect_ns", per_frame(t.detect_ns), "ns");
  report.add("perception.lidar_scan_ns", per_frame(t.lidar_scan_ns), "ns");
  report.add("core.robotack_ns", per_frame(t.robotack_ns), "ns");
  report.add("ads.ingest_lidar_ns", per_frame(t.ingest_lidar_ns), "ns");
  report.add("ads.perception_ns", per_frame(t.ads_perception_ns), "ns");
  report.add("ads.plan_ns", per_frame(t.ads_plan_ns), "ns");
  report.add("defense.observe_ns", per_frame(t.defense_observe_ns), "ns");
  report.add("safety.record_ns", per_frame(t.safety_record_ns), "ns");
  const double mot_frames =
      t.mot_frames == 0 ? 1.0 : static_cast<double>(t.mot_frames);
  report.add("perception.mot_ns", static_cast<double>(t.mot_ns) / mot_frames,
             "ns");
  report.add("perception.tracks_per_frame",
             static_cast<double>(t.mot_live_tracks) / mot_frames, "count");
  const double cells = t.cells == 0 ? 1.0 : static_cast<double>(t.cells);
  report.add("experiments.cell_setup_us",
             static_cast<double>(t.cell_setup_ns) / cells / 1e3, "us");
  report.add("experiments.unattributed_frac", 1.0 - t.coverage(), "ratio");
  const double fixed_cells =
      fixed.cells == 0 ? 1.0 : static_cast<double>(fixed.cells);
  report.add("experiments.frames_per_run",
             static_cast<double>(fixed.frames) / fixed_cells, "count");
  const double ref_cells =
      fixed.ref_cells == 0 ? 1.0 : static_cast<double>(fixed.ref_cells);
  report.add("experiments.allocs_per_run",
             static_cast<double>(fixed.ref_allocs) / ref_cells, "count");
}

}  // namespace perfbench
