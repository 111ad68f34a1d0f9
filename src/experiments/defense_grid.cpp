#include "experiments/defense_grid.hpp"

#include "defense/monitor_registry.hpp"
#include "experiments/campaign_grid.hpp"
#include "experiments/reporting.hpp"
#include "experiments/transfer_matrix.hpp"
#include "sim/scenario_registry.hpp"

namespace rt::experiments {

std::vector<std::string> DefenseGrid::csv_header() {
  return {"campaign",       "scenario",    "vector",
          "mode",           "monitor",     "runs",
          "triggered",      "detected",    "false_alarms",
          "detection_rate", "fp_rate",     "median_frames_to_detection",
          "eb_rate",        "crash_rate"};
}

std::vector<std::vector<std::string>> DefenseGrid::csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(cells.size());
  for (const auto& c : cells) {
    rows.push_back({c.campaign, c.scenario, c.vector_name, c.mode,
                    c.monitor.empty() ? "none" : c.monitor,
                    std::to_string(c.n), std::to_string(c.triggered),
                    std::to_string(c.detected),
                    std::to_string(c.false_alarms),
                    fmt(c.detection_rate, 4), fmt(c.false_alarm_rate, 4),
                    fmt(c.median_frames_to_detection, 1), fmt(c.eb_rate, 4),
                    fmt(c.crash_rate, 4)});
  }
  return rows;
}

DefenseGrid run_defense_grid(const DefenseGridConfig& cfg,
                             const GridExecutor& executor) {
  const std::vector<std::string> scenarios =
      cfg.scenarios.empty() ? sim::ScenarioRegistry::global().keys()
                            : cfg.scenarios;
  const std::vector<std::string> monitors =
      cfg.monitors.empty() ? defense::MonitorRegistry::global().keys()
                           : cfg.monitors;

  // One grid block per family: the attack vector is the family's natural
  // one, read from the victim-geometry metadata, so per-family vectors can
  // differ inside one seed-continuous grid.
  CampaignGridBuilder builder;
  builder.runs(cfg.runs).seed(cfg.seed).modes(cfg.modes).monitors(monitors);
  for (const auto& family : scenarios) {
    builder.scenarios({family})
        .vectors({transfer_vector_for(family)})
        .add_grid();
  }
  const auto results = executor(builder.build());

  DefenseGrid grid;
  grid.cells.reserve(results.size());
  for (const auto& r : results) {
    DefenseCell cell;
    cell.campaign = r.spec.name;
    cell.scenario = r.spec.scenario;
    cell.vector_name = core::to_string(r.spec.vector);
    cell.mode = to_string(r.spec.mode);
    cell.monitor = r.spec.monitors.empty() ? "" : r.spec.monitors.front();
    cell.n = r.n();
    cell.triggered = r.triggered_count();
    cell.detected = r.detected_count();
    cell.false_alarms = r.false_alarm_count();
    cell.detection_rate = r.detection_rate();
    cell.false_alarm_rate = r.false_alarm_rate();
    cell.median_frames_to_detection = r.median_frames_to_detection();
    cell.eb_rate = r.eb_rate();
    cell.crash_rate = r.crash_rate();
    grid.cells.push_back(std::move(cell));
  }
  return grid;
}

}  // namespace rt::experiments
