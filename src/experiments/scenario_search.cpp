#include "experiments/scenario_search.hpp"

#include <algorithm>
#include <cmath>

#include "experiments/reporting.hpp"
#include "experiments/transfer_matrix.hpp"
#include "stats/hash.hpp"

namespace rt::experiments {

namespace {

/// Seed of the n-th sample drawn for a template: a pure function of
/// (search seed, template name, counter) so the search is reproducible and
/// immune to registry reordering.
std::uint64_t sample_seed_for(std::uint64_t search_seed,
                              const std::string& template_key,
                              std::uint64_t counter) {
  std::uint64_t h = stats::fnv1a_u64(stats::kFnv1aOffset, search_seed);
  h = stats::fnv1a_str(h, template_key);
  return stats::fnv1a_u64(h, counter);
}

double score_campaign(const CampaignResult& result, SearchObjective objective) {
  if (result.runs.empty()) return 0.0;
  switch (objective) {
    case SearchObjective::kAttackSuccess:
      return result.crash_rate() + 0.5 * result.eb_rate();
    case SearchObjective::kEvadeMonitors: {
      int evading = 0;
      for (const RunResult& r : result.runs) {
        const bool damaging = r.crash || r.eb;
        if (r.attack.triggered && damaging && !r.defense.detected) ++evading;
      }
      return static_cast<double>(evading) /
             static_cast<double>(result.runs.size());
    }
  }
  return 0.0;
}

}  // namespace

CleanRunCheck check_clean_run(const sim::SampledScenario& sample,
                              const LoopConfig& base) {
  CleanRunCheck check;
  const sim::Scenario scenario = sample.make();
  check.report = sim::check_scenario(scenario);

  LoopConfig cfg = base;
  cfg.keep_timeline = true;
  const std::uint64_t loop_seed = stats::fnv1a_u64(
      stats::fnv1a_str(stats::kFnv1aOffset, "clean-run"), sample.seed);
  ClosedLoop loop(scenario, cfg, loop_seed);
  check.golden = loop.run();
  const RunResult& r = check.golden;

  if (r.collision) {
    check.report.add("golden-collision",
                     "unattacked run ends in a physical collision (min "
                     "delta " + fmt(r.min_delta, 2) + " m)");
  }
  if (r.crash) {
    check.report.add("golden-crash",
                     "unattacked run earns the accident label (min delta " +
                         fmt(r.min_delta, 2) + " m)");
  }
  if (r.defense.flagged) {
    std::string detail = r.defense.first_monitor + " fires at t=" +
                         fmt(r.defense.first_alert_time, 2) +
                         " s on a clean run";
    for (const auto& m : r.defense.monitors) {
      if (m.fired) detail += "; " + m.monitor + ": " + m.reason;
    }
    check.report.add("monitor-false-positive", detail);
  }
  // Ego actuation envelope over the recorded timeline: speed bounds plus
  // finite-difference acceleration against the plant limits (0.1 m/s^2
  // tolerance absorbs the discrete reconstruction).
  const sim::EgoLimits limits = scenario.ego.limits();
  const double dt = cfg.camera_dt();
  bool speed_flagged = false;
  bool accel_flagged = false;
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    const auto& s = r.timeline[i];
    if (!speed_flagged &&
        (s.ego_speed < -1e-6 || s.ego_speed > limits.max_speed + 1e-6)) {
      speed_flagged = true;
      check.report.add("ego-speed", "speed " + fmt(s.ego_speed, 2) +
                                        " m/s outside [0, " +
                                        fmt(limits.max_speed, 2) +
                                        "] at t=" + fmt(s.time, 2));
    }
    if (i == 0) continue;
    const double accel = (s.ego_speed - r.timeline[i - 1].ego_speed) / dt;
    if (!accel_flagged && (accel > limits.max_accel + 0.1 ||
                           accel < -limits.max_decel - 0.1)) {
      accel_flagged = true;
      check.report.add("ego-accel", "accel " + fmt(accel, 2) +
                                        " m/s^2 outside [-" +
                                        fmt(limits.max_decel, 2) + ", " +
                                        fmt(limits.max_accel, 2) +
                                        "] at t=" + fmt(s.time, 2));
    }
  }
  return check;
}

std::vector<std::string> ScenarioSearchResult::csv_header() {
  return {"template", "seed",           "score", "crash_rate",
          "eb_rate",  "detection_rate", "runs",  "spec"};
}

std::vector<std::vector<std::string>> ScenarioSearchResult::csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(frontier.size());
  for (const auto& e : frontier) {
    rows.push_back({e.template_key, std::to_string(e.sample_seed),
                    fmt(e.score, 4), fmt(e.crash_rate, 4), fmt(e.eb_rate, 4),
                    fmt(e.detection_rate, 4), std::to_string(e.runs),
                    e.spec});
  }
  return rows;
}

ScenarioSearchResult run_scenario_search(const ScenarioSearchConfig& cfg,
                                         const GridExecutor& executor) {
  const auto& registry = sim::ScenarioRegistry::global();
  const sim::ScenarioSampler sampler(registry);
  const std::vector<std::string> templates =
      cfg.templates.empty() ? registry.keys() : cfg.templates;

  ScenarioSearchResult out;
  out.objective = cfg.objective;
  if (templates.empty() || cfg.rounds <= 0 || cfg.samples_per_round <= 0 ||
      cfg.runs_per_sample <= 0) {
    return out;
  }

  std::vector<double> best_score(templates.size(), 0.0);
  std::vector<std::uint64_t> drawn(templates.size(), 0);

  for (int round = 0; round < cfg.rounds; ++round) {
    // Deterministic bandit allocation: weight = exploration floor + best
    // score seen, largest-remainder rounding with template-order
    // tie-breaks. Every template keeps drawing; promising ones draw more.
    std::vector<double> weight(templates.size());
    double total_weight = 0.0;
    for (std::size_t t = 0; t < templates.size(); ++t) {
      weight[t] = 0.25 + best_score[t];
      total_weight += weight[t];
    }
    std::vector<int> alloc(templates.size(), 0);
    std::vector<std::pair<double, std::size_t>> remainders;
    int allocated = 0;
    for (std::size_t t = 0; t < templates.size(); ++t) {
      const double share =
          cfg.samples_per_round * (weight[t] / total_weight);
      alloc[t] = static_cast<int>(std::floor(share));
      allocated += alloc[t];
      remainders.emplace_back(share - std::floor(share), t);
    }
    std::stable_sort(remainders.begin(), remainders.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    for (std::size_t i = 0; allocated < cfg.samples_per_round; ++i) {
      ++alloc[remainders[i % remainders.size()].second];
      ++allocated;
    }

    // Draw this round's samples; reject structurally broken ones before
    // spending closed-loop runs on them.
    std::vector<sim::SampledScenario> samples;
    std::vector<std::size_t> sample_template;
    std::vector<CampaignSpec> specs;
    for (std::size_t t = 0; t < templates.size(); ++t) {
      for (int i = 0; i < alloc[t]; ++i) {
        const std::uint64_t seed =
            sample_seed_for(cfg.seed, templates[t], drawn[t]++);
        sim::SampledScenario sample = sampler.sample(templates[t], seed);
        if (!sim::check_scenario_structure(sample.make()).ok()) {
          ++out.rejected_samples;
          continue;
        }
        CampaignSpec spec;
        spec.name = "fuzz-" + sample.template_key + "-" +
                    std::to_string(sample.seed);
        spec.scenario = sample.template_key;
        spec.vector = transfer_vector_for(sample.template_key);
        spec.mode = cfg.mode;
        spec.runs = cfg.runs_per_sample;
        spec.seed = sample.seed;
        spec.params = sample.params;
        spec.monitors = cfg.monitors;
        samples.push_back(std::move(sample));
        sample_template.push_back(t);
        specs.push_back(std::move(spec));
      }
    }
    if (specs.empty()) continue;

    const std::vector<CampaignResult> results = executor(specs);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CampaignResult& result = results[i];
      SearchFrontierEntry entry;
      entry.template_key = samples[i].template_key;
      entry.sample_seed = samples[i].seed;
      entry.score = score_campaign(result, cfg.objective);
      entry.crash_rate = result.crash_rate();
      entry.eb_rate = result.eb_rate();
      entry.detection_rate = result.detection_rate();
      entry.runs = result.n();
      entry.spec = samples[i].spec_string();
      out.total_runs += result.n();
      best_score[sample_template[i]] =
          std::max(best_score[sample_template[i]], entry.score);
      out.evaluated.push_back(std::move(entry));
    }
  }

  // Frontier: the best evaluated sample of each template, score-descending
  // (ties broken by template name for stable output).
  for (const auto& key : templates) {
    const SearchFrontierEntry* best = nullptr;
    for (const auto& e : out.evaluated) {
      if (e.template_key != key) continue;
      if (best == nullptr || e.score > best->score) best = &e;
    }
    if (best != nullptr) out.frontier.push_back(*best);
  }
  std::stable_sort(out.frontier.begin(), out.frontier.end(),
                   [](const SearchFrontierEntry& a,
                      const SearchFrontierEntry& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.template_key < b.template_key;
                   });
  return out;
}

}  // namespace rt::experiments
