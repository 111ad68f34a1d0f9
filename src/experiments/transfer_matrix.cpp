#include "experiments/transfer_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "experiments/reporting.hpp"
#include "runtime/thread_pool.hpp"

namespace rt::experiments {

const TransferCell& TransferMatrix::at(const std::string& train_set,
                                       const std::string& eval_family) const {
  for (const auto& cell : cells) {
    if (cell.train_set == train_set && cell.eval_family == eval_family) {
      return cell;
    }
  }
  throw std::out_of_range("TransferMatrix::at: no cell (" + train_set +
                          ", " + eval_family + ")");
}

std::vector<std::string> TransferMatrix::csv_header() {
  return {"train_set", "eval_family", "n_eval",       "accuracy",
          "mae_m",     "ttc_err_s",   "campaign_runs", "triggered",
          "eb_rate",   "crash_rate"};
}

std::vector<std::vector<std::string>> TransferMatrix::csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(cells.size());
  for (const auto& c : cells) {
    rows.push_back({c.train_set, c.eval_family, std::to_string(c.n_eval),
                    fmt(c.accuracy, 3), fmt(c.mae_m, 2), fmt(c.ttc_err_s, 2),
                    std::to_string(c.campaign_n), fmt(c.triggered_rate, 3),
                    fmt(c.eb_rate, 3), fmt(c.crash_rate, 3)});
  }
  return rows;
}

core::AttackVector transfer_vector_for(const std::string& family) {
  // Registry metadata, not key string-matching: user-registered families
  // with out-of-corridor geometry get Move_In rows automatically (the
  // registry resolves `VictimGeometry::kAuto` from the canonical world at
  // registration — DS-3/DS-4 resolve out-of-corridor, every other builtin
  // in-corridor).
  const sim::ScenarioSpec& spec = sim::ScenarioRegistry::global().get(family);
  return spec.victim_geometry == sim::VictimGeometry::kOutOfCorridor
             ? core::AttackVector::kMoveIn
             : core::AttackVector::kMoveOut;
}

TransferMatrix run_transfer_matrix(const TransferConfig& cfg,
                                   const LoopConfig& loop) {
  const auto& registry = sim::ScenarioRegistry::global();

  TransferMatrix out;
  out.eval_families =
      cfg.eval_families.empty() ? registry.keys() : cfg.eval_families;
  std::vector<TransferTrainSet> train_sets = cfg.train_sets;
  if (train_sets.empty()) {
    for (const auto& family : out.eval_families) {
      train_sets.push_back({family, {family}});
    }
  }
  for (const auto& t : train_sets) out.train_sets.push_back(t.name);

  // 1. One launch dataset per involved family, generated with the family's
  //    natural vector and split into train/holdout parts. The split seed is
  //    decorrelated per family via the dataset fingerprint. Every family's
  //    launches run as one flat grid on the pool, each launch's randomness
  //    a pure function of (cfg.sh.seed, family grid), so the datasets are
  //    identical at any thread count.
  std::set<std::string> family_set(out.eval_families.begin(),
                                   out.eval_families.end());
  for (const auto& t : train_sets) {
    family_set.insert(t.families.begin(), t.families.end());
  }
  const std::vector<std::string> families(family_set.begin(),
                                          family_set.end());
  std::vector<ShLaunchGrid> grids;
  grids.reserve(families.size());
  for (const auto& family : families) {
    const core::AttackVector v = transfer_vector_for(family);
    ShTrainingConfig fam_cfg = cfg.sh;
    fam_cfg.curricula[v] = {family};
    grids.push_back({v, std::move(fam_cfg)});
  }
  runtime::ThreadPool pool(cfg.threads);
  const std::vector<nn::Dataset> datasets =
      generate_sh_datasets(grids, loop, pool);
  std::map<std::string, std::pair<nn::Dataset, nn::Dataset>> splits;
  for (std::size_t i = 0; i < families.size(); ++i) {
    splits[families[i]] = datasets[i].split_seeded(
        1.0 - cfg.holdout_fraction,
        cfg.sh.seed ^ sh_dataset_fingerprint(grids[i].vector, grids[i].cfg));
  }

  // 2. One oracle per train set, on the concatenated train splits of its
  //    member families. Every oracle starts from the same seeded weights so
  //    rows differ only by curriculum; each training is self-seeded
  //    (Trainer derives its Rng from the config), so the trainings run one
  //    per task on the pool with thread-count-invariant weights.
  std::vector<std::shared_ptr<core::SafetyOracle>> oracles(train_sets.size());
  pool.parallel_for(static_cast<int>(train_sets.size()), [&](int ti) {
    const TransferTrainSet& t = train_sets[static_cast<std::size_t>(ti)];
    std::vector<nn::Dataset> parts;
    parts.reserve(t.families.size());
    for (const auto& family : t.families) {
      parts.push_back(splits.at(family).first);
    }
    const nn::Dataset train_data = nn::Dataset::concat(parts);
    auto oracle = std::make_shared<core::SafetyOracle>(cfg.sh.seed ^ 0xabcd);
    if (train_data.size() > 0) {
      oracle->train(train_data, cfg.sh.train);
      oracle->set_provenance({"transfer", join(t.families, ","), 0});
    }
    oracles[static_cast<std::size_t>(ti)] = std::move(oracle);
  });

  // 3. Predictive transfer: score each oracle on every family's held-out
  //    launches.
  for (std::size_t ti = 0; ti < train_sets.size(); ++ti) {
    for (const auto& family : out.eval_families) {
      TransferCell cell;
      cell.train_set = train_sets[ti].name;
      cell.eval_family = family;
      const nn::Dataset& eval = splits.at(family).second;
      if (oracles[ti]->trained() && eval.size() > 0) {
        int within = 0;
        double abs_err_sum = 0.0;
        double ttc_err_sum = 0.0;
        const core::SafetyOracle& oracle = *oracles[ti];
        for (std::size_t j = 0; j < eval.size(); ++j) {
          const double pred =
              oracle.predict(eval.x(0, j), {eval.x(1, j), eval.x(2, j)},
                             {eval.x(3, j), eval.x(4, j)}, eval.x(5, j));
          const double err = std::abs(pred - eval.y(0, j));
          within += err <= cfg.tolerance_m ? 1 : 0;
          abs_err_sum += err;
          // Meters-to-seconds via the launch's longitudinal closing speed
          // (floored at 1 m/s so stationary victims stay finite).
          ttc_err_sum += err / std::max(1.0, std::abs(eval.x(1, j)));
        }
        cell.n_eval = static_cast<int>(eval.size());
        cell.accuracy = static_cast<double>(within) /
                        static_cast<double>(eval.size());
        cell.mae_m = abs_err_sum / static_cast<double>(eval.size());
        cell.ttc_err_s = ttc_err_sum / static_cast<double>(eval.size());
      }
      out.cells.push_back(std::move(cell));
    }
  }

  // 4. Behavioral transfer: deploy each train set's oracle (for every
  //    vector) in R-mode campaigns over the eval families, one scheduler
  //    batch per row. Campaign seeds follow the grid convention
  //    (base + column * 1000) so every row replays the same eval runs.
  if (cfg.campaign_runs > 0) {
    for (std::size_t ti = 0; ti < train_sets.size(); ++ti) {
      if (!oracles[ti]->trained()) continue;
      OracleSet set;
      for (const auto v :
           {core::AttackVector::kMoveOut, core::AttackVector::kMoveIn,
            core::AttackVector::kDisappear}) {
        set[v] = oracles[ti];
      }
      CampaignRunner runner(loop, set);
      CampaignScheduler scheduler(runner, cfg.threads);
      std::vector<CampaignSpec> specs;
      specs.reserve(out.eval_families.size());
      for (std::size_t ei = 0; ei < out.eval_families.size(); ++ei) {
        const auto& family = out.eval_families[ei];
        specs.push_back({train_sets[ti].name + "->" + family, family,
                         transfer_vector_for(family), AttackMode::kRobotack,
                         cfg.campaign_runs, cfg.sh.seed + ei * 1000,
                         std::nullopt});
      }
      const auto results = scheduler.run_all(specs);
      for (std::size_t ei = 0; ei < results.size(); ++ei) {
        TransferCell& cell =
            out.cells[ti * out.eval_families.size() + ei];
        const auto& r = results[ei];
        cell.campaign_n = r.n();
        cell.triggered_rate =
            r.n() > 0 ? static_cast<double>(r.triggered_count()) /
                            static_cast<double>(r.n())
                      : 0.0;
        cell.eb_rate = r.eb_rate();
        cell.crash_rate = r.crash_rate();
      }
    }
  }
  return out;
}

}  // namespace rt::experiments
