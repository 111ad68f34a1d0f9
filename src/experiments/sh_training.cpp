#include "experiments/sh_training.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "experiments/reporting.hpp"
#include "runtime/thread_pool.hpp"
#include "stats/hash.hpp"

namespace rt::experiments {

std::vector<std::string> scenarios_for(core::AttackVector v) {
  switch (v) {
    case core::AttackVector::kMoveOut:
    case core::AttackVector::kDisappear:
      return {"DS-1", "DS-2"};
    case core::AttackVector::kMoveIn:
      return {"DS-3", "DS-4"};
  }
  return {};
}

std::vector<std::string> scenarios_for(core::AttackVector v,
                                       const ShTrainingConfig& cfg) {
  const auto it = cfg.curricula.find(v);
  if (it != cfg.curricula.end() && !it->second.empty()) return it->second;
  return scenarios_for(v);
}

std::uint64_t sh_dataset_fingerprint(core::AttackVector v,
                                     const ShTrainingConfig& cfg) {
  std::uint64_t h = stats::kFnv1aOffset;
  h = stats::fnv1a_str(h, core::to_string(v));
  for (const auto& key : scenarios_for(v, cfg)) h = stats::fnv1a_str(h, key);
  for (const double d : cfg.delta_triggers) h = stats::fnv1a_double(h, d);
  for (const int k : cfg.ks) {
    h = stats::fnv1a_u64(h, static_cast<std::uint64_t>(k));
  }
  h = stats::fnv1a_u64(h, static_cast<std::uint64_t>(cfg.repeats));
  h = stats::fnv1a_u64(h, cfg.seed);
  return h;
}

std::string oracle_cache_path(const std::string& cache_dir,
                              core::AttackVector v,
                              const ShTrainingConfig& cfg) {
  namespace fs = std::filesystem;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(sh_dataset_fingerprint(v, cfg)));
  return (fs::path(cache_dir) / (std::string("sh_oracle_") +
                                 core::to_string(v) + "-" + hex + ".txt"))
      .string();
}

namespace {

/// One launch of a grid, by its grid coordinates.
struct Launch {
  std::size_t grid;  ///< index of its grid in the grids being run
  std::uint64_t scenario_index;
  std::string key;
  double delta_trigger;
  int k;
  int rep;
};

/// A launch's labeled sample; a launch that never triggers leaves its
/// slot invalid.
struct Sample {
  std::vector<double> features;
  double target{0.0};
  bool valid{false};
};

/// Appends grid `g`'s launches in the canonical (scenario, delta, k,
/// repeat) order: the dataset's sample order regardless of how many
/// threads run them.
void enumerate_launches(std::size_t g, const ShLaunchGrid& grid,
                        std::vector<Launch>& launches) {
  const auto& registry = sim::ScenarioRegistry::global();
  const ShTrainingConfig& cfg = grid.cfg;
  for (const std::string& key : scenarios_for(grid.vector, cfg)) {
    // The registration-stable index keeps the derived streams identical to
    // the ScenarioId-enum era (DS-1..DS-5 are indices 0..4), so cached
    // oracles and pinned aggregates survive the registry redesign.
    const auto scenario_index =
        static_cast<std::uint64_t>(registry.index_of(key));
    for (const double delta_trigger : cfg.delta_triggers) {
      for (const int k : cfg.ks) {
        for (int rep = 0; rep < cfg.repeats; ++rep) {
          launches.push_back({g, scenario_index, key, delta_trigger, k, rep});
        }
      }
    }
  }
}

/// Runs one launch into its own slot. `derive` never advances `root`, so
/// the launch's stream is a pure function of (seed, grid coordinates) and
/// launches run in any order, on any thread, with bit-identical results.
void run_launch(core::AttackVector v, const Launch& launch,
                const LoopConfig& base, const stats::Rng& root,
                Sample& slot) {
  stats::Rng run_rng = root.derive(
      (launch.scenario_index << 40) ^
      (static_cast<std::uint64_t>(std::llround(launch.delta_trigger * 16.0))
       << 24) ^
      (static_cast<std::uint64_t>(launch.k) << 8) ^
      static_cast<std::uint64_t>(launch.rep));
  const auto scenario_seed = run_rng.engine()();
  const auto loop_seed = run_rng.engine()();
  const auto attacker_seed = run_rng.engine()();

  stats::Rng scenario_rng(scenario_seed);
  sim::Scenario scenario =
      sim::ScenarioRegistry::global().make(launch.key, scenario_rng);

  LoopConfig loop_cfg = base;
  loop_cfg.keep_timeline = true;

  core::RobotackConfig acfg = make_attacker_config(
      loop_cfg, v, core::TimingPolicy::kAtDeltaThreshold);
  acfg.delta_trigger = launch.delta_trigger;
  acfg.fixed_k = launch.k;

  ClosedLoop loop(scenario, loop_cfg, loop_seed);
  loop.set_attacker(std::make_unique<core::Robotack>(
      acfg, loop_cfg.camera, loop_cfg.noise, loop_cfg.mot, attacker_seed));
  // Nothing past the label frame is read, so the launch stops there.
  const RunResult r = loop.run(launch.k);
  if (!r.attack.triggered || r.timeline.empty()) return;

  // Label: ground-truth delta exactly k frames after the launch (clamped
  // to the last sample if the run halted earlier — the halt itself is the
  // safety outcome).
  const auto launch_idx = static_cast<std::size_t>(
      std::llround(r.attack.start_time / loop_cfg.camera_dt()));
  const std::size_t label_idx =
      std::min(r.timeline.size() - 1,
               launch_idx + static_cast<std::size_t>(launch.k));
  slot.features = core::SafetyOracle::features(
      r.attack.delta_at_launch, r.attack.v_rel_at_launch,
      r.attack.a_rel_at_launch, static_cast<double>(launch.k));
  slot.target = r.timeline[label_idx].target_delta;
  slot.valid = true;
}

/// One dataset per grid of its valid slots, in grid order: exactly the
/// samples (and order) the historical serial loop produced.
std::vector<nn::Dataset> compact(const std::vector<Launch>& launches,
                                 std::vector<Sample>& slots,
                                 std::size_t grids) {
  std::vector<std::vector<std::vector<double>>> features(grids);
  std::vector<std::vector<double>> targets(grids);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].valid) continue;
    features[launches[i].grid].push_back(std::move(slots[i].features));
    targets[launches[i].grid].push_back(slots[i].target);
  }
  std::vector<nn::Dataset> datasets;
  datasets.reserve(grids);
  for (std::size_t g = 0; g < grids; ++g) {
    datasets.push_back(nn::Dataset::from_samples(features[g], targets[g]));
  }
  return datasets;
}

/// A fresh oracle trained on `data`, with the provenance of `v`'s
/// curriculum under `cfg`.
std::shared_ptr<core::SafetyOracle> train_on(core::AttackVector v,
                                             const ShTrainingConfig& cfg,
                                             const nn::Dataset& data,
                                             nn::TrainResult* out_result) {
  auto oracle = std::make_shared<core::SafetyOracle>(cfg.seed ^ 0xabcd);
  const nn::TrainResult result = oracle->train(data, cfg.train);
  oracle->set_provenance({core::to_string(v),
                          join(scenarios_for(v, cfg), ","),
                          sh_dataset_fingerprint(v, cfg)});
  if (out_result != nullptr) *out_result = result;
  return oracle;
}

/// The oracle cached at `path`, or null on a miss. A file that does not
/// parse (e.g. left by a writer that predates the atomic save and was
/// killed mid-write) is a miss: it is retrained and overwritten.
std::shared_ptr<core::SafetyOracle> load_cached(const std::string& path) {
  auto oracle = std::make_shared<core::SafetyOracle>();
  try {
    if (oracle->load(path)) return oracle;
  } catch (const std::exception&) {
  }
  return nullptr;
}

/// The oracles of `vectors`, set up in two flat phases on one pool: after
/// every cached oracle loads, the launches of all vectors still missing
/// run as one flat grid, then their trainings run one per task, each saved
/// as soon as it is trained. Each launch's and each training's randomness
/// is a pure function of cfg.seed, so the trained weights are identical at
/// any thread count.
OracleSet set_up(const std::string& cache_dir,
                 const std::vector<core::AttackVector>& vectors,
                 const LoopConfig& base, const ShTrainingConfig& cfg) {
  std::filesystem::create_directories(cache_dir);
  OracleSet set;
  std::vector<ShLaunchGrid> missing;
  for (const core::AttackVector v : vectors) {
    if (auto cached = load_cached(oracle_cache_path(cache_dir, v, cfg))) {
      set[v] = std::move(cached);
    } else {
      missing.push_back({v, cfg});
    }
  }
  if (missing.empty()) return set;

  runtime::ThreadPool pool(cfg.threads);
  const std::vector<nn::Dataset> datasets =
      generate_sh_datasets(missing, base, pool);
  std::vector<std::shared_ptr<core::SafetyOracle>> trained(missing.size());
  pool.parallel_for(static_cast<int>(missing.size()), [&](int i) {
    const auto m = static_cast<std::size_t>(i);
    const core::AttackVector v = missing[m].vector;
    trained[m] = train_on(v, cfg, datasets[m], nullptr);
    trained[m]->save(oracle_cache_path(cache_dir, v, cfg));
  });
  for (std::size_t m = 0; m < missing.size(); ++m) {
    set[missing[m].vector] = std::move(trained[m]);
  }
  return set;
}

}  // namespace

std::vector<nn::Dataset> generate_sh_datasets(
    const std::vector<ShLaunchGrid>& grids, const LoopConfig& base,
    runtime::ThreadPool& pool) {
  std::vector<Launch> launches;
  std::vector<stats::Rng> roots;
  roots.reserve(grids.size());
  for (std::size_t g = 0; g < grids.size(); ++g) {
    enumerate_launches(g, grids[g], launches);
    roots.emplace_back(grids[g].cfg.seed);
  }
  std::vector<Sample> slots(launches.size());
  pool.parallel_for(static_cast<int>(launches.size()), [&](int i) {
    const Launch& launch = launches[static_cast<std::size_t>(i)];
    run_launch(grids[launch.grid].vector, launch, base, roots[launch.grid],
               slots[static_cast<std::size_t>(i)]);
  });
  return compact(launches, slots, grids.size());
}

nn::Dataset generate_sh_dataset(core::AttackVector v, const LoopConfig& base,
                                const ShTrainingConfig& cfg) {
  runtime::ThreadPool pool(cfg.threads);
  return std::move(generate_sh_datasets({{v, cfg}}, base, pool).front());
}

std::shared_ptr<core::SafetyOracle> train_oracle(
    core::AttackVector v, const LoopConfig& base,
    const ShTrainingConfig& cfg, nn::TrainResult* out_result) {
  return train_on(v, cfg, generate_sh_dataset(v, base, cfg), out_result);
}

std::string default_cache_dir() {
  if (const char* env = std::getenv("ROBOTACK_DATA_DIR")) return env;
  namespace fs = std::filesystem;
  // Prefer an existing source-tree data/ directory (benches run from the
  // build tree); otherwise use ./data.
  for (const char* candidate : {"data", "../data", "../../data"}) {
    if (fs::exists(candidate) && fs::is_directory(candidate)) {
      return candidate;
    }
  }
  return "data";
}

std::shared_ptr<core::SafetyOracle> load_or_train_oracle(
    core::AttackVector v, const std::string& cache_dir,
    const LoopConfig& base, const ShTrainingConfig& cfg) {
  return set_up(cache_dir, {v}, base, cfg).at(v);
}

OracleSet load_or_train_oracles(const std::string& cache_dir,
                                const LoopConfig& base,
                                const ShTrainingConfig& cfg) {
  return set_up(cache_dir,
                {core::AttackVector::kMoveOut, core::AttackVector::kMoveIn,
                 core::AttackVector::kDisappear},
                base, cfg);
}

}  // namespace rt::experiments
