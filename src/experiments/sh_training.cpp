#include "experiments/sh_training.hpp"

#include <algorithm>
#include <array>
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

nn::Dataset generate_sh_dataset(core::AttackVector v, const LoopConfig& base,
                                const ShTrainingConfig& cfg) {
  const auto& registry = sim::ScenarioRegistry::global();

  // Enumerate the launch grid in the canonical (scenario, delta, k, repeat)
  // order — the dataset's sample order regardless of how many threads run
  // the launches.
  struct Cell {
    std::uint64_t scenario_index;
    const std::string* key;
    double delta_trigger;
    int k;
    int rep;
  };
  const std::vector<std::string> curriculum = scenarios_for(v, cfg);
  std::vector<Cell> cells;
  cells.reserve(curriculum.size() * cfg.delta_triggers.size() *
                cfg.ks.size() * static_cast<std::size_t>(cfg.repeats));
  for (const std::string& key : curriculum) {
    // The registration-stable index keeps the derived streams identical to
    // the ScenarioId-enum era (DS-1..DS-5 are indices 0..4), so cached
    // oracles and pinned aggregates survive the registry redesign.
    const auto scenario_index =
        static_cast<std::uint64_t>(registry.index_of(key));
    for (const double delta_trigger : cfg.delta_triggers) {
      for (const int k : cfg.ks) {
        for (int rep = 0; rep < cfg.repeats; ++rep) {
          cells.push_back({scenario_index, &key, delta_trigger, k, rep});
        }
      }
    }
  }

  // One slot per cell; launches that never trigger leave theirs empty and
  // the compaction below preserves grid order — exactly the samples (and
  // order) the historical serial loop produced.
  struct Sample {
    std::vector<double> features;
    double target{0.0};
    bool valid{false};
  };
  std::vector<Sample> slots(cells.size());

  // `derive` never advances the parent engine, so each launch's stream is a
  // pure function of (cfg.seed, grid coordinates) and the grid parallelizes
  // with bit-identical results at any thread count.
  const stats::Rng root(cfg.seed);
  runtime::ThreadPool pool(cfg.threads);
  pool.parallel_for(static_cast<int>(cells.size()), [&](int c) {
    const Cell& cell = cells[static_cast<std::size_t>(c)];
    stats::Rng run_rng = root.derive(
        (cell.scenario_index << 40) ^
        (static_cast<std::uint64_t>(
             std::llround(cell.delta_trigger * 16.0))
         << 24) ^
        (static_cast<std::uint64_t>(cell.k) << 8) ^
        static_cast<std::uint64_t>(cell.rep));
    const auto scenario_seed = run_rng.engine()();
    const auto loop_seed = run_rng.engine()();
    const auto attacker_seed = run_rng.engine()();

    stats::Rng scenario_rng(scenario_seed);
    sim::Scenario scenario = registry.make(*cell.key, scenario_rng);

    LoopConfig loop_cfg = base;
    loop_cfg.keep_timeline = true;

    core::RobotackConfig acfg = make_attacker_config(
        loop_cfg, v, core::TimingPolicy::kAtDeltaThreshold);
    acfg.delta_trigger = cell.delta_trigger;
    acfg.fixed_k = cell.k;

    ClosedLoop loop(scenario, loop_cfg, loop_seed);
    loop.set_attacker(std::make_unique<core::Robotack>(
        acfg, loop_cfg.camera, loop_cfg.noise, loop_cfg.mot,
        attacker_seed));
    // Nothing past the label frame is read, so the launch stops there.
    const RunResult r = loop.run(cell.k);
    if (!r.attack.triggered || r.timeline.empty()) return;

    // Label: ground-truth delta exactly k frames after the launch
    // (clamped to the last sample if the run halted earlier — the
    // halt itself is the safety outcome).
    const auto launch_idx = static_cast<std::size_t>(
        std::llround(r.attack.start_time / loop_cfg.camera_dt()));
    const std::size_t label_idx =
        std::min(r.timeline.size() - 1,
                 launch_idx + static_cast<std::size_t>(cell.k));
    Sample& slot = slots[static_cast<std::size_t>(c)];
    slot.features = core::SafetyOracle::features(
        r.attack.delta_at_launch, r.attack.v_rel_at_launch,
        r.attack.a_rel_at_launch, static_cast<double>(cell.k));
    slot.target = r.timeline[label_idx].target_delta;
    slot.valid = true;
  });

  std::vector<std::vector<double>> features;
  std::vector<double> targets;
  features.reserve(slots.size());
  targets.reserve(slots.size());
  for (Sample& s : slots) {
    if (!s.valid) continue;
    features.push_back(std::move(s.features));
    targets.push_back(s.target);
  }
  return nn::Dataset::from_samples(features, targets);
}

std::shared_ptr<core::SafetyOracle> train_oracle(
    core::AttackVector v, const LoopConfig& base,
    const ShTrainingConfig& cfg, nn::TrainResult* out_result) {
  auto oracle = std::make_shared<core::SafetyOracle>(cfg.seed ^ 0xabcd);
  const nn::Dataset data = generate_sh_dataset(v, base, cfg);
  const nn::TrainResult result = oracle->train(data, cfg.train);
  oracle->set_provenance({core::to_string(v),
                          join(scenarios_for(v, cfg), ","),
                          sh_dataset_fingerprint(v, cfg)});
  if (out_result != nullptr) *out_result = result;
  return oracle;
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
  namespace fs = std::filesystem;
  fs::create_directories(cache_dir);
  const std::string path = oracle_cache_path(cache_dir, v, cfg);
  auto oracle = std::make_shared<core::SafetyOracle>();
  try {
    if (oracle->load(path)) return oracle;
  } catch (const std::exception&) {
    // A file that does not parse (e.g. left by a writer that predates the
    // atomic save and was killed mid-write) is a cache miss: retrain and
    // overwrite it.
  }
  oracle = train_oracle(v, base, cfg);
  oracle->save(path);
  return oracle;
}

OracleSet load_or_train_oracles(const std::string& cache_dir,
                                const LoopConfig& base,
                                const ShTrainingConfig& cfg) {
  // The three per-vector pipelines (dataset generation + training) are
  // independent, so they fan out across the pool; each one's randomness is
  // a pure function of cfg.seed (datasets are grid-derived, the trainer
  // seeds its own Rng), so the trained weights are identical at any thread
  // count. When the outer fan-out is parallel, each pipeline's inner
  // dataset grid gets a proportional slice of the threads instead of
  // oversubscribing the machine three-fold.
  constexpr core::AttackVector kVectors[] = {core::AttackVector::kMoveOut,
                                             core::AttackVector::kMoveIn,
                                             core::AttackVector::kDisappear};
  const unsigned total_threads =
      cfg.threads == 0 ? runtime::ThreadPool::default_threads() : cfg.threads;
  const unsigned outer = std::min<unsigned>(3, total_threads);
  runtime::ThreadPool pool(outer);
  std::array<std::shared_ptr<core::SafetyOracle>, 3> slots;
  pool.parallel_for(3, [&](int i) {
    ShTrainingConfig inner = cfg;
    inner.threads = std::max(1u, total_threads / outer);
    slots[static_cast<std::size_t>(i)] =
        load_or_train_oracle(kVectors[i], cache_dir, base, inner);
  });
  OracleSet set;
  for (int i = 0; i < 3; ++i) set[kVectors[i]] = slots[static_cast<std::size_t>(i)];
  return set;
}

}  // namespace rt::experiments
