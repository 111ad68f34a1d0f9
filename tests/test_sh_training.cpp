// Curriculum-driven oracle training: curriculum resolution, the parallel
// launch grid's thread-count invariance, golden dataset-hash pins for the
// default (paper) curriculum, the launch horizon that stops each launch at
// its label frame, and the curriculum-keyed oracle cache.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "experiments/campaign_serde.hpp"
#include "experiments/sh_training.hpp"
#include "nn/serialize.hpp"
#include "sim/scenario_registry.hpp"

namespace rt::experiments {
namespace {

using core::AttackVector;

// Small launch grid: 8 launches per vector, sub-second even under ASan.
// (Seed 123, not the GoldenTableII 99: at seed 99 one DS-1 Move_Out launch
// sat on an optimization-level-sensitive branch, so its bits were not
// pinnable across the Release and Debug/ASan suites. The divergence was
// traced to the planner's std::pow(., 2.0), which gcc folds to a multiply
// at -O2 but routes through libm at -O0; it is squared explicitly now, and
// 123 is kept only to avoid re-pinning.)
ShTrainingConfig small_config() {
  ShTrainingConfig cfg;
  cfg.delta_triggers = {12.0, 20.0};
  cfg.ks = {10, 30};
  cfg.repeats = 1;
  cfg.seed = 123;
  cfg.train.epochs = 5;
  cfg.train.patience = 0;
  cfg.threads = 1;
  return cfg;
}

class TempDir {
 public:
  TempDir() {
    dir_ = std::filesystem::temp_directory_path() /
           ("sh_training_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  [[nodiscard]] std::string path() const { return dir_.string(); }

 private:
  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

// ----------------------------------------------------- curriculum lookup

TEST(ScenariosFor, PaperMappingIsTheDefault) {
  EXPECT_EQ(scenarios_for(AttackVector::kMoveOut),
            (std::vector<std::string>{"DS-1", "DS-2"}));
  EXPECT_EQ(scenarios_for(AttackVector::kDisappear),
            (std::vector<std::string>{"DS-1", "DS-2"}));
  EXPECT_EQ(scenarios_for(AttackVector::kMoveIn),
            (std::vector<std::string>{"DS-3", "DS-4"}));

  // The curriculum-aware overload falls back to the same mapping on a
  // default-constructed config.
  const ShTrainingConfig cfg;
  for (const auto v : {AttackVector::kMoveOut, AttackVector::kDisappear,
                       AttackVector::kMoveIn}) {
    EXPECT_EQ(scenarios_for(v, cfg), scenarios_for(v));
  }
}

TEST(ScenariosFor, CurriculumOverridesPerVector) {
  ShTrainingConfig cfg;
  cfg.curricula[AttackVector::kMoveOut] = {"cut-in", "DS-1", "dense-follow"};
  EXPECT_EQ(scenarios_for(AttackVector::kMoveOut, cfg),
            (std::vector<std::string>{"cut-in", "DS-1", "dense-follow"}));
  // Other vectors keep the paper mapping.
  EXPECT_EQ(scenarios_for(AttackVector::kMoveIn, cfg),
            scenarios_for(AttackVector::kMoveIn));
  // An empty list means "default", not "no scenarios".
  cfg.curricula[AttackVector::kMoveIn] = {};
  EXPECT_EQ(scenarios_for(AttackVector::kMoveIn, cfg),
            scenarios_for(AttackVector::kMoveIn));
}

// ------------------------------------------- launch grid: determinism

TEST(GenerateShDataset, BitIdenticalAtOneAndEightThreads) {
  LoopConfig loop;
  ShTrainingConfig cfg = small_config();
  cfg.threads = 1;
  const nn::Dataset serial =
      generate_sh_dataset(AttackVector::kMoveOut, loop, cfg);
  cfg.threads = 8;
  const nn::Dataset parallel =
      generate_sh_dataset(AttackVector::kMoveOut, loop, cfg);
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(serial.content_hash(), parallel.content_hash());
}

TEST(GenerateShDataset, CurriculumChangesTheDataset) {
  LoopConfig loop;
  ShTrainingConfig cfg = small_config();
  const nn::Dataset paper =
      generate_sh_dataset(AttackVector::kMoveOut, loop, cfg);
  cfg.curricula[AttackVector::kMoveOut] = {"cut-in"};
  const nn::Dataset custom =
      generate_sh_dataset(AttackVector::kMoveOut, loop, cfg);
  EXPECT_GT(custom.size(), 0u);
  EXPECT_NE(paper.content_hash(), custom.content_hash());
}

// Golden pins: the default curriculum must reproduce the pre-curriculum
// serial pipeline bit for bit (the full-grid hash below was measured on
// the serial implementation before the ThreadPool fan-out landed; the
// small-grid hashes pin the same streams at a faster grid). If one of
// these moves, cached oracles and the §IV-B training data changed
// meaning — re-measure on purpose and say so in CHANGES.md.
//
// Re-pinned for the PR 8 counter-based noise migration (Rng::normal now
// draws one engine word through the inverse CDF; the historical
// std::normal_distribution path and its RT_LEGACY_NOISE switch are now
// removed).
// Old pins, for the record: Move_Out 0x84698609b1dde15e, Disappear
// 0xca61304a2a8a193f, Move_In 0x4e840efd0ccf25ba; full default Move_Out
// grid 293 rows / 0xfb0b3087230ddd77.

TEST(GenerateShDataset, GoldenSmallGridHashes) {
  LoopConfig loop;
  const ShTrainingConfig cfg = small_config();
  struct Pin {
    AttackVector v;
    std::size_t size;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {AttackVector::kMoveOut, 8, 0x2ae70a0aaf7fd7c4ULL},
      {AttackVector::kDisappear, 8, 0x2cf1f2d4cc5f3a5dULL},
      {AttackVector::kMoveIn, 8, 0x246671554a54ae05ULL},
  };
  for (const Pin& pin : pins) {
    const nn::Dataset d = generate_sh_dataset(pin.v, loop, cfg);
    EXPECT_EQ(d.size(), pin.size) << core::to_string(pin.v);
    EXPECT_EQ(d.content_hash(), pin.hash) << core::to_string(pin.v);
  }
}

TEST(GenerateShDataset, GoldenDefaultCurriculumReproducesCachedOracleData) {
  // The full default grid for every vector — the exact datasets the cached
  // default oracles are trained on.
  LoopConfig loop;
  const ShTrainingConfig cfg;  // paper defaults end to end
  struct Pin {
    AttackVector v;
    std::size_t size;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {AttackVector::kMoveOut, 296, 0xc3f227283a163b3fULL},
      {AttackVector::kMoveIn, 324, 0xc1659f20923bd7a8ULL},
      {AttackVector::kDisappear, 296, 0x9a5aecdb4abf8979ULL},
  };
  for (const Pin& pin : pins) {
    const nn::Dataset d = generate_sh_dataset(pin.v, loop, cfg);
    EXPECT_EQ(d.size(), pin.size) << core::to_string(pin.v);
    EXPECT_EQ(d.content_hash(), pin.hash) << core::to_string(pin.v);
  }
}

// ------------------------------------------------- launch horizon

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// One scripted launch exactly as generate_sh_dataset builds it, run with
// or without a horizon.
struct Launch {
  const char* scenario;
  AttackVector v;
  double delta_trigger;
  int k;
  std::uint64_t seed;
};

RunResult run_launch(const Launch& l, std::optional<int> horizon) {
  LoopConfig loop;
  loop.keep_timeline = true;
  stats::Rng scenario_rng(l.seed);
  sim::Scenario scenario =
      sim::ScenarioRegistry::global().make(l.scenario, scenario_rng);
  core::RobotackConfig acfg = make_attacker_config(
      loop, l.v, core::TimingPolicy::kAtDeltaThreshold);
  acfg.delta_trigger = l.delta_trigger;
  acfg.fixed_k = l.k;
  ClosedLoop cl(scenario, loop, l.seed + 1);
  cl.set_attacker(std::make_unique<core::Robotack>(
      acfg, loop.camera, loop.noise, loop.mot, l.seed + 2));
  return cl.run(horizon);
}

std::string attack_bytes(const RunResult& r) {
  RunResult only_attack;
  only_attack.attack = r.attack;
  return serialize_run_result(only_attack);
}

TEST(LaunchHorizon, StopsAtTheLabelFrameWithAnIdenticalPrefix) {
  enum class Ends { kAtHorizon, kHaltsFirst, kNeverTriggers };
  struct Case {
    Launch launch;
    Ends ends;
  };
  const Case cases[] = {
      {{"DS-1", AttackVector::kMoveOut, 20.0, 8, 11}, Ends::kAtHorizon},
      {{"DS-2", AttackVector::kDisappear, 16.0, 24, 12}, Ends::kAtHorizon},
      {{"DS-3", AttackVector::kMoveIn, 26.0, 42, 13}, Ends::kAtHorizon},
      // The full run halts 28 frames after this launch's label frame.
      {{"DS-2", AttackVector::kDisappear, 16.0, 24, 2}, Ends::kAtHorizon},
      {{"DS-2", AttackVector::kDisappear, 12.0, 400, 2}, Ends::kHaltsFirst},
      {{"DS-1", AttackVector::kMoveOut, -1e9, 8, 15}, Ends::kNeverTriggers},
  };
  const double dt = LoopConfig{}.camera_dt();
  for (const Case& c : cases) {
    const Launch& l = c.launch;
    SCOPED_TRACE(std::string(l.scenario) + " " + core::to_string(l.v));
    const RunResult full = run_launch(l, std::nullopt);
    const RunResult cut = run_launch(l, l.k);
    ASSERT_FALSE(full.timeline.empty());

    EXPECT_EQ(attack_bytes(cut), attack_bytes(full));
    ASSERT_LE(cut.timeline.size(), full.timeline.size());
    for (std::size_t i = 0; i < cut.timeline.size(); ++i) {
      const auto& a = cut.timeline[i];
      const auto& b = full.timeline[i];
      ASSERT_TRUE(same_bits(a.time, b.time) && same_bits(a.delta, b.delta) &&
                  same_bits(a.d_safe, b.d_safe) &&
                  same_bits(a.target_delta, b.target_delta) &&
                  same_bits(a.ego_speed, b.ego_speed) &&
                  a.eb_active == b.eb_active &&
                  a.attack_active == b.attack_active)
          << "frame " << i;
    }

    if (c.ends == Ends::kNeverTriggers) {
      EXPECT_FALSE(full.attack.triggered);
      EXPECT_EQ(cut.timeline.size(), full.timeline.size());
      continue;
    }
    ASSERT_TRUE(full.attack.triggered);
    const auto label = static_cast<std::size_t>(
        std::llround(full.attack.start_time / dt) + l.k);
    if (c.ends == Ends::kHaltsFirst) {
      // The run halts before its label frame: the horizon never bites.
      EXPECT_TRUE(full.halted_early);
      EXPECT_LT(full.timeline.size(), label + 1);
      EXPECT_EQ(cut.timeline.size(), full.timeline.size());
    } else {
      ASSERT_GT(full.timeline.size(), label + 1);
      EXPECT_EQ(cut.timeline.size(), label + 1);
    }
  }
}

// ------------------------------------------------- curriculum-keyed cache

TEST(OracleCache, FingerprintKeysOnCurriculumAndGrid) {
  const ShTrainingConfig base = small_config();
  const auto v = AttackVector::kMoveOut;
  const std::uint64_t fp = sh_dataset_fingerprint(v, base);

  // Stable under re-evaluation and under changes that do not affect the
  // launch grid (nn hyper-parameters, thread count).
  ShTrainingConfig same = base;
  same.train.epochs = 500;
  same.threads = 16;
  EXPECT_EQ(sh_dataset_fingerprint(v, same), fp);

  ShTrainingConfig curriculum = base;
  curriculum.curricula[v] = {"cut-in"};
  EXPECT_NE(sh_dataset_fingerprint(v, curriculum), fp);
  // A curriculum for a different vector leaves this vector's key alone.
  ShTrainingConfig other = base;
  other.curricula[AttackVector::kMoveIn] = {"cut-in"};
  EXPECT_EQ(sh_dataset_fingerprint(v, other), fp);

  ShTrainingConfig grid = base;
  grid.ks.push_back(50);
  EXPECT_NE(sh_dataset_fingerprint(v, grid), fp);
  ShTrainingConfig seed = base;
  seed.seed += 1;
  EXPECT_NE(sh_dataset_fingerprint(v, seed), fp);
  ShTrainingConfig reps = base;
  reps.repeats += 1;
  EXPECT_NE(sh_dataset_fingerprint(v, reps), fp);

  // The fingerprint lands in the cache filename.
  const std::string path = oracle_cache_path("cache", v, base);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(fp));
  EXPECT_NE(path.find(hex), std::string::npos);
  EXPECT_NE(path.find("Move_Out"), std::string::npos);
  EXPECT_NE(path, oracle_cache_path("cache", v, curriculum));
}

TEST(OracleCache, LegacyNameIsNeverLoaded) {
  TempDir dir;
  LoopConfig loop;
  // A (cheaply trained) model under the un-fingerprinted filename that
  // caches used before the dataset fingerprint existed.
  const auto legacy = train_oracle(AttackVector::kMoveOut, loop,
                                   small_config());
  legacy->save(dir.path() + "/sh_oracle_Move_Out.txt");

  // The default launch grid with a one-epoch trainer: TrainConfig and
  // threads are not part of the fingerprint, so this is still the default
  // configuration's cache key. It must train fresh and cache under the
  // fingerprinted name instead of serving the legacy file.
  ShTrainingConfig def;
  def.train.epochs = 1;
  def.train.patience = 0;
  def.threads = 1;
  ASSERT_EQ(sh_dataset_fingerprint(AttackVector::kMoveOut, def),
            sh_dataset_fingerprint(AttackVector::kMoveOut, ShTrainingConfig{}));
  const auto loaded =
      load_or_train_oracle(AttackVector::kMoveOut, dir.path(), loop, def);
  ASSERT_TRUE(loaded->trained());
  EXPECT_TRUE(std::filesystem::exists(
      oracle_cache_path(dir.path(), AttackVector::kMoveOut, def)));
  EXPECT_NE(loaded->content_hash(), legacy->content_hash());
}

TEST(OracleCache, CurriculumChangeInvalidatesLegacyCache) {
  TempDir dir;
  LoopConfig loop;
  ShTrainingConfig tiny = small_config();
  const auto trained = train_oracle(AttackVector::kMoveOut, loop, tiny);
  trained->save(dir.path() + "/sh_oracle_Move_Out.txt");

  // A non-default curriculum must NOT pick up the legacy file: it trains
  // fresh and caches under the fingerprinted name.
  ShTrainingConfig custom = small_config();
  custom.curricula[AttackVector::kMoveOut] = {"cut-in"};
  const auto oracle =
      load_or_train_oracle(AttackVector::kMoveOut, dir.path(), loop, custom);
  ASSERT_TRUE(oracle->trained());
  const std::string hashed =
      oracle_cache_path(dir.path(), AttackVector::kMoveOut, custom);
  EXPECT_TRUE(std::filesystem::exists(hashed));
  EXPECT_EQ(oracle->provenance().curriculum, "cut-in");

  // Second call round-trips through the fingerprinted cache file.
  const auto reloaded =
      load_or_train_oracle(AttackVector::kMoveOut, dir.path(), loop, custom);
  EXPECT_EQ(reloaded->provenance().curriculum, "cut-in");
  EXPECT_EQ(reloaded->provenance().fingerprint,
            sh_dataset_fingerprint(AttackVector::kMoveOut, custom));
  const double a = oracle->predict(15.0, {-4.0, 0.0}, {0.0, 0.0}, 20.0);
  const double b = reloaded->predict(15.0, {-4.0, 0.0}, {0.0, 0.0}, 20.0);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(OracleCache, TruncatedFileIsRetrained) {
  TempDir dir;
  LoopConfig loop;
  const ShTrainingConfig cfg = small_config();
  const auto v = AttackVector::kMoveOut;
  const std::string path = oracle_cache_path(dir.path(), v, cfg);
  const auto trained = load_or_train_oracle(v, dir.path(), loop, cfg);

  // A writer killed mid-save: the first half of a valid cache file.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);

  const auto retrained = load_or_train_oracle(v, dir.path(), loop, cfg);
  ASSERT_TRUE(retrained->trained());
  EXPECT_EQ(retrained->content_hash(), trained->content_hash());
  // The partial file was overwritten with a complete one, and no
  // temporary file is left behind.
  EXPECT_EQ(std::filesystem::file_size(path), full_size);
  core::SafetyOracle reloaded;
  ASSERT_TRUE(reloaded.load(path));
  EXPECT_EQ(reloaded.content_hash(), trained->content_hash());
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

// ------------------------------------------------------------ provenance

TEST(OracleProvenance, RecordedByTrainOracleAndSerialized) {
  TempDir dir;
  LoopConfig loop;
  const auto cfg = small_config();
  const auto oracle = train_oracle(AttackVector::kDisappear, loop, cfg);
  EXPECT_EQ(oracle->provenance().vector, "Disappear");
  EXPECT_EQ(oracle->provenance().curriculum, "DS-1,DS-2");
  EXPECT_EQ(oracle->provenance().fingerprint,
            sh_dataset_fingerprint(AttackVector::kDisappear, cfg));

  const std::string path = dir.path() + "/prov.txt";
  oracle->save(path);
  core::SafetyOracle fresh;
  ASSERT_TRUE(fresh.load(path));
  EXPECT_EQ(fresh.provenance().vector, "Disappear");
  EXPECT_EQ(fresh.provenance().curriculum, "DS-1,DS-2");
  EXPECT_EQ(fresh.provenance().fingerprint,
            oracle->provenance().fingerprint);
}

TEST(OracleProvenance, LegacyFilesLoadWithEmptyProvenance) {
  TempDir dir;
  LoopConfig loop;
  const auto cfg = small_config();
  const auto oracle = train_oracle(AttackVector::kMoveOut, loop, cfg);
  // A legacy cache file: model only, no oracle-meta trailer.
  const std::string path = dir.path() + "/legacy.txt";
  nn::save_model_file(path, oracle->net(), {});

  core::SafetyOracle fresh;
  ASSERT_TRUE(fresh.load(path));
  EXPECT_TRUE(fresh.trained());
  EXPECT_TRUE(fresh.provenance().vector.empty());
  EXPECT_TRUE(fresh.provenance().curriculum.empty());
  EXPECT_EQ(fresh.provenance().fingerprint, 0u);
}


// ------------------------------------- trained-weight goldens (perf PR)

// Pins computed on the pre-kernel-refactor implementation (allocating
// Matrix operators, per-batch trainer allocations, serial pipelines). The
// workspace/kernel rewrite must leave every trained bit unchanged.
//
// Re-pinned for the PR 8 counter-based noise migration: the campaign noise
// feeding the training grids moved, the trainer itself did not. Old pins:
// small grid net 0x251492c33d2bb186 / oracle 0x95b4a0960a1ca157 (val loss
// 69.758052867208917), paper-default net 0x9674b244dddd74e1 / oracle
// 0x4c3c5ac199f83a3e.

TEST(TrainedOracleGolden, SmallGridMoveOutWeightsAreBitIdentical) {
  LoopConfig loop;
  ShTrainingConfig cfg;
  cfg.delta_triggers = {8.0, 16.0, 26.0};
  cfg.ks = {8, 24, 48};
  cfg.repeats = 2;
  cfg.seed = 123;
  cfg.threads = 1;
  nn::TrainResult result;
  auto oracle = train_oracle(AttackVector::kMoveOut, loop, cfg, &result);
  EXPECT_EQ(oracle->net().content_hash(), 0x821e0dd461efde73ULL);
  EXPECT_EQ(oracle->content_hash(), 0x93767914af91bdd8ULL);
  EXPECT_EQ(result.final_val_loss, 153.18231636430434);
}

TEST(TrainedOracleGolden, DefaultOraclesAreUnchanged) {
  // The full paper-default pipeline per vector (default grid, 80-epoch
  // training): every deployed oracle's exact weights and fitted scaler.
  LoopConfig loop;
  ShTrainingConfig cfg;
  cfg.threads = 1;
  struct Pin {
    AttackVector v;
    std::uint64_t net_hash;
    std::uint64_t oracle_hash;
  };
  const Pin pins[] = {
      {AttackVector::kMoveOut, 0x30df666f2c66b46fULL, 0xc2210ec90aefa063ULL},
      {AttackVector::kMoveIn, 0x89e561c8e35cc6b1ULL, 0x9e6e761217e20013ULL},
      {AttackVector::kDisappear, 0x4f090b7225019811ULL,
       0xb7d97ba0e309b1f5ULL},
  };
  for (const Pin& pin : pins) {
    auto oracle = train_oracle(pin.v, loop, cfg);
    EXPECT_EQ(oracle->net().content_hash(), pin.net_hash)
        << core::to_string(pin.v);
    EXPECT_EQ(oracle->content_hash(), pin.oracle_hash)
        << core::to_string(pin.v);
  }
}

// ------------------------------------------------ pooled oracle training

TEST(PooledTraining, OracleSetIsBitIdenticalAtOneAndEightThreads) {
  LoopConfig loop;
  ShTrainingConfig cfg = small_config();
  // Multi-vector curricula so every per-vector pipeline does real work.
  cfg.curricula[AttackVector::kMoveOut] = {"DS-1", "cut-in"};
  cfg.curricula[AttackVector::kDisappear] = {"DS-2", "dense-follow"};

  TempDir serial_dir;
  TempDir pooled_dir;
  ShTrainingConfig serial_cfg = cfg;
  serial_cfg.threads = 1;
  const OracleSet serial =
      load_or_train_oracles(serial_dir.path(), loop, serial_cfg);
  ShTrainingConfig pooled_cfg = cfg;
  pooled_cfg.threads = 8;
  const OracleSet pooled =
      load_or_train_oracles(pooled_dir.path(), loop, pooled_cfg);

  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(pooled.size(), 3u);
  for (const auto& [vector, oracle] : serial) {
    ASSERT_TRUE(pooled.contains(vector));
    EXPECT_EQ(oracle->content_hash(), pooled.at(vector)->content_hash())
        << core::to_string(vector);
    EXPECT_TRUE(pooled.at(vector)->trained());
  }
}

TEST(PooledTraining, CachedFilesRoundTripThroughThePool) {
  LoopConfig loop;
  ShTrainingConfig cfg = small_config();
  cfg.threads = 8;
  TempDir dir;
  const OracleSet trained = load_or_train_oracles(dir.path(), loop, cfg);
  // Second call must load every oracle from the curriculum-keyed cache and
  // reproduce the same weights.
  const OracleSet loaded = load_or_train_oracles(dir.path(), loop, cfg);
  for (const auto& [vector, oracle] : trained) {
    EXPECT_EQ(oracle->content_hash(), loaded.at(vector)->content_hash())
        << core::to_string(vector);
    EXPECT_TRUE(
        std::filesystem::exists(oracle_cache_path(dir.path(), vector, cfg)));
  }
}

}  // namespace
}  // namespace rt::experiments

