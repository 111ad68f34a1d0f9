#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "experiments/campaign.hpp"
#include "nn/dataset.hpp"

namespace rt::experiments {

/// Configuration of the safety-hijacker training-data sweep (§IV-B: "each
/// simulation had a predefined delta_inject and a k, i.e., an attack
/// started as soon as delta_t = delta_inject, and continued for k
/// consecutive time-steps").
struct ShTrainingConfig {
  std::vector<double> delta_triggers{8.0, 12.0, 16.0, 20.0, 26.0, 34.0};
  std::vector<int> ks{4, 8, 12, 18, 24, 32, 42, 55, 68};
  int repeats{3};
  std::uint64_t seed{424242};
  nn::TrainConfig train{};

  /// Per-vector scenario curricula (ScenarioRegistry keys). A vector with
  /// no entry — or an empty list — trains on the paper mapping
  /// (`scenarios_for(v)`), so a default-constructed config reproduces the
  /// pre-curriculum pipeline bit for bit. Unknown keys are rejected when
  /// the dataset is generated.
  std::map<core::AttackVector, std::vector<std::string>> curricula{};

  /// Threads for the launch grid of `generate_sh_dataset` and for the
  /// pooled per-vector pipelines of `load_or_train_oracles` (0 = one per
  /// hardware core). Results are bit-identical at any thread count: every
  /// launch's randomness is a pure function of (seed, grid coordinates),
  /// and every training self-seeds from the config.
  unsigned threads{0};
};

/// Which driving scenarios exercise a given attack vector (the paper's
/// campaign mapping: Move_Out/Disappear on DS-1/DS-2; Move_In on DS-3/DS-4).
/// Returned as ScenarioRegistry keys. This is the documented default
/// curriculum for every vector.
[[nodiscard]] std::vector<std::string> scenarios_for(core::AttackVector v);

/// Curriculum-aware overload: the curriculum registered for `v` in
/// `cfg.curricula`, falling back to the paper mapping above when the vector
/// has no (or an empty) entry.
[[nodiscard]] std::vector<std::string> scenarios_for(
    core::AttackVector v, const ShTrainingConfig& cfg);

/// Content hash of the effective curriculum + launch grid for a vector
/// (scenario keys, delta_inject sweep, k sweep, repeats, dataset seed) —
/// everything that determines which launches `generate_sh_dataset` runs.
/// Keys the on-disk oracle cache: equal fingerprints mean the cached model
/// was trained on the same launches. The nn hyper-parameters (`cfg.train`)
/// are deliberately NOT part of the key — see `load_or_train_oracle`.
[[nodiscard]] std::uint64_t sh_dataset_fingerprint(core::AttackVector v,
                                                   const ShTrainingConfig& cfg);

/// Curriculum-keyed cache filename:
/// `<cache_dir>/sh_oracle_<vector>-<fingerprint hex>.txt`.
[[nodiscard]] std::string oracle_cache_path(const std::string& cache_dir,
                                            core::AttackVector v,
                                            const ShTrainingConfig& cfg);

/// Generates the oracle's dataset for one vector by running scripted
/// attacks over the (scenario × delta_inject × k × repeat) grid — fanned
/// over `cfg.threads` — and labeling each launch with the *ground-truth*
/// safety potential k frames later. Each launch stops at its label frame
/// (`ClosedLoop::run`'s horizon). Sample order and content are independent
/// of the thread count.
[[nodiscard]] nn::Dataset generate_sh_dataset(core::AttackVector v,
                                              const LoopConfig& base,
                                              const ShTrainingConfig& cfg);

/// Trains a fresh oracle for the vector (dataset generation + training).
/// The oracle's provenance records the curriculum and fingerprint.
[[nodiscard]] std::shared_ptr<core::SafetyOracle> train_oracle(
    core::AttackVector v, const LoopConfig& base,
    const ShTrainingConfig& cfg, nn::TrainResult* out_result = nullptr);

/// Loads the oracle from `cache_dir` if a model cached under this
/// curriculum's fingerprint exists, otherwise trains and caches it. A cached
/// file that does not parse counts as a miss and is overwritten. Files
/// without a fingerprint in the name (`sh_oracle_<vector>.txt`) are never
/// loaded: they predate the current noise stream. Caveat: the cache key covers curriculum + grid only, so changing just
/// `cfg.train` (epochs, lr, ...) reuses a cached model trained with the
/// old hyper-parameters — delete the cache file (or use `train_oracle`)
/// when sweeping nn hyper-parameters.
[[nodiscard]] std::shared_ptr<core::SafetyOracle> load_or_train_oracle(
    core::AttackVector v, const std::string& cache_dir,
    const LoopConfig& base, const ShTrainingConfig& cfg);

/// All three oracles, cached under `cache_dir`. The per-vector pipelines
/// (generation + training) fan out across `cfg.threads`; trained weights
/// are bit-identical at any thread count.
[[nodiscard]] OracleSet load_or_train_oracles(const std::string& cache_dir,
                                              const LoopConfig& base,
                                              const ShTrainingConfig& cfg);

/// Default on-disk cache directory (overridable with the ROBOTACK_DATA_DIR
/// environment variable; defaults to "data" relative to the working
/// directory, falling back to the source-tree data/ directory when run
/// from the build tree).
[[nodiscard]] std::string default_cache_dir();

}  // namespace rt::experiments
