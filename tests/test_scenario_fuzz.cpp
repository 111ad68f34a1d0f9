// Property-based fuzzing of the scenario layer: hundreds of sampled
// (template, seed) configurations swept through the invariant suite
// (sim/invariants.hpp + experiments/scenario_search.hpp). Every failure
// prints a minimal reproducer — the corpus line that recreates it and the
// shrunk parameter spec — so a red run here pins directly into
// tests/corpus/scenarios.txt.
//
// RT_FUZZ_SAMPLES overrides the per-template sample count (default 24,
// i.e. 264 scenarios over the 11 built-in families); the sanitizer CI lane
// sets it low because closed-loop sweeps are ~30x slower under ASan.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "defense/monitor_registry.hpp"
#include "experiments/scenario_search.hpp"
#include "experiments/transfer_matrix.hpp"
#include "stats/hash.hpp"

namespace rt::experiments {
namespace {

int fuzz_samples() {
  if (const char* env = std::getenv("RT_FUZZ_SAMPLES")) {
    return std::max(2, std::atoi(env));
  }
  return 24;
}

std::vector<std::string> full_stack() {
  return defense::MonitorRegistry::global().keys();
}

LoopConfig monitored_loop() {
  LoopConfig loop;
  loop.monitors = full_stack();
  return loop;
}

/// Content hash of a short replay of the scenario: initial actor states
/// plus the world after every step of a few simulated seconds, so route,
/// trigger and plant differences all change the digest.
std::uint64_t replay_hash(const sim::Scenario& sc, int steps = 60) {
  std::uint64_t h = stats::fnv1a_str(stats::kFnv1aOffset, sc.key);
  h = stats::fnv1a_double(h, sc.duration);
  h = stats::fnv1a_u64(h, static_cast<std::uint64_t>(sc.target_id));
  sim::World world = sc.make_world();
  for (int i = 0; i <= steps; ++i) {
    h = stats::fnv1a_double(h, world.ego().x());
    h = stats::fnv1a_double(h, world.ego().speed());
    for (const sim::Actor& a : world.actors()) {
      h = stats::fnv1a_u64(h, static_cast<std::uint64_t>(a.id()));
      h = stats::fnv1a_u64(h, static_cast<std::uint64_t>(a.type()));
      h = stats::fnv1a_double(h, a.state().position.x);
      h = stats::fnv1a_double(h, a.state().position.y);
      h = stats::fnv1a_double(h, a.state().velocity.x);
      h = stats::fnv1a_double(h, a.state().velocity.y);
    }
    world.step(1.0 / 15.0, 0.0);
  }
  return h;
}

/// Failure text of one bad sample: the violations, the corpus line that
/// reproduces it verbatim, and the shrunk minimal parameter spec.
std::string diagnose(const sim::SampledScenario& sample,
                     const sim::InvariantReport& report) {
  const auto defaults =
      sim::ScenarioRegistry::global().defaults(sample.template_key);
  const auto fails = [&](const sim::ScenarioParams& p) {
    sim::SampledScenario candidate = sample;
    candidate.params = p;
    return !sim::check_scenario(candidate.make()).ok();
  };
  sim::SampledScenario minimal = sample;
  if (fails(sample.params)) {
    minimal.params = sim::shrink_params(sample.params, defaults, fails);
  }
  return report.to_string() + "\nreproducer: " + sample.corpus_line() +
         "\nminimal:    " + minimal.spec_string();
}

// ------------------------------------------------------------- sampling

TEST(ScenarioSampler, PureFunctionOfTemplateAndSeed) {
  const sim::ScenarioSampler a;
  const sim::ScenarioSampler b;
  for (const auto& key : a.templates()) {
    const auto sa = a.sample(key, 42);
    const auto sb = b.sample(key, 42);
    EXPECT_EQ(sa.spec_string(), sb.spec_string()) << key;
    EXPECT_EQ(replay_hash(sa.make()), replay_hash(sb.make())) << key;
    // make() itself is canonical: two worlds from one sample are identical.
    EXPECT_EQ(replay_hash(sa.make()), replay_hash(sa.make())) << key;
    // And the seed actually matters.
    EXPECT_NE(sa.spec_string(), a.sample(key, 43).spec_string()) << key;
  }
}

TEST(ScenarioSampler, BitIdenticalAtAnyThreadCount) {
  const sim::ScenarioSampler sampler;
  const auto templates = sampler.templates();
  const int per_template = 16;
  // Serial reference digests.
  std::vector<std::uint64_t> serial;
  for (const auto& key : templates) {
    for (int i = 0; i < per_template; ++i) {
      serial.push_back(replay_hash(
          sampler.sample(key, static_cast<std::uint64_t>(i)).make()));
    }
  }
  // The same work sliced over 8 threads hitting one shared sampler.
  std::vector<std::uint64_t> threaded(serial.size());
  std::vector<std::thread> workers;
  const std::size_t n = serial.size();
  for (unsigned w = 0; w < 8; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t j = w; j < n; j += 8) {
        const auto& key = templates[j / per_template];
        threaded[j] = replay_hash(
            sampler.sample(key, static_cast<std::uint64_t>(j % per_template))
                .make());
      }
    });
  }
  for (auto& t : workers) t.join();
  EXPECT_EQ(serial, threaded);
}

TEST(ScenarioSampler, SamplesStayInsideConfiguredRanges) {
  const sim::ScenarioSampler sampler;
  for (const auto& key : sampler.templates()) {
    const auto& table = sampler.ranges(key);
    for (int i = 0; i < 50; ++i) {
      const auto sample = sampler.sample(key, static_cast<std::uint64_t>(i));
      for (const auto& range : table) {
        const double v = sim::get_scenario_param(sample.params, range.name);
        EXPECT_GE(v, range.lo) << key << " seed " << i << " " << range.name;
        EXPECT_LE(v, range.hi) << key << " seed " << i << " " << range.name;
        if (range.integer) {
          EXPECT_DOUBLE_EQ(v, std::round(v))
              << key << " seed " << i << " " << range.name;
        }
      }
    }
  }
}

TEST(ScenarioSampler, SetRangesValidatesAndTakesEffect) {
  sim::ScenarioSampler sampler;
  EXPECT_THROW((void)sampler.ranges("no-such-family"), std::out_of_range);
  EXPECT_THROW(sampler.set_ranges("no-such-family", {}), std::out_of_range);
  EXPECT_THROW(sampler.set_ranges("DS-1", {{"no_such_param", 0.0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(sampler.set_ranges("DS-1", {{"target_gap", 9.0, 3.0}}),
               std::invalid_argument);
  sampler.set_ranges("DS-1", {{"target_gap", 80.0, 90.0}});
  for (int i = 0; i < 20; ++i) {
    const auto s = sampler.sample("DS-1", static_cast<std::uint64_t>(i));
    EXPECT_GE(s.params.target_gap, 80.0);
    EXPECT_LE(s.params.target_gap, 90.0);
    // Unlisted params keep the family defaults.
    EXPECT_DOUBLE_EQ(
        s.params.duration,
        sim::ScenarioRegistry::global().defaults("DS-1").duration);
  }
}

// ------------------------------------------------------ invariant sweeps

TEST(ScenarioFuzz, StructuralAndCruiseInvariantsHoldAcrossAllTemplates) {
  const sim::ScenarioSampler sampler;
  const auto templates = sampler.templates();
  ASSERT_GE(templates.size(), 5u);
  const int per_template = fuzz_samples();
  int validated = 0;
  for (const auto& key : templates) {
    for (int i = 0; i < per_template; ++i) {
      const auto sample = sampler.sample(key, static_cast<std::uint64_t>(i));
      const auto report = sim::check_scenario(sample.make());
      EXPECT_TRUE(report.ok()) << diagnose(sample, report);
      ++validated;
    }
  }
  if (std::getenv("RT_FUZZ_SAMPLES") == nullptr) {
    EXPECT_GE(validated, 200);  // the acceptance floor at default settings
  }
}

TEST(ScenarioFuzz, GoldenRunsCleanAndMonitorsZeroFalsePositive) {
  // Closed-loop clean-run property on sampled worlds, full monitor stack
  // deployed: no collision, no accident label, ego inside its actuation
  // envelope, and not a single monitor alert. Any FP is a shrunk-reproducer
  // failure printing (template, seed).
  const LoopConfig loop = monitored_loop();
  const sim::ScenarioSampler sampler;
  const int per_template = std::max(2, fuzz_samples() / 4);
  for (const auto& key : sampler.templates()) {
    for (int i = 0; i < per_template; ++i) {
      // Offset stream: distinct seeds from the structural sweep.
      const auto sample =
          sampler.sample(key, 1000 + static_cast<std::uint64_t>(i));
      const auto check = check_clean_run(sample, loop);
      EXPECT_TRUE(check.ok()) << diagnose(sample, check.report);
    }
  }
}

TEST(ScenarioFuzz, SampledCampaignsBitIdenticalAcrossThreadCounts) {
  // The determinism contract extended to sampled configurations: a
  // campaign whose params came from the sampler aggregates bit-identically
  // at 1 and 8 threads (monitored, attacked, stochastic-family included).
  const sim::ScenarioSampler sampler;
  CampaignRunner runner(monitored_loop(), {});
  std::vector<CampaignSpec> specs;
  int spec_idx = 0;
  for (const auto& key : {"DS-2", "occlusion-reveal", "multi-lane-overtake"}) {
    const auto sample = sampler.sample(key, 7);
    CampaignSpec spec;
    spec.name = std::string("fuzz-") + key;
    spec.scenario = key;
    spec.vector = transfer_vector_for(key);
    spec.mode = AttackMode::kNoSh;
    spec.runs = 6;
    spec.seed = 4242 + static_cast<std::uint64_t>(spec_idx++);
    spec.params = sample.params;
    spec.monitors = full_stack();
    specs.push_back(std::move(spec));
  }
  const auto one = CampaignScheduler(runner, 1).run_all(specs);
  const auto many = CampaignScheduler(runner, 8).run_all(specs);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t s = 0; s < one.size(); ++s) {
    ASSERT_EQ(one[s].n(), many[s].n()) << specs[s].name;
    for (int i = 0; i < one[s].n(); ++i) {
      const auto& a = one[s].runs[static_cast<std::size_t>(i)];
      const auto& b = many[s].runs[static_cast<std::size_t>(i)];
      EXPECT_EQ(a.eb, b.eb) << specs[s].name << " run " << i;
      EXPECT_EQ(a.crash, b.crash) << specs[s].name << " run " << i;
      EXPECT_DOUBLE_EQ(a.min_delta, b.min_delta)
          << specs[s].name << " run " << i;
      EXPECT_EQ(a.defense.flagged, b.defense.flagged)
          << specs[s].name << " run " << i;
      EXPECT_EQ(a.defense.detected, b.defense.detected)
          << specs[s].name << " run " << i;
    }
  }
}

// -------------------------------------------------------------- corpus

TEST(Corpus, ParserHandlesCommentsBlanksAndErrors) {
  const auto entries = sim::parse_corpus(
      "# pinned fuzz findings\n"
      "\n"
      "DS-1 42   # inline comment\n"
      "occlusion-reveal 5378431353750142001\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].template_key, "DS-1");
  EXPECT_EQ(entries[0].seed, 42u);
  EXPECT_EQ(entries[1].template_key, "occlusion-reveal");
  EXPECT_EQ(entries[1].seed, 5378431353750142001ULL);
  EXPECT_THROW((void)sim::parse_corpus("DS-1\n"), std::invalid_argument);
  EXPECT_THROW((void)sim::parse_corpus("DS-1 nine"), std::invalid_argument);
  EXPECT_THROW((void)sim::parse_corpus("DS-1 1 extra"),
               std::invalid_argument);
  EXPECT_THROW((void)sim::load_corpus("/no/such/corpus.txt"),
               std::runtime_error);
}

TEST(Corpus, CommittedCorpusReplaysCleanThroughFullSuite) {
  // The committed corpus pins the search frontier (the corners where the
  // attack wins) plus hand-picked seeds per family; every entry must stay a
  // valid, golden-safe, alert-free world as the generators evolve.
  const auto entries =
      sim::load_corpus(std::string(RT_CORPUS_DIR) + "/scenarios.txt");
  ASSERT_GE(entries.size(), 11u);
  const LoopConfig loop = monitored_loop();
  const sim::ScenarioSampler sampler;
  std::set<std::string> covered;
  for (const auto& entry : entries) {
    ASSERT_TRUE(sim::ScenarioRegistry::global().contains(entry.template_key))
        << entry.template_key;
    covered.insert(entry.template_key);
    const auto sample = sampler.sample(entry.template_key, entry.seed);
    const auto check = check_clean_run(sample, loop);
    EXPECT_TRUE(check.ok()) << diagnose(sample, check.report);
  }
  // The corpus spans every registered family.
  EXPECT_EQ(covered.size(),
            sim::ScenarioRegistry::global().keys().size());
}

// ------------------------------------------------------------ shrinking

TEST(Shrinker, ReducesToMinimalFailingConfiguration) {
  const auto defaults = sim::ScenarioRegistry::global().defaults("DS-1");
  // Synthetic failure: only big gaps combined with long durations fail.
  // Both thresholds sit above the DS-1 defaults (gap 60, duration 40) so
  // both fields genuinely participate in the shrink.
  const auto fails = [](const sim::ScenarioParams& p) {
    return p.target_gap > 100.0 && p.duration > 42.0;
  };
  sim::ScenarioParams failing = defaults;
  failing.target_gap = 160.0;
  failing.duration = 50.0;
  failing.ego_speed_kph = 33.0;      // irrelevant to the failure
  failing.npc_pedestrians = 5;       // irrelevant to the failure
  ASSERT_TRUE(fails(failing));
  const auto minimal = sim::shrink_params(failing, defaults, fails);
  EXPECT_TRUE(fails(minimal));  // the guarantee: still failing
  // Irrelevant fields return to their defaults.
  EXPECT_DOUBLE_EQ(minimal.ego_speed_kph, defaults.ego_speed_kph);
  EXPECT_EQ(minimal.npc_pedestrians, defaults.npc_pedestrians);
  // Relevant fields bisect down toward the threshold.
  EXPECT_LT(minimal.target_gap, 102.0);
  EXPECT_GT(minimal.target_gap, 100.0);
  EXPECT_LT(minimal.duration, 44.0);
  EXPECT_GT(minimal.duration, 42.0);
}

TEST(Shrinker, PassingPredicateOnDefaultsKeepsFailingValue) {
  const auto defaults = sim::ScenarioRegistry::global().defaults("DS-1");
  // Integer-field failure with a sharp threshold.
  const auto fails = [](const sim::ScenarioParams& p) {
    return p.npc_vehicles >= 6;
  };
  sim::ScenarioParams failing = defaults;
  failing.npc_vehicles = 8;
  const auto minimal = sim::shrink_params(failing, defaults, fails);
  EXPECT_TRUE(fails(minimal));
  EXPECT_EQ(minimal.npc_vehicles, 6);
}

// -------------------------------------------------------------- search

TEST(ScenarioSearch, DeterministicAcrossThreadCountsWithFrontier) {
  ScenarioSearchConfig cfg;
  cfg.templates = {"DS-1", "DS-2", "occlusion-reveal"};
  cfg.rounds = 2;
  cfg.samples_per_round = 6;
  cfg.runs_per_sample = 3;
  cfg.seed = 97;
  cfg.monitors = full_stack();
  const CampaignRunner runner(LoopConfig{}, {});
  const auto on_threads = [&](unsigned threads) -> GridExecutor {
    return [&runner, threads](const std::vector<CampaignSpec>& specs) {
      return CampaignScheduler(runner, threads).run_all(specs);
    };
  };
  const auto one = run_scenario_search(cfg, on_threads(1));
  const auto many = run_scenario_search(cfg, on_threads(8));
  ASSERT_FALSE(one.frontier.empty());
  ASSERT_EQ(one.evaluated.size(), many.evaluated.size());
  ASSERT_EQ(one.frontier.size(), many.frontier.size());
  for (std::size_t i = 0; i < one.frontier.size(); ++i) {
    EXPECT_EQ(one.frontier[i].template_key, many.frontier[i].template_key);
    EXPECT_EQ(one.frontier[i].sample_seed, many.frontier[i].sample_seed);
    EXPECT_DOUBLE_EQ(one.frontier[i].score, many.frontier[i].score);
    EXPECT_EQ(one.frontier[i].spec, many.frontier[i].spec);
  }
  EXPECT_EQ(one.total_runs, many.total_runs);
  // Frontier entries round-trip through the corpus format.
  std::string corpus;
  for (const auto& e : one.frontier) corpus += e.corpus_line() + "\n";
  const auto parsed = sim::parse_corpus(corpus);
  ASSERT_EQ(parsed.size(), one.frontier.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].template_key, one.frontier[i].template_key);
    EXPECT_EQ(parsed[i].seed, one.frontier[i].sample_seed);
  }
  // Frontier is score-sorted.
  for (std::size_t i = 1; i < one.frontier.size(); ++i) {
    EXPECT_GE(one.frontier[i - 1].score, one.frontier[i].score);
  }
}

}  // namespace
}  // namespace rt::experiments
