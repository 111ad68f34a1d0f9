#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "experiments/campaign_serde.hpp"
#include "sim/scenario_registry.hpp"
#include "stats/hash.hpp"
#include "stats/rng.hpp"

namespace rt::experiments {
namespace {

std::uint64_t bits_of(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof u);
  return u;
}

/// Bitwise double compare: distinguishes -0.0 from 0.0 and is NaN-stable,
/// which EXPECT_DOUBLE_EQ is not. The serde contract is bit-exactness.
#define EXPECT_BITEQ(a, b) EXPECT_EQ(bits_of(a), bits_of(b))

/// A spec exercising every optional feature: explicit params, a monitor
/// stack, and a name with grid-sweep punctuation.
CampaignSpec gnarly_spec() {
  CampaignSpec spec;
  spec.name = "cut-in-Move_In-RwoSH-target_speed_kph=27.5";
  spec.scenario = "cut-in";
  spec.vector = core::AttackVector::kMoveIn;
  spec.mode = AttackMode::kNoSh;
  spec.runs = 3;
  spec.seed = 0xfedcba9876543210ull;
  spec.params = sim::ScenarioParams{};
  spec.monitors = {"innovation-gate", "kinematics"};
  return spec;
}

/// A run result with adversarial values in every field family: negative
/// zero, NaN, infinities, denormals, and strings containing the format's
/// own metacharacters (newlines, spaces, colons, digits).
RunResult gnarly_run() {
  RunResult run;
  run.eb = true;
  run.eb_episodes = 3;
  run.crash = true;
  run.collision = false;
  run.min_delta = -0.0;
  run.min_delta_since_attack = std::numeric_limits<double>::quiet_NaN();
  run.end_time = std::numeric_limits<double>::infinity();
  run.halted_early = true;
  run.attack.triggered = true;
  run.attack.triggers = 2;
  run.attack.vector = core::AttackVector::kDisappear;
  run.attack.start_time = 5e-324;  // smallest denormal
  run.attack.delta_at_launch = -std::numeric_limits<double>::infinity();
  run.attack.v_rel_at_launch = {1.5, -2.5};
  run.attack.a_rel_at_launch = {-0.0, 0.0};
  run.attack.predicted_delta = 13.25;
  run.attack.planned_k = 48;
  run.attack.frames_perturbed = 17;
  run.attack.k_prime = -1;
  run.attack.omega_target = 0.123456789012345678;
  run.attack.victim_cls = sim::ActorType::kPedestrian;
  run.attack.victim_truth_id = 7;
  run.ids_flagged = true;
  run.ids_reason = "jump of 3.2m\nat t=4.5 : id 7, conf 0.99";
  run.defense.flagged = true;
  run.defense.first_alert_time = 4.25;
  run.defense.first_monitor = "innovation-gate";
  run.defense.monitors.push_back(
      {"innovation-gate", true, 4.25, 3, "17:apples\n2 innovations > gate"});
  run.defense.monitors.push_back({"kinematics", false, -1.0, 0, ""});
  run.defense.detected = true;
  run.defense.frames_to_detection = 9;
  run.defense.detected_by = "innovation-gate";
  run.timeline.push_back({0.0, 30.0, 12.0, 30.0, 13.9, false, false});
  run.timeline.push_back({0.25, -0.0, 11.5,
                          std::numeric_limits<double>::quiet_NaN(), 13.5,
                          true, true});
  return run;
}

void expect_run_equal(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.eb, b.eb);
  EXPECT_EQ(a.eb_episodes, b.eb_episodes);
  EXPECT_EQ(a.crash, b.crash);
  EXPECT_EQ(a.collision, b.collision);
  EXPECT_BITEQ(a.min_delta, b.min_delta);
  EXPECT_BITEQ(a.min_delta_since_attack, b.min_delta_since_attack);
  EXPECT_BITEQ(a.end_time, b.end_time);
  EXPECT_EQ(a.halted_early, b.halted_early);
  EXPECT_EQ(a.attack.triggered, b.attack.triggered);
  EXPECT_EQ(a.attack.triggers, b.attack.triggers);
  EXPECT_EQ(a.attack.vector, b.attack.vector);
  EXPECT_BITEQ(a.attack.start_time, b.attack.start_time);
  EXPECT_BITEQ(a.attack.delta_at_launch, b.attack.delta_at_launch);
  EXPECT_BITEQ(a.attack.v_rel_at_launch.x, b.attack.v_rel_at_launch.x);
  EXPECT_BITEQ(a.attack.v_rel_at_launch.y, b.attack.v_rel_at_launch.y);
  EXPECT_BITEQ(a.attack.a_rel_at_launch.x, b.attack.a_rel_at_launch.x);
  EXPECT_BITEQ(a.attack.a_rel_at_launch.y, b.attack.a_rel_at_launch.y);
  EXPECT_BITEQ(a.attack.predicted_delta, b.attack.predicted_delta);
  EXPECT_EQ(a.attack.planned_k, b.attack.planned_k);
  EXPECT_EQ(a.attack.frames_perturbed, b.attack.frames_perturbed);
  EXPECT_EQ(a.attack.k_prime, b.attack.k_prime);
  EXPECT_BITEQ(a.attack.omega_target, b.attack.omega_target);
  EXPECT_EQ(a.attack.victim_cls, b.attack.victim_cls);
  EXPECT_EQ(a.attack.victim_truth_id, b.attack.victim_truth_id);
  EXPECT_EQ(a.ids_flagged, b.ids_flagged);
  EXPECT_EQ(a.ids_reason, b.ids_reason);
  EXPECT_EQ(a.defense.flagged, b.defense.flagged);
  EXPECT_BITEQ(a.defense.first_alert_time, b.defense.first_alert_time);
  EXPECT_EQ(a.defense.first_monitor, b.defense.first_monitor);
  ASSERT_EQ(a.defense.monitors.size(), b.defense.monitors.size());
  for (std::size_t i = 0; i < a.defense.monitors.size(); ++i) {
    EXPECT_EQ(a.defense.monitors[i].monitor, b.defense.monitors[i].monitor);
    EXPECT_EQ(a.defense.monitors[i].fired, b.defense.monitors[i].fired);
    EXPECT_BITEQ(a.defense.monitors[i].first_alert_time,
                 b.defense.monitors[i].first_alert_time);
    EXPECT_EQ(a.defense.monitors[i].alarms, b.defense.monitors[i].alarms);
    EXPECT_EQ(a.defense.monitors[i].reason, b.defense.monitors[i].reason);
  }
  EXPECT_EQ(a.defense.detected, b.defense.detected);
  EXPECT_EQ(a.defense.frames_to_detection, b.defense.frames_to_detection);
  EXPECT_EQ(a.defense.detected_by, b.defense.detected_by);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_BITEQ(a.timeline[i].time, b.timeline[i].time);
    EXPECT_BITEQ(a.timeline[i].delta, b.timeline[i].delta);
    EXPECT_BITEQ(a.timeline[i].d_safe, b.timeline[i].d_safe);
    EXPECT_BITEQ(a.timeline[i].target_delta, b.timeline[i].target_delta);
    EXPECT_BITEQ(a.timeline[i].ego_speed, b.timeline[i].ego_speed);
    EXPECT_EQ(a.timeline[i].eb_active, b.timeline[i].eb_active);
    EXPECT_EQ(a.timeline[i].attack_active, b.timeline[i].attack_active);
  }
}

// ------------------------------------------------------------ round trips

TEST(CampaignSerde, SpecRoundTripsAllFields) {
  const CampaignSpec spec = gnarly_spec();
  const CampaignSpec back = deserialize_spec(serialize_spec(spec));
  EXPECT_EQ(back.name, spec.name);
  EXPECT_EQ(back.scenario, spec.scenario);
  EXPECT_EQ(back.vector, spec.vector);
  EXPECT_EQ(back.mode, spec.mode);
  EXPECT_EQ(back.runs, spec.runs);
  EXPECT_EQ(back.seed, spec.seed);
  ASSERT_EQ(back.params.has_value(), spec.params.has_value());
  for (const auto& name : sim::scenario_param_names()) {
    EXPECT_BITEQ(sim::get_scenario_param(*back.params, name),
                 sim::get_scenario_param(*spec.params, name))
        << name;
  }
  EXPECT_EQ(back.monitors, spec.monitors);
}

TEST(CampaignSerde, SpecWithoutParamsRoundTrips) {
  CampaignSpec spec = gnarly_spec();
  spec.params.reset();
  spec.monitors.clear();
  const CampaignSpec back = deserialize_spec(serialize_spec(spec));
  EXPECT_FALSE(back.params.has_value());
  EXPECT_TRUE(back.monitors.empty());
}

TEST(CampaignSerde, RunResultRoundTripsBitExactly) {
  const RunResult run = gnarly_run();
  const std::string text = serialize_run_result(run);
  const RunResult back = deserialize_run_result(text);
  expect_run_equal(run, back);
  // Serialization is canonical: a round trip reproduces the exact bytes.
  EXPECT_EQ(serialize_run_result(back), text);
}

TEST(CampaignSerde, CampaignResultRoundTripsBitExactly) {
  CampaignResult result;
  result.spec = gnarly_spec();
  result.runs.push_back(gnarly_run());
  result.runs.push_back(RunResult{});  // all-defaults row
  const std::string text = serialize_campaign_result(result);
  const CampaignResult back = deserialize_campaign_result(text);
  EXPECT_EQ(back.spec.name, result.spec.name);
  EXPECT_EQ(back.spec.seed, result.spec.seed);
  ASSERT_EQ(back.runs.size(), result.runs.size());
  for (std::size_t i = 0; i < result.runs.size(); ++i) {
    expect_run_equal(result.runs[i], back.runs[i]);
  }
  EXPECT_EQ(serialize_campaign_result(back), text);
  // Aggregates survive the trip (they are derived from per-run fields).
  EXPECT_EQ(back.eb_count(), result.eb_count());
  EXPECT_EQ(back.crash_count(), result.crash_count());
  EXPECT_EQ(back.detected_count(), result.detected_count());
}

// ------------------------------------------------------------ byte pins

/// A NaN with a payload, so a reader or writer that canonicalises NaNs
/// moves the pins below.
const double kPayloadNan = std::bit_cast<double>(0x7ff8000000000123ull);

/// A spec that sets every field: params present with a non-default value
/// in each slot (negative zero, NaN, both infinities, a denormal), two
/// monitors, and strings carrying newline, colon and comma.
CampaignSpec pinned_spec() {
  CampaignSpec spec;
  spec.name = "pin:cut-in,\nMove_In";
  spec.scenario = "cut-in";
  spec.vector = core::AttackVector::kMoveIn;
  spec.mode = AttackMode::kRandomBaseline;
  spec.runs = -7;
  spec.seed = 0xfedcba9876543210ull;
  sim::ScenarioParams p;
  p.duration = -0.0;
  p.ego_speed_kph = kPayloadNan;
  p.target_speed_kph = std::numeric_limits<double>::infinity();
  p.target_gap = -std::numeric_limits<double>::infinity();
  p.pedestrian_gait = 5e-324;
  p.trigger_distance = 70.125;
  p.walk_distance = 1e300;
  p.npc_vehicles = 7;
  p.npc_pedestrians = -2;
  spec.params = p;
  spec.monitors = {"innovation-gate", "sensor,consistency:\n"};
  return spec;
}

/// A run that sets every field, a full attack log and defense outcomes
/// among them, with three timeline samples.
RunResult pinned_run() {
  RunResult run = gnarly_run();
  run.eb_episodes = -2147483647 - 1;
  run.collision = true;
  run.attack.victim_truth_id = 2147483647;
  run.ids_reason = "jump,\n3.2m: id 7";
  run.defense.first_monitor = "kinematics,\n:";
  run.defense.monitors[1] = {"kinematics", true, 5e-324, 2,
                             "accel: 9.9,\nlimit 8"};
  run.defense.detected_by = "kinematics";
  run.defense.frames_to_detection = -1;
  run.timeline.push_back({std::numeric_limits<double>::infinity(), 1e-310,
                          -std::numeric_limits<double>::infinity(),
                          kPayloadNan, -0.0, true, false});
  return run;
}

CampaignResult pinned_campaign() {
  CampaignResult result;
  result.spec = pinned_spec();
  result.runs = {pinned_run(), RunResult{}};
  return result;
}

std::uint64_t fnv(std::string_view bytes) {
  return stats::fnv1a_str(stats::kFnv1aOffset, bytes);
}

// These pins fix the serialized bytes of every record: the cache's entry
// payloads, its keys and the shard pipe all carry them. Moving a pin
// changes the wire format and requires a kCampaignSerdeVersion bump.
TEST(CampaignSerde, PinnedBytesOfEveryRecord) {
  EXPECT_EQ(fnv(serialize_spec(pinned_spec())), 0xd24a5c4b91ad8697ull);
  EXPECT_EQ(fnv(serialize_run_result(pinned_run())), 0x57375acbebc3ee4dull);
  EXPECT_EQ(fnv(serialize_campaign_result(pinned_campaign())), 0x2dc7e43bf904d938ull);
  EXPECT_EQ(kCampaignSerdeVersion, 1u);
}

TEST(CampaignSerde, PinnedRecordsRoundTripByteForByte) {
  const std::string spec = serialize_spec(pinned_spec());
  EXPECT_EQ(serialize_spec(deserialize_spec(spec)), spec);
  const std::string run = serialize_run_result(pinned_run());
  EXPECT_EQ(serialize_run_result(deserialize_run_result(run)), run);
  expect_run_equal(deserialize_run_result(run), pinned_run());
  const std::string campaign = serialize_campaign_result(pinned_campaign());
  EXPECT_EQ(serialize_campaign_result(deserialize_campaign_result(campaign)),
            campaign);
}

// Every single-byte mutant of the pinned payload either throws SerdeError
// or decodes to a record that serializes back to the mutant's own bytes:
// the reader accepts only canonical bytes, so a damaged frame is rejected
// or read as the one record those bytes stand for, never half-read. Each
// position gets three seeded replacement bytes, biased toward the format's
// own metacharacters.
TEST(CampaignSerde, SingleByteMutantsThrowOrRoundTrip) {
  const std::string text = serialize_campaign_result(pinned_campaign());
  const std::string_view alphabet = "0123456789abcdefd:\n -+";
  stats::Rng rng(20241019);
  std::size_t thrown = 0;
  std::size_t decoded = 0;
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (int k = 0; k < 3; ++k) {
      std::string mutant = text;
      const char c =
          rng.bernoulli(0.5)
              ? alphabet[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(alphabet.size()) - 1))]
              : static_cast<char>(rng.uniform_int(0, 255));
      if (c == mutant[pos]) continue;
      mutant[pos] = c;
      CampaignResult back;
      try {
        back = deserialize_campaign_result(mutant);
      } catch (const SerdeError&) {
        ++thrown;
        continue;
      }
      ++decoded;
      EXPECT_EQ(serialize_campaign_result(back), mutant) << "byte " << pos;
    }
  }
  EXPECT_GT(thrown, 0u);
  EXPECT_GT(decoded, 0u);
}

// The bytes a lenient reader would take for padding or for another
// spelling of a number, written over and inserted before every byte of the
// pinned payload: each such mutant throws or is itself canonical.
TEST(CampaignSerde, PaddingAndNumberSpellingMutantsThrowOrAreCanonical) {
  const std::string text = serialize_campaign_result(pinned_campaign());
  std::size_t decoded = 0;
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (const char c : std::string_view(" \t\r\n+-0")) {
      for (const bool insert : {false, true}) {
        std::string mutant = text;
        if (insert) {
          mutant.insert(pos, 1, c);
        } else if (mutant[pos] != c) {
          mutant[pos] = c;
        } else {
          continue;
        }
        CampaignResult back;
        try {
          back = deserialize_campaign_result(mutant);
        } catch (const SerdeError&) {
          continue;
        }
        ++decoded;
        EXPECT_EQ(serialize_campaign_result(back), mutant)
            << (insert ? "insert" : "replace") << " byte " << pos;
      }
    }
  }
  // Bytes inside netstring payloads still decode.
  EXPECT_GT(decoded, 0u);
}

TEST(CampaignSerde, NonCanonicalSpellingsThrow) {
  const std::string text = serialize_spec(pinned_spec());
  // One edit of the canonical spec at a time.
  const auto edited = [&](std::string_view from, std::string_view to) {
    std::string out = text;
    const std::size_t pos = out.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos) out.replace(pos, from.size(), to);
    return out;
  };
  EXPECT_NO_THROW(deserialize_spec(text));
  EXPECT_THROW(deserialize_spec(" " + text), SerdeError);
  EXPECT_THROW(deserialize_spec(edited("\n-7\n", "\n-07\n")), SerdeError);
  EXPECT_THROW(deserialize_spec(edited("\n-7\n", "\n\n-7\n")), SerdeError);
  EXPECT_THROW(deserialize_spec(edited("\n-7\n", "\n-7 \n")), SerdeError);
  EXPECT_THROW(deserialize_spec(edited("\n-7\n", "\n-7\r\n")), SerdeError);
  EXPECT_THROW(deserialize_spec(edited("RTSPEC\n1\n", "RTSPEC\n01\n")),
               SerdeError);
  EXPECT_THROW(deserialize_spec(edited("RTSPEC\n1\n", "RTSPEC\n+1\n")),
               SerdeError);
  EXPECT_THROW(deserialize_spec(edited("\n1\n", "\n1\n\n")), SerdeError);
  EXPECT_THROW(deserialize_spec(edited("\n6:cut-in", "\n06:cut-in")),
               SerdeError);
  EXPECT_THROW(deserialize_spec(edited("cut-in\n", "cut-in\n\n")),
               SerdeError);

  CampaignSpec zero = pinned_spec();
  zero.runs = 0;
  const std::string zero_text = serialize_spec(zero);
  // The runs line sits where the pinned spec's "-7" does.
  const std::size_t pos = text.find("\n-7\n");
  ASSERT_EQ(zero_text.substr(pos, 3), "\n0\n");
  EXPECT_NO_THROW(deserialize_spec(zero_text));
  std::string minus_zero = zero_text;
  minus_zero.replace(pos, 3, "\n-0\n");
  EXPECT_THROW(deserialize_spec(minus_zero), SerdeError);
}

// ------------------------------------------------------------ fail loudly

TEST(CampaignSerde, EveryStrictPrefixThrows) {
  CampaignResult result;
  result.spec = gnarly_spec();
  result.runs.push_back(gnarly_run());
  const std::string text = serialize_campaign_result(result);
  ASSERT_GT(text.size(), 100u);
  // Every strict prefix must throw — a truncated cache file or pipe frame
  // can never deserialize as a valid (zero-padded) result.
  for (std::size_t len = 0; len < text.size(); ++len) {
    EXPECT_THROW(deserialize_campaign_result(text.substr(0, len)),
                 SerdeError)
        << "prefix of length " << len << " deserialized";
  }
}

TEST(CampaignSerde, TrailingGarbageThrows) {
  const std::string text = serialize_run_result(gnarly_run());
  EXPECT_THROW(deserialize_run_result(text + "x"), SerdeError);
  EXPECT_THROW(deserialize_run_result(text + "\nend\n"), SerdeError);
  const std::string spec_text = serialize_spec(gnarly_spec());
  EXPECT_THROW(deserialize_spec(spec_text + " "), SerdeError);
}

TEST(CampaignSerde, VersionMismatchThrows) {
  std::string text = serialize_run_result(gnarly_run());
  const std::string ver = std::to_string(kCampaignSerdeVersion);
  const std::size_t pos = text.find(ver);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, ver.size(), std::to_string(kCampaignSerdeVersion + 1));
  EXPECT_THROW(deserialize_run_result(text), SerdeError);
}

TEST(CampaignSerde, WrongMagicAndCorruptFieldsThrow) {
  const std::string run_text = serialize_run_result(gnarly_run());
  // A spec payload handed to the run reader (and vice versa) is rejected
  // by the magic, not misparsed.
  EXPECT_THROW(deserialize_run_result(serialize_spec(gnarly_spec())),
               SerdeError);
  EXPECT_THROW(deserialize_spec(run_text), SerdeError);
  // Flipping a double's encoding marker breaks the parse loudly (doubles
  // are newline-separated `d<16 hex>` tokens).
  std::string bad = run_text;
  const std::size_t dpos = bad.find("\nd");
  ASSERT_NE(dpos, std::string::npos);
  bad[dpos + 1] = 'q';
  EXPECT_THROW(deserialize_run_result(bad), SerdeError);
  EXPECT_THROW(deserialize_run_result(""), SerdeError);
}

TEST(CampaignSerde, CountsTheInputCannotHoldThrowBeforeAllocating) {
  // A count under the cap but beyond what the remaining bytes could hold
  // (every element takes at least a token and its separator) is rejected
  // before any reserve, so a damaged frame cannot ask for gigabytes.
  CampaignResult result;
  result.spec = gnarly_spec();
  std::string text = serialize_campaign_result(result);
  const std::size_t pos = text.find("\nnruns\n0\n");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 9, "\nnruns\n16777216\n");
  EXPECT_THROW(deserialize_campaign_result(text), SerdeError);

  std::string run = serialize_run_result(RunResult{});
  const std::size_t tpos = run.find("\ntimeline\n0\n");
  ASSERT_NE(tpos, std::string::npos);
  run.replace(tpos, 12, "\ntimeline\n16777216\n");
  EXPECT_THROW(deserialize_run_result(run), SerdeError);
}

TEST(CampaignSerde, OutOfRangeEnumsThrow) {
  // Serialized enums carry their numeric value; a value outside the enum's
  // range (e.g. from a future schema) must throw, not cast blindly. The
  // spec body is line-oriented: magic, version, "spec", name, scenario,
  // then the attack-vector value.
  const std::string text = serialize_spec(gnarly_spec());
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '\n') {
      lines.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  ASSERT_GT(lines.size(), 6u);
  ASSERT_EQ(lines[2], "spec");
  lines[5] = "9";  // vector enum has values 0..2
  std::string tampered;
  for (const auto& line : lines) {
    tampered += line;
    tampered += '\n';
  }
  tampered.pop_back();
  EXPECT_THROW(deserialize_spec(tampered), SerdeError);
}

}  // namespace
}  // namespace rt::experiments
