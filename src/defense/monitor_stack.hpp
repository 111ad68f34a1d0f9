#pragma once

#include <memory>
#include <string>
#include <vector>

#include "defense/monitor.hpp"
#include "perception/perception_observer.hpp"

namespace rt::defense {

/// Per-monitor slice of a run's defense outcome.
struct MonitorOutcome {
  std::string monitor;
  bool fired{false};
  double first_alert_time{-1.0};
  int alarms{0};
  std::string reason;
};

/// Everything one closed-loop run's monitor stack concluded.
struct DefenseReport {
  bool flagged{false};             ///< any monitor fired
  double first_alert_time{-1.0};   ///< earliest alert across monitors
  std::string first_monitor;       ///< who fired first
  std::vector<MonitorOutcome> monitors;
  /// Filled by the evaluation harness (ground-truth launch knowledge):
  /// true when the run's attack triggered and ANY monitor's first alert
  /// came at or after launch — judged per monitor, so a pre-launch false
  /// alarm from one monitor cannot mask another monitor's genuine
  /// detection. `detected_by` is the earliest such monitor and
  /// `frames_to_detection` its launch-to-alert latency in camera frames
  /// (-1 when not detected).
  bool detected{false};
  int frames_to_detection{-1};
  std::string detected_by;
};

/// An instantiated set of runtime attack monitors attached to one run.
///
/// Implements the perception observer hook: each perception cycle is
/// forwarded to every monitor. The stack is passive — detection outcomes
/// are evaluation data, never fed back into the ADS — so enabling any stack
/// leaves the driving outcome (and every pinned golden) bit-identical.
class MonitorStack final : public perception::PerceptionObserver {
 public:
  MonitorStack() = default;

  /// Builds the stack from global-registry keys. Throws std::out_of_range
  /// on an unknown key (listing the known ones).
  MonitorStack(const std::vector<std::string>& keys,
               const MonitorContext& ctx);

  /// Appends a custom monitor (ownership transferred).
  void add(std::unique_ptr<AttackMonitor> monitor);

  void on_perception(const perception::CameraFrame& frame,
                     const perception::PerceptionOutput& out) override;

  [[nodiscard]] bool empty() const { return monitors_.empty(); }
  [[nodiscard]] std::size_t size() const { return monitors_.size(); }

  /// Assembles the run-level report (detected / frames_to_detection are
  /// left for the harness, which knows the ground-truth launch time).
  [[nodiscard]] DefenseReport report() const;

 private:
  std::vector<std::unique_ptr<AttackMonitor>> monitors_;
};

/// One MonitorStack per member of a shared closed-loop drive, behind one
/// perception observer: every perception cycle is forwarded to each stack
/// in member order. The members' runs are one and the same simulation, so
/// each stack sees exactly what it would have seen alone (monitors are
/// passive and share no state), and the drive reports once per member.
class MonitorFanOut final : public perception::PerceptionObserver {
 public:
  /// One stack per entry of `stacks` (registry keys; an empty entry is an
  /// undefended member). Throws like MonitorStack on an unknown key.
  MonitorFanOut(const std::vector<std::vector<std::string>>& stacks,
                const MonitorContext& ctx);

  void on_perception(const perception::CameraFrame& frame,
                     const perception::PerceptionOutput& out) override;

  /// True when no member deploys a monitor (nothing to observe).
  [[nodiscard]] bool empty() const { return monitors_ == 0; }
  [[nodiscard]] const MonitorStack& stack(std::size_t member) const {
    return stacks_[member];
  }

 private:
  std::vector<MonitorStack> stacks_;
  std::size_t monitors_{0};
};

}  // namespace rt::defense
