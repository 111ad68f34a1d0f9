#include "defense/monitor_stack.hpp"

#include "defense/monitor_registry.hpp"

namespace rt::defense {

MonitorStack::MonitorStack(const std::vector<std::string>& keys,
                           const MonitorContext& ctx) {
  monitors_.reserve(keys.size());
  for (const auto& key : keys) {
    monitors_.push_back(MonitorRegistry::global().make(key, ctx));
  }
}

void MonitorStack::add(std::unique_ptr<AttackMonitor> monitor) {
  monitors_.push_back(std::move(monitor));
}

void MonitorStack::on_perception(const perception::CameraFrame& frame,
                                 const perception::PerceptionOutput& out) {
  for (const auto& m : monitors_) m->observe(frame, out);
}

MonitorFanOut::MonitorFanOut(
    const std::vector<std::vector<std::string>>& stacks,
    const MonitorContext& ctx) {
  stacks_.reserve(stacks.size());
  for (const auto& keys : stacks) {
    stacks_.emplace_back(keys, ctx);
    monitors_ += keys.size();
  }
}

void MonitorFanOut::on_perception(const perception::CameraFrame& frame,
                                  const perception::PerceptionOutput& out) {
  for (auto& stack : stacks_) stack.on_perception(frame, out);
}

DefenseReport MonitorStack::report() const {
  DefenseReport report;
  report.monitors.reserve(monitors_.size());
  for (const auto& m : monitors_) {
    const MonitorReport& r = m->report();
    report.monitors.push_back(
        {m->key(), r.fired, r.first_alert_time, r.alarms, r.reason});
    if (r.fired && (!report.flagged ||
                    r.first_alert_time < report.first_alert_time)) {
      report.flagged = true;
      report.first_alert_time = r.first_alert_time;
      report.first_monitor = m->key();
    }
  }
  return report;
}

}  // namespace rt::defense
