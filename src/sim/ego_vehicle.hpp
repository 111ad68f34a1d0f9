#pragma once

#include "sim/types.hpp"

namespace rt::sim {

/// Actuation limits of the ego vehicle's longitudinal dynamics.
///
/// `comfort_decel` parameterizes the safety model's stopping distance
/// (Def. 3: "maximum comfortable deceleration"); `max_decel` is what
/// emergency braking can command.
struct EgoLimits {
  double max_accel{2.5};      ///< m/s^2
  double comfort_decel{2.0};  ///< m/s^2, used for d_stop
  double max_decel{6.0};      ///< m/s^2, emergency braking
  double max_jerk{12.0};      ///< m/s^3, actuator slew rate
  double max_speed{kph_to_mps(50.0)};  ///< road speed limit
};

/// The ego vehicle (EV) plant model.
///
/// Only longitudinal dynamics are modeled (the paper's safety model and all
/// five driving scenarios are longitudinal; the EV lane-keeps at y == 0).
/// The ADS commands a desired acceleration; a jerk-limited first-order
/// actuator tracks it, mimicking the smoothing role of Apollo's PID +
/// mechanical lag described in §II-A.
class EgoVehicle {
 public:
  EgoVehicle() = default;
  EgoVehicle(double x, double speed, EgoLimits limits = {});

  [[nodiscard]] double x() const { return x_; }
  [[nodiscard]] double speed() const { return v_; }
  [[nodiscard]] double acceleration() const { return a_; }
  [[nodiscard]] const Dimensions& dims() const { return dims_; }
  [[nodiscard]] const EgoLimits& limits() const { return limits_; }

  /// Advances the plant by `dt` under the commanded acceleration
  /// (clamped into [-max_decel, max_accel], slew-limited by max_jerk).
  void step(double dt, double accel_command);

 private:
  double x_{0.0};
  double v_{0.0};
  double a_{0.0};
  Dimensions dims_{default_dimensions(ActorType::kVehicle)};
  EgoLimits limits_{};
};

}  // namespace rt::sim
