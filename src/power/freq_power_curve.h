// Per-core DVFS power curve.
//
// Calibration (paper section V-A, "Power Evaluation"): a 12-core Xeon
// E5-2697 v2 measured at 4.4 W per core at the maximum frequency (2.7 GHz)
// and 1.4 W at the minimum (1.2 GHz), stepping in 100 MHz increments.
// We fit P(f) = P_static + c * f^3 through those two points (the classic
// dynamic-power cube law), which also lets callers query arbitrary grids.
#pragma once

#include <vector>

#include "util/types.h"

namespace eprons {

class FreqPowerCurve {
 public:
  /// Cube-law fit through (f_min, p_min) and (f_max, p_max).
  FreqPowerCurve(Freq f_min, Power p_min, Freq f_max, Power p_max);

  /// The paper's calibration: 1.2 GHz @ 1.4 W ... 2.7 GHz @ 4.4 W.
  static FreqPowerCurve xeon_e5_2697v2();

  Freq f_min() const { return f_min_; }
  Freq f_max() const { return f_max_; }

  /// Active power of one core running at frequency f (clamped to range).
  Power active_power(Freq f) const;

  /// The DVFS frequency grid: f_min..f_max in `step_ghz` increments
  /// (default 0.1 GHz = the paper's 100 MHz steps), ascending.
  std::vector<Freq> frequency_grid(double step_ghz = 0.1) const;

 private:
  Freq f_min_;
  Freq f_max_;
  Power p_static_;
  double cube_coeff_;
};

}  // namespace eprons
