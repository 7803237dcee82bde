#include "datasets/power.h"

#include <algorithm>
#include <cmath>

#include "datasets/shapes.h"
#include "util/check.h"

namespace egi::datasets {

namespace {

// Appends one fridge duty cycle; returns the window the cycle occupies.
// kind: 0 = normal, 1 = unusual sagging ON shape, 2 = spikes during OFF.
Range AppendFridgeCycle(std::vector<double>* out, Rng& rng, int kind) {
  const size_t start = out->size();
  auto on_len = static_cast<size_t>(rng.UniformInt(305, 318));
  const auto off_len = static_cast<size_t>(rng.UniformInt(570, 585));
  // The unusual cycle (Fig 9(c)) runs much longer than a healthy one.
  if (kind == 1) on_len = on_len * 8 / 5;

  std::vector<double> cycle(on_len + off_len, 0.0);
  // Compressor start spike decaying into the run level.
  const double level = 85.0 * (1.0 + rng.UniformDouble(-0.02, 0.02));
  AddLevel(cycle, 0, on_len, level);
  AddDampedOscillation(cycle, 0, 6.0, 4.0, 120.0);
  AddGaussianBump(cycle, 2.0, 3.0, 140.0);
  // Run ripple (phase-locked to the compressor start).
  AddSine(cycle, 0, on_len, 42.0, 0.0, 2.5);

  if (kind == 1) {
    // Unusual cycle: the run level sags deeply and oscillates (a struggling
    // compressor), on top of the extended ON duration.
    AddRamp(cycle, on_len / 4, on_len, 0.0, -65.0);
    AddSine(cycle, on_len / 4, on_len, 55.0, 0.0, 28.0);
  } else if (kind == 2) {
    // Spikes event: three high-power spikes during the OFF period. Wide
    // enough (sigma ~25 samples) that coarse PAA segments register them.
    for (int s = 0; s < 3; ++s) {
      const double c = static_cast<double>(on_len) +
                       static_cast<double>(off_len) *
                           (0.25 + 0.22 * static_cast<double>(s));
      AddGaussianBump(cycle, c, 25.0,
                      150.0 + 15.0 * static_cast<double>(s % 2));
    }
  }
  // OFF-period standby level.
  AddLevel(cycle, on_len, cycle.size(), 1.5);
  AddGaussianNoise(cycle, rng, 0.8);
  for (double& v : cycle) v = std::max(0.0, v);

  out->insert(out->end(), cycle.begin(), cycle.end());
  return Range{start, cycle.size()};
}

}  // namespace

data::LabeledSeries MakeFridgeFreezerSeries(size_t length, Rng& rng,
                                            bool plant_anomalies) {
  EGI_CHECK(length >= 4 * data::kFridgeCycleLength)
      << "series too short for fridge cycles";
  data::LabeledSeries out;
  out.values.reserve(length + data::kFridgeCycleLength);

  // Anomalies near 40% and 65% of the series, in line with the case study's
  // "somewhere in a very long stream" setting.
  const size_t pos_a = plant_anomalies ? length * 2 / 5 : length + 1;
  const size_t pos_b = plant_anomalies ? length * 13 / 20 : length + 1;
  bool planted_a = false, planted_b = false;

  size_t last_complete = 0;
  while (out.values.size() < length) {
    int kind = 0;
    if (!planted_a && out.values.size() >= pos_a) {
      kind = 1;
      planted_a = true;
    } else if (!planted_b && out.values.size() >= pos_b) {
      kind = 2;
      planted_b = true;
    }
    const Range w = AppendFridgeCycle(&out.values, rng, kind);
    if (kind != 0) out.anomalies.push_back(w);
    if (out.values.size() <= length) last_complete = out.values.size();
  }
  // Trim to whole cycles: cutting mid-cycle would fabricate a truncated
  // final cycle that is itself (genuinely) anomalous. The returned series
  // may be up to one cycle shorter than requested.
  out.values.resize(last_complete == 0 ? length : last_complete);
  return out;
}

data::LabeledSeries MakeDishwasherSeries(int num_cycles, Rng& rng) {
  EGI_CHECK(num_cycles >= 3);
  data::LabeledSeries out;
  const int anomalous_cycle = num_cycles / 2;

  for (int c = 0; c < num_cycles; ++c) {
    const bool anomalous = (c == anomalous_cycle);
    const size_t start = out.values.size();

    const auto idle1 = static_cast<size_t>(rng.UniformInt(28, 36));
    // The anomalous cycle has an unusually short heated-wash phase.
    const auto wash =
        static_cast<size_t>(anomalous ? rng.UniformInt(18, 24)
                                      : rng.UniformInt(62, 72));
    const auto rinse = static_cast<size_t>(rng.UniformInt(26, 32));
    const auto heat = static_cast<size_t>(rng.UniformInt(22, 28));
    const auto idle2 = static_cast<size_t>(rng.UniformInt(48, 58));

    std::vector<double> cycle(idle1 + wash + rinse + heat + idle2, 0.0);
    size_t at = idle1;
    AddLevel(cycle, 0, cycle.size(), 2.0);
    AddLevel(cycle, at, at + wash, 1800.0 * (1.0 + rng.UniformDouble(-0.03, 0.03)));
    AddSine(cycle, at, at + wash, 18.0, rng.UniformDouble(0.0, 2.0 * M_PI),
            60.0);
    at += wash;
    AddLevel(cycle, at, at + rinse, 750.0 * (1.0 + rng.UniformDouble(-0.04, 0.04)));
    at += rinse;
    AddLevel(cycle, at, at + heat, 2100.0 * (1.0 + rng.UniformDouble(-0.03, 0.03)));
    at += heat;
    AddGaussianNoise(cycle, rng, 6.0);
    for (double& v : cycle) v = std::max(0.0, v);

    out.values.insert(out.values.end(), cycle.begin(), cycle.end());
    if (anomalous) out.anomalies.push_back(Range{start, cycle.size()});
  }
  return out;
}

}  // namespace egi::datasets
