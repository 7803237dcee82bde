#include "datasets/ucr_like.h"

#include <cmath>

#include "datasets/shapes.h"
#include "util/check.h"

namespace egi::data {

const FamilyInfo& GetFamilyInfo(Family family) {
  static constexpr FamilyInfo kInfos[] = {
      {"TwoLeadECG", 82, "ECG"},     {"ECGFiveDays", 132, "ECG"},
      {"GunPoint", 150, "Motion"},   {"Wafer", 150, "Sensor"},
      {"Trace", 275, "Sensor"},      {"StarLightCurve", 1024, "Sensor"},
  };
  const auto idx = static_cast<size_t>(family);
  EGI_CHECK(idx < std::size(kInfos)) << "unknown family";
  return kInfos[idx];
}

}  // namespace egi::data

namespace egi::datasets {

namespace {

// Uniform multiplicative jitter around 1.
double Jitter(Rng& rng, double spread) {
  return 1.0 + rng.UniformDouble(-spread, spread);
}

// ---------------------------------------------------------------- TwoLeadECG

std::vector<double> MakeTwoLeadEcg(bool anomalous, Rng& rng) {
  const size_t n = 82;
  std::vector<double> v(n, 0.0);
  const double L = static_cast<double>(n);
  const double shift = rng.UniformDouble(-1.5, 1.5);

  // P wave and T wave are shared between the two morphologies.
  AddGaussianBump(v, 0.22 * L + shift, 0.045 * L, 0.25 * Jitter(rng, 0.1));
  if (!anomalous) {
    // Lead-1-like beat: upright QRS.
    AddGaussianBump(v, 0.42 * L + shift, 0.018 * L, -0.35 * Jitter(rng, 0.1));
    AddGaussianBump(v, 0.46 * L + shift, 0.022 * L, 1.80 * Jitter(rng, 0.08));
    AddGaussianBump(v, 0.51 * L + shift, 0.018 * L, -0.55 * Jitter(rng, 0.1));
    AddGaussianBump(v, 0.68 * L + shift, 0.075 * L, 0.45 * Jitter(rng, 0.1));
  } else {
    // Second-lead morphology: inverted QRS, earlier and taller T.
    AddGaussianBump(v, 0.42 * L + shift, 0.02 * L, 0.30 * Jitter(rng, 0.1));
    AddGaussianBump(v, 0.46 * L + shift, 0.025 * L, -1.50 * Jitter(rng, 0.08));
    AddGaussianBump(v, 0.52 * L + shift, 0.02 * L, 0.40 * Jitter(rng, 0.1));
    AddGaussianBump(v, 0.64 * L + shift, 0.07 * L, 0.65 * Jitter(rng, 0.1));
  }
  AddGaussianNoise(v, rng, 0.04);
  return v;
}

// --------------------------------------------------------------- ECGFiveDays

std::vector<double> MakeEcgFiveDays(bool anomalous, Rng& rng) {
  const size_t n = 132;
  std::vector<double> v(n, 0.0);
  const double L = static_cast<double>(n);
  const double shift = rng.UniformDouble(-2.0, 2.0);

  // Gentle baseline wander shared by both classes.
  AddSine(v, 0, n, L * Jitter(rng, 0.1), rng.UniformDouble(0.0, 2.0 * M_PI),
          0.08);
  AddGaussianBump(v, 0.18 * L + shift, 0.04 * L, 0.22 * Jitter(rng, 0.1));
  if (!anomalous) {
    // Day-1 beat: narrow QRS, healthy ST segment, round T.
    AddGaussianBump(v, 0.38 * L + shift, 0.012 * L, -0.30 * Jitter(rng, 0.1));
    AddGaussianBump(v, 0.42 * L + shift, 0.016 * L, 1.60 * Jitter(rng, 0.08));
    AddGaussianBump(v, 0.46 * L + shift, 0.012 * L, -0.45 * Jitter(rng, 0.1));
    AddGaussianBump(v, 0.66 * L + shift, 0.07 * L, 0.40 * Jitter(rng, 0.1));
  } else {
    // Day-5 beat: widened QRS, depressed ST segment, flattened T.
    AddGaussianBump(v, 0.38 * L + shift, 0.02 * L, -0.25 * Jitter(rng, 0.1));
    AddGaussianBump(v, 0.43 * L + shift, 0.035 * L, 1.20 * Jitter(rng, 0.08));
    AddGaussianBump(v, 0.50 * L + shift, 0.02 * L, -0.35 * Jitter(rng, 0.1));
    AddLevel(v, static_cast<size_t>(0.52 * L), static_cast<size_t>(0.64 * L),
             -0.25);
    AddGaussianBump(v, 0.72 * L + shift, 0.09 * L, 0.15 * Jitter(rng, 0.15));
  }
  AddGaussianNoise(v, rng, 0.04);
  return v;
}

// ------------------------------------------------------------------ GunPoint

std::vector<double> MakeGunPoint(bool anomalous, Rng& rng) {
  const size_t n = 150;
  std::vector<double> v(n, 0.0);
  const double L = static_cast<double>(n);
  const double shift = rng.UniformDouble(-2.0, 2.0);
  const double amp = Jitter(rng, 0.05);

  if (!anomalous) {
    // "Gun" class: draw from holster (overshoot on rise) and re-holster
    // (dip after lowering).
    AddSmoothStep(v, 0.28 * L + shift, 0.030 * L, amp);
    AddSmoothStep(v, 0.72 * L + shift, 0.030 * L, -amp);
    AddGaussianBump(v, 0.36 * L + shift, 0.025 * L, 0.22 * Jitter(rng, 0.15));
    AddGaussianBump(v, 0.80 * L + shift, 0.030 * L, -0.18 * Jitter(rng, 0.15));
  } else {
    // "Point" class: no holster interaction, a later rise, an earlier drop
    // (narrower plateau) and a slight plateau tilt.
    AddSmoothStep(v, 0.34 * L + shift, 0.040 * L, amp);
    AddSmoothStep(v, 0.66 * L + shift, 0.040 * L, -amp);
    AddRamp(v, static_cast<size_t>(0.38 * L), static_cast<size_t>(0.62 * L),
            0.0, 0.08 * Jitter(rng, 0.3));
  }
  AddGaussianNoise(v, rng, 0.02);
  return v;
}

// --------------------------------------------------------------------- Wafer

std::vector<double> MakeWafer(bool anomalous, Rng& rng) {
  const size_t n = 150;
  std::vector<double> v(n, 0.0);
  const double L = static_cast<double>(n);
  const double amp = Jitter(rng, 0.05);

  AddRamp(v, static_cast<size_t>(0.13 * L), static_cast<size_t>(0.20 * L),
          0.0, amp);
  AddLevel(v, static_cast<size_t>(0.20 * L), static_cast<size_t>(0.55 * L),
           amp);
  AddSine(v, static_cast<size_t>(0.20 * L), static_cast<size_t>(0.55 * L),
          0.085 * L * Jitter(rng, 0.08), rng.UniformDouble(0.0, 2.0 * M_PI),
          0.08);
  if (!anomalous) {
    // Normal process: calibration spike, then the etch-down plateau.
    AddGaussianBump(v, 0.60 * L, 0.018 * L, 0.65 * Jitter(rng, 0.1));
    AddLevel(v, static_cast<size_t>(0.63 * L), static_cast<size_t>(0.85 * L),
             0.30 * amp);
    AddRamp(v, static_cast<size_t>(0.85 * L), static_cast<size_t>(0.92 * L),
            0.30 * amp, 0.0);
  } else {
    // Faulty run: no spike, raised second plateau, spurious dip.
    AddLevel(v, static_cast<size_t>(0.58 * L), static_cast<size_t>(0.85 * L),
             0.70 * amp);
    AddGaussianBump(v, 0.75 * L, 0.02 * L, -0.55 * Jitter(rng, 0.1));
    AddRamp(v, static_cast<size_t>(0.85 * L), static_cast<size_t>(0.92 * L),
            0.70 * amp, 0.0);
  }
  AddGaussianNoise(v, rng, 0.03);
  return v;
}

// --------------------------------------------------------------------- Trace

std::vector<double> MakeTrace(bool anomalous, Rng& rng) {
  const size_t n = 275;
  std::vector<double> v(n, 0.0);
  const double L = static_cast<double>(n);
  const double shift = rng.UniformDouble(-3.0, 3.0);
  const double amp = Jitter(rng, 0.05);

  // Both classes step up mid-way (instrument switching on).
  AddSmoothStep(v, 0.45 * L + shift, 0.012 * L, amp);
  // Gentle post-step oscillation.
  AddSine(v, static_cast<size_t>(0.5 * L), n, 0.16 * L * Jitter(rng, 0.05),
          rng.UniformDouble(0.0, 2.0 * M_PI), 0.05);
  if (anomalous) {
    // Fault transient: damped oscillation just before the step and a
    // relaxation dip after it.
    AddDampedOscillation(v, static_cast<size_t>(0.22 * L + shift), 0.05 * L,
                         0.06 * L, 0.8 * Jitter(rng, 0.1));
    AddGaussianBump(v, 0.62 * L + shift, 0.04 * L, -0.5 * Jitter(rng, 0.1));
  }
  AddGaussianNoise(v, rng, 0.02);
  return v;
}

// ------------------------------------------------------------ StarLightCurve

std::vector<double> MakeStarLightCurve(bool anomalous, Rng& rng) {
  const size_t n = 1024;
  std::vector<double> v(n, 0.0);
  const double period = 512.0 * Jitter(rng, 0.02);
  // UCR light-curve instances are phase-registered; keep only small jitter.
  const double phase = rng.UniformDouble(0.0, 0.06 * period);

  if (!anomalous) {
    // Cepheid-like pulsator: asymmetric sawtooth built from harmonics.
    const double a1 = 1.0 * Jitter(rng, 0.05);
    const double a2 = 0.35 * Jitter(rng, 0.1);
    const double a3 = 0.12 * Jitter(rng, 0.15);
    for (size_t i = 0; i < n; ++i) {
      const double t = 2.0 * M_PI * (static_cast<double>(i) + phase) / period;
      v[i] = a1 * std::sin(t) + a2 * std::sin(2.0 * t + 0.9) +
             a3 * std::sin(3.0 * t + 1.7);
    }
  } else {
    // Eclipsing binary: flat light with a deep primary and shallow
    // secondary eclipse every period.
    const double depth1 = 1.6 * Jitter(rng, 0.08);
    const double depth2 = 0.6 * Jitter(rng, 0.12);
    const double width = 0.055 * period;
    for (double c = -phase; c < static_cast<double>(n) + period; c += period) {
      AddGaussianBump(v, c + 0.25 * period, width, -depth1);
      AddGaussianBump(v, c + 0.75 * period, width, -depth2);
    }
    AddLevel(v, 0, n, 0.45);
  }
  AddGaussianNoise(v, rng, 0.05);
  return v;
}

}  // namespace

std::vector<double> MakeInstance(data::Family family, bool anomalous,
                                 Rng& rng) {
  switch (family) {
    case data::Family::kTwoLeadEcg:
      return MakeTwoLeadEcg(anomalous, rng);
    case data::Family::kEcgFiveDays:
      return MakeEcgFiveDays(anomalous, rng);
    case data::Family::kGunPoint:
      return MakeGunPoint(anomalous, rng);
    case data::Family::kWafer:
      return MakeWafer(anomalous, rng);
    case data::Family::kTrace:
      return MakeTrace(anomalous, rng);
    case data::Family::kStarLightCurve:
      return MakeStarLightCurve(anomalous, rng);
  }
  EGI_CHECK(false) << "unknown family";
  return {};
}

}  // namespace egi::datasets
