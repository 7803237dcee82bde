#pragma once

#include <cstddef>

#include "egi/datasets.h"
#include "util/rng.h"

namespace egi::datasets {

/// REFIT-style fridge-freezer power usage simulator (paper Section 7.4 /
/// Figure 9 substitution — see DESIGN.md). Duty cycles of roughly 900
/// samples: a compressor ON period (start spike + ripple around ~85 W)
/// followed by a long OFF period near 0 W, with per-cycle jitter. When
/// `plant_anomalies` is set, two qualitatively different unusual events are
/// planted in the middle third of the series:
///   1. a cycle with an unusual sagging/oscillating ON shape (Fig 9(c)),
///   2. a burst of short spikes between otherwise normal cycles (Fig 9(d)).
data::LabeledSeries MakeFridgeFreezerSeries(size_t length, Rng& rng,
                                            bool plant_anomalies = true);

/// Dishwasher electricity usage simulator (paper Figure 1): repeating wash
/// cycles (pre-rinse, heated wash, rinse, dry) with one anomalous cycle
/// whose heated-wash phase is unusually short. Returns `num_cycles` cycles;
/// the anomalous one is placed near the middle.
data::LabeledSeries MakeDishwasherSeries(int num_cycles, Rng& rng);

/// Nominal dishwasher cycle length, a natural window length (the fridge's
/// is data::kFridgeCycleLength).
inline constexpr size_t kDishwasherCycleLength = 220;

}  // namespace egi::datasets
