#pragma once

#include "egi/datasets.h"
#include "util/rng.h"

namespace egi::datasets {

/// Builds one evaluation series following the paper's protocol: concatenate
/// `num_normal` randomly drawn normal instances, then splice one anomalous
/// instance in at an instance boundary whose resulting fraction of the final
/// series lies within [plant_lo, plant_hi] (the paper uses 40%..80%).
data::PlantedSeries MakePlantedSeries(data::Family family, Rng& rng,
                                      int num_normal = 20,
                                      double plant_lo = 0.4,
                                      double plant_hi = 0.8);

/// Builds a multi-anomaly series (Section 7.5): `total_instances` slots of
/// which `num_anomalies` are anomalous instances, placed at random distinct
/// non-adjacent slots (so the anomalies cannot merge into one region).
data::LabeledSeries MakeMultiPlantedSeries(data::Family family, Rng& rng,
                                           int total_instances,
                                           int num_anomalies);

}  // namespace egi::datasets
