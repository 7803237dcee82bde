#pragma once

#include <vector>

#include "egi/datasets.h"
#include "util/rng.h"

namespace egi::datasets {

/// Generates one instance of a data::Family, the six dataset families of the
/// paper's evaluation (Table 3). The UCR archive is not available offline,
/// so each family is a seeded synthetic generator with the paper's instance
/// length and the same labeling protocol: the class-1 shape is "normal", a
/// structurally different shape is "anomalous" (see DESIGN.md,
/// substitutions). `anomalous == false` draws from the "normal" class, true
/// from the "anomalous" class. Instances have the family's exact
/// data::GetFamilyInfo length; per-instance jitter (shape positions,
/// amplitudes, noise) comes from `rng`.
std::vector<double> MakeInstance(data::Family family, bool anomalous,
                                 Rng& rng);

}  // namespace egi::datasets
