#include "datasets/planted.h"

#include <algorithm>

#include "datasets/ucr_like.h"
#include "util/check.h"

namespace egi::datasets {

data::PlantedSeries MakePlantedSeries(data::Family family, Rng& rng,
                                      int num_normal, double plant_lo,
                                      double plant_hi) {
  EGI_CHECK(num_normal >= 2);
  EGI_CHECK(plant_lo >= 0.0 && plant_lo < plant_hi && plant_hi <= 1.0);
  const size_t L = data::GetFamilyInfo(family).instance_length;
  const auto slots = static_cast<size_t>(num_normal);
  const size_t final_len = (slots + 1) * L;

  data::PlantedSeries out;
  out.values.reserve(final_len);
  for (size_t k = 0; k < slots; ++k) {
    const auto inst = MakeInstance(family, /*anomalous=*/false, rng);
    out.values.insert(out.values.end(), inst.begin(), inst.end());
  }

  // Splice the anomalous instance in at an arbitrary sample position whose
  // fraction of the final series falls within [plant_lo, plant_hi] (the
  // paper's protocol: "a random position between 40% and 80%"). Planting is
  // NOT aligned to instance boundaries.
  const auto lo = static_cast<int64_t>(plant_lo *
                                       static_cast<double>(final_len));
  const auto hi = static_cast<int64_t>(plant_hi *
                                       static_cast<double>(final_len));
  const auto pos = static_cast<size_t>(rng.UniformInt(
      lo, std::min<int64_t>(hi, static_cast<int64_t>(out.values.size()))));

  const auto anomaly = MakeInstance(family, /*anomalous=*/true, rng);
  out.values.insert(out.values.begin() + static_cast<ptrdiff_t>(pos),
                    anomaly.begin(), anomaly.end());
  out.anomaly = Range{pos, anomaly.size()};

  EGI_CHECK(out.values.size() == final_len);
  EGI_CHECK(out.anomaly.length == L);
  return out;
}

data::LabeledSeries MakeMultiPlantedSeries(data::Family family, Rng& rng,
                                           int total_instances,
                                           int num_anomalies) {
  EGI_CHECK(total_instances >= 3 && num_anomalies >= 1);
  EGI_CHECK(num_anomalies * 2 < total_instances)
      << "too many anomalies to keep them non-adjacent";
  const size_t L = data::GetFamilyInfo(family).instance_length;
  const auto slots = static_cast<size_t>(total_instances);

  // Draw anomaly slots until none are adjacent (cheap rejection sampling;
  // deterministic given the rng state).
  std::vector<size_t> picks;
  for (;;) {
    picks = rng.SampleWithoutReplacement(slots,
                                         static_cast<size_t>(num_anomalies));
    std::sort(picks.begin(), picks.end());
    bool ok = true;
    for (size_t i = 1; i < picks.size(); ++i) {
      if (picks[i] - picks[i - 1] <= 1) ok = false;
    }
    if (ok) break;
  }

  data::LabeledSeries out;
  out.values.reserve(slots * L);
  size_t next_pick = 0;
  for (size_t k = 0; k < slots; ++k) {
    const bool anomalous = next_pick < picks.size() && picks[next_pick] == k;
    if (anomalous) ++next_pick;
    const auto inst = MakeInstance(family, anomalous, rng);
    if (anomalous)
      out.anomalies.push_back(Range{out.values.size(), inst.size()});
    out.values.insert(out.values.end(), inst.begin(), inst.end());
  }
  EGI_CHECK(out.values.size() == slots * L);
  EGI_CHECK(out.anomalies.size() == static_cast<size_t>(num_anomalies));
  return out;
}

}  // namespace egi::datasets
