// Runs all five registered detectors on the same series and prints a
// side-by-side comparison: the proposed ensemble, the three single-run
// grammar-induction baselines, and the STOMP-based discord detector —
// every one constructed from its registry spec through the public façade.
//
// Build & run:  ./build/compare_detectors
//               ./build/compare_detectors --list-methods

#include <egi/egi.h>

#include <chrono>
#include <cstdio>
#include <cstring>

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-methods") == 0) {
      std::fputs(egi::FormatDetectorList().c_str(), stdout);
      return 0;
    }
  }

  const auto family = egi::data::Family::kWafer;
  const auto data = egi::data::MakePlanted(family, /*seed=*/11);
  const size_t window = egi::data::GetFamilyInfo(family).instance_length;
  std::printf("dataset: %s-like, %zu points, anomaly at [%zu, %zu)\n\n",
              egi::data::GetFamilyInfo(family).name.data(), data.values.size(),
              data.anomaly.start, data.anomaly.end());

  std::printf("%-12s  %-9s  %-13s  %-4s  %s\n", "Method", "Top-1 pos",
              "Score (Eq. 5)", "Hit", "Time (ms)");
  for (const auto& info : egi::ListDetectors()) {
    auto session = egi::Session::Open(info.name);
    if (!session.ok()) {
      std::printf("%s failed to open: %s\n", info.name.data(),
                  session.status().ToString().c_str());
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto result = session->Detect(data.values, window, 3);
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (!result.ok()) {
      std::printf("%s failed: %s\n", info.name.data(),
                  result.status().ToString().c_str());
      continue;
    }
    const double score = egi::BestScore(*result, data.anomaly);
    std::printf("%-12s  %-9zu  %-13.4f  %-4s  %.1f\n", info.name.data(),
                (*result)[0].position, score,
                egi::IsHit(*result, data.anomaly) ? "yes" : "no", ms);
  }

  std::printf(
      "\nNote: one series is an anecdote — bench/tab04_06_main reruns the\n"
      "paper's full 25-series-per-dataset protocol.\n");
  return 0;
}
