#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <ostream>

#include "core/ensemble.h"
#include "egi/registry.h"
#include "egi/session.h"
#include "util/env.h"
#include "util/json.h"

namespace egi::bench {

BenchSettings SettingsFromEnv() {
  BenchSettings s;
  s.quick = GetEnvBool("EGI_BENCH_QUICK", false);
  s.series_per_dataset =
      GetEnvCount("EGI_SERIES_PER_DATASET", s.quick ? 8 : 25);
  s.data_seed = static_cast<uint64_t>(GetEnvInt("EGI_DATA_SEED", 2020));
  s.ensemble_size = GetEnvCount("EGI_ENSEMBLE_SIZE", 50);
  return s;
}

int GetEnvCount(const char* name, int fallback) {
  const int64_t value = GetEnvInt(name, fallback);
  if (value < 1) {
    std::fprintf(stderr, "%s must be >= 1, got %lld\n", name,
                 static_cast<long long>(value));
    std::exit(2);
  }
  if (value > std::numeric_limits<int>::max()) {
    std::fprintf(stderr, "%s must be <= %d, got %lld\n", name,
                 std::numeric_limits<int>::max(),
                 static_cast<long long>(value));
    std::exit(2);
  }
  return static_cast<int>(value);
}

std::vector<eval::PaperMethod> PaperMethods(const BenchSettings& settings) {
  return eval::PaperMethods(settings.ensemble_size, settings.threads);
}

namespace {

std::string g_metrics_path;  // empty = no metrics dump requested

// atexit, not a scope guard: benches exit from main with plain `return 0`,
// and the dump must capture everything the whole run recorded.
void WriteMetricsAtExit() {
  if (g_metrics_path.empty()) return;
  std::FILE* f = std::fopen(g_metrics_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                 g_metrics_path.c_str());
    return;
  }
  const std::string json = Session::MetricsJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

void EnableMetricsDump(std::string path) {
  const bool first = g_metrics_path.empty();
  g_metrics_path = std::move(path);
  if (first) std::atexit(WriteMetricsAtExit);
}

}  // namespace

bool HandleStandardFlags(int argc, char** argv) {
  constexpr const char kMetricsFlag[] = "--metrics-json";
  constexpr size_t kMetricsFlagLen = sizeof(kMetricsFlag) - 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list-methods") == 0) {
      std::fputs(FormatDetectorList().c_str(), stdout);
      return true;
    }
    if (std::strncmp(argv[i], kMetricsFlag, kMetricsFlagLen) == 0) {
      const char* rest = argv[i] + kMetricsFlagLen;
      if (*rest == '\0') {
        EnableMetricsDump("BENCH_metrics.json");
      } else if (*rest == '=') {
        EnableMetricsDump(rest + 1);
      }
    }
  }
  if (g_metrics_path.empty()) {
    const std::string env_path = GetEnvString("EGI_METRICS_JSON", "");
    if (!env_path.empty()) EnableMetricsDump(env_path);
  }
  return false;
}

void PrintPreamble(const std::string& what, const BenchSettings& settings) {
  const core::EnsembleParams paper;  // wmax, amax and tau of every method
  std::printf("== %s ==\n", what.c_str());
  std::printf(
      "settings: %d series/dataset, data_seed=%llu, N=%d, tau=%.0f%%, "
      "wmax=%d, amax=%d%s\n",
      settings.series_per_dataset,
      static_cast<unsigned long long>(settings.data_seed),
      settings.ensemble_size, paper.selectivity * 100.0, paper.wmax,
      paper.amax, settings.quick ? " [QUICK]" : "");
  std::printf(
      "datasets are seeded synthetic stand-ins for the UCR families "
      "(DESIGN.md); compare shapes, not absolute values.\n\n");
}

std::string DatasetName(data::Family dataset) {
  return std::string(data::GetFamilyInfo(dataset).name);
}

eval::ExperimentResult RunMainExperiment(const BenchSettings& settings) {
  eval::ExperimentConfig cfg;
  cfg.series_per_dataset = settings.series_per_dataset;
  cfg.data_seed = settings.data_seed;
  return eval::RunExperiment(data::kAllFamilies, PaperMethods(settings), cfg);
}

// ------------------------------------------------- machine-readable output

bool JsonOutputEnabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return true;
  }
  return GetEnvBool("EGI_BENCH_JSON", false);
}

JsonRecord::JsonRecord(const std::string& bench) {
  AddRaw("bench", JsonQuote(bench));
}

JsonRecord& JsonRecord::AddRaw(const std::string& key,
                               const std::string& raw) {
  if (!body_.empty()) body_ += ',';
  body_ += JsonQuote(key) + ':' + raw;
  return *this;
}

JsonRecord& JsonRecord::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, JsonQuote(value));
}

JsonRecord& JsonRecord::Add(const std::string& key, const char* value) {
  return Add(key, std::string(value));
}

JsonRecord& JsonRecord::Add(const std::string& key, double value) {
  return AddRaw(key, JsonNumber(value));
}

JsonRecord& JsonRecord::Add(const std::string& key, int64_t value) {
  return AddRaw(key, std::to_string(value));
}

JsonRecord& JsonRecord::Add(const std::string& key, uint64_t value) {
  return AddRaw(key, std::to_string(value));
}

JsonRecord& JsonRecord::Add(const std::string& key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}

void JsonRecord::Emit(std::ostream& os) const {
  os << '{' << body_ << "}\n" << std::flush;
}

}  // namespace egi::bench
