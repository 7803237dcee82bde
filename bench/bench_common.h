#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "eval/experiment.h"
#include "exec/parallel.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace egi::bench {

/// Shared configuration for the experiment binaries, read from environment
/// variables so `ctest`-style batch runs can be resized without rebuilds:
///   EGI_BENCH_QUICK=1        small smoke-run sweeps
///   EGI_SERIES_PER_DATASET   series per dataset (default 25, paper value)
///   EGI_DATA_SEED            series-generation seed (default 2020)
///   EGI_ENSEMBLE_SIZE        N (default 50)
///   EGI_NUM_THREADS          intra-detector threads (default: all cores)
/// Every other detector option is the paper's setting (registry defaults).
struct BenchSettings {
  int series_per_dataset = 25;
  uint64_t data_seed = 2020;
  int ensemble_size = 50;
  int threads = exec::Parallelism::FromEnv().threads;
  bool quick = false;
};

/// Reads the settings above; exits like GetEnvCount on a count below 1.
BenchSettings SettingsFromEnv();

/// Reads a sizing variable (a count of series, members or repetitions):
/// unset or unparsable keeps `fallback`. A value below 1 prints
/// "<name> must be >= 1, got <v>" to stderr and exits with status 2; so
/// does a value above INT_MAX, with "must be <= 2147483647".
int GetEnvCount(const char* name, int fallback);

/// The paper's five methods at these settings (eval::PaperMethods): row 0
/// is Proposed, rows 1-3 the GI baselines, row 4 Discord.
std::vector<eval::PaperMethod> PaperMethods(const BenchSettings& settings);

/// Handles the flags every bench binary accepts before doing any work.
/// `--list-methods` prints the public detector registry — one line per
/// detector, deterministic order, with its option schema — and returns
/// true, meaning the caller should exit(0) immediately.
/// `--metrics-json[=PATH]` (or EGI_METRICS_JSON=PATH) registers an atexit
/// dump of Session::MetricsJson() — the process-wide telemetry registry:
/// counters, gauges, latency histograms, journal tail — to PATH (default
/// BENCH_metrics.json) as a single JSON object; the bench keeps running
/// (returns false).
bool HandleStandardFlags(int argc, char** argv);

/// Prints the standard preamble (what the binary reproduces, settings,
/// determinism note).
void PrintPreamble(const std::string& what, const BenchSettings& settings);

std::string DatasetName(data::Family dataset);

/// Runs the main 5-method experiment of Section 7.1 (Tables 4/5/6, Fig 10).
eval::ExperimentResult RunMainExperiment(const BenchSettings& settings);

// --------------------------------------------------------- timing helpers

/// Keeps `value` (and everything reachable from it) observable so the
/// optimizer cannot delete the benchmarked computation.
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

/// Best-of-`reps` wall-clock seconds for one invocation of `fn` (the
/// standard micro-bench reducer: min discards scheduler noise).
template <typename F>
double BestSeconds(int reps, F&& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    fn();
    best = std::min(best, sw.ElapsedSeconds());
  }
  return best;
}

// ------------------------------------------------- machine-readable output

/// True when the binary was invoked with `--json` (or EGI_BENCH_JSON=1).
/// In JSON mode benches emit one JSON object per line on stdout (and keep
/// human-readable tables off it), so results redirect cleanly into
/// BENCH_*.json files trackable across PRs.
bool JsonOutputEnabled(int argc, char** argv);

/// Builder for one JSON-lines bench record:
///   JsonRecord("micro_stream").Add("streams", 4).Add("points_per_sec", r)
///       .Emit(std::cout);
/// prints `{"bench":"micro_stream","streams":4,"points_per_sec":...}\n`.
/// Doubles are rendered with enough digits to round-trip; non-finite
/// doubles become null (JSON has no NaN/Inf literal).
class JsonRecord {
 public:
  explicit JsonRecord(const std::string& bench);

  JsonRecord& Add(const std::string& key, const std::string& value);
  JsonRecord& Add(const std::string& key, const char* value);
  JsonRecord& Add(const std::string& key, double value);
  JsonRecord& Add(const std::string& key, int64_t value);
  JsonRecord& Add(const std::string& key, uint64_t value);
  JsonRecord& Add(const std::string& key, int value) {
    return Add(key, static_cast<int64_t>(value));
  }
  JsonRecord& Add(const std::string& key, bool value);

  /// Writes the record as one line and flushes.
  void Emit(std::ostream& os) const;

 private:
  JsonRecord& AddRaw(const std::string& key, const std::string& raw);

  std::string body_;
};

}  // namespace egi::bench
