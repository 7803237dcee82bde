// Streaming throughput on the daemon's path: steady-state scoring rate
// (points/sec) of an in-process egid core (service::HubService: frame
// admission, per-stream queues, drain tasks on the shared exec pool) as a
// function of (a) the refit interval — the amortization knob trading model
// freshness for ingest speed — and (b) the number of concurrent streams.
// Each round admits one 256-point frame per stream and then waits for all
// of them to be scored (Flush), so the clock covers scoring, not queueing.
//
// Per configuration every stream is warmed through its first full refit, so
// the measured phase exercises the steady state: incremental word encodes
// per point plus one amortized batch refit per `refit_interval` appends.
//
// --snapshot (or EGI_BENCH_SNAPSHOT=1) switches to the checkpoint mode:
// snapshot/restore latency and blob size of a warmed detector as a function
// of the buffered window size (the failover-cost curve; CI archives its
// JSON output as BENCH_stream_snapshot.json).
//
// --refit-policy (or EGI_BENCH_REFIT_POLICY=1) switches to the cadence
// mode: fixed vs adaptive refit policy on a stationary stream — wall time,
// refit counts, and provisional-vs-batch agreement (CI archives its JSON
// output in BENCH_adaptive.json).
//
// EGI_BENCH_QUICK=1 shrinks the sweep (CI smoke mode); --json (or
// EGI_BENCH_JSON=1) emits one JSON object per line for BENCH_*.json
// tracking instead of the human-readable table.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "datasets/random_walk.h"
#include "exec/parallel.h"
#include "service/hub_service.h"
#include "stream/detector.h"
#include "util/check.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

// Snapshot/restore latency vs the buffered window size: how much state a
// failover has to move, and what serializing it costs next to ingest work.
int RunSnapshotMode(bool json, bool quick) {
  using namespace egi;
  const size_t window = 64;
  const std::vector<size_t> buffer_capacities =
      quick ? std::vector<size_t>{512, 2048}
            : std::vector<size_t>{512, 2048, 8192, 32768};
  const int reps = quick ? 5 : 20;

  if (!json) {
    std::printf("== Streaming detector: snapshot/restore latency ==\n");
    std::printf("window %zu, best of %d reps%s\n\n", window, reps,
                quick ? " [QUICK]" : "");
  }

  TextTable table("snapshot/restore cost vs buffered window");
  table.SetHeader({"Buffer", "Blob (KiB)", "Snapshot (us)", "Restore (us)",
                   "Roundtrip (us)"});

  for (const size_t buffer_capacity : buffer_capacities) {
    stream::StreamDetectorOptions opt;
    opt.ensemble.window_length = window;
    opt.ensemble.wmax = 8;
    opt.ensemble.amax = 8;
    opt.ensemble.ensemble_size = 20;
    opt.buffer_capacity = buffer_capacity;
    opt.refit_interval = buffer_capacity / 2;
    stream::StreamDetector detector(opt);

    // Warm through a full buffer and at least one refit, so the snapshot
    // carries the steady-state payload (models, score ring, history).
    Rng rng(9000 + buffer_capacity);
    const auto data = datasets::MakeRandomWalk(buffer_capacity + window, rng);
    for (const double v : data) detector.Append(v);
    EGI_CHECK(detector.fitted()) << "warmup did not refit";

    std::vector<uint8_t> blob;
    const double snap_s = bench::BestSeconds(reps, [&] {
      blob = detector.Serialize();
      bench::KeepAlive(blob);
    });
    const double restore_s = bench::BestSeconds(reps, [&] {
      auto restored = stream::StreamDetector::Deserialize(blob);
      EGI_CHECK(restored.ok()) << restored.status().ToString();
      bench::KeepAlive(*restored);
    });

    if (json) {
      bench::JsonRecord("micro_stream_snapshot")
          .Add("window", static_cast<int64_t>(window))
          .Add("buffer_capacity", static_cast<int64_t>(buffer_capacity))
          .Add("blob_bytes", static_cast<int64_t>(blob.size()))
          .Add("snapshot_seconds", snap_s)
          .Add("restore_seconds", restore_s)
          .Add("quick", quick)
          .Emit(std::cout);
    } else {
      table.AddRow({std::to_string(buffer_capacity),
                    FormatDouble(static_cast<double>(blob.size()) / 1024.0, 1),
                    FormatDouble(snap_s * 1e6, 1),
                    FormatDouble(restore_s * 1e6, 1),
                    FormatDouble((snap_s + restore_s) * 1e6, 1)});
    }
  }

  if (!json) {
    table.Print(std::cout);
    std::printf(
        "\nsnapshot cost scales with the buffered history (points + score\n"
        "ring) plus the fitted member models; restore adds decode-side\n"
        "validation and token-table re-interning.\n");
  }
  return 0;
}

// Fixed vs adaptive refit cadence on a stationary stream. The adaptive
// policy should stretch its interval toward the ceiling (far fewer batch
// refits per point, so faster ingest) while the provisional scores stay as
// close to the exact batch scores as the fixed cadence keeps them.
// Agreement compares every superseded point: the score it carried at
// append time vs the exact value the next refit assigned it. The
// incremental word-frequency path and the batch rule-density curve live on
// different scales by construction, so the absolute level mostly reflects
// that constant gap — what matters is the comparison between the two
// policies, measured over the identical superseded-block protocol.
int RunRefitPolicyMode(bool json, bool quick) {
  using namespace egi;
  const size_t window = 64;
  const size_t buffer_capacity = quick ? 512 : 2048;
  const size_t refit_interval = 128;
  const size_t measure = quick ? 8192 : 32768;
  const int reps = quick ? 2 : 3;

  if (!json) {
    std::printf("== Streaming detector: refit cadence policies ==\n");
    std::printf(
        "window %zu, buffer %zu, refit floor %zu, %zu measured points, "
        "best of %d reps%s\n\n",
        window, buffer_capacity, refit_interval, measure, reps,
        quick ? " [QUICK]" : "");
  }

  TextTable table("refit policy on a stationary stream");
  table.SetHeader({"Policy", "Time (s)", "Points/sec", "Refits",
                   "Agreement MAE", "Refit reduction"});

  // Stationary signal: a fixed-period sine plus Gaussian noise. (A random
  // walk would not do here — its level drifts, which is exactly what the
  // adaptive gate is built to catch.)
  std::vector<double> data(buffer_capacity + measure);
  Rng rng(2718);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(2.0 * 3.14159265358979323846 *
                       static_cast<double>(i) / 50.0) +
              rng.Gaussian(0.0, 0.1);
  }

  stream::StreamDetectorOptions base;
  base.ensemble.window_length = window;
  base.ensemble.wmax = 8;
  base.ensemble.amax = 8;
  base.ensemble.ensemble_size = 20;
  base.buffer_capacity = buffer_capacity;
  base.refit_interval = refit_interval;
  // Adaptive ceiling: 8x the floor, capped at the buffer so every
  // superseded point is still buffered when its refit rescores it (the
  // agreement pass depends on that).
  base.refit_interval_max = std::min(8 * refit_interval, buffer_capacity);
  base.drift_tolerance = 0.5;

  struct PolicyRow {
    const char* name;
    RefitPolicy policy;
  };
  const PolicyRow rows[] = {
      {"fixed", RefitPolicy::kFixed},
      {"adaptive", RefitPolicy::kAdaptive},
  };

  uint64_t fixed_refits = 0;
  for (const PolicyRow& row : rows) {
    stream::StreamDetectorOptions opt = base;
    opt.refit_policy = row.policy;

    // Timing pass: best-of-reps over identical replays (each rep builds a
    // fresh detector so every replay sees the same refit schedule); only
    // the steady-state stretch after warmup is on the clock.
    uint64_t refits = 0;
    double secs = 1e100;
    for (int r = 0; r < reps; ++r) {
      stream::StreamDetector detector(opt);
      for (size_t i = 0; i < buffer_capacity; ++i) detector.Append(data[i]);
      EGI_CHECK(detector.fitted()) << "warmup did not refit";
      const uint64_t warm_refits = detector.refit_count();
      Stopwatch sw;
      for (size_t i = buffer_capacity; i < data.size(); ++i) {
        bench::KeepAlive(detector.Append(data[i]));
      }
      secs = std::min(secs, sw.ElapsedSeconds());
      refits = detector.refit_count() - warm_refits;
    }
    if (row.policy == RefitPolicy::kFixed) fixed_refits = refits;

    // Agreement pass (untimed): replay once more; every refit supersedes
    // the provisional scores issued since the previous one, so compare each
    // of them against the exact batch value that same refit assigned the
    // same point. The intervals fit in the buffer (ceiling <= capacity), so
    // no superseded point has been evicted by the time it is rescored. The
    // last window-1 buffer positions are excluded: batch density tapers
    // there (fewer sliding windows cover the series tail), a fixed edge
    // artifact rather than model staleness.
    stream::StreamDetector detector(opt);
    std::vector<double> pending;  // provisional scores since the last refit
    double abs_err = 0.0;
    size_t compared = 0;
    for (const double v : data) {
      const StreamPoint pt = detector.Append(v);
      if (pt.refit) {
        // Snapshot entries are oldest-first; the last one is the refit
        // point itself and the pending points sit directly before it.
        const std::vector<double> exact = detector.ScoresSnapshot();
        EGI_CHECK(pending.size() + 1 <= exact.size()) << "pending evicted";
        const size_t base = exact.size() - 1 - pending.size();
        const size_t taper_begin =
            exact.size() - std::min(exact.size(), window - 1);
        for (size_t j = 0; j < pending.size(); ++j) {
          if (base + j >= taper_begin) break;
          abs_err += std::abs(pending[j] - exact[base + j]);
          ++compared;
        }
        pending.clear();
      } else if (pt.provisional) {
        pending.push_back(pt.score);
      }
    }
    const double agreement_mae = compared == 0 ? 0.0 : abs_err / compared;
    const double pps = static_cast<double>(measure) / std::max(secs, 1e-12);
    const double reduction =
        static_cast<double>(fixed_refits) /
        std::max(static_cast<double>(refits), 1.0);

    if (json) {
      bench::JsonRecord("micro_stream_adaptive")
          .Add("refit_policy", row.name)
          .Add("window", static_cast<int64_t>(window))
          .Add("buffer_capacity", static_cast<int64_t>(buffer_capacity))
          .Add("refit_interval", static_cast<int64_t>(refit_interval))
          .Add("points", static_cast<int64_t>(measure))
          .Add("seconds", secs)
          .Add("points_per_sec", pps)
          .Add("refits", refits)
          .Add("agreement_mae", agreement_mae)
          .Add("speedup", reduction)  // refit reduction vs fixed cadence
          .Add("quick", quick)
          .Emit(std::cout);
    } else {
      table.AddRow({row.name, FormatDouble(secs, 4), FormatDouble(pps, 0),
                    std::to_string(refits), FormatDouble(agreement_mae, 6),
                    FormatDouble(reduction, 2)});
    }
  }

  if (!json) {
    table.Print(std::cout);
    std::printf(
        "\non a stationary stream the adaptive gate doubles its interval "
        "toward\nthe ceiling; an out-of-band score block snaps it back and "
        "refits.\n");
  }
  return 0;
}

bool RefitPolicyModeEnabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--refit-policy") == 0) return true;
  }
  return egi::GetEnvBool("EGI_BENCH_REFIT_POLICY", false);
}

bool SnapshotModeEnabled(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0) return true;
  }
  return egi::GetEnvBool("EGI_BENCH_SNAPSHOT", false);
}

}  // namespace

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  using namespace egi;
  const bool json = bench::JsonOutputEnabled(argc, argv);
  const bool quick = GetEnvBool("EGI_BENCH_QUICK", false);
  if (SnapshotModeEnabled(argc, argv)) return RunSnapshotMode(json, quick);
  if (RefitPolicyModeEnabled(argc, argv)) {
    return RunRefitPolicyMode(json, quick);
  }

  const size_t window = 64;
  const size_t buffer_capacity = quick ? 512 : 2048;
  const size_t measure_per_stream = quick ? 1024 : 8192;
  const size_t chunk = 256;  // points per stream per round (one frame)
  const std::vector<size_t> stream_counts{1, 4, 16};
  const std::vector<size_t> refit_intervals =
      quick ? std::vector<size_t>{128, 512}
            : std::vector<size_t>{128, 512, 2048};
  const exec::Parallelism par = exec::Parallelism::FromEnv();

  if (!json) {
    std::printf("== Streaming detection service: scoring throughput ==\n");
    std::printf(
        "window %zu, buffer %zu, %zu measured points/stream, threads=%d, "
        "hardware_concurrency=%u%s\n\n",
        window, buffer_capacity, measure_per_stream, par.threads,
        std::thread::hardware_concurrency(), quick ? " [QUICK]" : "");
  }

  TextTable table("steady-state ingest throughput");
  table.SetHeader({"Streams", "Refit interval", "Points", "Time (s)",
                   "Points/sec", "Refits"});

  for (const size_t refit_interval : refit_intervals) {
    for (const size_t num_streams : stream_counts) {
      service::HubServiceOptions opt;
      opt.spec = "ensemble:wmax=8,amax=8,n=20";
      opt.stream.window_length = window;
      opt.stream.buffer_capacity = buffer_capacity;
      opt.stream.refit_interval = refit_interval;
      auto created = service::HubService::Create(opt);
      EGI_CHECK(created.ok()) << created.status().ToString();
      service::HubService& hub = **created;

      // Pre-generate per-stream data: warmup (fill the buffer, guaranteeing
      // at least one refit) + the measured steady-state stretch.
      const size_t warmup = std::max(buffer_capacity, refit_interval);
      std::vector<std::vector<double>> data;
      for (size_t s = 0; s < num_streams; ++s) {
        Rng rng(7000 + s);
        data.push_back(
            datasets::MakeRandomWalk(warmup + measure_per_stream, rng));
        EGI_CHECK(hub.CreateStream("bench", std::to_string(s)).ok());
      }
      const auto refit_total = [&] {
        uint64_t total = 0;
        for (size_t s = 0; s < num_streams; ++s) {
          const auto info = hub.Describe(s);
          EGI_CHECK(info.ok() && info->stats.fitted) << "warmup did not refit";
          total += info->stats.refit_count;
        }
        return total;
      };

      // One round per chunk: a frame per stream, then a barrier.
      auto ingest_range = [&](size_t begin, size_t end) {
        service::IngestRequest frame;
        for (size_t off = begin; off < end; off += chunk) {
          const size_t len = std::min(chunk, end - off);
          for (size_t s = 0; s < num_streams; ++s) {
            frame.stream = s;
            frame.values.assign(data[s].begin() + off,
                                data[s].begin() + off + len);
            EGI_CHECK(hub.HandleIngest(frame).type ==
                      service::FrameType::kAck)
                << "frame rejected";
          }
          hub.Flush();
        }
      };

      ingest_range(0, warmup);
      const uint64_t warmup_refits = refit_total();

      Stopwatch sw;
      ingest_range(warmup, warmup + measure_per_stream);
      const double elapsed = sw.ElapsedSeconds();

      // Refits in the measured phase only (refit_count is cumulative).
      const uint64_t refits = refit_total() - warmup_refits;
      const size_t total_points = num_streams * measure_per_stream;
      const double pps = static_cast<double>(total_points) /
                         std::max(elapsed, 1e-9);

      if (json) {
        bench::JsonRecord("micro_stream")
            .Add("streams", static_cast<int64_t>(num_streams))
            .Add("refit_interval", static_cast<int64_t>(refit_interval))
            .Add("window", static_cast<int64_t>(window))
            .Add("buffer_capacity", static_cast<int64_t>(buffer_capacity))
            .Add("threads", par.threads)
            .Add("points", static_cast<int64_t>(total_points))
            .Add("seconds", elapsed)
            .Add("points_per_sec", pps)
            .Add("refits", refits)
            .Add("quick", quick)
            .Emit(std::cout);
      } else {
        table.AddRow({std::to_string(num_streams),
                      std::to_string(refit_interval),
                      std::to_string(total_points), FormatDouble(elapsed, 3),
                      FormatDouble(pps, 0), std::to_string(refits)});
      }
    }
  }

  if (!json) {
    table.Print(std::cout);
    std::printf(
        "\nthroughput scales with streams until the pool saturates; larger "
        "refit\nintervals amortize the batch re-fit over more points.\n");
  }
  return 0;
}
