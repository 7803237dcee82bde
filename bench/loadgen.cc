// loadgen — sustained-load client for the egid daemon (tools/egid_main.cc)
// and the egid-router front door (tools/egid_router_main.cc).
//
// Creates `--streams` detection streams over the HTTP control plane, then
// drives the binary ingest plane from `--conns` connection threads, each
// multiplexing its shard of streams: per round a thread pipelines one
// `--batch`-point frame per stream onto its connection and then collects
// the (in-order) acks, recording one send-to-ack RTT per frame. Reports
// sustained points/sec and frame RTT percentiles — the numbers the
// "millions of streams" direction is steered by — as one JSON-lines record
// (BENCH_service.json / BENCH_router.json in CI) in --json mode:
//
//   ./build/egid --window=16 --buffer=256 &   # prints its ports
//   ./build/loadgen --http-port=P --ingest-port=Q \
//       --streams=10000 --conns=8 --batch=20 --rounds=10 --json
//
// `--targets=host:HTTP:INGEST[,...]` generalizes the port pair: streams and
// connections are split across the listed targets (one router, or several
// daemons side by side for A/B baselines). Every ingest connection opens
// with the protocol-version hello handshake, so a version-skewed server
// fails loudly before any data frame.
//
// Rejects (rate-limit / queue-full backpressure) are counted, not retried —
// the report shows how much of the offered load the server admitted — and
// any reject or transport error makes the exit status nonzero, so smoke
// scripts can assert "this phase must lose nothing" with `|| exit`.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "router/shard_channel.h"
#include "router/shard_map.h"
#include "service/frame.h"
#include "service/socket.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/rng.h"

namespace egi::bench {
namespace {

/// Deadline of each control-plane call and of the ingest hello. Generous:
/// it only turns a wedged server into an error instead of a hang.
constexpr double kCallTimeoutSeconds = 60.0;

struct ShardResult {
  uint64_t frames = 0;
  uint64_t points_accepted = 0;
  uint64_t rejects = 0;
  std::vector<double> rtt_seconds;
  bool transport_error = false;
};

/// One connection thread: `rounds` passes over [first, first+count) stream
/// ids, each pass pipelining one frame per stream then draining the acks.
void RunShard(const router::ShardEndpoint& target, size_t first,
              size_t count, int rounds, int batch, uint64_t seed,
              ShardResult* result) {
  auto dialed = service::Dial(target.host, target.ingest_port);
  if (!dialed.ok()) {
    result->transport_error = true;
    return;
  }
  const int fd = *dialed;
  std::string hello_reply;
  if (!service::Hello(fd, &hello_reply,
                      service::DeadlineIn(kCallTimeoutSeconds))
           .ok()) {
    result->transport_error = true;
    ::close(fd);
    return;
  }
  Rng rng(seed);
  std::vector<double> values(static_cast<size_t>(batch));
  std::vector<uint8_t> out;
  std::vector<uint8_t> in;
  std::vector<std::chrono::steady_clock::time_point> sent;
  result->rtt_seconds.reserve(static_cast<size_t>(rounds) * count);
  uint8_t chunk[64 * 1024];

  for (int round = 0; round < rounds; ++round) {
    out.clear();
    sent.clear();
    // Pipeline the whole shard: frames are answered in order, so the k-th
    // response matches the k-th frame sent on this connection.
    for (size_t s = 0; s < count; ++s) {
      for (double& v : values) v = rng.UniformDouble();
      out.clear();
      service::EncodeIngestFrame(first + s, values, &out);
      sent.push_back(std::chrono::steady_clock::now());
      if (!service::WriteAll(fd, out.data(), out.size()).ok()) {
        result->transport_error = true;
        ::close(fd);
        return;
      }
    }
    size_t answered = 0;
    in.clear();
    while (answered < count) {
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n <= 0) {
        result->transport_error = true;
        ::close(fd);
        return;
      }
      in.insert(in.end(), chunk, chunk + n);
      size_t offset = 0;
      service::IngestResponse resp;
      size_t consumed = 0;
      while (answered < count &&
             service::DecodeResponseFrame(
                 std::span<const uint8_t>(in).subspan(offset), &resp,
                 &consumed) == service::FrameParseResult::kComplete) {
        offset += consumed;
        const auto now = std::chrono::steady_clock::now();
        result->rtt_seconds.push_back(
            std::chrono::duration<double>(now - sent[answered]).count());
        result->frames += 1;
        if (resp.type == service::FrameType::kAck) {
          result->points_accepted += static_cast<uint64_t>(batch);
        } else {
          result->rejects += 1;
        }
        ++answered;
      }
      in.erase(in.begin(), in.begin() + static_cast<ptrdiff_t>(offset));
    }
  }
  ::close(fd);
}

double Percentile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t rank = std::min(
      values->size() - 1,
      static_cast<size_t>(q * static_cast<double>(values->size())));
  std::nth_element(values->begin(),
                   values->begin() + static_cast<ptrdiff_t>(rank),
                   values->end());
  return (*values)[rank];
}

int Run(int argc, char** argv) {
  const bool json = JsonOutputEnabled(argc, argv);
  const bool quick = SettingsFromEnv().quick;
  const Flags flags(argc, argv);
  const char* targets_flag = flags.Find("targets");
  const std::string record_name = flags.Str("name", "service_loadgen");
  int http_port = 0;
  int ingest_port = 0;
  size_t streams = 0;
  size_t conns = 0;
  int batch = 0;
  int rounds = 0;
  for (const Status& parsed :
       {flags.Int("http-port", 0, nullptr, &http_port),
        flags.Int("ingest-port", 0, nullptr, &ingest_port),
        flags.Count("streams", quick ? 1000 : 10000, nullptr, &streams),
        flags.Count("conns", 8, nullptr, &conns),
        flags.Int("batch", 20, nullptr, &batch),
        flags.Int("rounds", quick ? 5 : 10, nullptr, &rounds)}) {
    if (!parsed.ok()) {
      std::fprintf(stderr, "loadgen: %s\n", parsed.ToString().c_str());
      return 2;
    }
  }

  // One router (or daemon) via --targets, or the classic localhost port
  // pair; either way the load below only sees a target list.
  std::vector<router::ShardEndpoint> targets;
  if (targets_flag != nullptr) {
    auto parsed = router::ParseEndpointList(targets_flag);
    if (!parsed.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   parsed.status().ToString().c_str());
      return 2;
    }
    targets = std::move(*parsed);
  } else if (http_port > 0 && ingest_port > 0) {
    targets.push_back({"127.0.0.1", http_port, ingest_port});
  }
  if (targets.empty() || streams < targets.size() || conns == 0 ||
      batch <= 0 || rounds <= 0) {
    std::fprintf(
        stderr,
        "usage: loadgen (--http-port=P --ingest-port=Q | "
        "--targets=HOST:P:Q[,...])\n               [--streams=N] "
        "[--conns=C] [--batch=B] [--rounds=R]\n               "
        "[--name=RECORD] [--json]\n(ports are what the egid/egid_router "
        "banner printed at startup)\n");
    return 2;
  }
  const size_t num_targets = targets.size();
  conns = std::max(conns, num_targets);  // every target gets >= 1 conn

  // Control plane: create each target's share of the streams up front on
  // one keep-alive channel per target (server ids are dense, so the first
  // id plus the count describes the whole share).
  struct TargetShare {
    size_t begin = 0;          // global stream index of the share
    size_t count = 0;
    uint64_t first_stream = 0; // the server's id for the share's first stream
  };
  std::vector<TargetShare> shares(num_targets);
  const router::ChannelFactory dial =
      router::TcpChannelFactory(kCallTimeoutSeconds);
  const auto started_setup = std::chrono::steady_clock::now();
  for (size_t t = 0; t < num_targets; ++t) {
    TargetShare& share = shares[t];
    share.begin = streams * t / num_targets;
    share.count = streams * (t + 1) / num_targets - share.begin;
    const std::unique_ptr<router::ShardChannel> channel = dial(targets[t]);
    for (size_t s = 0; s < share.count; ++s) {
      const std::string body = "{\"tenant\":\"loadgen\",\"name\":\"s" +
                               std::to_string(share.begin + s) + "\"}";
      const auto reply =
          channel->Http("POST", "/v1/streams", body, "application/json");
      if (!reply.ok() || reply->status != 201) {
        const std::string why =
            reply.ok() ? " (HTTP " + std::to_string(reply->status) +
                             "): " + reply->body
                       : ": " + reply.status().ToString();
        std::fprintf(stderr, "loadgen: stream create %zu on %s:%d failed%s\n",
                     share.begin + s, targets[t].host.c_str(),
                     targets[t].http_port, why.c_str());
        return 1;
      }
      if (s == 0) JsonFindUInt(reply->body, "stream", &share.first_stream);
    }
  }
  const double setup_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_setup)
          .count();

  // Data plane: give each target its proportional slice of the connection
  // threads, and slice the target's streams across those connections.
  std::vector<ShardResult> results(conns);
  std::vector<std::thread> threads;
  const auto started = std::chrono::steady_clock::now();
  size_t conn_index = 0;
  for (size_t t = 0; t < num_targets; ++t) {
    const size_t conn_begin = conns * t / num_targets;
    const size_t conn_end = conns * (t + 1) / num_targets;
    const size_t target_conns = conn_end - conn_begin;
    for (size_t c = 0; c < target_conns; ++c) {
      const size_t begin = shares[t].count * c / target_conns;
      const size_t end = shares[t].count * (c + 1) / target_conns;
      threads.emplace_back(RunShard, std::cref(targets[t]),
                           shares[t].first_stream + begin, end - begin,
                           rounds, batch, 7000 + conn_index,
                           &results[conn_index]);
      ++conn_index;
    }
  }
  for (std::thread& t : threads) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started)
          .count();

  uint64_t frames = 0;
  uint64_t points = 0;
  uint64_t rejects = 0;
  bool transport_error = false;
  std::vector<double> rtts;
  for (ShardResult& r : results) {
    frames += r.frames;
    points += r.points_accepted;
    rejects += r.rejects;
    transport_error = transport_error || r.transport_error;
    rtts.insert(rtts.end(), r.rtt_seconds.begin(), r.rtt_seconds.end());
  }
  const double points_per_sec =
      seconds > 0.0 ? static_cast<double>(points) / seconds : 0.0;
  const double p50_ms = Percentile(&rtts, 0.50) * 1e3;
  const double p99_ms = Percentile(&rtts, 0.99) * 1e3;

  if (json) {
    JsonRecord(record_name)
        .Add("streams", static_cast<uint64_t>(streams))
        .Add("targets", static_cast<uint64_t>(num_targets))
        .Add("conns", static_cast<uint64_t>(conns))
        .Add("batch", batch)
        .Add("rounds", rounds)
        .Add("frames", frames)
        .Add("points_accepted", points)
        .Add("rejects", rejects)
        .Add("setup_seconds", setup_seconds)
        .Add("ingest_seconds", seconds)
        .Add("points_per_sec", points_per_sec)
        .Add("frame_rtt_p50_ms", p50_ms)
        .Add("frame_rtt_p99_ms", p99_ms)
        .Add("transport_error", transport_error)
        .Emit(std::cout);
  } else {
    std::printf(
        "loadgen: %zu streams x %d rounds x %d-point frames over %zu "
        "connections\n  setup   %.2fs (stream creation)\n  ingest  %.2fs — "
        "%.0f points/sec, %llu frames, %llu rejects\n  rtt     p50 %.3f ms, "
        "p99 %.3f ms\n",
        streams, rounds, batch, conns, setup_seconds, seconds,
        points_per_sec, static_cast<unsigned long long>(frames),
        static_cast<unsigned long long>(rejects), p50_ms, p99_ms);
  }
  // Nonzero exit on ANY lost load: smoke phases that must be lossless
  // (e.g. a live reshard under load) assert on the exit status directly.
  return (transport_error || rejects > 0) ? 1 : 0;
}

}  // namespace
}  // namespace egi::bench

int main(int argc, char** argv) {
  if (egi::bench::HandleStandardFlags(argc, argv)) return 0;
  return egi::bench::Run(argc, argv);
}
