// egid — the ensemble grammar-induction detection daemon.
//
// Hosts a multi-tenant streaming detector hub behind two TCP planes (see
// src/service/): an HTTP/1.1 JSON control plane (stream CRUD, score
// queries, /metrics, /healthz) and a length-prefixed binary frame protocol
// for point ingest with per-tenant quotas and bounded-queue backpressure.
// Periodic atomic checkpoints make a SIGKILL survivable: on restart the
// daemon restores the last complete checkpoint and every stream continues
// bitwise-identically from its captured state.
//
// Configuration is flags first, environment second (every flag has an
// EGID_* env twin; util/flags.h reads both):
//
//   egid --http-port=8080 --ingest-port=8081 \
//        --checkpoint=/var/lib/egid/checkpoint.egis \
//        --checkpoint-interval=30 --window=64
//
// On startup egid prints one line to stdout:
//   egid ready http=<port> ingest=<port> streams=<n>
// which the smoke script and loadgen parse to find ephemeral ports.
// SIGTERM/SIGINT trigger a clean drain: stop accepting, reject new frames,
// score everything queued, write a final checkpoint, exit 0.

#include <cstdio>
#include <cstring>
#include <string>

#include "service/hub_service.h"
#include "service/server.h"
#include "util/flags.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: egid [--http-port=N] [--ingest-port=N] [--bind=ADDR]\n"
               "            [--spec=SPEC] [--window=N] [--buffer=N]\n"
               "            [--refit-interval=N] [--queue-capacity=N]\n"
               "            [--max-streams-per-tenant=N]\n"
               "            [--points-per-second=R] [--quota-burst=N]\n"
               "            [--checkpoint=PATH] [--checkpoint-interval=SEC]\n"
               "Every flag has an EGID_* environment twin (EGID_HTTP_PORT,\n"
               "EGID_CHECKPOINT, ...). Ports default to 0 = ephemeral.\n"
               "Scoring uses one thread per core; EGI_NUM_THREADS=N overrides.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      return Usage();
    }
  }
  const egi::Flags flags(argc, argv);

  egi::service::HubServiceOptions options;
  egi::service::ServerOptions server_options;
  options.spec = flags.Str("spec", "ensemble", "EGID_SPEC");
  options.checkpoint_path = flags.Str("checkpoint", "", "EGID_CHECKPOINT");
  server_options.bind_address = flags.Str("bind", "127.0.0.1", "EGID_BIND");
  for (const egi::Status& parsed : {
           flags.Count("window", 64, "EGID_WINDOW",
                       &options.stream.window_length),
           flags.Count("buffer", 4096, "EGID_BUFFER",
                       &options.stream.buffer_capacity),
           flags.Count("refit-interval", 512, "EGID_REFIT_INTERVAL",
                       &options.stream.refit_interval),
           flags.Count("queue-capacity", 8192, "EGID_QUEUE_CAPACITY",
                       &options.queue_capacity),
           flags.Count("max-streams-per-tenant", 0,
                       "EGID_MAX_STREAMS_PER_TENANT",
                       &options.max_streams_per_tenant),
           flags.Double("points-per-second", 0.0, "EGID_POINTS_PER_SECOND",
                        &options.points_per_second),
           flags.Double("quota-burst", 0.0, "EGID_QUOTA_BURST",
                        &options.quota_burst),
           flags.Int("http-port", 0, "EGID_HTTP_PORT",
                     &server_options.http_port),
           flags.Int("ingest-port", 0, "EGID_INGEST_PORT",
                     &server_options.ingest_port),
           flags.Double("checkpoint-interval", 0.0, "EGID_CHECKPOINT_INTERVAL",
                        &server_options.checkpoint_interval_seconds)}) {
    if (!parsed.ok()) {
      std::fprintf(stderr, "egid: %s\n", parsed.ToString().c_str());
      return 1;
    }
  }

  auto service = egi::service::HubService::Create(std::move(options));
  if (!service.ok()) {
    std::fprintf(stderr, "egid: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  return egi::service::Serve(
      service->get(), server_options, "egid", "egid",
      "streams=" + std::to_string((*service)->num_streams()));
}
