// egid-router — the sharding front door for a fleet of egid daemons.
//
// Speaks the same two planes as egid itself (HTTP/1.1 JSON control plane,
// length-prefixed binary frame ingest) and fans out to N backend shards by
// jump-consistent-hash of the stream id over a versioned shard map
// (src/router/). POST /v1/shards installs a new map at runtime and live-
// migrates every stream whose owner changes via per-stream checkpoint
// handoff — scores continue bitwise-identically across the move.
//
// Configuration is flags first, environment second (EGID_ROUTER_* twins):
//
//   egid_router --shards=127.0.0.1:8080:8081,127.0.0.1:8090:8091 \
//               --http-port=7080 --ingest-port=7081 --probe-interval=1
//
// On startup prints one line to stdout:
//   egid-router ready http=<port> ingest=<port> shards=<n>
// which the smoke script and loadgen parse to find ephemeral ports.
// SIGTERM/SIGINT drain: new frames get kDraining rejects, in-flight
// forwards finish, exit 0. The router holds no durable state — shards own
// their own checkpoints.

#include <cstdio>
#include <cstring>
#include <string>

#include "router/router_core.h"
#include "service/server.h"
#include "util/flags.h"

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: egid_router --shards=HOST:HTTP:INGEST[,...]\n"
      "                   [--http-port=N] [--ingest-port=N] [--bind=ADDR]\n"
      "                   [--channels-per-shard=N] [--acquire-timeout=SEC]\n"
      "                   [--migrate-timeout=SEC] [--probe-interval=SEC]\n"
      "                   [--probe-backoff-max=SEC] [--shard-timeout=SEC]\n"
      "Every flag has an EGID_ROUTER_* environment twin\n"
      "(EGID_ROUTER_SHARDS, EGID_ROUTER_HTTP_PORT, ...). Listener ports\n"
      "default to 0 = ephemeral; --probe-interval=0 disables probing.\n");
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

  const std::string shard_spec =
      flags.Str("shards", "", "EGID_ROUTER_SHARDS");
  if (shard_spec.empty()) {
    std::fprintf(stderr, "egid_router: --shards is required\n");
    return Usage();
  }
  auto endpoints = egi::router::ParseEndpointList(shard_spec);
  if (!endpoints.ok()) {
    std::fprintf(stderr, "egid_router: %s\n",
                 endpoints.status().ToString().c_str());
    return 1;
  }

  egi::router::RouterOptions options;
  options.shards = std::move(*endpoints);
  egi::service::ServerOptions server_options;
  server_options.bind_address =
      flags.Str("bind", "127.0.0.1", "EGID_ROUTER_BIND");
  double shard_timeout = 5.0;
  for (const egi::Status& parsed : {
           flags.Count("channels-per-shard", 4,
                       "EGID_ROUTER_CHANNELS_PER_SHARD",
                       &options.channels_per_shard),
           flags.Double("acquire-timeout", 2.0, "EGID_ROUTER_ACQUIRE_TIMEOUT",
                        &options.acquire_timeout_seconds),
           flags.Double("migrate-timeout", 10.0, "EGID_ROUTER_MIGRATE_TIMEOUT",
                        &options.migrate_timeout_seconds),
           flags.Double("probe-interval", 1.0, "EGID_ROUTER_PROBE_INTERVAL",
                        &options.probe_interval_seconds),
           flags.Double("probe-backoff-max", 5.0,
                        "EGID_ROUTER_PROBE_BACKOFF_MAX",
                        &options.probe_backoff_max_seconds),
           flags.Double("shard-timeout", 5.0, "EGID_ROUTER_SHARD_TIMEOUT",
                        &shard_timeout),
           flags.Int("http-port", 0, "EGID_ROUTER_HTTP_PORT",
                     &server_options.http_port),
           flags.Int("ingest-port", 0, "EGID_ROUTER_INGEST_PORT",
                     &server_options.ingest_port)}) {
    if (!parsed.ok()) {
      std::fprintf(stderr, "egid_router: %s\n", parsed.ToString().c_str());
      return 1;
    }
  }
  options.factory = egi::router::TcpChannelFactory(shard_timeout);

  auto router = egi::router::RouterCore::Create(std::move(options));
  if (!router.ok()) {
    std::fprintf(stderr, "egid_router: %s\n",
                 router.status().ToString().c_str());
    return 1;
  }

  return egi::service::Serve(
      router->get(), server_options, "egid_router", "egid-router",
      "shards=" + std::to_string((*router)->num_shards()));
}
