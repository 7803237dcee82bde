// Operating the library with telemetry: drive a multi-stream hub through
// the public façade while reading the process-wide metrics registry the
// way a scrape loop would — folded counters, the ingest latency histogram's
// p50/p99, and finally the whole registry as one MetricsJson() document
// (the payload a /metrics endpoint or the bench --metrics-json flag emits).
//
// Telemetry is passive observation: scores are bitwise-identical with
// EGI_TELEMETRY=0 (try it — the dump collapses to {"enabled":false,...}).
//
// Build & run:  ./build/metrics_dump

#include <egi/egi.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <vector>

int main() {
  auto session = egi::Session::Open("ensemble:n=16");
  if (!session.ok()) {
    std::printf("open failed: %s\n", session.status().ToString().c_str());
    return 1;
  }

  // Four independent sensor feeds behind one hub: each gets its own
  // ring-buffered history, model, and refit cadence.
  egi::StreamOptions options;
  options.window_length = 82;
  options.buffer_capacity = 1024;
  options.refit_interval = 256;
  auto hub = session->OpenHub(options);
  if (!hub.ok()) {
    std::printf("hub failed: %s\n", hub.status().ToString().c_str());
    return 1;
  }
  constexpr size_t kStreams = 4;
  for (size_t s = 0; s < kStreams; ++s) hub->AddStream();

  std::vector<std::vector<double>> feeds;
  for (size_t s = 0; s < kStreams; ++s) {
    feeds.push_back(
        egi::data::MakePlanted(egi::data::Family::kTwoLeadEcg, /*seed=*/s + 1)
            .values);
  }

  // Ingest in rounds of 256-point batches per stream, printing a metrics
  // line between rounds — exactly what a periodic scraper sees.
  auto& registry = egi::telemetry::Registry::Global();
  auto* points = registry.GetCounter("stream.points");
  auto* provisional = registry.GetCounter("stream.scores_provisional");
  auto* refits = registry.GetCounter("stream.refits");
  auto* ingest_hist = registry.GetHistogram("stream.ingest_batch_seconds");

  const size_t feed_len = feeds[0].size();
  constexpr size_t kBatch = 256;
  for (size_t offset = 0; offset < feed_len; offset += kBatch) {
    const size_t end = std::min(feed_len, offset + kBatch);
    for (size_t s = 0; s < kStreams; ++s) {
      const std::span<const double> feed(feeds[s]);
      hub->Ingest(s, feed.subspan(offset, end - offset));
    }

    const auto lat = ingest_hist->Snapshot();
    std::printf(
        "round %2zu | points %7llu  provisional %7llu  refits %3llu | "
        "ingest batch p50 %8.3f ms  p99 %8.3f ms\n",
        offset / kBatch, static_cast<unsigned long long>(points->Value()),
        static_cast<unsigned long long>(provisional->Value()),
        static_cast<unsigned long long>(refits->Value()),
        lat.Quantile(0.50) * 1e3, lat.Quantile(0.99) * 1e3);
  }

  std::printf("\nfull registry as MetricsJson():\n%s\n",
              egi::Session::MetricsJson().c_str());
  return 0;
}
