// Continuation-equivalence, corruption-robustness, and golden-fixture tests
// for the streaming snapshot subsystem (ISSUE 4 acceptance criterion): a
// detector restored from a snapshot must continue **bitwise-identically** to
// the uninterrupted original — same scores (NaN bits included), same refit
// boundaries, same member stats — and every malformed blob must be a Status
// error, never a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "datasets/random_walk.h"
#include "egi/session.h"
#include "exec/parallel.h"
#include "serialize/bytes.h"
#include "serialize/codecs.h"
#include "serialize/format.h"
#include "stream/detector.h"
#include "util/env.h"
#include "util/rng.h"

namespace egi::stream {
namespace {

StreamDetectorOptions SmallOptions() {
  StreamDetectorOptions opt;
  opt.ensemble.window_length = 40;
  opt.ensemble.wmax = 6;
  opt.ensemble.amax = 6;
  opt.ensemble.ensemble_size = 12;
  opt.ensemble.seed = 42;
  // Serial: these cases check continuation, not fan-out. The bytes would
  // be the same at any thread count, since the snapshot's thread-count slot
  // holds a constant (the *ThreadCountInvariant tests check that).
  opt.ensemble.parallelism = exec::Parallelism::Serial();
  opt.buffer_capacity = 256;
  opt.refit_interval = 64;
  return opt;
}

std::vector<double> TestSeries(size_t length, uint64_t seed = 2020) {
  Rng rng(seed);
  return datasets::MakeRandomWalk(length, rng);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Bitwise comparison of two scored points (score NaN bits included).
void ExpectPointsIdentical(const StreamPoint& a, const StreamPoint& b,
                           size_t at) {
  ASSERT_EQ(a.index, b.index) << "point " << at;
  ASSERT_EQ(Bits(a.value), Bits(b.value)) << "point " << at;
  ASSERT_EQ(Bits(a.score), Bits(b.score)) << "point " << at;
  ASSERT_EQ(a.scored, b.scored) << "point " << at;
  ASSERT_EQ(a.provisional, b.provisional) << "point " << at;
  ASSERT_EQ(a.refit, b.refit) << "point " << at;
}

void ExpectDetectorsIdentical(const StreamDetector& a,
                              const StreamDetector& b) {
  EXPECT_EQ(a.total_appended(), b.total_appended());
  EXPECT_EQ(a.buffered(), b.buffered());
  EXPECT_EQ(a.refit_count(), b.refit_count());
  EXPECT_EQ(a.appends_since_refit(), b.appends_since_refit());
  EXPECT_EQ(a.last_refit_status(), b.last_refit_status());
  EXPECT_EQ(Bits(a.RollingMean()), Bits(b.RollingMean()));
  EXPECT_EQ(Bits(a.RollingStdDev()), Bits(b.RollingStdDev()));
  // The rest of the state, the count of points ever buffered included
  // (it has no accessor), is in the snapshot bytes.
  EXPECT_EQ(a.Serialize(), b.Serialize());

  const auto buf_a = a.BufferSnapshot();
  const auto buf_b = b.BufferSnapshot();
  ASSERT_EQ(buf_a.size(), buf_b.size());
  for (size_t i = 0; i < buf_a.size(); ++i) {
    ASSERT_EQ(Bits(buf_a[i]), Bits(buf_b[i])) << "buffer " << i;
  }
  const auto scores_a = a.ScoresSnapshot();
  const auto scores_b = b.ScoresSnapshot();
  ASSERT_EQ(scores_a.size(), scores_b.size());
  for (size_t i = 0; i < scores_a.size(); ++i) {
    ASSERT_EQ(Bits(scores_a[i]), Bits(scores_b[i])) << "score " << i;
  }

  const auto& ens_a = a.last_ensemble();
  const auto& ens_b = b.last_ensemble();
  ASSERT_EQ(ens_a.members.size(), ens_b.members.size());
  for (size_t i = 0; i < ens_a.members.size(); ++i) {
    EXPECT_EQ(ens_a.members[i].paa_size, ens_b.members[i].paa_size);
    EXPECT_EQ(ens_a.members[i].alphabet_size, ens_b.members[i].alphabet_size);
    EXPECT_EQ(Bits(ens_a.members[i].std_dev), Bits(ens_b.members[i].std_dev));
    EXPECT_EQ(ens_a.members[i].kept, ens_b.members[i].kept);
  }
  ASSERT_EQ(ens_a.density.size(), ens_b.density.size());
  for (size_t i = 0; i < ens_a.density.size(); ++i) {
    ASSERT_EQ(Bits(ens_a.density[i]), Bits(ens_b.density[i])) << "density " << i;
  }
}

// The core harness: run `prefix` points, snapshot, restore, then feed the
// same `tail` to the uninterrupted detector and the restored one, demanding
// bitwise-identical behavior at every step.
void RunContinuationCase(size_t prefix_len, size_t total_len,
                         const StreamDetectorOptions& opt) {
  const auto series = TestSeries(total_len, /*seed=*/99);
  StreamDetector original(opt);
  for (size_t i = 0; i < prefix_len; ++i) original.Append(series[i]);

  const std::vector<uint8_t> blob = original.Serialize();
  auto restored = StreamDetector::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectDetectorsIdentical(original, *restored);

  for (size_t i = prefix_len; i < series.size(); ++i) {
    const StreamPoint pa = original.Append(series[i]);
    const StreamPoint pb = restored->Append(series[i]);
    ExpectPointsIdentical(pa, pb, i);
  }
  ExpectDetectorsIdentical(original, *restored);
}

TEST(StreamSnapshotTest, ContinuationBeforeFirstRefit) {
  // Nothing fitted yet: only ring contents, rolling sums, and counters.
  RunContinuationCase(/*prefix_len=*/30, /*total_len=*/400, SmallOptions());
}

TEST(StreamSnapshotTest, ContinuationMidRefitInterval) {
  const auto opt = SmallOptions();
  // 2.5 refit intervals in: fitted models plus provisional tail state.
  RunContinuationCase(opt.refit_interval * 2 + opt.refit_interval / 2, 600,
                      opt);
}

TEST(StreamSnapshotTest, ContinuationExactlyOnRefitBoundary) {
  const auto opt = SmallOptions();
  // The snapshot lands on the append that just completed a batch refit
  // (since_refit == 0, fresh models): the next refit boundary must land
  // refit_interval points later in both runs.
  RunContinuationCase(opt.refit_interval * 3, 640, opt);
}

TEST(StreamSnapshotTest, ContinuationOnePointBeforeRefitBoundary) {
  const auto opt = SmallOptions();
  // The very next Append in both runs must trigger the refit.
  RunContinuationCase(opt.refit_interval * 2 - 1, 500, opt);
}

TEST(StreamSnapshotTest, ContinuationAfterRingEviction) {
  const auto opt = SmallOptions();
  // Past buffer_capacity: the ring has wrapped, so the snapshot exercises
  // logical-order (not physical-layout) serialization.
  RunContinuationCase(opt.buffer_capacity + opt.refit_interval / 2, 700, opt);
}

TEST(StreamSnapshotTest, ContinuationWithRejectedValuesInHistory) {
  const auto opt = SmallOptions();
  const auto series = TestSeries(300, 7);
  StreamDetector original(opt);
  for (size_t i = 0; i < 150; ++i) {
    original.Append(series[i]);
    if (i % 40 == 13) {
      original.Append(std::nan(""));  // rejected: appended_ advances anyway
    }
  }
  const auto blob = original.Serialize();
  auto restored = StreamDetector::Deserialize(blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectDetectorsIdentical(original, *restored);
  for (size_t i = 150; i < series.size(); ++i) {
    const StreamPoint pa = original.Append(series[i]);
    const StreamPoint pb = restored->Append(series[i]);
    ExpectPointsIdentical(pa, pb, i);
  }
}

TEST(StreamSnapshotTest, SerializeIsDeterministicAndRestartable) {
  const auto opt = SmallOptions();
  const auto series = TestSeries(200);
  StreamDetector detector(opt);
  for (const double v : series) detector.Append(v);

  const auto blob1 = detector.Serialize();
  const auto blob2 = detector.Serialize();
  EXPECT_EQ(blob1, blob2);  // snapshotting is read-only and canonical

  // decode -> encode is the identity on blobs (no recomputation on load).
  auto restored = StreamDetector::Deserialize(blob1);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->Serialize(), blob1);
}

// ------------------------------------------------ engine checkpoints
//
// StreamHub::Checkpoint writes every stream of a hub as one kind-2
// (BlobKind::kStreamEngine) blob, one detector snapshot per section.

std::vector<std::vector<double>> EngineSeries(size_t streams, size_t length) {
  std::vector<std::vector<double>> data;
  for (size_t s = 0; s < streams; ++s) {
    Rng rng(4000 + s);
    data.push_back(datasets::MakeRandomWalk(length, rng));
  }
  return data;
}

// A session and stream shape for SmallOptions() with the given threads=.
Session OpenTestSession(int threads) {
  auto session = Session::Open("ensemble:wmax=6,amax=6,n=12,seed=42,threads=" +
                               std::to_string(threads));
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

StreamOptions TestStreamOptions() {
  StreamOptions options;
  options.window_length = 40;
  options.buffer_capacity = 256;
  options.refit_interval = 64;
  return options;
}

StreamHub OpenTestHub(int threads) {
  auto hub = OpenTestSession(threads).OpenHub(TestStreamOptions());
  EXPECT_TRUE(hub.ok()) << hub.status();
  return std::move(hub).value();
}

// Adds one stream per series and feeds it the first `end` points of it.
StreamHub FedHub(int threads, const std::vector<std::vector<double>>& data,
                 size_t end) {
  StreamHub hub = OpenTestHub(threads);
  for (size_t s = 0; s < data.size(); ++s) {
    hub.AddStream();
    hub.Ingest(s, std::span<const double>(data[s]).first(end));
  }
  return hub;
}

void RunEngineCheckpointCase(int threads) {
  const size_t kStreams = 3;
  const size_t kPrefix = 160;
  const size_t kTotal = 480;
  const auto data = EngineSeries(kStreams, kTotal);

  StreamHub original = FedHub(threads, data, kPrefix);
  const std::vector<uint8_t> checkpoint = original.Checkpoint();

  StreamHub restored = OpenTestHub(threads);
  ASSERT_TRUE(restored.Restore(checkpoint).ok());
  ASSERT_EQ(restored.num_streams(), kStreams);
  // Decode -> encode is the identity, so equal stream blobs mean equal
  // detector state.
  for (size_t s = 0; s < kStreams; ++s) {
    EXPECT_EQ(*restored.CheckpointStream(s), *original.CheckpointStream(s));
  }

  // Continue both hubs over the same tail and compare every point.
  for (size_t s = 0; s < kStreams; ++s) {
    const auto tail = std::span<const double>(data[s]).subspan(kPrefix);
    const auto a = original.Ingest(s, tail);
    const auto b = restored.Ingest(s, tail);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) ExpectPointsIdentical(a[i], b[i], i);
    EXPECT_EQ(*restored.CheckpointStream(s), *original.CheckpointStream(s));
  }
}

TEST(StreamEngineSnapshotTest, CheckpointRestoreContinuationOneThread) {
  RunEngineCheckpointCase(1);
}

TEST(StreamEngineSnapshotTest, CheckpointRestoreContinuationFourThreads) {
  RunEngineCheckpointCase(4);
}

TEST(StreamEngineSnapshotTest, CheckpointIsThreadCountInvariant) {
  // The checkpoint bytes must not depend on how many threads run the
  // refits' members or serialize the sections: hubs opened with threads=1
  // and threads=4 write the same blob.
  const auto data = EngineSeries(3, 200);
  EXPECT_EQ(FedHub(1, data, data[0].size()).Checkpoint(),
            FedHub(4, data, data[0].size()).Checkpoint());
}

TEST(StreamSnapshotTest, SessionCheckpointIsThreadCountInvariant) {
  // One StreamSession fed at threads=1 and at threads=4 checkpoints to the
  // same blob, which restores, re-serializes to the same bytes and
  // continues bit for bit.
  const auto open = [](int threads) {
    auto stream = OpenTestSession(threads).OpenStream(TestStreamOptions());
    EXPECT_TRUE(stream.ok()) << stream.status();
    return std::move(stream).value();
  };
  const auto series = TestSeries(480, /*seed=*/31);
  const auto prefix = std::span<const double>(series).first(200);
  const auto tail = std::span<const double>(series).subspan(200);
  StreamSession serial = open(1);
  StreamSession fanned = open(4);
  serial.Ingest(prefix);
  fanned.Ingest(prefix);
  const std::vector<uint8_t> blob = fanned.Checkpoint();
  EXPECT_EQ(blob, serial.Checkpoint());

  auto restored = StreamSession::Restore(blob);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->Checkpoint(), blob);
  const auto a = fanned.Ingest(tail);
  const auto b = restored->Ingest(tail);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) ExpectPointsIdentical(a[i], b[i], i);
  EXPECT_EQ(restored->Checkpoint(), fanned.Checkpoint());
}

TEST(StreamEngineSnapshotTest, EmptyEngineRoundTrips) {
  const auto blob = OpenTestHub(1).Checkpoint();
  StreamHub other = OpenTestHub(1);
  other.AddStream();  // replaced wholesale by Restore
  ASSERT_TRUE(other.Restore(blob).ok());
  EXPECT_EQ(other.num_streams(), 0u);
}

TEST(StreamEngineSnapshotTest, LoadAllIsAllOrNothing) {
  const auto data = EngineSeries(2, 100);
  StreamHub hub = FedHub(1, data, 100);
  auto checkpoint = hub.Checkpoint();

  StreamHub target = OpenTestHub(1);
  target.AddStream();
  target.Ingest(0, std::span<const double>(data[0]).first(10));
  const auto expect_untouched = [&] {
    EXPECT_EQ(target.num_streams(), 1u);
    EXPECT_EQ(target.Stats(0).total_appended, 10u);
  };

  // One corrupted byte deep inside the payload (a stream section).
  checkpoint[checkpoint.size() / 2] ^= 0x40;
  EXPECT_FALSE(target.Restore(checkpoint).ok());
  expect_untouched();

  // A well-framed blob whose second section is not a detector: the first
  // section decodes, and the restore still fails as a whole.
  const std::vector<std::vector<uint8_t>> sections = {
      *hub.CheckpointStream(0), std::vector<uint8_t>(64, 0xA5)};
  EXPECT_FALSE(target.Restore(serialize::WrapEngineSections(sections)).ok());
  expect_untouched();
}

TEST(StreamEngineSnapshotTest, RejectsDetectorBlobAsEngineCheckpoint) {
  StreamDetector detector(SmallOptions());
  const auto blob = detector.Serialize();
  StreamHub hub = OpenTestHub(1);
  EXPECT_FALSE(hub.Restore(blob).ok());
  // And the converse: an engine checkpoint is not a detector snapshot.
  const auto checkpoint = hub.Checkpoint();
  EXPECT_FALSE(StreamDetector::Deserialize(checkpoint).ok());
}

// ------------------------------------------------------------- corruption

std::vector<uint8_t> FittedDetectorBlob() {
  auto opt = SmallOptions();
  opt.buffer_capacity = 128;
  opt.ensemble.window_length = 24;
  opt.ensemble.ensemble_size = 8;
  opt.refit_interval = 48;
  StreamDetector detector(opt);
  const auto series = TestSeries(180, 31);
  for (const double v : series) detector.Append(v);
  EXPECT_TRUE(detector.fitted());
  return detector.Serialize();
}

TEST(StreamSnapshotCorruptionTest, EveryTruncationIsAStatusError) {
  const auto blob = FittedDetectorBlob();
  for (size_t len = 0; len < blob.size();
       len += (len < 64 ? 1 : 37)) {  // every early cut, then a stride
    const auto st =
        StreamDetector::Deserialize(std::span(blob).first(len)).status();
    ASSERT_FALSE(st.ok()) << "truncation at " << len;
  }
}

TEST(StreamSnapshotCorruptionTest, EveryByteFlipIsAStatusError) {
  // One flipped bit per byte over the whole blob (header and payload; the
  // rotating bit index varies the attack). The checksum guarantees payload
  // flips are *detected*, not just survived — a flip must never produce a
  // silently different detector.
  const auto blob = FittedDetectorBlob();
  for (size_t i = 0; i < blob.size(); ++i) {
    auto bad = blob;
    bad[i] = static_cast<uint8_t>(bad[i] ^ (1u << (i % 8)));
    const auto result = StreamDetector::Deserialize(bad);
    ASSERT_FALSE(result.ok()) << "flip at byte " << i << " was accepted";
  }
}

TEST(StreamSnapshotCorruptionTest, VersionBumpIsRejected) {
  auto blob = FittedDetectorBlob();
  blob[4] = static_cast<uint8_t>(serialize::kSnapshotVersion + 1);
  const auto st = StreamDetector::Deserialize(blob).status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST(StreamSnapshotCorruptionTest, ForgedPayloadInvariantsAreRejected) {
  // Bypass the checksum by re-wrapping a forged payload: the decoder's own
  // cross-field validation must still reject inconsistent state.
  const auto blob = FittedDetectorBlob();
  std::span<const uint8_t> payload;
  ASSERT_TRUE(serialize::UnwrapPayload(
                  blob, serialize::BlobKind::kStreamDetector, &payload)
                  .ok());
  // Truncate the payload at various interior offsets and re-wrap with a
  // fresh (valid) checksum: decode must fail on structure, not the CRC.
  for (const size_t cut : {payload.size() - 1, payload.size() / 2,
                           payload.size() / 3, size_t{5}}) {
    const auto forged = serialize::WrapPayload(
        serialize::BlobKind::kStreamDetector, payload.first(cut));
    ASSERT_FALSE(StreamDetector::Deserialize(forged).ok()) << "cut " << cut;
  }
  // Appending trailing bytes past a complete payload must also fail.
  std::vector<uint8_t> extended(payload.begin(), payload.end());
  extended.push_back(0);
  const auto forged = serialize::WrapPayload(
      serialize::BlobKind::kStreamDetector, extended);
  EXPECT_FALSE(StreamDetector::Deserialize(forged).ok());
}

TEST(StreamSnapshotCorruptionTest, AbsurdBufferCapacityIsRejectedNotAllocated) {
  // A well-formed envelope whose options declare a petabyte-scale ring must
  // be a Status error before the detector (which pre-allocates two rings of
  // buffer_capacity doubles) is ever constructed.
  serialize::ByteWriter w;
  w.PutVarint(2);              // window_length
  w.PutVarint(2);              // wmax
  w.PutVarint(2);              // amax
  w.PutVarint(1);              // ensemble_size
  w.PutDouble(0.4);            // selectivity
  w.PutU64(42);                // seed
  w.PutDouble(0.01);           // norm_threshold
  w.PutBool(true);             // numerosity_reduction
  w.PutVarint(1);              // parallelism.threads
  w.PutU8(0);                  // combine
  w.PutU8(0);                  // normalize
  w.PutBool(true);             // filter_by_std
  w.PutBool(true);             // boundary_correction
  w.PutVarint(uint64_t{1} << 45);  // buffer_capacity: ~2^45 points
  w.PutVarint(64);             // refit_interval
  w.PutVarint(0);              // prune_to
  w.PutU8(0);                  // refit_policy (fixed)
  w.PutVarint(0);              // refit_interval_max (auto)
  w.PutDouble(0.25);           // drift_tolerance
  const auto blob = serialize::WrapPayload(
      serialize::BlobKind::kStreamDetector, w.bytes());
  const auto st = StreamDetector::Deserialize(blob).status();
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("restore limit"), std::string::npos);
}

TEST(StreamSnapshotCorruptionTest, NormThresholdSlotMustHoldTheConstant) {
  // The flat-window threshold is a library constant, but blobs keep its
  // 8-byte slot. A well-formed blob whose slot holds anything else must fail
  // restore, naming the field, rather than silently score on another rule.
  const auto blob = FittedDetectorBlob();
  std::span<const uint8_t> payload;
  ASSERT_TRUE(serialize::UnwrapPayload(
                  blob, serialize::BlobKind::kStreamDetector, &payload)
                  .ok());
  // Walk the options to the slot: four varints, selectivity, seed.
  serialize::ByteReader r(payload);
  uint64_t varint = 0;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(r.ReadVarint(&varint).ok());
  ASSERT_TRUE(r.Skip(16).ok());
  const size_t slot = r.position();
  double stored = 0.0;
  ASSERT_TRUE(r.ReadDouble(&stored).ok());
  EXPECT_EQ(stored, 0.01);

  for (const double other : {0.02, 0.0, 0.01 * (1.0 + 1e-15)}) {
    serialize::ByteWriter w;
    w.PutDouble(other);
    std::vector<uint8_t> patched(payload.begin(), payload.end());
    std::copy(w.bytes().begin(), w.bytes().end(), patched.begin() + slot);
    const auto forged = serialize::WrapPayload(
        serialize::BlobKind::kStreamDetector, patched);
    const auto st = StreamDetector::Deserialize(forged).status();
    ASSERT_FALSE(st.ok()) << other;
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << other;
    EXPECT_NE(st.message().find("norm_threshold"), std::string::npos)
        << st.ToString();
  }
  // The untouched payload, re-wrapped the same way, still restores.
  const auto rewrapped =
      serialize::WrapPayload(serialize::BlobKind::kStreamDetector, payload);
  EXPECT_TRUE(StreamDetector::Deserialize(rewrapped).ok());
}

TEST(StreamSnapshotCorruptionTest, ThreadCountSlotIsBoundsCheckedAndIgnored) {
  // Writers store 1 in the thread-count slot; older ones stored their own
  // thread count. Any in-range value restores to the same detector (which
  // writes 1 again), and an out-of-range one is rejected, naming the field.
  const auto blob = FittedDetectorBlob();
  std::span<const uint8_t> payload;
  ASSERT_TRUE(serialize::UnwrapPayload(
                  blob, serialize::BlobKind::kStreamDetector, &payload)
                  .ok());
  // Walk the options to the slot: four varints, selectivity, seed,
  // norm_threshold, numerosity_reduction.
  serialize::ByteReader r(payload);
  uint64_t varint = 0;
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(r.ReadVarint(&varint).ok());
  ASSERT_TRUE(r.Skip(25).ok());
  const size_t slot = r.position();
  ASSERT_TRUE(r.ReadVarint(&varint).ok());
  EXPECT_EQ(varint, 1u);
  ASSERT_EQ(r.position(), slot + 1);

  const auto with_slot = [&](uint64_t threads) {
    serialize::ByteWriter w;
    w.PutVarint(threads);
    std::vector<uint8_t> patched(payload.begin(), payload.begin() + slot);
    patched.insert(patched.end(), w.bytes().begin(), w.bytes().end());
    patched.insert(patched.end(), payload.begin() + slot + 1, payload.end());
    return serialize::WrapPayload(serialize::BlobKind::kStreamDetector,
                                  patched);
  };
  for (const uint64_t threads : {0u, 4u, 64u}) {
    auto restored = StreamDetector::Deserialize(with_slot(threads));
    ASSERT_TRUE(restored.ok()) << threads << ": " << restored.status();
    EXPECT_EQ(restored->Serialize(), blob) << threads;
  }
  const auto st =
      StreamDetector::Deserialize(with_slot(uint64_t{1} << 31)).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("parallelism.threads"), std::string::npos)
      << st.ToString();
}

// Offset in `payload` of the first model's position counts (the varint
// count before the doubles), found by walking every field before them.
void FindFirstModelCounts(std::span<const uint8_t> payload, size_t* at) {
  serialize::ByteReader r(payload);
  uint64_t varint = 0;
  // Options: four varints; selectivity, seed, norm_threshold and
  // numerosity_reduction; the thread-count varint; combine, normalize and
  // the two flags; buffer_capacity, refit_interval and prune_to; the refit
  // policy; refit_interval_max; drift_tolerance.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(r.ReadVarint(&varint).ok());
  ASSERT_TRUE(r.Skip(25).ok());
  ASSERT_TRUE(r.ReadVarint(&varint).ok());
  ASSERT_TRUE(r.Skip(4).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(r.ReadVarint(&varint).ok());
  ASSERT_TRUE(r.Skip(1).ok());
  ASSERT_TRUE(r.ReadVarint(&varint).ok());
  ASSERT_TRUE(r.Skip(8).ok());
  // State: counters, refit status, buffer, rolling stats, buffered count,
  // scores, density, members, then the model count and the first table.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(r.ReadVarint(&varint).ok());
  Status status;
  ASSERT_TRUE(serialize::ReadStatus(r, &status).ok());
  std::vector<double> values;
  ASSERT_TRUE(serialize::ReadDoubles(r, &values, /*allow_nan=*/false).ok());
  RollingStats stats;
  ASSERT_TRUE(serialize::ReadRollingStats(r, &stats).ok());
  ASSERT_TRUE(r.ReadVarint(&varint).ok());
  ASSERT_TRUE(serialize::ReadDoubles(r, &values, /*allow_nan=*/true).ok());
  ASSERT_TRUE(serialize::ReadDoubles(r, &values, /*allow_nan=*/false).ok());
  uint64_t members = 0;
  ASSERT_TRUE(r.ReadVarint(&members).ok());
  for (uint64_t m = 0; m < members; ++m) {
    ASSERT_TRUE(r.ReadVarint(&varint).ok());
    ASSERT_TRUE(r.ReadVarint(&varint).ok());
    ASSERT_TRUE(r.Skip(9).ok());  // std_dev, kept
  }
  ASSERT_TRUE(r.ReadVarint(&varint).ok());
  ASSERT_GT(varint, 0u);
  sax::TokenTable table;
  ASSERT_TRUE(serialize::ReadTokenTable(r, &table).ok());
  *at = r.position();
}

TEST(StreamSnapshotCorruptionTest, PositionCountsMustBeWholeNumbers) {
  // A position count is a whole number of window positions, kept in 32
  // bits. A blob holding a fraction, or 2^32, must fail restore, naming the
  // field, rather than restore a model no refit could have built.
  const auto blob = FittedDetectorBlob();
  std::span<const uint8_t> payload;
  ASSERT_TRUE(serialize::UnwrapPayload(
                  blob, serialize::BlobKind::kStreamDetector, &payload)
                  .ok());
  size_t at = 0;
  ASSERT_NO_FATAL_FAILURE(FindFirstModelCounts(payload, &at));
  serialize::ByteReader r(payload);
  ASSERT_TRUE(r.Skip(at).ok());
  uint64_t count = 0;
  ASSERT_TRUE(r.ReadVarint(&count).ok());
  const size_t first = r.position();  // the counts, then max_count
  std::vector<double> counts(count);
  for (double& c : counts) ASSERT_TRUE(r.ReadDouble(&c).ok());
  double max_count = 0.0;
  ASSERT_TRUE(r.ReadDouble(&max_count).ok());
  ASSERT_EQ(max_count, *std::max_element(counts.begin(), counts.end()));
  const size_t top = static_cast<size_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  const auto low = std::find_if(counts.begin(), counts.end(),
                                [&](double c) { return c + 1 <= max_count; });
  ASSERT_NE(low, counts.end());  // a non-maximal count to patch
  const auto lower = static_cast<size_t>(low - counts.begin());

  // The payload with count `index` set to `value` and max_count to `max`.
  const auto patched = [&](size_t index, double value, double max) {
    std::vector<uint8_t> bytes(payload.begin(), payload.end());
    for (const auto& [offset, v] : {std::pair{first + 8 * index, value},
                                    std::pair{first + 8 * count, max}}) {
      serialize::ByteWriter w;
      w.PutDouble(v);
      std::copy(w.bytes().begin(), w.bytes().end(), bytes.begin() + offset);
    }
    return serialize::WrapPayload(serialize::BlobKind::kStreamDetector,
                                  bytes);
  };
  for (const auto& forged :
       {patched(lower, counts[lower] + 0.5, max_count),
        patched(top, 0x1p32, 0x1p32)}) {
    const auto st = StreamDetector::Deserialize(forged).status();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("position_counts"), std::string::npos)
        << st.ToString();
  }
  // The largest 32-bit count restores, and so does the untouched payload.
  EXPECT_TRUE(StreamDetector::Deserialize(
                  patched(top, 0x1p32 - 1, 0x1p32 - 1))
                  .ok());
  const auto rewrapped =
      serialize::WrapPayload(serialize::BlobKind::kStreamDetector, payload);
  auto restored = StreamDetector::Deserialize(rewrapped);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Serialize(), blob);
}

TEST(StreamSnapshotCorruptionTest, EmptyAndGarbageBlobsAreRejected) {
  EXPECT_FALSE(StreamDetector::Deserialize({}).ok());
  const std::vector<uint8_t> garbage(64, 0xA5);
  EXPECT_FALSE(StreamDetector::Deserialize(garbage).ok());
  EXPECT_FALSE(OpenTestHub(1).Restore(garbage).ok());
}

// ------------------------------------------------------------ golden blob

// The v1 fixture is frozen history: it was written by the version-1 encoder
// and exists to prove today's decoder still reads pre-adaptive snapshots.
// EGI_UPDATE_GOLDEN must never rewrite it (today's encoder emits v2 bytes).
std::string GoldenPathV1() {
  return std::string(EGI_TEST_DATA_DIR) + "/stream_snapshot_v1.bin";
}

std::string GoldenPathV2() {
  return std::string(EGI_TEST_DATA_DIR) + "/stream_snapshot_v2.bin";
}

// The fixture generator: deterministic options + series, snapshot after 180
// points. Run the test binary with EGI_UPDATE_GOLDEN=1 to (re)write the
// current-version fixture — required once per intentional format-version
// bump, forbidden otherwise (that is the point of the test).
StreamDetector GoldenDetector() {
  StreamDetectorOptions opt;
  opt.ensemble.window_length = 32;
  opt.ensemble.wmax = 5;
  opt.ensemble.amax = 5;
  opt.ensemble.ensemble_size = 6;
  opt.ensemble.seed = 20200317;
  // Serial, as when the fixture was written; regeneration at any thread
  // count gives the same bytes (the thread-count slot holds a constant).
  opt.ensemble.parallelism = exec::Parallelism::Serial();
  opt.buffer_capacity = 128;
  opt.refit_interval = 50;
  StreamDetector detector(opt);
  const auto series = TestSeries(180, /*seed=*/424242);
  for (const double v : series) detector.Append(v);
  return detector;
}

// The v2 fixture generator additionally exercises both adaptive knobs —
// two-stage pruned construction and the drift-gated cadence — so the byte
// layout of the v2 option fields and drift-gate runtime state is pinned.
StreamDetector GoldenDetectorV2() {
  StreamDetectorOptions opt;
  opt.ensemble.window_length = 32;
  opt.ensemble.wmax = 5;
  opt.ensemble.amax = 5;
  opt.ensemble.ensemble_size = 6;
  opt.ensemble.seed = 20200317;
  opt.ensemble.prune_to = 4;
  opt.ensemble.parallelism = exec::Parallelism::Serial();  // as above
  opt.buffer_capacity = 128;
  opt.refit_interval = 50;
  opt.refit_policy = RefitPolicy::kAdaptive;
  opt.refit_interval_max = 200;
  opt.drift_tolerance = 0.5;
  StreamDetector detector(opt);
  const auto series = TestSeries(420, /*seed=*/424242);
  for (const double v : series) detector.Append(v);
  return detector;
}

TEST(StreamSnapshotGoldenTest, TodaysDecoderReadsTheV1Fixture) {
  // Backward-read contract: the checked-in version-1 blob (written before
  // the adaptive-cadence fields existed) must keep decoding, with the new
  // options at their do-nothing defaults.
  std::ifstream in(GoldenPathV1(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << GoldenPathV1();
  std::vector<uint8_t> blob((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(blob.empty());

  // 1. Today's decoder must read the v1 fixture...
  auto restored = StreamDetector::Deserialize(blob);
  ASSERT_TRUE(restored.ok())
      << "the checked-in v1 snapshot no longer decodes — v1 backward-read "
         "is part of the format contract: "
      << restored.status().ToString();

  // 2. ...agree on the (platform-independent) structural facts...
  EXPECT_EQ(restored->options().ensemble.window_length, 32u);
  EXPECT_EQ(restored->options().ensemble.seed, 20200317u);
  EXPECT_EQ(restored->options().buffer_capacity, 128u);
  EXPECT_EQ(restored->options().refit_interval, 50u);
  EXPECT_EQ(restored->total_appended(), 180u);
  EXPECT_EQ(restored->buffered(), 128u);
  EXPECT_EQ(restored->refit_count(), 3u);  // appends 50, 100, 150
  EXPECT_EQ(restored->appends_since_refit(), 30u);
  EXPECT_TRUE(restored->fitted());
  EXPECT_TRUE(restored->last_refit_status().ok());

  // 3. ...map the absent v2 fields to their inert defaults...
  EXPECT_EQ(restored->options().ensemble.prune_to, 0);
  EXPECT_EQ(restored->options().refit_policy, RefitPolicy::kFixed);
  EXPECT_EQ(restored->options().refit_interval_max, 0u);
  EXPECT_EQ(restored->effective_refit_interval(), 50u);

  // 4. ...and survive an upgrade round trip: re-encoding emits the current
  // version, which must decode to an identical detector.
  const auto reencoded = restored->Serialize();
  EXPECT_NE(reencoded, blob);  // the writer emits v2 now
  auto upgraded = StreamDetector::Deserialize(reencoded);
  ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
  ExpectDetectorsIdentical(*restored, *upgraded);
}

TEST(StreamSnapshotGoldenTest, TodaysDecoderReadsTheV2Fixture) {
  if (GetEnvBool("EGI_UPDATE_GOLDEN", false)) {
    const auto blob = GoldenDetectorV2().Serialize();
    std::ofstream out(GoldenPathV2(), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << GoldenPathV2();
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden fixture regenerated at " << GoldenPathV2();
  }

  std::ifstream in(GoldenPathV2(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden fixture " << GoldenPathV2()
                         << " (run with EGI_UPDATE_GOLDEN=1 to create it)";
  std::vector<uint8_t> blob((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  ASSERT_FALSE(blob.empty());

  // 1. Today's decoder must read the v2 fixture...
  auto restored = StreamDetector::Deserialize(blob);
  ASSERT_TRUE(restored.ok())
      << "the checked-in v2 snapshot no longer decodes — the format drifted; "
         "bump serialize::kSnapshotVersion and regenerate the fixture: "
      << restored.status().ToString();

  // 2. ...agree on the (platform-independent) structural facts, the
  // adaptive options included...
  EXPECT_EQ(restored->options().ensemble.window_length, 32u);
  EXPECT_EQ(restored->options().ensemble.prune_to, 4);
  EXPECT_EQ(restored->options().refit_policy, RefitPolicy::kAdaptive);
  EXPECT_EQ(restored->options().refit_interval, 50u);
  EXPECT_EQ(restored->options().refit_interval_max, 200u);
  EXPECT_EQ(restored->total_appended(), 420u);
  EXPECT_TRUE(restored->fitted());
  EXPECT_TRUE(restored->last_refit_status().ok());
  EXPECT_GE(restored->effective_refit_interval(), 50u);
  EXPECT_LE(restored->effective_refit_interval(), 200u);

  // 3. ...and re-encode it byte-for-byte (decode->encode is pure data
  // movement, so this holds on every platform; any layout change breaks it
  // here first and forces a version bump).
  EXPECT_EQ(restored->Serialize(), blob)
      << "decode->encode no longer reproduces the v2 bytes — bump "
         "serialize::kSnapshotVersion and regenerate the fixture";
}

}  // namespace
}  // namespace egi::stream
