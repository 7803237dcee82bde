#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sax/token_table.h"
#include "sax/word_code.h"
#include "serialize/bytes.h"
#include "serialize/codecs.h"
#include "serialize/file_io.h"
#include "serialize/format.h"
#include "stream/rolling_stats.h"
#include "util/rng.h"

namespace egi::serialize {
namespace {

// ------------------------------------------------------------- primitives

TEST(ByteCodecTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEFu);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutBool(true);
  w.PutBool(false);

  ByteReader r(w.bytes());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  bool b1 = false, b2 = true;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadBool(&b1).ok());
  ASSERT_TRUE(r.ReadBool(&b2).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(ByteCodecTest, VarintRoundTripEdgeValues) {
  const uint64_t cases[] = {0,
                            1,
                            127,
                            128,
                            300,
                            16383,
                            16384,
                            (1ull << 32) - 1,
                            1ull << 32,
                            (1ull << 56) + 17,
                            std::numeric_limits<uint64_t>::max()};
  for (const uint64_t v : cases) {
    ByteWriter w;
    w.PutVarint(v);
    ByteReader r(w.bytes());
    uint64_t back = 1;
    ASSERT_TRUE(r.ReadVarint(&back).ok()) << v;
    EXPECT_EQ(back, v);
    EXPECT_TRUE(r.ExpectEnd().ok());
  }
}

TEST(ByteCodecTest, VarintRejectsTruncationAndOverflow) {
  // Truncated: continuation bit set but no next byte.
  {
    const uint8_t bytes[] = {0x80};
    ByteReader r(bytes);
    uint64_t v = 0;
    EXPECT_FALSE(r.ReadVarint(&v).ok());
  }
  // 11 continuation bytes: longer than any uint64_t encoding.
  {
    std::vector<uint8_t> bytes(11, 0x80);
    ByteReader r(bytes);
    uint64_t v = 0;
    EXPECT_FALSE(r.ReadVarint(&v).ok());
  }
  // 10 bytes whose last byte carries more than the 1 bit that fits.
  {
    std::vector<uint8_t> bytes(9, 0x80);
    bytes.push_back(0x02);
    ByteReader r(bytes);
    uint64_t v = 0;
    EXPECT_FALSE(r.ReadVarint(&v).ok());
  }
}

TEST(ByteCodecTest, TruncatedFixedReadsError) {
  const uint8_t bytes[] = {1, 2, 3};
  ByteReader r(bytes);
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double d = 0;
  EXPECT_FALSE(r.ReadU32(&u32).ok());
  EXPECT_FALSE(r.ReadU64(&u64).ok());
  EXPECT_FALSE(r.ReadDouble(&d).ok());
  // Failed reads must not advance the cursor.
  EXPECT_EQ(r.remaining(), 3u);
  uint8_t u8 = 0;
  EXPECT_TRUE(r.ReadU8(&u8).ok());
  EXPECT_EQ(u8, 1);
}

TEST(ByteCodecTest, DoubleRoundTripIsBitwise) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0 / 3.0,
                          5e-324,  // smallest denormal
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()};
  for (const double v : cases) {
    ByteWriter w;
    w.PutDouble(v);
    ByteReader r(w.bytes());
    double back = 0;
    ASSERT_TRUE(r.ReadDouble(&back).ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(back), std::bit_cast<uint64_t>(v));
  }
}

TEST(ByteCodecTest, FiniteDoubleRejectsInfAndNaN) {
  const double bad[] = {std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  for (const double v : bad) {
    ByteWriter w;
    w.PutDouble(v);
    ByteReader r(w.bytes());
    double back = 0;
    EXPECT_FALSE(r.ReadFiniteDouble(&back).ok());
    EXPECT_EQ(r.remaining(), 8u);  // cursor unchanged on rejection
  }
}

TEST(ByteCodecTest, BoolRejectsNonCanonicalBytes) {
  const uint8_t bytes[] = {2};
  ByteReader r(bytes);
  bool b = false;
  EXPECT_FALSE(r.ReadBool(&b).ok());
}

TEST(ByteCodecTest, StringRoundTripAndLimits) {
  ByteWriter w;
  w.PutString("hello snapshot");
  w.PutString("");
  {
    ByteReader r(w.bytes());
    std::string s;
    ASSERT_TRUE(r.ReadString(&s, 100).ok());
    EXPECT_EQ(s, "hello snapshot");
    ASSERT_TRUE(r.ReadString(&s, 100).ok());
    EXPECT_EQ(s, "");
    EXPECT_TRUE(r.ExpectEnd().ok());
  }
  {
    ByteReader r(w.bytes());
    std::string s;
    EXPECT_FALSE(r.ReadString(&s, 5).ok());  // over the caller's limit
  }
  // Declared length running past the payload.
  ByteWriter t;
  t.PutVarint(1000);
  t.PutU8('x');
  ByteReader r(t.bytes());
  std::string s;
  EXPECT_FALSE(r.ReadString(&s, 10000).ok());
}

TEST(ByteCodecTest, ReadLengthGuardsAgainstOversizedCounts) {
  ByteWriter w;
  w.PutVarint(std::numeric_limits<uint64_t>::max());  // absurd element count
  ByteReader r(w.bytes());
  size_t n = 0;
  EXPECT_FALSE(r.ReadLength(&n, 8).ok());
}

// ----------------------------------------------------------- double arrays

TEST(DoubleArrayCodecTest, RoundTripPreservesNaNBits) {
  std::vector<double> values = {1.5, -0.0, std::nan("0x5ca1ab1e"), 42.0};
  ByteWriter w;
  WriteDoubles(w, values);
  ByteReader r(w.bytes());
  std::vector<double> back;
  ASSERT_TRUE(ReadDoubles(r, &back, /*allow_nan=*/true).ok());
  ASSERT_EQ(back.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(back[i]),
              std::bit_cast<uint64_t>(values[i]));
  }
}

TEST(DoubleArrayCodecTest, InfinityAlwaysRejected) {
  std::vector<double> values = {1.0, std::numeric_limits<double>::infinity()};
  ByteWriter w;
  WriteDoubles(w, values);
  ByteReader r(w.bytes());
  std::vector<double> back;
  EXPECT_FALSE(ReadDoubles(r, &back, /*allow_nan=*/true).ok());
}

TEST(DoubleArrayCodecTest, NaNRejectedWhereFiniteRequired) {
  std::vector<double> values = {std::numeric_limits<double>::quiet_NaN()};
  ByteWriter w;
  WriteDoubles(w, values);
  ByteReader r(w.bytes());
  std::vector<double> back;
  EXPECT_FALSE(ReadDoubles(r, &back, /*allow_nan=*/false).ok());
}

TEST(DoubleArrayCodecTest, EmptyArrayRoundTrips) {
  ByteWriter w;
  WriteDoubles(w, {});
  ByteReader r(w.bytes());
  std::vector<double> back = {99.0};
  ASSERT_TRUE(ReadDoubles(r, &back, /*allow_nan=*/false).ok());
  EXPECT_TRUE(back.empty());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

// ---------------------------------------------------------------- WordCode

TEST(WordCodeCodecTest, RoundTripExtremes) {
  const sax::WordCode cases[] = {
      {},  // all zero
      {0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull},
      {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull}};
  for (const auto& code : cases) {
    ByteWriter w;
    WriteWordCode(w, code);
    ByteReader r(w.bytes());
    sax::WordCode back;
    ASSERT_TRUE(ReadWordCode(r, &back).ok());
    EXPECT_EQ(back, code);
  }
}

// -------------------------------------------------------------- TokenTable

sax::TokenTable MakeTable(int w, int a, size_t count, uint64_t seed) {
  sax::TokenTable table{sax::WordCodec(w, a)};
  Rng rng(seed);
  std::vector<int> symbols(static_cast<size_t>(w));
  while (table.size() < count) {
    for (auto& s : symbols) {
      s = static_cast<int>(rng.UniformInt(0, a - 1));
    }
    table.Intern(table.codec().Pack(symbols));
  }
  return table;
}

void ExpectTablesIdentical(const sax::TokenTable& a, const sax::TokenTable& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.codec().word_length(), b.codec().word_length());
  EXPECT_EQ(a.codec().alphabet_size(), b.codec().alphabet_size());
  for (size_t id = 0; id < a.size(); ++id) {
    const auto i32 = static_cast<int32_t>(id);
    EXPECT_EQ(a.CodeAt(i32), b.CodeAt(i32));
    EXPECT_EQ(b.Find(a.CodeAt(i32)), i32);
  }
}

TEST(TokenTableCodecTest, EmptyTableRoundTrips) {
  sax::TokenTable table{sax::WordCodec(4, 4)};
  ByteWriter w;
  WriteTokenTable(w, table);
  ByteReader r(w.bytes());
  sax::TokenTable back;
  ASSERT_TRUE(ReadTokenTable(r, &back).ok());
  ExpectTablesIdentical(table, back);
  EXPECT_EQ(back.Find(sax::WordCode{}), -1);
}

TEST(TokenTableCodecTest, LargeTableRoundTripsWithIdenticalProbes) {
  // Thousands of codes at the default grid's largest layout (w=10, a=10 ->
  // 40 bits, 8-byte codes) and the paper's largest (w=20, a=20 -> 100 bits,
  // 16-byte codes), forcing many open-addressing growths in the writer. The
  // blob stores 16 bytes per code either way, and the restored table holds
  // exactly the bytes of the writer's compacted one.
  for (const auto& [width, code_bytes] :
       {std::pair{10, size_t{8}}, std::pair{20, size_t{16}}}) {
    const sax::TokenTable table = MakeTable(width, width, 5000, /*seed=*/7);
    ByteWriter w;
    WriteTokenTable(w, table);
    // One-byte w and a varints, a two-byte count, then the codes.
    EXPECT_EQ(w.bytes().size(), 4 + 16 * table.size());
    ByteReader r(w.bytes());
    sax::TokenTable back;
    ASSERT_TRUE(ReadTokenTable(r, &back).ok());
    ASSERT_TRUE(r.ExpectEnd().ok());
    ExpectTablesIdentical(table, back);
    EXPECT_EQ(back.slot_count(), table.Compacted().slot_count());
    EXPECT_EQ(back.heap_bytes(), table.Compacted().heap_bytes());
    EXPECT_EQ(back.heap_bytes(),
              code_bytes * back.size() + 4 * back.slot_count());
  }
}

TEST(TokenTableCodecTest, MaxWidthLayoutRoundTrips) {
  // w * bits == 128 exactly: every bit of the code is legal.
  const sax::TokenTable table = MakeTable(32, 16, 64, /*seed=*/11);
  ByteWriter w;
  WriteTokenTable(w, table);
  ByteReader r(w.bytes());
  sax::TokenTable back;
  ASSERT_TRUE(ReadTokenTable(r, &back).ok());
  ExpectTablesIdentical(table, back);
}

TEST(TokenTableCodecTest, RejectsUnsupportedLayout) {
  ByteWriter w;
  w.PutVarint(40);  // w=40, a=20 -> 200 bits: not packable
  w.PutVarint(20);
  w.PutVarint(0);
  ByteReader r(w.bytes());
  sax::TokenTable back;
  EXPECT_FALSE(ReadTokenTable(r, &back).ok());
}

TEST(TokenTableCodecTest, RejectsDuplicateCodes) {
  ByteWriter w;
  w.PutVarint(4);
  w.PutVarint(4);
  w.PutVarint(2);
  const sax::WordCode code{.lo = 0x55};  // "bbbb"
  WriteWordCode(w, code);
  WriteWordCode(w, code);
  ByteReader r(w.bytes());
  sax::TokenTable back;
  EXPECT_EQ(ReadTokenTable(r, &back).message(),
            "duplicate code in token table");
}

TEST(TokenTableCodecTest, RejectsBitsOutsideLayout) {
  // 4 symbols x 2 bits = 8 packed bits: bit 8 of the low half and every bit
  // of the high half lie outside the layout.
  for (const sax::WordCode code :
       {sax::WordCode{.lo = 0x100}, sax::WordCode{.hi = 1}}) {
    ByteWriter w;
    w.PutVarint(4);
    w.PutVarint(4);
    w.PutVarint(1);
    WriteWordCode(w, code);
    ByteReader r(w.bytes());
    sax::TokenTable back;
    EXPECT_EQ(ReadTokenTable(r, &back).message(),
              "token code has bits outside its (w, a) layout");
  }
}

TEST(TokenTableCodecTest, RejectsSymbolOutsideAlphabet) {
  ByteWriter w;
  w.PutVarint(2);  // 2 symbols x 3 bits, a = 5: symbol values 5..7 illegal
  w.PutVarint(5);
  w.PutVarint(1);
  WriteWordCode(w, sax::WordCode{.lo = 0x07});  // second symbol = 7
  ByteReader r(w.bytes());
  sax::TokenTable back;
  EXPECT_EQ(ReadTokenTable(r, &back).message(),
            "token symbol outside the alphabet");
}

TEST(TokenTableCodecTest, RejectsCountPastPayload) {
  ByteWriter w;
  w.PutVarint(4);
  w.PutVarint(4);
  w.PutVarint(1000000);  // but no code bytes follow
  ByteReader r(w.bytes());
  sax::TokenTable back;
  EXPECT_FALSE(ReadTokenTable(r, &back).ok());
}

// ------------------------------------------------------------ RollingStats

TEST(RollingStatsCodecTest, RoundTripIsBitwise) {
  stream::RollingStats stats;
  Rng rng(3);
  std::vector<double> window;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.UniformDouble() * 1e6 - 5e5;
    stats.Add(v);
    window.push_back(v);
    if (window.size() > 32) {
      stats.Remove(window.front());
      window.erase(window.begin());
    }
  }

  ByteWriter w;
  WriteRollingStats(w, stats);
  ByteReader r(w.bytes());
  stream::RollingStats back;
  ASSERT_TRUE(ReadRollingStats(r, &back).ok());

  const auto a = stats.SaveState();
  const auto b = back.SaveState();
  EXPECT_EQ(a.count, b.count);
  // The compensation terms must survive exactly — collapsing them into
  // Sum()/SumSq() would change future Add/Remove results in the last bits.
  EXPECT_EQ(std::bit_cast<uint64_t>(a.sum), std::bit_cast<uint64_t>(b.sum));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.sum_comp),
            std::bit_cast<uint64_t>(b.sum_comp));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.sumsq),
            std::bit_cast<uint64_t>(b.sumsq));
  EXPECT_EQ(std::bit_cast<uint64_t>(a.sumsq_comp),
            std::bit_cast<uint64_t>(b.sumsq_comp));

  // And future updates stay in lockstep.
  stats.Add(123.456);
  back.Add(123.456);
  EXPECT_EQ(stats.Sum(), back.Sum());
  EXPECT_EQ(stats.SampleStdDev(), back.SampleStdDev());
}

TEST(RollingStatsCodecTest, EmptyStatsRoundTrip) {
  stream::RollingStats stats;
  ByteWriter w;
  WriteRollingStats(w, stats);
  ByteReader r(w.bytes());
  stream::RollingStats back;
  ASSERT_TRUE(ReadRollingStats(r, &back).ok());
  EXPECT_EQ(back.count(), 0u);
  EXPECT_EQ(back.Mean(), 0.0);
}

TEST(RollingStatsCodecTest, RejectsNonFiniteAccumulators) {
  ByteWriter w;
  w.PutVarint(3);
  w.PutDouble(std::numeric_limits<double>::infinity());
  w.PutDouble(0.0);
  w.PutDouble(0.0);
  w.PutDouble(0.0);
  ByteReader r(w.bytes());
  stream::RollingStats back;
  EXPECT_FALSE(ReadRollingStats(r, &back).ok());
}

// ---------------------------------------------------------------- Status

TEST(StatusCodecTest, RoundTripAllCodes) {
  const Status cases[] = {
      Status::OK(), Status::InvalidArgument("bad input"),
      Status::OutOfRange("off the end"), Status::NotFound("missing"),
      Status::FailedPrecondition("not yet"), Status::Internal("bug")};
  for (const Status& s : cases) {
    ByteWriter w;
    WriteStatus(w, s);
    ByteReader r(w.bytes());
    Status back;
    ASSERT_TRUE(ReadStatus(r, &back).ok());
    EXPECT_EQ(back, s);
  }
}

TEST(StatusCodecTest, RejectsUnknownCodeByte) {
  ByteWriter w;
  w.PutU8(200);
  w.PutString("");
  ByteReader r(w.bytes());
  Status back;
  EXPECT_FALSE(ReadStatus(r, &back).ok());
}

// --------------------------------------------------------------- envelope

TEST(EnvelopeTest, WrapUnwrapRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const auto blob = WrapPayload(BlobKind::kStreamDetector, payload);
  std::span<const uint8_t> body;
  ASSERT_TRUE(UnwrapPayload(blob, BlobKind::kStreamDetector, &body).ok());
  ASSERT_EQ(body.size(), payload.size());
  EXPECT_TRUE(std::equal(body.begin(), body.end(), payload.begin()));
}

TEST(EnvelopeTest, EmptyPayloadRoundTrips) {
  const auto blob = WrapPayload(BlobKind::kStreamEngine, {});
  std::span<const uint8_t> body;
  ASSERT_TRUE(UnwrapPayload(blob, BlobKind::kStreamEngine, &body).ok());
  EXPECT_TRUE(body.empty());
}

TEST(EnvelopeTest, RejectsWrongKind) {
  const auto blob = WrapPayload(BlobKind::kStreamEngine, {});
  std::span<const uint8_t> body;
  EXPECT_FALSE(UnwrapPayload(blob, BlobKind::kStreamDetector, &body).ok());
}

TEST(EnvelopeTest, RejectsBadMagicAndVersion) {
  const std::vector<uint8_t> payload = {9, 9, 9};
  auto blob = WrapPayload(BlobKind::kStreamDetector, payload);
  {
    auto bad = blob;
    bad[0] = 'X';
    std::span<const uint8_t> body;
    const Status st = UnwrapPayload(bad, BlobKind::kStreamDetector, &body);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  {
    auto bad = blob;
    bad[4] = static_cast<uint8_t>(kSnapshotVersion + 1);  // version LE byte 0
    std::span<const uint8_t> body;
    const Status st = UnwrapPayload(bad, BlobKind::kStreamDetector, &body);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.message().find("version"), std::string::npos);
  }
}

TEST(EnvelopeTest, EveryTruncationFailsCleanly) {
  const std::vector<uint8_t> payload = {10, 20, 30, 40, 50, 60};
  const auto blob = WrapPayload(BlobKind::kStreamDetector, payload);
  for (size_t len = 0; len < blob.size(); ++len) {
    std::span<const uint8_t> body;
    EXPECT_FALSE(UnwrapPayload(std::span(blob).first(len),
                               BlobKind::kStreamDetector, &body)
                     .ok())
        << "truncation at " << len << " must be rejected";
  }
}

TEST(EnvelopeTest, TrailingGarbageRejected) {
  const std::vector<uint8_t> payload = {1, 2, 3};
  auto blob = WrapPayload(BlobKind::kStreamDetector, payload);
  blob.push_back(0);
  std::span<const uint8_t> body;
  EXPECT_FALSE(UnwrapPayload(blob, BlobKind::kStreamDetector, &body).ok());
}

TEST(EnvelopeTest, EveryPayloadBitFlipIsDetected) {
  // The checksum turns arbitrary payload corruption into a deterministic
  // error instead of a silently different decode.
  const std::vector<uint8_t> payload = {0, 1, 2, 3, 4, 5, 6, 7};
  const auto blob = WrapPayload(BlobKind::kStreamDetector, payload);
  const size_t payload_start = blob.size() - payload.size();
  for (size_t i = payload_start; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      auto bad = blob;
      bad[i] = static_cast<uint8_t>(bad[i] ^ (1u << bit));
      std::span<const uint8_t> body;
      EXPECT_FALSE(UnwrapPayload(bad, BlobKind::kStreamDetector, &body).ok());
    }
  }
}

TEST(EnvelopeTest, Crc32MatchesKnownVector) {
  // The classic check value: CRC-32("123456789") = 0xCBF43926.
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

// ------------------------------------------------ engine section framing

TEST(EngineSectionsTest, RoundTripAndMalformedFramingIsRejected) {
  const std::vector<std::vector<uint8_t>> sections = {{1, 2, 3}, {4}, {5, 6}};
  const auto blob = WrapEngineSections(sections);
  std::vector<std::span<const uint8_t>> read;
  ASSERT_TRUE(UnwrapEngineSections(blob, &read).ok());
  ASSERT_EQ(read.size(), sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(read[i], sections[i])) << "section " << i;
  }
  ASSERT_TRUE(UnwrapEngineSections(WrapEngineSections({}), &read).ok());
  EXPECT_TRUE(read.empty());

  // CRC-valid payloads with broken framing: a section running past the
  // end, trailing bytes, a count larger than the payload, and the wrong
  // blob kind.
  read.assign(1, std::span<const uint8_t>());
  const std::vector<std::vector<uint8_t>> bad_payloads = {
      {1, 5, 9}, {1, 1, 9, 0}, {200, 1}};
  for (const auto& payload : bad_payloads) {
    const auto bad = WrapPayload(BlobKind::kStreamEngine, payload);
    EXPECT_FALSE(UnwrapEngineSections(bad, &read).ok());
  }
  std::span<const uint8_t> body;
  ASSERT_TRUE(UnwrapPayload(blob, BlobKind::kStreamEngine, &body).ok());
  EXPECT_FALSE(UnwrapEngineSections(
                   WrapPayload(BlobKind::kStreamDetector, body), &read)
                   .ok());
  EXPECT_EQ(read.size(), 1u);  // untouched on failure
}

// ------------------------------------------------- atomic checkpoint files

class FileIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("egi_file_io_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "checkpoint.bin").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static std::vector<uint8_t> Blob(uint8_t fill, size_t n) {
    return std::vector<uint8_t>(n, fill);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(FileIoTest, WriteReadRoundTrip) {
  const auto blob = Blob(0xA5, 4096);
  ASSERT_TRUE(WriteFileAtomic(path_, blob).ok());
  auto back = ReadFileBytes(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, blob);
  // No temp residue after a successful write.
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(FileIoTest, ReadMissingIsNotFound) {
  auto missing = ReadFileBytes(path_);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(FileIoTest, OverwriteReplacesWholeFile) {
  ASSERT_TRUE(WriteFileAtomic(path_, Blob(1, 1 << 16)).ok());
  ASSERT_TRUE(WriteFileAtomic(path_, Blob(2, 16)).ok());  // much shorter
  auto back = ReadFileBytes(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, Blob(2, 16));
}

TEST_F(FileIoTest, KillDuringCheckpointKeepsPreviousCheckpoint) {
  // The torn-checkpoint regression test. A checkpointer killed mid-write
  // leaves exactly one artifact: a partial `path.tmp` (the direct-to-path
  // writer it replaces left a truncated blob at `path` instead, which only
  // failed at restore time). Simulate the kill in a real child process:
  // the child writes half the new checkpoint to the temp file and dies
  // before fsync/rename, the way SIGKILL would land mid-checkpoint.
  const auto v1 = WrapPayload(BlobKind::kStreamEngine, Blob(0x11, 1 << 14));
  ASSERT_TRUE(WriteFileAtomic(path_, v1).ok());

  const auto v2 = WrapPayload(BlobKind::kStreamEngine, Blob(0x22, 1 << 14));
  const std::string tmp = path_ + ".tmp";
  // fork() is safe here although this binary may be multithreaded (e.g.
  // the shared exec pool, started by an earlier test): the child makes only
  // async-signal-safe calls — open, write, _exit — on memory prepared
  // before the fork. It never allocates, takes a lock, or touches the exec
  // pool, whose workers do not survive fork().
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: begin writing v2 the way WriteFileAtomic does, then die
    // mid-write (no fsync, no rename) — _exit so no destructors run.
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) ::_exit(2);
    (void)!::write(fd, v2.data(), v2.size() / 2);
    ::_exit(0);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);

  // The "crashed" writer left a partial temp file but the previous complete
  // checkpoint survives at the final path and still validates end to end.
  EXPECT_TRUE(std::filesystem::exists(path_ + ".tmp"));
  auto back = ReadFileBytes(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, v1);
  std::span<const uint8_t> payload;
  EXPECT_TRUE(UnwrapPayload(*back, BlobKind::kStreamEngine, &payload).ok());

  // The next successful checkpoint replaces both the file and the residue.
  ASSERT_TRUE(WriteFileAtomic(path_, v2).ok());
  back = ReadFileBytes(path_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, v2);
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

}  // namespace
}  // namespace egi::serialize
