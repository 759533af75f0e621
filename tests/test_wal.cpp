#include "store/wal.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "store/crc32c.hpp"
#include "store/fault_injection.hpp"
#include "store/format.hpp"

namespace moloc::store {
namespace {

// On-disk layout constants the damage-targeting tests depend on; the
// round-trip tests pin them so a format change fails loudly here.
constexpr std::size_t kHeaderBytes = 20;
constexpr std::size_t kFrameBytes = 8 + 33;  // len + crc + payload.

std::string freshDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "moloc_wal_" + tag + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

std::string readFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void writeFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<ObservationRecord> replayAll(const std::string& dir,
                                         WalScan* scanOut = nullptr) {
  std::vector<ObservationRecord> records;
  const WalScan scan = WalReader(dir).replay(
      [&](const ObservationRecord& r) { records.push_back(r); });
  if (scanOut) *scanOut = scan;
  return records;
}

TEST(Crc32c, KnownVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix, iSCSI).
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32c("", 0), 0x00000000u);
  // 32 zero bytes, second reference vector from RFC 3720.
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  EXPECT_EQ(crc32cScalar(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(crc32cScalar(0, zeros.data(), zeros.size()), 0x8A9136AAu);
}

// The dispatched CRC (the SSE4.2 three-stream path on CPUs that have it
// in MOLOC_SIMD builds) must be the same integer function as the
// slice-by-8 reference: every start alignment, every length around the
// stream-block edges (3 x 256 and 3 x 8192 bytes), nonzero running
// seeds, and chained pieces as the image writer feeds them.
TEST(Crc32c, DispatchMatchesSoftwareReference) {
  std::mt19937_64 rng(0x5eed'c3c3'2c2cULL);
  constexpr std::size_t kMaxLength = 64 * 1024;
  std::vector<unsigned char> buffer(kMaxLength + 16);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(rng());
  // An 8-byte-aligned base, so offset k really starts k bytes past an
  // 8-byte boundary.
  const std::size_t misalign =
      reinterpret_cast<std::uintptr_t>(buffer.data()) % 8;
  const unsigned char* const base = buffer.data() + (8 - misalign) % 8;

  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  for (const std::size_t block : {3 * 256, 3 * 8192})
    for (const std::size_t n : {block - 1, block, block + 1})
      lengths.push_back(n);
  std::uniform_int_distribution<std::size_t> anyLength(0, kMaxLength);
  for (int i = 0; i < 48; ++i) lengths.push_back(anyLength(rng));

  auto nonzeroSeed = [&rng] {
    std::uint32_t seed = 0;
    while (seed == 0) seed = static_cast<std::uint32_t>(rng());
    return seed;
  };
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (const std::size_t length : lengths) {
      const unsigned char* const p = base + offset;
      EXPECT_EQ(crc32c(p, length), crc32cScalar(0, p, length))
          << "offset " << offset << " length " << length;
      const std::uint32_t seed = nonzeroSeed();
      const std::uint32_t expected = crc32cScalar(seed, p, length);
      ASSERT_EQ(crc32c(seed, p, length), expected)
          << "offset " << offset << " length " << length << " seed "
          << seed;
      const std::size_t split =
          std::uniform_int_distribution<std::size_t>(0, length)(rng);
      EXPECT_EQ(crc32c(crc32c(seed, p, split), p + split, length - split),
                expected)
          << "offset " << offset << " length " << length << " split "
          << split;
    }
  }
}

TEST(Crc32c, IncrementalChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t oneShot = crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32c(data.data(), split);
    crc = crc32c(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, oneShot) << "split at " << split;
  }
}

TEST(Wal, EmptyDirectoryScansEmpty) {
  const WalScan scan = WalReader(freshDir("empty")).scan();
  EXPECT_EQ(scan.records, 0u);
  EXPECT_EQ(scan.lastSeq, 0u);
  EXPECT_FALSE(scan.tailDamaged);
  EXPECT_TRUE(scan.segments.empty());
}

TEST(Wal, RecordFreeSegmentHeaderPinsSequenceLowerBound) {
  const std::string dir = freshDir("emptyseq");
  // A header-only segment starting at seq 8 — exactly what checkpoint
  // compaction leaves behind once every record-bearing segment is
  // covered and deleted.
  { WalWriter writer(dir, {FsyncPolicy::kNone}, /*nextSeq=*/8,
                     /*segmentIndex=*/3); }

  const WalScan scan = WalReader(dir).scan();
  EXPECT_EQ(scan.records, 0u);
  ASSERT_EQ(scan.segments.size(), 1u);
  EXPECT_EQ(scan.segments[0].firstSeq, 8u);
  EXPECT_EQ(scan.segments[0].records, 0u);
  // The header proves seqs 1..7 were assigned before compaction; a
  // continuing writer seeded from lastSeq must not reissue them (a
  // reissued seq <= a checkpoint's throughSeq is silently skipped by
  // recovery — permanent data loss).
  EXPECT_EQ(scan.lastSeq, 7u);

  {
    WalWriter writer(dir, {FsyncPolicy::kNone}, scan.lastSeq + 1,
                     scan.nextSegmentIndex);
    EXPECT_EQ(writer.append(0, 1, 90.0, 4.0), 8u);
  }
  WalScan after;
  const auto records = replayAll(dir, &after);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].seq, 8u);
  EXPECT_EQ(after.lastSeq, 8u);
}

TEST(Wal, ZeroFirstSeqHeaderRaisesCorruption) {
  const std::string dir = freshDir("zeroseq");
  { WalWriter writer(dir, {FsyncPolicy::kNone}); }
  const WalScan scan = WalReader(dir).scan();
  ASSERT_EQ(scan.segments.size(), 1u);
  // Zero the header's firstSeq field (bytes 12..19): sequence numbers
  // are 1-based, so a zero can only come from corruption.
  std::string bytes = readFileBytes(scan.segments[0].path);
  for (std::size_t b = 12; b < 20; ++b) bytes[b] = '\0';
  writeFileBytes(scan.segments[0].path, bytes);
  EXPECT_THROW(WalReader(dir).scan(), CorruptionError);
}

TEST(Wal, AppendReplayRoundTripIsBitExact) {
  const std::string dir = freshDir("roundtrip");
  std::vector<ObservationRecord> written;
  {
    WalWriter writer(dir, {FsyncPolicy::kNone});
    for (int k = 0; k < 25; ++k) {
      ObservationRecord r;
      r.estimatedStart = k % 5;
      r.estimatedEnd = (k + 1) % 5;
      r.directionDeg = 90.0 + 0.1 * k;
      r.offsetMeters = 4.0 + 1e-13 * k;  // Exercises full precision.
      r.seq = writer.append(r.estimatedStart, r.estimatedEnd,
                            r.directionDeg, r.offsetMeters);
      EXPECT_EQ(r.seq, static_cast<std::uint64_t>(k + 1));
      written.push_back(r);
    }
    EXPECT_EQ(writer.lastSeq(), 25u);
  }

  WalScan scan;
  const auto read = replayAll(dir, &scan);
  ASSERT_EQ(read.size(), written.size());
  for (std::size_t k = 0; k < read.size(); ++k) {
    EXPECT_EQ(read[k].seq, written[k].seq);
    EXPECT_EQ(read[k].estimatedStart, written[k].estimatedStart);
    EXPECT_EQ(read[k].estimatedEnd, written[k].estimatedEnd);
    // Bitwise equality, not EXPECT_DOUBLE_EQ: the log must preserve
    // the exact bit pattern or recovery diverges.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(read[k].directionDeg),
              std::bit_cast<std::uint64_t>(written[k].directionDeg));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(read[k].offsetMeters),
              std::bit_cast<std::uint64_t>(written[k].offsetMeters));
  }
  EXPECT_EQ(scan.lastSeq, 25u);
  EXPECT_FALSE(scan.tailDamaged);
  ASSERT_EQ(scan.segments.size(), 1u);
  EXPECT_EQ(scan.segments[0].records, 25u);
  // Pin the layout constants the damage tests rely on.
  EXPECT_EQ(std::filesystem::file_size(scan.segments[0].path),
            kHeaderBytes + 25 * kFrameBytes);
}

TEST(Wal, RotationSplitsSegmentsAndReplayCrossesThem) {
  const std::string dir = freshDir("rotate");
  WalConfig config;
  config.fsync = FsyncPolicy::kNone;
  // Header + two frames fit; the third record rotates.
  config.segmentMaxBytes = kHeaderBytes + 2 * kFrameBytes;
  {
    WalWriter writer(dir, config);
    for (int k = 0; k < 7; ++k) writer.append(0, 1, 90.0, 4.0);
    EXPECT_EQ(writer.stats().segmentsCreated, 4u);  // 2+2+2+1.
    EXPECT_EQ(writer.takeClosedSegments().size(), 3u);
  }
  WalScan scan;
  const auto read = replayAll(dir, &scan);
  EXPECT_EQ(read.size(), 7u);
  ASSERT_EQ(scan.segments.size(), 4u);
  EXPECT_EQ(scan.segments[0].firstSeq, 1u);
  EXPECT_EQ(scan.segments[1].firstSeq, 3u);
  EXPECT_EQ(scan.segments[3].records, 1u);
  EXPECT_EQ(scan.nextSegmentIndex, 5u);
}

TEST(Wal, FsyncPolicyControlsSyncCount) {
  {
    WalWriter w(freshDir("sync_every"), {FsyncPolicy::kEveryRecord});
    for (int k = 0; k < 10; ++k) w.append(0, 1, 90.0, 4.0);
    EXPECT_EQ(w.stats().fsyncs, 10u);
  }
  {
    WalConfig config;
    config.fsync = FsyncPolicy::kEveryN;
    config.fsyncEveryN = 4;
    WalWriter w(freshDir("sync_n"), config);
    for (int k = 0; k < 10; ++k) w.append(0, 1, 90.0, 4.0);
    EXPECT_EQ(w.stats().fsyncs, 2u);  // After records 4 and 8.
    w.sync();
    EXPECT_EQ(w.stats().fsyncs, 3u);
    w.sync();  // Nothing new to sync.
    EXPECT_EQ(w.stats().fsyncs, 3u);
  }
  {
    WalWriter w(freshDir("sync_none"), {FsyncPolicy::kNone});
    for (int k = 0; k < 10; ++k) w.append(0, 1, 90.0, 4.0);
    EXPECT_EQ(w.stats().fsyncs, 0u);
  }
}

TEST(Wal, RejectsInvalidConfig) {
  WalConfig config;
  config.fsync = FsyncPolicy::kEveryN;
  config.fsyncEveryN = 0;
  EXPECT_THROW(WalWriter(freshDir("badcfg"), config),
               std::invalid_argument);
  EXPECT_THROW(WalWriter(freshDir("badseq"), {FsyncPolicy::kNone}, 0, 1),
               std::invalid_argument);
}

/// The kill-at-any-point property at the byte level: truncating the
/// log at *every* possible length yields a clean prefix — never an
/// exception, never a record past the cut, and damage is flagged
/// exactly when the cut falls mid-record.
TEST(Wal, TruncationAtEveryByteYieldsCleanPrefix) {
  const std::string src = freshDir("trunc_src");
  {
    WalWriter writer(src, {FsyncPolicy::kNone});
    for (int k = 0; k < 8; ++k)
      writer.append(k % 3, (k + 1) % 3, 80.0 + k, 3.0 + k);
  }
  WalScan srcScan;
  replayAll(src, &srcScan);
  ASSERT_EQ(srcScan.segments.size(), 1u);
  const std::string bytes = readFileBytes(srcScan.segments[0].path);
  ASSERT_EQ(bytes.size(), kHeaderBytes + 8 * kFrameBytes);

  const std::string dir = freshDir("trunc_cut");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + std::filesystem::path(
                                           srcScan.segments[0].path)
                                           .filename()
                                           .string();
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    writeFileBytes(path, bytes.substr(0, cut));
    WalScan scan;
    std::vector<ObservationRecord> read;
    ASSERT_NO_THROW(read = replayAll(dir, &scan)) << "cut at " << cut;
    const std::size_t wholeRecords =
        cut < kHeaderBytes ? 0 : (cut - kHeaderBytes) / kFrameBytes;
    EXPECT_EQ(read.size(), wholeRecords) << "cut at " << cut;
    const bool atBoundary =
        cut >= kHeaderBytes && (cut - kHeaderBytes) % kFrameBytes == 0;
    EXPECT_EQ(scan.tailDamaged, !atBoundary) << "cut at " << cut;
    if (!read.empty()) {
      EXPECT_EQ(read.back().seq, wholeRecords);
    }
  }
}

TEST(Wal, BitFlipInFinalRecordIsToleratedAsTornTail) {
  const std::string dir = freshDir("fliptail");
  {
    WalWriter writer(dir, {FsyncPolicy::kNone});
    for (int k = 0; k < 5; ++k) writer.append(0, 1, 90.0, 4.0);
  }
  WalScan before;
  replayAll(dir, &before);
  const std::string path = before.segments[0].path;

  // Flip one bit inside the last record's payload.
  testing::FaultFile fault(path);
  fault.flipBit(kHeaderBytes + 4 * kFrameBytes + 8 + 20, 3);

  WalScan scan;
  const auto read = replayAll(dir, &scan);
  EXPECT_EQ(read.size(), 4u);  // The damaged final record is dropped...
  EXPECT_TRUE(scan.tailDamaged);
  EXPECT_EQ(scan.tailBytesDropped, kFrameBytes);
  EXPECT_EQ(scan.tailValidBytes, kHeaderBytes + 4 * kFrameBytes);
}

TEST(Wal, BitFlipMidLogRaisesCorruptionError) {
  const std::string dir = freshDir("flipmid");
  {
    WalWriter writer(dir, {FsyncPolicy::kNone});
    for (int k = 0; k < 5; ++k) writer.append(0, 1, 90.0, 4.0);
  }
  WalScan before;
  replayAll(dir, &before);
  // ...but the same flip in record 2 — with acknowledged records still
  // valid after it — is corruption, not crash fallout.
  testing::FaultFile fault(before.segments[0].path);
  fault.flipBit(kHeaderBytes + 1 * kFrameBytes + 8 + 20, 3);
  EXPECT_THROW(WalReader(dir).scan(), CorruptionError);
}

TEST(Wal, DamageInNonFinalSegmentRaisesEvenAtItsTail) {
  const std::string dir = freshDir("flipseg");
  WalConfig config;
  config.fsync = FsyncPolicy::kNone;
  config.segmentMaxBytes = kHeaderBytes + 2 * kFrameBytes;
  {
    WalWriter writer(dir, config);
    for (int k = 0; k < 4; ++k) writer.append(0, 1, 90.0, 4.0);
  }
  std::vector<std::string> paths;
  for (const auto& seg : WalReader(dir).scan().segments)
    paths.push_back(seg.path);
  ASSERT_EQ(paths.size(), 2u);
  // Damage the *last* record of the *first* segment: positionally a
  // tail, but a non-final segment has no torn-tail excuse.
  testing::FaultFile fault(paths[0]);
  fault.flipByte(kHeaderBytes + kFrameBytes + 10);
  EXPECT_THROW(WalReader(dir).scan(), CorruptionError);
}

TEST(Wal, MissingMiddleSegmentRaisesSequenceGap) {
  const std::string dir = freshDir("gap");
  WalConfig config;
  config.fsync = FsyncPolicy::kNone;
  config.segmentMaxBytes = kHeaderBytes + 2 * kFrameBytes;
  {
    WalWriter writer(dir, config);
    for (int k = 0; k < 6; ++k) writer.append(0, 1, 90.0, 4.0);
  }
  const auto segments = WalReader(dir).scan().segments;
  ASSERT_EQ(segments.size(), 3u);
  std::filesystem::remove(segments[1].path);
  EXPECT_THROW(WalReader(dir).scan(), CorruptionError);
}

TEST(Wal, RepairTruncatesTornTailAndWriterContinues) {
  const std::string dir = freshDir("repair");
  {
    WalWriter writer(dir, {FsyncPolicy::kNone});
    for (int k = 0; k < 6; ++k) writer.append(0, 1, 90.0, 4.0);
  }
  WalScan before;
  replayAll(dir, &before);
  testing::FaultFile fault(before.segments[0].path);
  fault.chopBytes(10);  // Tear the last record.

  const WalScan repaired = WalReader(dir).repair();
  EXPECT_EQ(repaired.records, 5u);
  EXPECT_FALSE(repaired.tailDamaged);
  EXPECT_EQ(std::filesystem::file_size(before.segments[0].path),
            kHeaderBytes + 5 * kFrameBytes);

  // A new writer continues the sequence in a fresh segment; the full
  // log replays cleanly across both.
  {
    WalWriter writer(dir, {FsyncPolicy::kNone}, repaired.lastSeq + 1,
                     repaired.nextSegmentIndex);
    EXPECT_EQ(writer.append(1, 2, 91.0, 4.5), 6u);
  }
  WalScan after;
  const auto read = replayAll(dir, &after);
  ASSERT_EQ(read.size(), 6u);
  EXPECT_EQ(read.back().seq, 6u);
  EXPECT_EQ(read.back().estimatedStart, 1);
  EXPECT_FALSE(after.tailDamaged);
}

TEST(Wal, RepairDeletesHeaderlessTailSegment) {
  const std::string dir = freshDir("repair_headerless");
  WalConfig config;
  config.fsync = FsyncPolicy::kNone;
  config.segmentMaxBytes = kHeaderBytes + 2 * kFrameBytes;
  {
    WalWriter writer(dir, config);
    for (int k = 0; k < 3; ++k) writer.append(0, 1, 90.0, 4.0);
  }
  const auto segments = WalReader(dir).scan().segments;
  ASSERT_EQ(segments.size(), 2u);
  // Simulate a crash during creation of the second segment: its header
  // never fully reached the disk.
  testing::FaultFile(segments[1].path).truncateTo(7);

  const WalScan repaired = WalReader(dir).repair();
  EXPECT_EQ(repaired.records, 2u);
  EXPECT_FALSE(std::filesystem::exists(segments[1].path));
  // The burned index is not reused.
  EXPECT_EQ(repaired.nextSegmentIndex, segments[1].index + 1);
}

TEST(Wal, SegmentsAreNeverReopened) {
  const std::string dir = freshDir("noreopen");
  { WalWriter writer(dir, {FsyncPolicy::kNone}); }
  // Same segment index again: must refuse, not append over history.
  EXPECT_THROW(WalWriter(dir, {FsyncPolicy::kNone}, 1, 1), StoreError);
}

TEST(FaultFile, OperationsAndBounds) {
  const std::string dir = freshDir("fault");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/victim.bin";
  writeFileBytes(path, std::string("abcdef"));

  testing::FaultFile fault(path);
  EXPECT_EQ(fault.size(), 6u);
  fault.flipByte(1);
  EXPECT_EQ(readFileBytes(path)[1], static_cast<char>('b' ^ 0xff));
  fault.flipBit(2, 0);
  EXPECT_EQ(readFileBytes(path)[2], static_cast<char>('c' ^ 0x01));
  fault.chopBytes(2);
  EXPECT_EQ(fault.size(), 4u);
  fault.truncateTo(1);
  EXPECT_EQ(fault.size(), 1u);

  EXPECT_THROW(fault.flipByte(1), std::runtime_error);   // Past end.
  EXPECT_THROW(fault.flipByte(0, 0), std::runtime_error);  // No-op mask.
  EXPECT_THROW(fault.flipBit(0, 8), std::runtime_error);
  EXPECT_THROW(fault.truncateTo(2), std::runtime_error);  // Would grow.
  EXPECT_THROW(fault.chopBytes(5), std::runtime_error);
  EXPECT_THROW(testing::FaultFile(dir + "/absent"), std::runtime_error);
}

}  // namespace
}  // namespace moloc::store
