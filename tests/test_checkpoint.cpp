#include "store/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/online_motion_database.hpp"
#include "env/floor_plan.hpp"
#include "store/fault_injection.hpp"
#include "store/format.hpp"

namespace moloc::store {
namespace {

std::string freshDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "moloc_ckpt_" + tag +
                          "_" + std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  return dir;
}

/// Bitwise equality of two intake states — the recovery contract is
/// "identical", not "close".
void expectIdenticalState(const core::OnlineMotionDatabase& a,
                          const core::OnlineMotionDatabase& b) {
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  EXPECT_EQ(sa.rngState, sb.rngState);
  ASSERT_EQ(sa.reservoirs.size(), sb.reservoirs.size());
  for (std::size_t p = 0; p < sa.reservoirs.size(); ++p) {
    EXPECT_EQ(sa.reservoirs[p].i, sb.reservoirs[p].i);
    EXPECT_EQ(sa.reservoirs[p].j, sb.reservoirs[p].j);
    EXPECT_EQ(sa.reservoirs[p].seen, sb.reservoirs[p].seen);
    ASSERT_EQ(sa.reservoirs[p].samples.size(),
              sb.reservoirs[p].samples.size());
    for (std::size_t k = 0; k < sa.reservoirs[p].samples.size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    sa.reservoirs[p].samples[k].directionDeg),
                std::bit_cast<std::uint64_t>(
                    sb.reservoirs[p].samples[k].directionDeg));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    sa.reservoirs[p].samples[k].offsetMeters),
                std::bit_cast<std::uint64_t>(
                    sb.reservoirs[p].samples[k].offsetMeters));
    }
  }
  ASSERT_EQ(sa.entries.size(), sb.entries.size());
  for (std::size_t e = 0; e < sa.entries.size(); ++e) {
    EXPECT_EQ(sa.entries[e].i, sb.entries[e].i);
    EXPECT_EQ(sa.entries[e].j, sb.entries[e].j);
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(sa.entries[e].stats.muDirectionDeg),
        std::bit_cast<std::uint64_t>(sb.entries[e].stats.muDirectionDeg));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  sa.entries[e].stats.sigmaDirectionDeg),
              std::bit_cast<std::uint64_t>(
                  sb.entries[e].stats.sigmaDirectionDeg));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(sa.entries[e].stats.muOffsetMeters),
        std::bit_cast<std::uint64_t>(sb.entries[e].stats.muOffsetMeters));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  sa.entries[e].stats.sigmaOffsetMeters),
              std::bit_cast<std::uint64_t>(
                  sb.entries[e].stats.sigmaOffsetMeters));
    EXPECT_EQ(sa.entries[e].stats.sampleCount,
              sb.entries[e].stats.sampleCount);
  }
  EXPECT_EQ(sa.counters.accepted, sb.counters.accepted);
}

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() {
    plan_.addReferenceLocation({2.0, 2.0});
    plan_.addReferenceLocation({6.0, 2.0});
    plan_.addReferenceLocation({10.0, 2.0});
  }

  /// A database with busy reservoirs: small capacity so eviction (and
  /// thus the RNG stream) is exercised.  Built behind a unique_ptr —
  /// the intake mutex makes the database immovable.
  std::unique_ptr<core::OnlineMotionDatabase> populatedDb(
      std::uint64_t seed = 7) {
    auto db = std::make_unique<core::OnlineMotionDatabase>(
        plan_, core::BuilderConfig{}, /*reservoirCapacity=*/4, seed);
    for (int k = 0; k < 40; ++k) {
      db->addObservation(k % 2, 1 + k % 2, 88.0 + 0.2 * (k % 9),
                         3.7 + 0.02 * (k % 11));
    }
    return db;
  }

  env::FloorPlan plan_{12.0, 4.0};
};

TEST_F(CheckpointTest, SnapshotRestoreRoundTripsAndStaysInLockstep) {
  auto originalPtr = populatedDb();
  auto& original = *originalPtr;
  core::OnlineMotionDatabase restored(plan_, {}, 4, /*seed=*/999);
  restored.restore(original.snapshot());
  expectIdenticalState(original, restored);

  // The real contract: after restore, the two databases evolve in
  // lockstep — same acceptances, same evictions, same refits.
  for (int k = 0; k < 30; ++k) {
    const bool a = original.addObservation(0, 2, 89.5, 7.9 + 0.01 * k);
    const bool b = restored.addObservation(0, 2, 89.5, 7.9 + 0.01 * k);
    EXPECT_EQ(a, b);
  }
  expectIdenticalState(original, restored);
}

TEST_F(CheckpointTest, FileRoundTripIsExact) {
  const std::string dir = freshDir("roundtrip");
  auto dbPtr = populatedDb();
  auto& db = *dbPtr;

  CheckpointData data;
  data.throughSeq = 42;
  data.snapshot = db.snapshot();
  const std::string path = writeCheckpointFile(dir, data);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, 42u);
  EXPECT_EQ(loaded->skippedInvalid, 0u);

  core::OnlineMotionDatabase restored(plan_);
  restored.restore(loaded->data.snapshot);
  expectIdenticalState(db, restored);
}

TEST_F(CheckpointTest, CommittedFileReloadsAndRewritesByteForByte) {
  // The committed seed was produced by the checkpoint writer from
  // populatedDb() at throughSeq 40.  Loading it and writing it back
  // must reproduce it exactly: the on-disk format is pinned by bytes
  // already on disk, not just by a round trip through today's code.
  const auto readBytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string committed = readBytes(
      std::string(MOLOC_FUZZ_CORPUS_DIR) + "/checkpoint/no-fingerprints.bin");
  ASSERT_FALSE(committed.empty());

  const std::string dir = freshDir("committed");
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/checkpoint-00000000000000000040.ckpt",
                std::ios::binary)
      << committed;
  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, 40u);
  EXPECT_EQ(loaded->skippedInvalid, 0u);

  core::OnlineMotionDatabase restored(plan_);
  restored.restore(loaded->data.snapshot);
  expectIdenticalState(*populatedDb(), restored);

  const std::string path =
      writeCheckpointFile(freshDir("rewritten"), loaded->data);
  EXPECT_EQ(readBytes(path), committed);
}

TEST_F(CheckpointTest, EmptyDirectoryLoadsNothing) {
  EXPECT_FALSE(loadNewestCheckpoint(freshDir("none")).has_value());
}

TEST_F(CheckpointTest, CorruptNewestFallsBackToOlder) {
  const std::string dir = freshDir("fallback");
  auto dbPtr = populatedDb();
  auto& db = *dbPtr;

  CheckpointData older;
  older.throughSeq = 10;
  older.snapshot = db.snapshot();
  writeCheckpointFile(dir, older);

  db.addObservation(0, 1, 90.0, 4.0);
  CheckpointData newer;
  newer.throughSeq = 20;
  newer.snapshot = db.snapshot();
  const std::string newerPath = writeCheckpointFile(dir, newer);

  testing::FaultFile(newerPath).flipByte(100);

  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, 10u);
  EXPECT_EQ(loaded->skippedInvalid, 1u);
  // The corrupt file is evidence; loading must not delete it.
  EXPECT_TRUE(std::filesystem::exists(newerPath));
}

TEST_F(CheckpointTest, StrayTmpAndForeignFilesAreIgnored) {
  const std::string dir = freshDir("stray");
  CheckpointData data;
  data.throughSeq = 5;
  data.snapshot = core::OnlineMotionDatabase(plan_).snapshot();
  const std::string path = writeCheckpointFile(dir, data);

  // A crash mid-publish leaves a .tmp; operators leave notes.
  std::ofstream(path + ".tmp") << "torn half-written checkpoint";
  std::ofstream(dir + "/README") << "not a checkpoint";
  std::ofstream(dir + "/checkpoint-99999999999999999999.ckpt.bak") << "x";

  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, 5u);
  EXPECT_EQ(loaded->skippedInvalid, 0u);
}

TEST_F(CheckpointTest, NameContentSeqMismatchIsSkipped) {
  const std::string dir = freshDir("mismatch");
  CheckpointData data;
  data.throughSeq = 5;
  data.snapshot = core::OnlineMotionDatabase(plan_).snapshot();
  const std::string path = writeCheckpointFile(dir, data);
  // Forge a "newer" checkpoint by renaming: contents still say 5.
  std::filesystem::rename(
      path, dir + "/checkpoint-00000000000000000009.ckpt");
  EXPECT_FALSE(loadNewestCheckpoint(dir).has_value());
}

TEST_F(CheckpointTest, PruneKeepsNewest) {
  const std::string dir = freshDir("prune");
  CheckpointData data;
  data.snapshot = core::OnlineMotionDatabase(plan_).snapshot();
  for (std::uint64_t seq : {3u, 7u, 11u, 15u}) {
    data.throughSeq = seq;
    writeCheckpointFile(dir, data);
  }
  EXPECT_EQ(pruneCheckpoints(dir, 2), 2u);
  const auto loaded = loadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->data.throughSeq, 15u);
  std::size_t remaining = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    remaining += entry.path().extension() == ".ckpt" ? 1 : 0;
  EXPECT_EQ(remaining, 2u);
  EXPECT_THROW(pruneCheckpoints(dir, 0), std::invalid_argument);
}

TEST_F(CheckpointTest, RestoreValidatesAgainstThisDatabase) {
  auto dbPtr = populatedDb();
  auto& db = *dbPtr;
  const auto good = db.snapshot();

  {  // Wrong floor plan size.
    auto bad = good;
    bad.locationCount = 99;
    core::OnlineMotionDatabase target(plan_);
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  {  // Non-canonical pair key.
    auto bad = good;
    ASSERT_FALSE(bad.reservoirs.empty());
    std::swap(bad.reservoirs[0].i, bad.reservoirs[0].j);
    core::OnlineMotionDatabase target(plan_);
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  {  // Reservoir above capacity.
    auto bad = good;
    bad.capacity = 1;
    core::OnlineMotionDatabase target(plan_);
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  {  // Zero RNG state (xoshiro fixed point).
    auto bad = good;
    bad.rngState = {0, 0, 0, 0};
    core::OnlineMotionDatabase target(plan_);
    EXPECT_THROW(target.restore(bad), std::invalid_argument);
  }
  // A failed restore leaves the target untouched (strong guarantee).
  core::OnlineMotionDatabase target(plan_);
  auto bad = good;
  bad.locationCount = 99;
  try {
    target.restore(bad);
  } catch (const std::invalid_argument&) {
  }
  EXPECT_EQ(target.trackedPairs(), 0u);
  target.restore(good);  // And the good one still lands.
  expectIdenticalState(db, target);
}

}  // namespace
}  // namespace moloc::store
