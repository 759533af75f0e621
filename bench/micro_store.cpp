// Micro-benchmark of the durable state subsystem (src/store) and the
// venue-image cold-start path (src/image):
//
//   1. WAL append throughput under each fsync policy.  every_record is
//      bounded by device sync latency, every_n amortizes it over a
//      window, none measures the pure write() + CRC path.  Record
//      counts are scaled per policy so each run takes comparable wall
//      time.  Each row's `seconds` is the median of 5 runs, as in
//      section 2: a single run spreads by more than ±20 %.
//   2. Recovery time vs WAL length: a log of N accepted observations
//      is replayed through the normal OnlineMotionDatabase intake (the
//      bit-identical path store::recover uses), with and without a
//      checkpoint covering the full log — the difference is what a
//      checkpoint buys at restart.  Median of 5 runs per row.
//   3. Cold start vs venue size (campus-1k .. campus-64k): time from
//      "files on disk" to "the three serving structures are ready"
//      (FingerprintDatabase + MotionAdjacency + TieredIndex), along
//      four paths:
//        text_load          — legacy text radio map + motion db parse,
//                             then CSR + index rebuild (the ROADMAP
//                             item-2 baseline)
//        binary_deserialize — venue image via the read() fallback:
//                             whole-file read + full CRC + views over
//                             the private heap copy
//        mmap_image_full    — mmap + CRC every section
//        mmap_image_bulk    — mmap + metadata-only CRC (the
//                             millisecond cold-attach path)
//      Every loaded variant answers one probe query bitwise-identical
//      to the generator's own database before its time is accepted.
//      Times are process cold start with a warm page cache — the
//      restart/failover case the image format exists for.
//
// Output: tables on stdout plus the machine-readable snapshot
// bench_results/BENCH_micro_store.json (schema in
// docs/performance.md), gated by tools/check_bench_json.py in CI.
//
// Modes: the no-arg default sweeps cold start at 1k/4k/16k; --full
// adds the 64k venue the acceptance numbers quote; --smoke is the
// minimal perf-smoke run (1k only, shortened append/recovery loops).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/online_motion_database.hpp"
#include "core/world_snapshot.hpp"
#include "env/floor_plan.hpp"
#include "image/image_loader.hpp"
#include "image/image_writer.hpp"
#include "index/tiered_index.hpp"
#include "io/serialization.hpp"
#include "kernel/motion_kernel.hpp"
#include "radio/fingerprint_database.hpp"
#include "store/state_store.hpp"
#include "store/wal.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "worldgen/generated_venue.hpp"
#include "worldgen/venue_spec.hpp"

namespace {

using namespace moloc;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kProbeTopK = 8;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string scratchDir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("moloc_micro_store_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A corridor with three reference locations; every benchmark record
/// is an accepted observation on it.
env::FloorPlan benchPlan() {
  env::FloorPlan plan(12.0, 4.0);
  plan.addReferenceLocation({2.0, 2.0});
  plan.addReferenceLocation({6.0, 2.0});
  plan.addReferenceLocation({10.0, 2.0});
  return plan;
}

struct AppendRow {
  std::string policy;
  std::uint64_t records = 0;
  double seconds = 0.0;
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes = 0;
};

/// Timed runs behind each WAL append and recovery row.  One run of
/// these spreads by more than ±20 % run to run on the same binary; the
/// row reports the median.
constexpr int kWalRuns = 5;

double medianOfRuns(const std::function<double()>& run) {
  std::vector<double> samples;
  for (int i = 0; i < kWalRuns; ++i) samples.push_back(run());
  std::nth_element(samples.begin(), samples.begin() + kWalRuns / 2,
                   samples.end());
  return samples[kWalRuns / 2];
}

AppendRow benchAppend(const std::string& name, store::WalConfig config,
                      std::uint64_t records) {
  AppendRow row;
  row.policy = name;
  row.records = records;
  row.seconds = medianOfRuns([&] {
    const std::string dir = scratchDir("append_" + name);
    double seconds = 0.0;
    {
      store::WalWriter writer(dir, config);
      const auto start = Clock::now();
      for (std::uint64_t k = 0; k < records; ++k)
        writer.append(static_cast<env::LocationId>(k % 2),
                      static_cast<env::LocationId>(1 + k % 2),
                      88.0 + 0.2 * static_cast<double>(k % 9),
                      3.7 + 0.02 * static_cast<double>(k % 11));
      writer.sync();
      seconds = secondsSince(start);
      row.fsyncs = writer.stats().fsyncs;
      row.bytes = writer.stats().bytes;
    }
    std::filesystem::remove_all(dir);
    return seconds;
  });
  return row;
}

struct RecoveryRow {
  std::uint64_t walRecords = 0;
  bool checkpointed = false;
  double seconds = 0.0;
  std::uint64_t replayed = 0;
};

/// Builds a store holding `records` accepted observations, optionally
/// checkpointing at the end, then times a cold recover() (median of
/// kWalRuns, each on a freshly built store).
RecoveryRow benchRecovery(const env::FloorPlan& plan,
                          std::uint64_t records, bool checkpointed) {
  RecoveryRow row;
  row.walRecords = records;
  row.checkpointed = checkpointed;
  row.seconds = medianOfRuns([&] {
    const std::string dir = scratchDir(
        "recover_" + std::to_string(records) +
        (checkpointed ? "_ckpt" : "_wal"));
    {
      core::OnlineMotionDatabase db(plan, {}, /*reservoirCapacity=*/64,
                                    /*seed=*/7);
      store::StoreConfig config;
      config.wal.fsync = store::FsyncPolicy::kNone;
      store::StateStore store(dir, config);
      db.setSink(&store);
      for (std::uint64_t k = 0; k < records; ++k)
        db.addObservation(static_cast<env::LocationId>(k % 2),
                          static_cast<env::LocationId>(1 + k % 2),
                          88.0 + 0.2 * static_cast<double>(k % 9),
                          3.7 + 0.02 * static_cast<double>(k % 11));
      if (checkpointed) store.checkpointNow(db);
    }
    core::OnlineMotionDatabase db(plan, {}, 64, 7);
    const auto start = Clock::now();
    const auto result = store::recover(dir, db);
    const double seconds = secondsSince(start);
    row.replayed = result.replayedRecords;
    std::filesystem::remove_all(dir);
    return seconds;
  });
  return row;
}

// ---- Cold start: text parse vs binary deserialize vs mmap ----------

struct ColdVariant {
  std::string name;
  double seconds = 0.0;      ///< Best of `reps` runs.
  double meanSeconds = 0.0;
};

struct ColdStartRow {
  std::size_t locations = 0;
  std::size_t apCount = 0;
  std::uint64_t textBytes = 0;
  std::uint64_t imageBytes = 0;
  double imageWriteSeconds = 0.0;
  std::vector<ColdVariant> variants;  ///< text_load first.
};

bool matchesBitwise(const std::vector<radio::Match>& a,
                    const std::vector<radio::Match>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].location != b[i].location ||
        a[i].dissimilarity != b[i].dissimilarity ||
        a[i].probability != b[i].probability)
      return false;
  return true;
}

/// The loaded structures a cold-start variant must produce before its
/// clock stops: the radio map, the CSR adjacency, and the index.
struct LoadedWorld {
  std::shared_ptr<const radio::FingerprintDatabase> fingerprints;
  std::shared_ptr<const kernel::MotionAdjacency> adjacency;
  std::shared_ptr<const index::TieredIndex> index;
};

ColdVariant timeColdVariant(
    const std::string& name, std::size_t reps,
    const radio::Fingerprint& probe,
    const std::vector<radio::Match>& expected,
    const std::function<LoadedWorld()>& loadOnce) {
  ColdVariant variant;
  variant.name = name;
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    const LoadedWorld world = loadOnce();
    samples.push_back(secondsSince(start));

    // Correctness guard, outside the timed region: a load path that
    // got faster by serving different bytes is not a data point.
    std::vector<radio::Match> got;
    world.fingerprints->queryInto(probe, kProbeTopK, got);
    if (!matchesBitwise(got, expected)) {
      std::fprintf(stderr,
                   "FAIL: %s served a probe query differing from the "
                   "generator's database\n",
                   name.c_str());
      std::exit(EXIT_FAILURE);
    }
    if (world.adjacency == nullptr || world.index == nullptr) {
      std::fprintf(stderr, "FAIL: %s produced an incomplete world\n",
                   name.c_str());
      std::exit(EXIT_FAILURE);
    }
  }
  double best = samples.front();
  double sum = 0.0;
  for (const double s : samples) {
    best = std::min(best, s);
    sum += s;
  }
  variant.seconds = best;
  variant.meanSeconds = sum / static_cast<double>(samples.size());
  return variant;
}

ColdStartRow benchColdStart(std::size_t locations, std::size_t reps) {
  const std::string dir =
      scratchDir("cold_" + std::to_string(locations));
  const std::string radioPath = dir + "/radio_map.txt";
  const std::string motionPath = dir + "/motion_db.txt";
  const std::string imagePath = dir + "/venue.img";

  // Setup (untimed): generate the venue, build the index once, publish
  // both the legacy text pair and the venue image.
  worldgen::VenueSpec spec = worldgen::venueSpecForLocations(locations);
  const worldgen::GeneratedVenue venue(spec);
  const std::shared_ptr<const radio::FingerprintDatabase> db =
      venue.sharedFingerprints();
  index::IndexConfig indexConfig;
  const auto index = std::make_shared<const index::TieredIndex>(
      db, indexConfig, venue.shardStarts());
  const core::WorldSnapshot world(db, venue.motion(), /*generation=*/1,
                                  /*intakeRecords=*/0, index);

  io::saveFingerprintDatabase(*db, radioPath);
  io::saveMotionDatabase(venue.motion(), motionPath);

  ColdStartRow row;
  row.locations = venue.locationCount();
  row.apCount = venue.apCount();
  row.textBytes =
      static_cast<std::uint64_t>(std::filesystem::file_size(radioPath)) +
      static_cast<std::uint64_t>(std::filesystem::file_size(motionPath));
  {
    const auto start = Clock::now();
    row.imageBytes = image::writeVenueImage(imagePath, world).bytes;
    row.imageWriteSeconds = secondsSince(start);
  }

  // The probe every variant must answer identically (drawn outside the
  // timed region, fixed across variants).
  util::Rng rng(spec.seed * 6151 + locations);
  const radio::Fingerprint probe = venue.scanAt(
      static_cast<env::LocationId>(rng.uniformIndex(row.locations)), 0.0,
      rng);
  std::vector<radio::Match> expected;
  db->queryInto(probe, kProbeTopK, expected);

  const std::vector<std::size_t> shardStarts = venue.shardStarts();
  row.variants.push_back(timeColdVariant(
      "text_load", reps, probe, expected, [&]() -> LoadedWorld {
        LoadedWorld loaded;
        loaded.fingerprints =
            std::make_shared<const radio::FingerprintDatabase>(
                io::loadFingerprintDatabase(radioPath));
        const core::MotionDatabase motion =
            io::loadMotionDatabase(motionPath);
        loaded.adjacency =
            std::make_shared<const kernel::MotionAdjacency>(motion);
        loaded.index = std::make_shared<const index::TieredIndex>(
            loaded.fingerprints, indexConfig, shardStarts);
        return loaded;
      }));

  const auto imageVariant = [&](const char* name,
                                image::LoadOptions options) {
    row.variants.push_back(timeColdVariant(
        name, reps, probe, expected, [&]() -> LoadedWorld {
          const image::VenueImage img =
              image::VenueImage::open(imagePath, options);
          return LoadedWorld{img.fingerprints(), img.adjacency(),
                             img.tieredIndex()};
        }));
  };
  imageVariant("binary_deserialize",
               {image::LoadMode::kReadFallback, image::VerifyMode::kFull});
  imageVariant("mmap_image_full",
               {image::LoadMode::kMmap, image::VerifyMode::kFull});
  imageVariant("mmap_image_bulk", {image::LoadMode::kMmap,
                                   image::VerifyMode::kBulkUnverified});

  std::filesystem::remove_all(dir);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "Durable-store and venue-image cold-start benchmark "
      "(emits bench_results/BENCH_micro_store.json)");
  args.addSwitch("smoke",
                 "minimal fast run for CI (1k cold start, short loops)");
  args.addSwitch("full",
                 "full acceptance sweep including the 64k venue");
  try {
    if (!args.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_store: %s\n%s", e.what(),
                 args.usage().c_str());
    return 2;
  }
  const bool smoke = args.getSwitch("smoke");
  const bool full = args.getSwitch("full");

  std::printf("== micro_store: WAL append throughput ==\n");
  std::printf("%-14s %10s %10s %14s %10s %8s\n", "policy", "records",
              "seconds", "records/s", "MB/s", "fsyncs");

  std::vector<AppendRow> appendRows;
  {
    store::WalConfig everyRecord;
    everyRecord.fsync = store::FsyncPolicy::kEveryRecord;
    appendRows.push_back(
        benchAppend("every_record", everyRecord, smoke ? 100 : 500));

    store::WalConfig everyN;
    everyN.fsync = store::FsyncPolicy::kEveryN;
    everyN.fsyncEveryN = 64;
    appendRows.push_back(
        benchAppend("every_n_64", everyN, smoke ? 4000 : 20000));

    store::WalConfig none;
    none.fsync = store::FsyncPolicy::kNone;
    appendRows.push_back(
        benchAppend("none", none, smoke ? 40000 : 200000));
  }
  for (const auto& row : appendRows) {
    const double rps = static_cast<double>(row.records) / row.seconds;
    const double mbps = static_cast<double>(row.bytes) / row.seconds /
                        (1024.0 * 1024.0);
    std::printf("%-14s %10llu %10.4f %14.0f %10.2f %8llu\n",
                row.policy.c_str(),
                static_cast<unsigned long long>(row.records), row.seconds,
                rps, mbps, static_cast<unsigned long long>(row.fsyncs));
  }

  std::printf("\n== micro_store: recovery time vs WAL length ==\n");
  std::printf("%-12s %12s %10s %14s\n", "wal_records", "checkpointed",
              "seconds", "replayed/s");
  const auto plan = benchPlan();
  std::vector<RecoveryRow> recoveryRows;
  std::vector<std::uint64_t> recoverySizes{1000, 5000};
  if (!smoke) {
    recoverySizes.push_back(20000);
    recoverySizes.push_back(50000);
  }
  for (const std::uint64_t records : recoverySizes) {
    recoveryRows.push_back(benchRecovery(plan, records, false));
    recoveryRows.push_back(benchRecovery(plan, records, true));
  }
  for (const auto& row : recoveryRows) {
    const double rps =
        row.replayed == 0
            ? 0.0
            : static_cast<double>(row.replayed) / row.seconds;
    std::printf("%-12llu %12s %10.4f %14.0f\n",
                static_cast<unsigned long long>(row.walRecords),
                row.checkpointed ? "yes" : "no", row.seconds, rps);
  }

  std::printf("\n== micro_store: cold start vs venue size ==\n");
  std::printf("  %9s %5s %10s %10s %12s %12s %12s %12s\n", "locations",
              "aps", "text_mb", "image_mb", "text_s", "binary_s",
              "mmap_full_s", "mmap_bulk_s");

  std::vector<std::size_t> coldSizes{1024};
  if (!smoke) {
    coldSizes.push_back(4096);
    coldSizes.push_back(16384);
  }
  if (full) coldSizes.push_back(65536);

  std::vector<ColdStartRow> coldRows;
  for (const std::size_t locations : coldSizes) {
    // One rep at the big sizes (the text parse alone runs minutes at
    // 64k); best-of-3 where reruns are cheap enough to smooth noise.
    const std::size_t reps = locations >= 16384 ? 1 : 3;
    coldRows.push_back(benchColdStart(locations, reps));
    const ColdStartRow& r = coldRows.back();
    std::printf("  %9zu %5zu %10.1f %10.1f %12.4f %12.4f %12.4f %12.4f\n",
                r.locations, r.apCount,
                static_cast<double>(r.textBytes) / (1024.0 * 1024.0),
                static_cast<double>(r.imageBytes) / (1024.0 * 1024.0),
                r.variants[0].seconds, r.variants[1].seconds,
                r.variants[2].seconds, r.variants[3].seconds);
  }
  {
    const ColdStartRow& r = coldRows.back();
    const double text = r.variants[0].seconds;
    const double bulk = r.variants[3].seconds;
    std::printf("  at %zu locations: mmap_image_bulk %.1fx faster than "
                "text_load (%.4fs vs %.4fs)\n",
                r.locations, bulk > 0.0 ? text / bulk : 0.0, bulk, text);
  }
  std::printf("  determinism: every load path answered the probe query "
              "bitwise-identical to the generator's database\n");

  bench::JsonWriter json;
  json.beginObject()
      .field("bench", "micro_store")
      .field("schema_version", 1.0);
  json.beginObject("config")
      .field("smoke", smoke)
      .field("full", full)
      .endObject();

  json.beginArray("append");
  for (const auto& row : appendRows) {
    json.beginObject()
        .field("policy", row.policy)
        .field("records", static_cast<double>(row.records))
        .field("seconds", row.seconds)
        .field("records_per_sec",
               static_cast<double>(row.records) / row.seconds)
        .field("mb_per_sec", static_cast<double>(row.bytes) /
                                 row.seconds / (1024.0 * 1024.0))
        .field("fsyncs", static_cast<double>(row.fsyncs))
        .endObject();
  }
  json.endArray();

  json.beginArray("recovery");
  for (const auto& row : recoveryRows) {
    json.beginObject()
        .field("wal_records", static_cast<double>(row.walRecords))
        .field("checkpointed", row.checkpointed)
        .field("seconds", row.seconds)
        .field("records_per_sec",
               row.replayed == 0
                   ? 0.0
                   : static_cast<double>(row.replayed) / row.seconds)
        .endObject();
  }
  json.endArray();

  json.beginArray("cold_start");
  for (const ColdStartRow& r : coldRows) {
    const double text = r.variants[0].seconds;
    json.beginObject()
        .field("locations", static_cast<double>(r.locations))
        .field("ap_count", static_cast<double>(r.apCount))
        .field("text_bytes", static_cast<double>(r.textBytes))
        .field("image_bytes", static_cast<double>(r.imageBytes))
        .field("image_write_seconds", r.imageWriteSeconds);
    json.beginArray("variants");
    for (const ColdVariant& v : r.variants) {
      json.beginObject()
          .field("name", v.name)
          .field("seconds", v.seconds)
          .field("mean_seconds", v.meanSeconds)
          .field("speedup_vs_text",
                 v.seconds > 0.0 ? text / v.seconds : 0.0)
          .endObject();
    }
    json.endArray();
    json.endObject();
  }
  json.endArray();

  // Flat acceptance summary: the headline figure at the largest venue
  // measured, so the trajectory (and CI) need not walk the sweep.
  {
    const ColdStartRow& r = coldRows.back();
    const double text = r.variants[0].seconds;
    const double mmapFull = r.variants[2].seconds;
    const double mmapBulk = r.variants[3].seconds;
    json.beginObject("cold_start_summary")
        .field("max_locations", static_cast<double>(r.locations))
        .field("speedup_mmap_full_vs_text",
               mmapFull > 0.0 ? text / mmapFull : 0.0)
        .field("speedup_mmap_bulk_vs_text",
               mmapBulk > 0.0 ? text / mmapBulk : 0.0)
        .endObject();
  }
  json.field("determinism_bitwise", true).endObject();

  const std::string jsonPath =
      bench::resultsDir() + "/BENCH_micro_store.json";
  if (json.writeTo(jsonPath))
    std::printf("  perf trajectory: %s\n", jsonPath.c_str());
  return EXIT_SUCCESS;
}
