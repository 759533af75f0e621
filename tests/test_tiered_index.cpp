#include "index/tiered_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/world_snapshot.hpp"
#include "kernel/fingerprint_kernel.hpp"
#include "radio/fingerprint_database.hpp"
#include "util/rng.hpp"
#include "worldgen/generated_venue.hpp"
#include "worldgen/venue_spec.hpp"

namespace moloc::index {
namespace {

constexpr double kFloorDbm = -100.0;

/// A radio map with sparse AP visibility: each location hears a
/// seeded subset of the APs, everything else sits at the detection
/// floor — the shape worldgen produces and the index is built for.
std::shared_ptr<radio::FingerprintDatabase> makeSparseDb(
    std::size_t locations, std::size_t apCount, std::uint64_t seed) {
  auto db = std::make_shared<radio::FingerprintDatabase>();
  util::Rng rng(seed);
  for (std::size_t loc = 0; loc < locations; ++loc) {
    std::vector<double> rss(apCount, kFloorDbm);
    // Hear a contiguous window of APs (mimics floor locality) plus a
    // couple of random extras.
    const std::size_t windowStart =
        (loc * apCount / std::max<std::size_t>(locations, 1)) %
        apCount;
    for (std::size_t i = 0; i < std::min<std::size_t>(4, apCount); ++i)
      rss[(windowStart + i) % apCount] = rng.uniform(-90.0, -40.0);
    rss[static_cast<std::size_t>(
        rng.uniformIndex(static_cast<std::uint64_t>(apCount)))] =
        rng.uniform(-95.0, -45.0);
    db->addLocation(static_cast<env::LocationId>(loc),
                    radio::Fingerprint(std::move(rss)));
  }
  return db;
}

radio::Fingerprint makeQuery(std::size_t apCount, util::Rng& rng) {
  std::vector<double> rss(apCount, kFloorDbm);
  const std::size_t start = static_cast<std::size_t>(
      rng.uniformIndex(static_cast<std::uint64_t>(apCount)));
  for (std::size_t i = 0; i < std::min<std::size_t>(4, apCount); ++i)
    rss[(start + i) % apCount] = rng.uniform(-92.0, -42.0);
  return radio::Fingerprint(std::move(rss));
}

void expectBitwiseEqual(const std::vector<radio::Match>& exact,
                        const std::vector<radio::Match>& tiered) {
  ASSERT_EQ(exact.size(), tiered.size());
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ(exact[i].location, tiered[i].location) << "rank " << i;
    EXPECT_EQ(std::memcmp(&exact[i].dissimilarity,
                          &tiered[i].dissimilarity, sizeof(double)),
              0)
        << "rank " << i;
    EXPECT_EQ(std::memcmp(&exact[i].probability, &tiered[i].probability,
                          sizeof(double)),
              0)
        << "rank " << i;
  }
}

TEST(TieredIndexTest, BitwiseIdenticalToExactQuery) {
  const auto db = makeSparseDb(1500, 24, 99);
  IndexConfig config;
  config.maxShardEntries = 256;
  config.exhaustiveCheck = true;  // Throws on any recall miss.
  const TieredIndex index(db, config);
  EXPECT_GT(index.shardCount(), 1u);

  util::Rng rng(5);
  std::vector<radio::Match> exact;
  std::vector<radio::Match> tiered;
  for (int trial = 0; trial < 40; ++trial) {
    const radio::Fingerprint query = makeQuery(24, rng);
    for (const std::size_t k : {1u, 3u, 12u, 64u}) {
      db->queryInto(query, k, exact);
      QueryStats stats;
      index.queryInto(query, k, tiered, &stats);
      expectBitwiseEqual(exact, tiered);
      EXPECT_EQ(stats.missedTopK, 0u);
      EXPECT_GE(stats.shortlistSize, exact.size());
      EXPECT_LE(stats.scannedEntries, index.entryCount());
      EXPECT_EQ(stats.totalShards, index.shardCount());
    }
  }
}

TEST(TieredIndexTest, PrefilterPrunesShardsOnDisjointVisibility) {
  // Two "floors" hearing disjoint AP halves: a query heard only on
  // floor A must not need floor B's shard.
  auto db = std::make_shared<radio::FingerprintDatabase>();
  util::Rng rng(3);
  const std::size_t perFloor = 600;
  for (std::size_t loc = 0; loc < 2 * perFloor; ++loc) {
    std::vector<double> rss(8, kFloorDbm);
    const std::size_t base = loc < perFloor ? 0 : 4;
    for (std::size_t i = 0; i < 4; ++i)
      rss[base + i] = rng.uniform(-85.0, -45.0);
    db->addLocation(static_cast<env::LocationId>(loc),
                    radio::Fingerprint(std::move(rss)));
  }
  IndexConfig config;
  config.exhaustiveCheck = true;
  // A tight shortlist keeps the admission threshold close to the true
  // nearest entries so the disjoint floor's lower bound prunes it.
  config.minShortlist = 8;
  const std::vector<std::size_t> shardStarts{0, perFloor};
  const TieredIndex index(db, config, shardStarts);
  ASSERT_EQ(index.shardCount(), 2u);
  EXPECT_EQ(index.shardInfo(0).activeApCount, 4u);
  EXPECT_EQ(index.shardInfo(1).activeApCount, 4u);

  std::vector<double> rss(8, kFloorDbm);
  rss[0] = -60.0;
  rss[1] = -70.0;
  const radio::Fingerprint query{std::move(rss)};
  std::vector<radio::Match> tiered;
  QueryStats stats;
  index.queryInto(query, 8, tiered, &stats);
  EXPECT_EQ(stats.scannedShards, 1u);
  EXPECT_LE(stats.scannedEntries, perFloor);
  for (const auto& match : tiered) EXPECT_LT(match.location, perFloor);

  std::vector<radio::Match> exact;
  db->queryInto(query, 8, exact);
  expectBitwiseEqual(exact, tiered);
}

// The same two floors at the default shortlist: the admission
// threshold now sits far above the nearest entries, so the per-AP
// bucket ranges of the other floor (each starting near bucket 1) no
// longer prune it.  Its entries' bucket mass does: every floor-B entry
// hears all four of its APs, so its distance is at least its mass.
TEST(TieredIndexTest, MassBoundPrunesDisjointFloorAtDefaultShortlist) {
  auto db = std::make_shared<radio::FingerprintDatabase>();
  util::Rng rng(3);
  const std::size_t perFloor = 600;
  for (std::size_t loc = 0; loc < 2 * perFloor; ++loc) {
    std::vector<double> rss(8, kFloorDbm);
    const std::size_t base = loc < perFloor ? 0 : 4;
    for (std::size_t i = 0; i < 4; ++i)
      rss[base + i] = rng.uniform(-85.0, -45.0);
    db->addLocation(static_cast<env::LocationId>(loc),
                    radio::Fingerprint(std::move(rss)));
  }
  IndexConfig config;
  config.exhaustiveCheck = true;
  ASSERT_EQ(config.minShortlist, 96u);
  const std::vector<std::size_t> shardStarts{0, perFloor};
  const TieredIndex index(db, config, shardStarts);
  ASSERT_EQ(index.shardCount(), 2u);

  std::vector<double> rss(8, kFloorDbm);
  rss[0] = -60.0;
  rss[1] = -70.0;
  const radio::Fingerprint query{std::move(rss)};
  std::vector<radio::Match> tiered;
  QueryStats stats;
  index.queryInto(query, 8, tiered, &stats);
  EXPECT_EQ(stats.scannedShards, 1u);
  EXPECT_EQ(stats.scannedEntries, perFloor);

  std::vector<radio::Match> exact;
  db->queryInto(query, 8, exact);
  expectBitwiseEqual(exact, tiered);
}

/// Sum over APs of |bucket(query) - bucket(row)|, from the raw RSS.
std::uint32_t bruteForceBucketDistance(const radio::Fingerprint& query,
                                       std::span<const double> row,
                                       const QuantizerConfig& quantizer) {
  std::uint32_t distance = 0;
  for (std::size_t c = 0; c < row.size(); ++c) {
    const int q = quantizeRss(query[c], quantizer);
    const int e = quantizeRss(row[c], quantizer);
    distance += static_cast<std::uint32_t>(q > e ? q - e : e - q);
  }
  return distance;
}

// Black-box oracle for pruning: however many shards a query skips, the
// shortlist is every row whose bucket distance is within marginBuckets
// of the max(k, minShortlist)-th smallest over the whole map.
TEST(TieredIndexTest, ShortlistIsTheBruteForceAdmissionSetOnCampusVenues) {
  for (const char* preset : {"campus-1k", "campus-4k"}) {
    const worldgen::GeneratedVenue venue(worldgen::parseVenueSpec(preset));
    const auto db = venue.sharedFingerprints();
    const IndexConfig config;
    const TieredIndex index(db, config, venue.shardStarts());
    ASSERT_GT(index.shardCount(), 1u) << preset;

    util::Rng rng(17);
    std::size_t scannedEntries = 0;
    std::size_t queries = 0;
    std::vector<std::uint32_t> distances(db->size());
    std::vector<radio::Match> tiered;
    std::vector<radio::Match> exact;
    for (int trial = 0; trial < 30; ++trial) {
      const auto loc = static_cast<env::LocationId>(
          rng.uniformIndex(venue.locationCount()));
      const radio::Fingerprint query = venue.scanAt(loc, 0.0, rng);
      for (std::size_t r = 0; r < db->size(); ++r)
        distances[r] = bruteForceBucketDistance(
            query, db->entryAt(r).values(), config.quantizer);
      std::vector<std::uint32_t> sorted = distances;
      std::sort(sorted.begin(), sorted.end());
      for (const std::size_t k : {1u, 8u}) {
        const std::size_t wanted = std::max(k, config.minShortlist);
        const std::uint32_t admit =
            sorted[std::min(wanted, sorted.size()) - 1] +
            config.marginBuckets;
        const auto expected = static_cast<std::size_t>(std::count_if(
            distances.begin(), distances.end(),
            [admit](std::uint32_t d) { return d <= admit; }));

        QueryStats stats;
        index.queryInto(query, k, tiered, &stats);
        EXPECT_EQ(stats.shortlistSize, expected)
            << preset << " trial " << trial << " k " << k;
        db->queryInto(query, k, exact);
        expectBitwiseEqual(exact, tiered);
        scannedEntries += stats.scannedEntries;
        ++queries;
      }
    }
    // The oracle holds while the prefilter skips shards.
    EXPECT_LT(scannedEntries, queries * index.entryCount()) << preset;
  }
}

// Satellite: an unheard AP must behave identically through the exact
// kernel and the prefilter's presence plane — sweep a query pair that
// differs only in hearing vs not hearing one AP.
TEST(TieredIndexTest, UnheardApMatchesExactKernelSemantics) {
  auto db = std::make_shared<radio::FingerprintDatabase>();
  // Locations 0..9 hear AP 2 at increasing strength; 10..19 do not
  // hear it at all.  All hear APs 0-1 identically.
  for (std::size_t loc = 0; loc < 20; ++loc) {
    std::vector<double> rss{-50.0, -60.0, kFloorDbm};
    if (loc < 10) rss[2] = -90.0 + static_cast<double>(loc) * 4.0;
    db->addLocation(static_cast<env::LocationId>(loc),
                    radio::Fingerprint(std::move(rss)));
  }
  IndexConfig config;
  config.minShortlist = 4;
  config.exhaustiveCheck = true;
  const TieredIndex index(db, config);

  std::vector<radio::Match> exact;
  std::vector<radio::Match> tiered;
  for (double rss2 = kFloorDbm; rss2 <= -50.0; rss2 += 5.0) {
    const radio::Fingerprint query{{-50.0, -60.0, rss2}};
    for (const std::size_t k : {1u, 5u, 20u}) {
      db->queryInto(query, k, exact);
      index.queryInto(query, k, tiered);
      expectBitwiseEqual(exact, tiered);
    }
  }
}

// Satellite regression: pins Eq. 1/Eq. 4 for partially-overlapping AP
// sets — an AP one side does not hear contributes its full floor gap
// to the dissimilarity, through both backends.
TEST(TieredIndexTest, PinsDissimilarityForPartialOverlap) {
  auto db = std::make_shared<radio::FingerprintDatabase>();
  db->addLocation(0, radio::Fingerprint{{-60.0, kFloorDbm}});
  db->addLocation(1, radio::Fingerprint{{kFloorDbm, -60.0}});
  IndexConfig config;
  config.exhaustiveCheck = true;
  const TieredIndex index(db, config);

  // Query hears only AP 0, exactly like location 0.
  const radio::Fingerprint query{{-60.0, kFloorDbm}};
  std::vector<radio::Match> matches;
  index.queryInto(query, 2, matches);
  ASSERT_EQ(matches.size(), 2u);
  EXPECT_EQ(matches[0].location, 0u);
  EXPECT_EQ(matches[0].dissimilarity, 0.0);
  // phi = sqrt(40^2 + 40^2) against the non-overlapping twin.
  const double expected = std::sqrt(2.0) * 40.0;
  EXPECT_EQ(matches[1].location, 1u);
  EXPECT_EQ(matches[1].dissimilarity, expected);
  // Eq. 4 with the exported floor: exact match is floored to 0.5.
  const double invSum =
      1.0 / radio::kMinDissimilarity + 1.0 / expected;
  EXPECT_EQ(matches[0].probability,
            (1.0 / radio::kMinDissimilarity) / invSum);
  EXPECT_EQ(matches[1].probability, (1.0 / expected) / invSum);

  std::vector<radio::Match> exact;
  db->queryInto(query, 2, exact);
  expectBitwiseEqual(exact, matches);
}

TEST(TieredIndexTest, MirrorsQueryErrorContract) {
  const auto db = makeSparseDb(64, 6, 1);
  const TieredIndex index(db);
  std::vector<radio::Match> out;
  const radio::Fingerprint query{{-50, -50, -50, -50, -50, -50}};
  const radio::Fingerprint nanQuery{
      {-50, std::numeric_limits<double>::quiet_NaN(), -50, -50, -50,
       -50}};
  const radio::Fingerprint infQuery{
      {std::numeric_limits<double>::infinity(), -50, -50, -50, -50,
       -50}};
  const radio::Fingerprint shortQuery{{-50.0}};

  // Both backends reject the same inputs with the same exception types.
  EXPECT_THROW(index.queryInto(query, 0, out), std::invalid_argument);
  EXPECT_THROW(db->queryInto(query, 0, out), std::invalid_argument);
  EXPECT_THROW(index.queryInto(nanQuery, 3, out), std::invalid_argument);
  EXPECT_THROW(db->queryInto(nanQuery, 3, out), std::invalid_argument);
  EXPECT_THROW(index.queryInto(infQuery, 3, out), std::invalid_argument);
  EXPECT_THROW(db->queryInto(infQuery, 3, out), std::invalid_argument);
  EXPECT_THROW(index.queryInto(shortQuery, 3, out),
               std::invalid_argument);
  EXPECT_THROW(db->queryInto(shortQuery, 3, out), std::invalid_argument);

  const auto empty = std::make_shared<radio::FingerprintDatabase>();
  const TieredIndex emptyIndex(empty);
  EXPECT_EQ(emptyIndex.entryCount(), 0u);
  EXPECT_THROW(emptyIndex.queryInto(query, 3, out), std::logic_error);
  EXPECT_THROW(empty->queryInto(query, 3, out), std::logic_error);

  EXPECT_THROW(TieredIndex(nullptr), std::invalid_argument);

  IndexConfig bad;
  bad.maxShardEntries = 0;
  EXPECT_THROW(TieredIndex(db, bad), std::invalid_argument);
  bad = IndexConfig{};
  bad.quantizer.bucketCount = 1;
  EXPECT_THROW(TieredIndex(db, bad), std::invalid_argument);
}

TEST(TieredIndexTest, ValidatesShardStarts) {
  const auto db = makeSparseDb(100, 6, 2);
  const auto make = [&](std::vector<std::size_t> starts) {
    return TieredIndex(db, IndexConfig{},
                       std::span<const std::size_t>(starts));
  };
  EXPECT_NO_THROW(make({0, 50}));
  EXPECT_THROW(make({1, 50}), std::invalid_argument);
  EXPECT_THROW(make({0, 50, 50}), std::invalid_argument);
  EXPECT_THROW(make({0, 100}), std::invalid_argument);
}

TEST(TieredIndexTest, SplitsOversizedShards) {
  const auto db = makeSparseDb(1000, 6, 4);
  IndexConfig config;
  config.maxShardEntries = 128;
  const TieredIndex index(db, config);
  std::size_t covered = 0;
  for (std::size_t s = 0; s < index.shardCount(); ++s) {
    const ShardInfo info = index.shardInfo(s);
    EXPECT_EQ(info.rowBegin, covered);
    EXPECT_LE(info.rowEnd - info.rowBegin, config.maxShardEntries);
    covered = info.rowEnd;
  }
  EXPECT_EQ(covered, 1000u);
  EXPECT_THROW(index.shardInfo(index.shardCount()), std::out_of_range);
}

TEST(TieredIndexTest, WorldSnapshotOwnsIndexImmutably) {
  const auto db = makeSparseDb(300, 8, 21);
  auto index = std::make_shared<const TieredIndex>(db);
  const TieredIndex* raw = index.get();
  auto snapshot = std::make_shared<const core::WorldSnapshot>(
      db, core::MotionDatabase(300), 1, 0, index);
  index.reset();
  ASSERT_EQ(snapshot->tieredIndex().get(), raw);

  // The snapshot keeps the index (and its database) alive and
  // queryable.
  util::Rng rng(2);
  const radio::Fingerprint query = makeQuery(8, rng);
  std::vector<radio::Match> exact;
  db->queryInto(query, 4, exact);
  std::vector<radio::Match> tiered;
  snapshot->tieredIndex()->queryInto(query, 4, tiered);
  expectBitwiseEqual(exact, tiered);
}

// Named to match the sanitizer CI filters (TieredIndex.*): concurrent
// readers over one immutable index must be race-free (per-thread scan
// workspaces) and bitwise-deterministic.
TEST(TieredIndexTest, ConcurrentQueriesAreRaceFreeAndDeterministic) {
  const auto db = makeSparseDb(800, 12, 31);
  IndexConfig config;
  config.maxShardEntries = 200;
  const TieredIndex index(db, config);

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 50;
  std::vector<std::vector<radio::Match>> expected(kQueriesPerThread);
  {
    util::Rng rng(77);
    for (int q = 0; q < kQueriesPerThread; ++q)
      db->queryInto(makeQuery(12, rng), 8, expected[q]);
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Same stream as the expected pass: every thread replays the
      // identical query sequence concurrently.
      util::Rng rng(77);
      std::vector<radio::Match> out;
      for (int q = 0; q < kQueriesPerThread; ++q) {
        index.queryInto(makeQuery(12, rng), 8, out);
        if (out.size() != expected[q].size()) {
          ++mismatches[t];
          continue;
        }
        for (std::size_t i = 0; i < out.size(); ++i)
          if (out[i].location != expected[q][i].location ||
              std::memcmp(&out[i].dissimilarity,
                          &expected[q][i].dissimilarity,
                          sizeof(double)) != 0)
            ++mismatches[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
}

/// A random slab for the scan oracle: one bucket per (column, entry),
/// drawn half from the extremes 0 and B-1 and half uniformly, packed
/// word by word exactly as a shard packs them.  Every eighth entry is
/// 0 in all columns and the one after it B-1 in all columns, so the
/// extreme queries drive some counters to the maximum distance.  Bits
/// past the last entry are set at random: the scan must never read
/// them out.
std::vector<std::uint64_t> randomSlab(int bucketCount, std::size_t columns,
                                      std::size_t entries, util::Rng& rng) {
  const auto planeCount = static_cast<std::size_t>(bucketCount - 1);
  const std::size_t words = (entries + kBlockEntries - 1) / kBlockEntries;
  std::vector<std::uint64_t> slab(columns * planeCount * words);
  std::vector<std::uint8_t> buckets(kBlockEntries);
  std::vector<std::uint64_t> planes(planeCount);
  for (std::size_t a = 0; a < columns; ++a)
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t lanes =
          std::min(kBlockEntries, entries - w * kBlockEntries);
      for (std::size_t e = 0; e < lanes; ++e) {
        const std::size_t entry = w * kBlockEntries + e;
        const std::uint64_t pick =
            entry % 8 < 2 ? entry % 8 : rng.uniformIndex(4);
        buckets[e] = static_cast<std::uint8_t>(
            pick == 0   ? 0
            : pick == 1 ? planeCount
                        : rng.uniformIndex(planeCount + 1));
      }
      packThermometerPlanes({buckets.data(), lanes}, bucketCount, planes);
      const std::uint64_t past =
          lanes == kBlockEntries ? 0 : ~((std::uint64_t{1} << lanes) - 1);
      for (std::size_t t = 0; t < planeCount; ++t)
        slab[(a * planeCount + t) * words + w] =
            planes[t] | (rng.uniformIndex(2) ? past : 0);
    }
  return slab;
}

/// The oracle: sum over columns of |q - e|, with each entry's bucket
/// read back through unpackThermometerPlanes.
std::vector<std::uint32_t> bruteForceBucketDistances(
    const std::vector<std::uint64_t>& slab, int bucketCount,
    std::size_t columns, std::size_t entries,
    const std::vector<std::uint8_t>& query) {
  const auto planeCount = static_cast<std::size_t>(bucketCount - 1);
  const std::size_t words = (entries + kBlockEntries - 1) / kBlockEntries;
  std::vector<std::uint32_t> distances(entries, 0);
  std::vector<std::uint64_t> planes(planeCount);
  std::vector<std::uint8_t> buckets;
  for (std::size_t a = 0; a < columns; ++a)
    for (std::size_t w = 0; w < words; ++w) {
      const std::size_t lanes =
          std::min(kBlockEntries, entries - w * kBlockEntries);
      const std::uint64_t live = lanes == kBlockEntries
                                     ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << lanes) - 1;
      for (std::size_t t = 0; t < planeCount; ++t)
        planes[t] = slab[(a * planeCount + t) * words + w] & live;
      buckets.resize(lanes);
      unpackThermometerPlanes(planes, bucketCount, lanes, buckets);
      for (std::size_t e = 0; e < lanes; ++e)
        distances[w * kBlockEntries + e] += static_cast<std::uint32_t>(
            std::abs(int{query[a]} - int{buckets[e]}));
    }
  return distances;
}

// The prefilter's bucket-distance scan (kernel::bucketDistances) in
// both widths against a brute-force oracle.  Cases cover 1, 7 and 15
// planes and, at every plane count, counter depths up to 8 and above
// (the high-byte read-out), up to the full 16 bits.  Entry counts give
// 1, 4, 5, 8 and 33 words, with a partial last word in all but one, so
// the four-word AVX2 pass meets both a scalar tail and a partial group
// of its own.  Named TieredIndex* so the sanitizer jobs run it.
TEST(TieredIndexScanTest, AdderNetworkMatchesBruteForceInBothWidths) {
  struct Case {
    int bucketCount;
    std::size_t columns;
  };
  std::vector<Case> cases = {
      {2, 1},  {2, 255},  {2, 256},  {2, 40000},   // depth 1, 8, 9, 16
      {8, 3},  {8, 36},   {8, 37},   {8, 5000},    // depth 5, 8, 9, 16
      {16, 1}, {16, 17},  {16, 18},  {16, 2500},   // depth 4, 8, 9, 16
      {8, 0}};  // A shard no AP is heard in: every distance is 0.
  // Every other plane count once, at a depth above 8.
  for (int b = 3; b < 16; ++b)
    if (b != 8) cases.push_back({b, 300 / static_cast<std::size_t>(b - 1)});

  util::Rng rng(2024);
  for (const Case& c : cases) {
    const bool wide = c.columns * static_cast<std::size_t>(c.bucketCount - 1) >
                      (1u << 15);
    // The depth-16 slabs are large; one and five words cover them.
    const std::vector<std::size_t> entryCounts =
        wide ? std::vector<std::size_t>{37, 317}
             : std::vector<std::size_t>{37, 251, 317, 512, 2101};
    for (const std::size_t entries : entryCounts) {
      const auto slab = randomSlab(c.bucketCount, c.columns, entries, rng);
      const kernel::BucketPlanes planes{slab, c.columns, c.bucketCount - 1,
                                        entries};
      const auto top = static_cast<std::uint8_t>(c.bucketCount - 1);
      std::vector<std::vector<std::uint8_t>> queries = {
          std::vector<std::uint8_t>(c.columns, 0),
          std::vector<std::uint8_t>(c.columns, top),
          std::vector<std::uint8_t>(c.columns)};
      for (auto& q : queries.back())
        q = static_cast<std::uint8_t>(rng.uniformIndex(top + 1u));

      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const auto expected = bruteForceBucketDistances(
            slab, c.bucketCount, c.columns, entries, queries[qi]);
        // One sentinel slot past the end catches an overrun.
        constexpr std::uint32_t kSentinel = 0xDEADBEEFu;
        std::vector<std::uint32_t> dispatched(entries + 1, kSentinel);
        std::vector<std::uint32_t> scalar(entries + 1, kSentinel);
        kernel::bucketDistances(planes, queries[qi].data(),
                                dispatched.data());
        kernel::setForceScalar(true);
        kernel::bucketDistances(planes, queries[qi].data(), scalar.data());
        kernel::setForceScalar(false);
        const std::string where =
            "B=" + std::to_string(c.bucketCount) +
            " columns=" + std::to_string(c.columns) +
            " entries=" + std::to_string(entries) +
            " query=" + std::to_string(qi);
        EXPECT_EQ(dispatched.back(), kSentinel) << where;
        EXPECT_EQ(scalar.back(), kSentinel) << where;
        dispatched.pop_back();
        scalar.pop_back();
        EXPECT_EQ(dispatched, expected) << where;
        EXPECT_EQ(scalar, expected) << where;
      }
    }
  }
}

TEST(TieredIndexScanTest, RejectsMalformedSlabs) {
  const std::vector<std::uint64_t> slab(2 * 7 * 2, 0);  // 2 columns, 2 words.
  const std::vector<std::uint8_t> q = {3, 7};
  std::vector<std::uint32_t> out(100);
  EXPECT_NO_THROW(kernel::bucketDistances({slab, 2, 7, 100}, q.data(),
                                          out.data()));
  EXPECT_THROW(kernel::bucketDistances({slab, 2, 7, 129}, q.data(),
                                       out.data()),
               util::ConfigError);
  EXPECT_THROW(kernel::bucketDistances({slab, 2, 16, 100}, q.data(),
                                       out.data()),
               util::ConfigError);
  const std::vector<std::uint8_t> tooHigh = {3, 8};
  EXPECT_THROW(kernel::bucketDistances({slab, 2, 7, 100}, tooHigh.data(),
                                       out.data()),
               util::ConfigError);
}

}  // namespace
}  // namespace moloc::index
