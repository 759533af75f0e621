#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "index/signature_codec.hpp"
#include "radio/fingerprint_database.hpp"
#include "util/error.hpp"

namespace moloc::index {

/// Tuning for the tiered candidate index.
struct IndexConfig {
  QuantizerConfig quantizer;

  /// Upper bound on entries per shard; larger shards are split.  Small
  /// enough that one shard's bit slabs stay cache-resident during a
  /// scan, large enough to amortize the per-shard bound check.
  std::size_t maxShardEntries = 4096;

  /// Worker threads for construction-time slab building.  Shards are
  /// independent (each task quantizes and packs only its own row
  /// range), so the built planes are bitwise-identical at any thread
  /// count.  0 selects the hardware concurrency; the build stays
  /// serial whenever it resolves to 1 thread or there is only one
  /// shard.  Has no effect on queries.
  std::size_t buildThreads = 0;

  /// The prefilter shortlists at least this many candidates (when the
  /// map has them) regardless of k, absorbing quantization noise in
  /// the bucket-space ranking before the exact kernel re-ranks.
  std::size_t minShortlist = 96;

  /// Shortlist admission slack in bucket units: every entry whose
  /// bucket-space distance is within `marginBuckets` of the
  /// minShortlist-th best is kept.  Wider margins trade scan output
  /// size for recall headroom (docs/scaling.md).
  std::uint32_t marginBuckets = 8;

  /// Paranoid mode: after every query, run the exact full scan and
  /// throw util::StateError if the shortlist dropped any true top-k
  /// entry.  Orders of magnitude slower — for tests, benches, and
  /// recall audits only.
  bool exhaustiveCheck = false;
};

/// Per-query observability for benches and the exhaustive-check audit.
struct QueryStats {
  std::size_t shortlistSize = 0;
  std::size_t scannedShards = 0;
  std::size_t totalShards = 0;
  std::size_t scannedEntries = 0;
  /// True top-k rows missing from the shortlist; only counted (just
  /// before the throw) when IndexConfig::exhaustiveCheck is on.
  std::size_t missedTopK = 0;
};

/// Row-range and sparsity summary of one shard (tests, docs, benches).
struct ShardInfo {
  std::size_t rowBegin = 0;
  std::size_t rowEnd = 0;
  std::size_t activeApCount = 0;
};

/// One shard's raw storage, as spans: what the venue-image writer
/// serializes (TieredIndex::shardView) and what the image loader hands
/// back to TieredIndex::fromImageViews to reconstruct the index
/// without rebuilding a single plane.  Spans passed to fromImageViews
/// must outlive the index (the loader pins the mapping).
struct ShardView {
  std::size_t rowBegin = 0;
  std::size_t rowEnd = 0;
  /// Column indices of APs heard by at least one entry, strictly
  /// increasing.
  std::span<const std::uint32_t> activeAps;
  /// Per active AP: the shard-wide bucket range (1 <= max < B,
  /// min <= max).
  std::span<const std::uint8_t> minBucket;
  std::span<const std::uint8_t> maxBucket;
  /// Thermometer planes, plane-major: slab[(a*(B-1) + t)*words + w]
  /// with words = ceil((rowEnd - rowBegin) / 64).
  std::span<const std::uint64_t> slab;
};

/// The tiered candidate index of ROADMAP item 2: a coarse bit-sliced
/// prefilter in front of the exact AVX2 matching kernel.
///
/// The radio map is partitioned into shards of contiguous rows
/// (callers pass natural boundaries — worldgen supplies per-floor
/// starts — and oversized segments are split at maxShardEntries).
/// Each shard stores, for each AP *heard anywhere in the shard*, the
/// thermometer-coded bucket planes of every entry, bit-sliced so 64
/// entries are scanned per word op; bucket 0 ("not heard") makes the
/// lowest plane an explicit presence plane, and APs silent across a
/// whole shard are dropped from its slab entirely — that sparsity is
/// why a city-scale venue scans only the shards near the query.
///
/// A query quantizes once, orders shards by a per-shard lower bound on
/// the bucket-space L1 distance (silent-in-shard APs contribute their
/// full query bucket; active APs contribute their distance to the
/// shard's per-AP bucket range), scans shards in that order while
/// maintaining the running minShortlist-th best distance, and stops
/// once the next shard's bound exceeds it by more than marginBuckets.
/// The surviving shortlist is gathered in ascending row order and
/// re-ranked exactly by the kernel::squaredDistances /
/// selectSmallestK pipeline — so whenever the shortlist contains the
/// true top-k (audited by exhaustiveCheck), results are
/// bitwise-identical to FingerprintDatabase::queryInto, ties
/// included.
///
/// Immutable after construction; concurrent queries share nothing but
/// the slabs (per-thread scratch), which is what lets a WorldSnapshot
/// own one index across all serving threads.
class TieredIndex {
 public:
  /// Builds the index over `database` (shared ownership: the index
  /// reads the flat matrix in place and keeps the database alive).
  /// `shardStarts`, when non-empty, lists segment-starting rows
  /// (strictly increasing, first must be 0).  Throws
  /// std::invalid_argument on a null database, bad config, or bad
  /// shard starts.
  explicit TieredIndex(
      std::shared_ptr<const radio::FingerprintDatabase> database,
      IndexConfig config = {},
      std::span<const std::size_t> shardStarts = {});

  /// Zero-copy reconstruction from a venue image (src/image): adopts
  /// the already-built shard slabs as non-owning views instead of
  /// quantizing and packing planes — queries are bitwise-identical to
  /// the originally built index.  `database` is typically the image's
  /// own view database; the spans in `shards` must outlive the index.
  /// Validates the cheap structural invariants (shards partition the
  /// rows, activeAps strictly increasing and in range, bucket ranges
  /// sane, slab sizes exact) and throws std::invalid_argument on any
  /// violation; slab *content* integrity is the image's CRC contract.
  static TieredIndex fromImageViews(
      std::shared_ptr<const radio::FingerprintDatabase> database,
      IndexConfig config, std::span<const ShardView> shards);

  /// An index is shared immutably behind shared_ptr by every snapshot
  /// and session; copying one (and dangling a view shard's spans) is
  /// never intended.
  TieredIndex(const TieredIndex&) = delete;
  TieredIndex& operator=(const TieredIndex&) = delete;
  TieredIndex(TieredIndex&&) = default;
  TieredIndex& operator=(TieredIndex&&) = default;

  const IndexConfig& config() const { return config_; }
  std::size_t entryCount() const { return rowValues_.size(); }
  std::size_t shardCount() const { return shards_.size(); }
  ShardInfo shardInfo(std::size_t shard) const;

  /// The raw storage of one shard, for the venue-image writer and
  /// white-box tests.  Spans are valid while the index lives.
  ShardView shardView(std::size_t shard) const;
  const std::shared_ptr<const radio::FingerprintDatabase>& database()
      const {
    return db_;
  }

  /// Drop-in for FingerprintDatabase::queryInto — same validation,
  /// same exceptions, and (given full shortlist recall) bitwise the
  /// same matches.  `stats`, when non-null, receives per-query scan
  /// observability.
  void queryInto(const radio::Fingerprint& query, std::size_t k,
                 std::vector<radio::Match>& out,
                 QueryStats* stats = nullptr) const;

 private:
  /// One shard: the scan path reads only the spans, which point either
  /// at the *Storage vectors (built here) or into an mmap'd venue
  /// image (fromImageViews) — the heap buffers behind the vectors are
  /// address-stable across Shard moves, so the spans survive shards_
  /// growth and TieredIndex moves.
  struct Shard {
    std::size_t rowBegin = 0;
    std::size_t rowEnd = 0;
    std::size_t words = 0;  ///< ceil(entries / 64).
    std::vector<std::uint32_t> activeApStorage;
    std::vector<std::uint8_t> minBucketStorage;
    std::vector<std::uint8_t> maxBucketStorage;
    std::vector<std::uint64_t> slabStorage;
    /// Column indices of APs heard by at least one entry.
    std::span<const std::uint32_t> activeAps;
    /// Per active AP: bucket range across the shard's entries, for
    /// the query-time lower bound.
    std::span<const std::uint8_t> minBucket;
    std::span<const std::uint8_t> maxBucket;
    /// Thermometer planes, plane-major:
    /// slab[(a * (B-1) + t) * words + w].
    std::span<const std::uint64_t> slab;
    /// Bits per vertical scan counter: bit_width(activeAps * (B-1)).
    int counterDepth = 0;
  };

  struct ScanWorkspace;
  static ScanWorkspace& threadWorkspace();

  /// Used by fromImageViews, which fills the members itself.
  TieredIndex() = default;

  Shard buildShard(std::size_t rowBegin, std::size_t rowEnd) const;
  void scanShard(const Shard& shard, const std::uint8_t* qBuckets,
                 std::uint32_t offset, ScanWorkspace& ws) const;

  std::shared_ptr<const radio::FingerprintDatabase> db_;
  IndexConfig config_;
  std::vector<env::LocationId> locIds_;  ///< Row -> location id.
  /// Row -> that entry's RSS values inside db_ (valid while db_ lives).
  std::vector<std::span<const double>> rowValues_;
  std::vector<Shard> shards_;
};

}  // namespace moloc::index
