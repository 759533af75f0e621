#include "index/tiered_index.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "kernel/fingerprint_kernel.hpp"
#include "service/thread_pool.hpp"
#include "util/error.hpp"

namespace moloc::index {

namespace {

/// Histogram bins for the running threshold selection.  Bucket-space
/// distances are clamped into the last bin; a threshold landing there
/// only enlarges the shortlist (never drops a candidate), so the cap
/// is overshoot-safe.
constexpr std::uint32_t kHistogramCap = 4096;

bool allFinite(const radio::Fingerprint& fp) {
  for (std::size_t i = 0; i < fp.size(); ++i)
    if (!std::isfinite(fp[i])) return false;
  return true;
}

}  // namespace

struct TieredIndex::ScanWorkspace {
  std::vector<std::uint8_t> qBuckets;
  std::vector<std::uint8_t> shardQ;  ///< qBuckets at one shard's activeAps.
  std::vector<std::uint32_t> shardLb;
  std::vector<std::uint32_t> shardOffset;
  std::vector<std::uint32_t> order;
  std::vector<std::uint32_t> rowDistance;  ///< Per global row, scanned only.
  std::vector<std::uint32_t> histogram;
  std::vector<std::uint32_t> scannedShards;
  std::vector<std::uint32_t> shortlist;
  std::vector<std::span<const double>> shortlistRows;
  std::vector<double> distances;
  std::vector<kernel::TopKEntry> topk;
  std::vector<double> fullDistances;
  std::vector<kernel::TopKEntry> fullTopk;
};

TieredIndex::ScanWorkspace& TieredIndex::threadWorkspace() {
  // Per-thread scratch keeps concurrent queries lock-free and
  // allocation-free against a shared immutable index, mirroring
  // FingerprintDatabase's kernel workspace.
  static thread_local ScanWorkspace workspace;
  return workspace;
}

TieredIndex::TieredIndex(
    std::shared_ptr<const radio::FingerprintDatabase> database,
    IndexConfig config, std::span<const std::size_t> shardStarts)
    : db_(std::move(database)), config_(config) {
  if (!db_) throw util::ConfigError("TieredIndex: null database");
  validateQuantizer(config_.quantizer);
  if (config_.maxShardEntries == 0)
    throw util::ConfigError(
        "TieredIndex: maxShardEntries must be >= 1");

  const std::size_t n = db_->size();
  const std::size_t apCount = db_->apCount();
  const std::size_t planeCount =
      static_cast<std::size_t>(config_.quantizer.bucketCount - 1);
  if (apCount * planeCount >
      std::numeric_limits<std::uint16_t>::max())
    throw util::ConfigError(
        "TieredIndex: apCount * (bucketCount - 1) exceeds the scan "
        "counter range");

  locIds_ = db_->locationIds();
  rowValues_.reserve(n);
  for (std::size_t r = 0; r < n; ++r)
    rowValues_.push_back(db_->entryAt(r).values());

  // Segment boundaries: caller-provided natural volumes (per
  // building/floor), else one segment; each capped at maxShardEntries.
  std::vector<std::size_t> starts(shardStarts.begin(), shardStarts.end());
  if (starts.empty()) starts.push_back(0);
  if (starts.front() != 0)
    throw util::ConfigError(
        "TieredIndex: shardStarts must begin at row 0");
  for (std::size_t i = 1; i < starts.size(); ++i)
    if (starts[i] <= starts[i - 1] || starts[i] >= n)
      throw util::ConfigError(
          "TieredIndex: shardStarts must be strictly increasing and "
          "inside the database");

  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t i = 0; i < starts.size() && n > 0; ++i) {
    const std::size_t segmentEnd =
        i + 1 < starts.size() ? starts[i + 1] : n;
    for (std::size_t begin = starts[i]; begin < segmentEnd;
         begin += config_.maxShardEntries)
      ranges.emplace_back(
          begin, std::min(begin + config_.maxShardEntries, segmentEnd));
  }

  // Shards are built independently — each task quantizes and packs
  // only its own row range into its own slot — so the fan-out over the
  // thread pool produces planes bitwise-identical to the serial loop
  // at any worker count (the parallel/serial identity test holds the
  // proof).
  std::size_t workers =
      config_.buildThreads != 0
          ? config_.buildThreads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, ranges.size());
  shards_.resize(ranges.size());
  if (workers <= 1) {
    for (std::size_t s = 0; s < ranges.size(); ++s)
      shards_[s] = buildShard(ranges[s].first, ranges[s].second);
  } else {
    service::ThreadPool pool(workers);
    std::vector<std::future<void>> built;
    built.reserve(ranges.size());
    for (std::size_t s = 0; s < ranges.size(); ++s)
      built.push_back(pool.submit([this, &ranges, s] {
        shards_[s] = buildShard(ranges[s].first, ranges[s].second);
      }));
    // get() rethrows the first failed shard's exception; the pool
    // destructor then drains the rest before `ranges` unwinds.
    for (auto& b : built) b.get();
  }
}

TieredIndex::Shard TieredIndex::buildShard(std::size_t rowBegin,
                                           std::size_t rowEnd) const {
  const std::size_t count = rowEnd - rowBegin;
  const std::size_t apCount = db_->apCount();
  const int bucketCount = config_.quantizer.bucketCount;
  const std::size_t planeCount = static_cast<std::size_t>(bucketCount - 1);

  Shard shard;
  shard.rowBegin = rowBegin;
  shard.rowEnd = rowEnd;
  shard.words = (count + kBlockEntries - 1) / kBlockEntries;

  // Quantize the shard's entries once (row-major scratch).
  std::vector<std::uint8_t> buckets(count * apCount);
  for (std::size_t e = 0; e < count; ++e) {
    const std::span<const double> row = rowValues_[rowBegin + e];
    for (std::size_t c = 0; c < apCount; ++c)
      buckets[e * apCount + c] = quantizeRss(row[c], config_.quantizer);
  }

  // An AP silent across the whole shard carries no plane storage —
  // the query-time contribution of such APs is a per-shard constant.
  for (std::size_t c = 0; c < apCount; ++c) {
    std::uint8_t minBucket = std::numeric_limits<std::uint8_t>::max();
    std::uint8_t maxBucket = 0;
    for (std::size_t e = 0; e < count; ++e) {
      const std::uint8_t b = buckets[e * apCount + c];
      minBucket = std::min(minBucket, b);
      maxBucket = std::max(maxBucket, b);
    }
    if (maxBucket == 0) continue;
    shard.activeApStorage.push_back(static_cast<std::uint32_t>(c));
    shard.minBucketStorage.push_back(minBucket);
    shard.maxBucketStorage.push_back(maxBucket);
  }

  shard.slabStorage.assign(
      shard.activeApStorage.size() * planeCount * shard.words, 0);
  std::array<std::uint8_t, kBlockEntries> blockBuckets{};
  std::vector<std::uint64_t> planes(planeCount);
  for (std::size_t a = 0; a < shard.activeApStorage.size(); ++a) {
    const std::size_t c = shard.activeApStorage[a];
    for (std::size_t w = 0; w < shard.words; ++w) {
      const std::size_t blockCount =
          std::min(kBlockEntries, count - w * kBlockEntries);
      for (std::size_t e = 0; e < blockCount; ++e)
        blockBuckets[e] =
            buckets[(w * kBlockEntries + e) * apCount + c];
      packThermometerPlanes({blockBuckets.data(), blockCount},
                            bucketCount, planes);
      for (std::size_t t = 0; t < planeCount; ++t)
        shard.slabStorage[(a * planeCount + t) * shard.words + w] =
            planes[t];
    }
  }

  // The scan path reads only the spans; point them at the storage just
  // built (the heap buffers stay put across the Shard's moves).
  shard.activeAps = shard.activeApStorage;
  shard.minBucket = shard.minBucketStorage;
  shard.maxBucket = shard.maxBucketStorage;
  shard.slab = shard.slabStorage;
  finishShard(shard);
  return shard;
}

void TieredIndex::finishShard(Shard& shard) const {
  // Scanned against an all-zero query, the slab yields every entry's
  // bucket mass over the shard's active APs.
  const std::vector<std::uint8_t> zeroQuery(shard.activeAps.size(), 0);
  std::vector<std::uint32_t> mass(shard.rowEnd - shard.rowBegin);
  scanShard(shard, zeroQuery.data(), mass.data());
  const auto [lo, hi] = std::minmax_element(mass.begin(), mass.end());
  shard.minMass = *lo;
  shard.maxMass = *hi;
}

TieredIndex TieredIndex::fromImageViews(
    std::shared_ptr<const radio::FingerprintDatabase> database,
    IndexConfig config, std::span<const ShardView> shards) {
  TieredIndex index;
  index.db_ = std::move(database);
  index.config_ = config;
  if (!index.db_)
    throw util::ConfigError("TieredIndex: null database");
  validateQuantizer(index.config_.quantizer);
  if (index.config_.maxShardEntries == 0)
    throw util::ConfigError(
        "TieredIndex: maxShardEntries must be >= 1");

  const std::size_t n = index.db_->size();
  const std::size_t apCount = index.db_->apCount();
  const int bucketCount = index.config_.quantizer.bucketCount;
  const std::size_t planeCount = static_cast<std::size_t>(bucketCount - 1);
  if (apCount * planeCount > std::numeric_limits<std::uint16_t>::max())
    throw util::ConfigError(
        "TieredIndex: apCount * (bucketCount - 1) exceeds the scan "
        "counter range");
  if (n == 0 && !shards.empty())
    throw util::ConfigError(
        "TieredIndex: shard views over an empty database");

  index.locIds_ = index.db_->locationIds();
  index.rowValues_.reserve(n);
  for (std::size_t r = 0; r < n; ++r)
    index.rowValues_.push_back(index.db_->entryAt(r).values());

  index.shards_.reserve(shards.size());
  std::size_t nextRow = 0;
  for (const ShardView& v : shards) {
    if (v.rowBegin != nextRow || v.rowEnd <= v.rowBegin || v.rowEnd > n)
      throw util::ConfigError(
          "TieredIndex: shard views must partition the rows in order");
    nextRow = v.rowEnd;
    const std::size_t count = v.rowEnd - v.rowBegin;
    const std::size_t words = (count + kBlockEntries - 1) / kBlockEntries;
    if (v.minBucket.size() != v.activeAps.size() ||
        v.maxBucket.size() != v.activeAps.size())
      throw util::ConfigError(
          "TieredIndex: shard bucket ranges must match activeAps");
    for (std::size_t a = 0; a < v.activeAps.size(); ++a) {
      if (v.activeAps[a] >= apCount ||
          (a > 0 && v.activeAps[a] <= v.activeAps[a - 1]))
        throw util::ConfigError(
            "TieredIndex: shard activeAps must be strictly increasing "
            "and within the AP count");
      if (v.maxBucket[a] == 0 || v.maxBucket[a] >= bucketCount ||
          v.minBucket[a] > v.maxBucket[a])
        throw util::ConfigError(
            "TieredIndex: shard bucket range out of bounds");
    }
    if (v.slab.size() != v.activeAps.size() * planeCount * words)
      throw util::ConfigError(
          "TieredIndex: shard slab size mismatch");

    Shard shard;
    shard.rowBegin = v.rowBegin;
    shard.rowEnd = v.rowEnd;
    shard.words = words;
    shard.activeAps = v.activeAps;
    shard.minBucket = v.minBucket;
    shard.maxBucket = v.maxBucket;
    shard.slab = v.slab;
    index.finishShard(shard);
    index.shards_.push_back(std::move(shard));
  }
  if (nextRow != n)
    throw util::ConfigError(
        "TieredIndex: shard views must cover every row");
  return index;
}

ShardInfo TieredIndex::shardInfo(std::size_t shard) const {
  if (shard >= shards_.size())
    throw std::out_of_range("TieredIndex: bad shard index " +
                            std::to_string(shard));
  const Shard& s = shards_[shard];
  return {s.rowBegin, s.rowEnd, s.activeAps.size()};
}

ShardView TieredIndex::shardView(std::size_t shard) const {
  if (shard >= shards_.size())
    throw std::out_of_range("TieredIndex: bad shard index " +
                            std::to_string(shard));
  const Shard& s = shards_[shard];
  return {s.rowBegin, s.rowEnd, s.activeAps, s.minBucket, s.maxBucket,
          s.slab};
}

void TieredIndex::scanShard(const Shard& shard,
                            const std::uint8_t* shardQ,
                            std::uint32_t* distances) const {
  kernel::bucketDistances({shard.slab, shard.activeAps.size(),
                           config_.quantizer.bucketCount - 1,
                           shard.rowEnd - shard.rowBegin},
                          shardQ, distances);
}

void TieredIndex::queryInto(const radio::Fingerprint& query,
                            std::size_t k, std::vector<radio::Match>& out,
                            QueryStats* stats) const {
  if (k == 0)
    throw util::ConfigError("TieredIndex: k must be >= 1");
  if (rowValues_.empty())
    throw util::StateError("TieredIndex: empty database");
  if (!allFinite(query))
    throw util::ConfigError("TieredIndex: non-finite query RSS");
  if (query.size() != db_->apCount())
    throw util::ConfigError(
        "dissimilarity: fingerprint dimensions differ");
  ScanWorkspace& ws = threadWorkspace();
  const std::size_t apCount = db_->apCount();
  const std::size_t n = rowValues_.size();

  ws.qBuckets.resize(apCount);
  std::uint32_t totalQ = 0;
  for (std::size_t c = 0; c < apCount; ++c) {
    ws.qBuckets[c] = quantizeRss(query[c], config_.quantizer);
    totalQ += ws.qBuckets[c];
  }

  // Per-shard lower bound on the bucket-space distance.  Shard-silent
  // APs contribute the full query bucket (entry bucket is 0 there).
  // Over the active APs two bounds hold and the larger is taken: the
  // sum of each AP's distance to the shard's bucket range, and the
  // distance of the query's mass to the shard's entry-mass range
  // (sum |q - e| >= |sum q - sum e|).
  ws.shardLb.resize(shards_.size());
  ws.shardOffset.resize(shards_.size());
  ws.order.resize(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    std::uint32_t rangeBound = 0;
    std::uint32_t activeQ = 0;
    for (std::size_t a = 0; a < shard.activeAps.size(); ++a) {
      const std::uint8_t q = ws.qBuckets[shard.activeAps[a]];
      activeQ += q;
      if (q < shard.minBucket[a])
        rangeBound += shard.minBucket[a] - q;
      else if (q > shard.maxBucket[a])
        rangeBound += q - shard.maxBucket[a];
    }
    const std::uint32_t massBound =
        activeQ < shard.minMass   ? shard.minMass - activeQ
        : activeQ > shard.maxMass ? activeQ - shard.maxMass
                                  : 0;
    ws.shardOffset[s] = totalQ - activeQ;
    ws.shardLb[s] = std::max(rangeBound, massBound) + ws.shardOffset[s];
    ws.order[s] = static_cast<std::uint32_t>(s);
  }
  std::sort(ws.order.begin(), ws.order.end(),
            [&ws](std::uint32_t a, std::uint32_t b) {
              return ws.shardLb[a] != ws.shardLb[b]
                         ? ws.shardLb[a] < ws.shardLb[b]
                         : a < b;
            });

  // Scan shards in bound order, tracking the running S-th smallest
  // distance; stop when the next shard provably cannot land inside
  // the margin.  Entries in skipped shards sit above the admission
  // threshold by construction, so the shortlist below is complete.
  const std::size_t wanted = std::max(k, config_.minShortlist);
  ws.rowDistance.resize(n);
  // No distance exceeds apCount * (B - 1), so only that many bins (plus
  // bin 0) can fill; past the cap the last bin takes the overflow.
  const auto bins = static_cast<std::uint32_t>(std::min<std::size_t>(
      kHistogramCap,
      apCount * static_cast<std::size_t>(config_.quantizer.bucketCount - 1) +
          1));
  ws.histogram.assign(bins, 0);
  ws.scannedShards.clear();
  std::size_t scanned = 0;
  std::uint32_t threshold = 0;
  bool thresholdSet = false;
  for (const std::uint32_t s : ws.order) {
    if (thresholdSet &&
        ws.shardLb[s] > threshold + config_.marginBuckets)
      break;
    const Shard& shard = shards_[s];
    ws.shardQ.resize(shard.activeAps.size());
    for (std::size_t a = 0; a < shard.activeAps.size(); ++a)
      ws.shardQ[a] = ws.qBuckets[shard.activeAps[a]];
    std::uint32_t* distances = ws.rowDistance.data() + shard.rowBegin;
    scanShard(shard, ws.shardQ.data(), distances);
    for (std::size_t e = 0; e < shard.rowEnd - shard.rowBegin; ++e) {
      distances[e] += ws.shardOffset[s];
      ++ws.histogram[std::min(distances[e], bins - 1)];
    }
    ws.scannedShards.push_back(s);
    scanned += shard.rowEnd - shard.rowBegin;
    if (scanned >= wanted) {
      std::size_t cumulative = 0;
      for (std::uint32_t bin = 0; bin < bins; ++bin) {
        cumulative += ws.histogram[bin];
        if (cumulative >= wanted) {
          threshold = bin;
          break;
        }
      }
      thresholdSet = true;
    }
  }

  const std::uint32_t admit =
      thresholdSet ? threshold + config_.marginBuckets
                   : std::numeric_limits<std::uint32_t>::max();

  // Collect survivors in ascending row order so the exact re-rank
  // preserves selectSmallestK's lower-row tie-break.
  std::sort(ws.scannedShards.begin(), ws.scannedShards.end());
  ws.shortlist.clear();
  for (const std::uint32_t s : ws.scannedShards) {
    for (std::size_t r = shards_[s].rowBegin; r < shards_[s].rowEnd; ++r)
      if (ws.rowDistance[r] <= admit)
        ws.shortlist.push_back(static_cast<std::uint32_t>(r));
  }

  // Exact tier: the shortlisted rows are re-ranked where they live,
  // then selected as in FingerprintDatabase::queryInto.  The row
  // kernel sums each row in the full-scan kernel's column order, so
  // the distances are bitwise the full-scan distances of those rows.
  ws.shortlistRows.clear();
  for (const std::uint32_t r : ws.shortlist)
    ws.shortlistRows.push_back(rowValues_[r]);
  ws.distances.resize(ws.shortlist.size());
  kernel::squaredDistancesRows(ws.shortlistRows, query.values(),
                               ws.distances.data());
  kernel::selectSmallestK(ws.distances, k, ws.topk);

  out.clear();
  out.reserve(ws.topk.size());
  for (const auto& top : ws.topk)
    out.push_back({locIds_[ws.shortlist[top.row]],
                   std::sqrt(top.squaredDistance), 0.0});
  double invSum = 0.0;
  for (const auto& m : out)
    invSum += 1.0 / std::max(m.dissimilarity, radio::kMinDissimilarity);
  for (auto& m : out)
    m.probability =
        (1.0 / std::max(m.dissimilarity, radio::kMinDissimilarity)) /
        invSum;

  if (stats) {
    stats->shortlistSize = ws.shortlist.size();
    stats->scannedShards = ws.scannedShards.size();
    stats->totalShards = shards_.size();
    stats->scannedEntries = scanned;
  }

  if (config_.exhaustiveCheck) {
    const kernel::FlatMatrix& flat = db_->flatMatrix();
    ws.fullDistances.resize(flat.paddedRows());
    kernel::squaredDistances(flat, query.values().data(),
                             ws.fullDistances.data());
    kernel::selectSmallestK(
        std::span<const double>(ws.fullDistances.data(), flat.rows()), k,
        ws.fullTopk);
    std::size_t missed = 0;
    for (const auto& top : ws.fullTopk)
      if (!std::binary_search(ws.shortlist.begin(), ws.shortlist.end(),
                              static_cast<std::uint32_t>(top.row)))
        ++missed;
    if (stats) stats->missedTopK = missed;
    if (missed > 0)
      throw util::StateError(
          "TieredIndex: exhaustive check failed: shortlist dropped " +
          std::to_string(missed) + " of the true top-" +
          std::to_string(ws.fullTopk.size()) + " entries");
  }
}

}  // namespace moloc::index
