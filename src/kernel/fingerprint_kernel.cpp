#include "kernel/fingerprint_kernel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <stdexcept>
#include <utility>

#include "kernel/adder_network.hpp"
#include "util/error.hpp"

namespace moloc::kernel {

namespace {

std::atomic<bool> g_forceScalar{false};

#if MOLOC_SIMD_ENABLED
bool cpuHasAvx2() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}
#endif

bool useAvx2() {
#if MOLOC_SIMD_ENABLED
  return cpuHasAvx2() && !g_forceScalar.load(std::memory_order_relaxed);
#else
  return false;
#endif
}

}  // namespace

#if MOLOC_SIMD_ENABLED
namespace detail {
// Defined in fingerprint_kernel_avx2.cpp (compiled with -mavx2 only —
// no -mfma, so the compiler cannot contract mul+add into an FMA and
// change the rounding versus the scalar path).
void squaredDistancesAvx2(const double* data, std::size_t paddedRows,
                          std::size_t cols, const double* query,
                          double* out);
void squaredDistancesRowsAvx2(const std::span<const double>* rows,
                              std::size_t count, std::size_t cols,
                              const double* query, double* out);
std::size_t findBelowAvx2(const double* values, std::size_t begin,
                          std::size_t end, double threshold);
/// Scans the slab's whole four-word groups; returns the number of
/// words done, which the scalar scan finishes.
std::size_t bucketDistancesAvx2(const std::uint64_t* planes,
                                std::size_t columns, int planeCount,
                                std::size_t entries,
                                const std::uint8_t* qBuckets,
                                std::uint32_t* out);
}  // namespace detail
#endif

FlatMatrix FlatMatrix::view(const double* data, std::size_t rows,
                            std::size_t cols) {
  if (rows > 0 && data == nullptr)
    throw util::ConfigError("FlatMatrix: null view data");
  FlatMatrix m;
  m.borrowed_ = data;
  m.rows_ = rows;
  m.cols_ = cols;
  return m;
}

void FlatMatrix::reset(std::size_t cols) {
  if (borrowed_ != nullptr)
    throw util::StateError("FlatMatrix: cannot reset an immutable view");
  data_.clear();
  rows_ = 0;
  cols_ = cols;
}

void FlatMatrix::appendRow(std::span<const double> row) {
  if (borrowed_ != nullptr)
    throw util::StateError(
        "FlatMatrix: cannot append to an immutable view");
  if (row.size() != cols_)
    throw util::ConfigError("FlatMatrix: row length mismatch");
  // Entering a new block allocates it whole and zero-filled, so the
  // trailing partial block is always valid kernel input.
  if (rows_ % kRowBlock == 0)
    data_.resize(data_.size() + kRowBlock * cols_, 0.0);
  double* block =
      data_.data() + (rows_ / kRowBlock) * kRowBlock * cols_;
  const std::size_t lane = rows_ % kRowBlock;
  for (std::size_t c = 0; c < cols_; ++c)
    block[c * kRowBlock + lane] = row[c];
  ++rows_;
}

SimdLevel activeSimdLevel() {
  return useAvx2() ? SimdLevel::avx2 : SimdLevel::scalar;
}

const char* simdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::avx2:
      return "avx2";
    case SimdLevel::scalar:
      break;
  }
  return "scalar";
}

void setForceScalar(bool force) {
  g_forceScalar.store(force, std::memory_order_relaxed);
}

void squaredDistancesScalar(const FlatMatrix& m, const double* query,
                            double* out) {
  const std::size_t cols = m.cols();
  const std::size_t blocks = m.paddedRows() / kRowBlock;
  const double* data = m.data();
  // One independent accumulator per row in the block; the column loads
  // are unit-stride thanks to the interleaved layout, so the compiler
  // can vectorize across the block's rows without reassociating any
  // single row's column order — which is what keeps the result
  // bitwise-stable across code paths.
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* block = data + b * kRowBlock * cols;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double q = query[c];
      const double* col = block + c * kRowBlock;
      const double d0 = q - col[0];
      const double d1 = q - col[1];
      const double d2 = q - col[2];
      const double d3 = q - col[3];
      a0 += d0 * d0;
      a1 += d1 * d1;
      a2 += d2 * d2;
      a3 += d3 * d3;
    }
    out[b * kRowBlock] = a0;
    out[b * kRowBlock + 1] = a1;
    out[b * kRowBlock + 2] = a2;
    out[b * kRowBlock + 3] = a3;
  }
}

void squaredDistances(const FlatMatrix& m, const double* query,
                      double* out) {
#if MOLOC_SIMD_ENABLED
  if (useAvx2()) {
    detail::squaredDistancesAvx2(m.data(), m.paddedRows(), m.cols(),
                                 query, out);
    return;
  }
#endif
  squaredDistancesScalar(m, query, out);
}

namespace {

void checkRowLengths(std::span<const std::span<const double>> rows,
                     std::size_t cols) {
  for (const std::span<const double> row : rows)
    if (row.size() != cols)
      throw util::ConfigError("squaredDistancesRows: row length mismatch");
}

}  // namespace

void squaredDistancesRowsScalar(
    std::span<const std::span<const double>> rows,
    std::span<const double> query, double* out) {
  checkRowLengths(rows, query.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double* row = rows[i].data();
    double acc = 0.0;
    for (std::size_t c = 0; c < query.size(); ++c) {
      const double d = query[c] - row[c];
      acc += d * d;
    }
    out[i] = acc;
  }
}

void squaredDistancesRows(std::span<const std::span<const double>> rows,
                          std::span<const double> query, double* out) {
#if MOLOC_SIMD_ENABLED
  if (useAvx2()) {
    checkRowLengths(rows, query.size());
    detail::squaredDistancesRowsAvx2(rows.data(), rows.size(),
                                     query.size(), query.data(), out);
    return;
  }
#endif
  squaredDistancesRowsScalar(rows, query, out);
}

namespace {

/// Transposes the 8x8 bit matrix held in `x` (row i = byte i, column
/// j = bit j of that byte) with three masked delta-swaps.
std::uint64_t transposeBits8x8(std::uint64_t x) {
  std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAull;
  x ^= t ^ (t << 7);
  t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCull;
  x ^= t ^ (t << 14);
  t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ull;
  x ^= t ^ (t << 28);
  return x;
}

/// Byte `g` of counters[0..7], as the rows of an 8x8 bit matrix.
std::uint64_t counterBytes(const std::uint64_t* counters, std::size_t g) {
  std::uint64_t x = 0;
  for (std::size_t d = 0; d < 8; ++d)
    x |= ((counters[d] >> (8 * g)) & 0xFFu) << (8 * d);
  return x;
}

/// Scans words [wordBegin, words) of a P-plane slab, one 64-entry word
/// per pass, and reads each word's counters out eight entries at a
/// time: byte g of counters[0..7] transposed holds the low distance
/// byte of entries 8g..8g+7, and counters[8..15] (zero unless
/// depth > 8) the high byte.
template <int P>
void bucketWordsScalar(const BucketPlanes& slab,
                       const std::uint8_t* qBuckets, std::size_t wordBegin,
                       std::uint32_t* out) {
  const std::size_t words = (slab.entries + 63) / 64;
  const auto depth = static_cast<int>(std::bit_width(slab.columns * P));
  for (std::size_t w = wordBegin; w < words; ++w) {
    std::uint64_t counters[16] = {};
    for (std::size_t a = 0; a < slab.columns; ++a) {
      const std::uint64_t* planes = slab.planes.data() + a * P * words + w;
      const auto& mask = detail::kThermometerMasks[qBuckets[a]];
      detail::addColumn<P>(
          [&](int t) { return planes[t * words] ^ mask[t]; }, counters,
          depth);
    }
    const std::size_t lanes = std::min<std::size_t>(64, slab.entries - 64 * w);
    std::uint32_t* block = out + 64 * w;
    for (std::size_t g = 0; 8 * g < lanes; ++g) {
      const std::uint64_t low = transposeBits8x8(counterBytes(counters, g));
      const std::uint64_t high =
          depth > 8 ? transposeBits8x8(counterBytes(counters + 8, g)) : 0;
      for (std::size_t e = 0; e < 8 && 8 * g + e < lanes; ++e)
        block[8 * g + e] =
            static_cast<std::uint32_t>((low >> (8 * e)) & 0xFFu) |
            static_cast<std::uint32_t>((high >> (8 * e)) & 0xFFu) << 8;
    }
  }
}

using BucketWordsFn = void (*)(const BucketPlanes&, const std::uint8_t*,
                               std::size_t, std::uint32_t*);

template <int... P>
constexpr std::array<BucketWordsFn, sizeof...(P)> bucketWordsTable(
    std::integer_sequence<int, P...>) {
  return {&bucketWordsScalar<P + 1>...};
}

}  // namespace

void bucketDistances(const BucketPlanes& slab, const std::uint8_t* qBuckets,
                     std::uint32_t* out) {
  if (slab.planeCount < 1 || slab.planeCount > 15)
    throw util::ConfigError("bucketDistances: planeCount outside [1, 15]");
  const auto planeCount = static_cast<std::size_t>(slab.planeCount);
  if (slab.columns * planeCount > 0xFFFFu)
    throw util::ConfigError(
        "bucketDistances: columns * planeCount exceeds the counter range");
  const std::size_t words = (slab.entries + 63) / 64;
  if (slab.planes.size() != slab.columns * planeCount * words)
    throw util::ConfigError("bucketDistances: planes size mismatch");
  for (std::size_t a = 0; a < slab.columns; ++a)
    if (qBuckets[a] > planeCount)
      throw util::ConfigError(
          "bucketDistances: query bucket exceeds planeCount");

  std::size_t wordBegin = 0;
#if MOLOC_SIMD_ENABLED
  if (useAvx2())
    wordBegin = detail::bucketDistancesAvx2(
        slab.planes.data(), slab.columns, slab.planeCount, slab.entries,
        qBuckets, out);
#endif
  static constexpr auto kScans =
      bucketWordsTable(std::make_integer_sequence<int, 15>{});
  kScans[planeCount - 1](slab, qBuckets, wordBegin, out);
}

namespace {

/// "Better" ordering for top-k: smaller distance first, ties toward
/// the lower row index.  Used as the heap's `less`, so the heap top is
/// the worst retained entry.
bool betterEntry(const TopKEntry& a, const TopKEntry& b) {
  if (a.squaredDistance != b.squaredDistance)
    return a.squaredDistance < b.squaredDistance;
  return a.row < b.row;
}

/// First index in [begin, end) with values[i] < threshold, or end.
/// The branchless block-min tree keeps the common miss case at ~one
/// compare per element with no mispredicts.
std::size_t findBelowScalar(const double* values, std::size_t begin,
                            std::size_t end, double threshold) {
  std::size_t i = begin;
  for (; i + 8 <= end; i += 8) {
    const double* d = values + i;
    const double m0 = std::min(d[0], d[1]);
    const double m1 = std::min(d[2], d[3]);
    const double m2 = std::min(d[4], d[5]);
    const double m3 = std::min(d[6], d[7]);
    if (std::min(std::min(m0, m1), std::min(m2, m3)) < threshold) {
      for (std::size_t j = i;; ++j)
        if (values[j] < threshold) return j;
    }
  }
  for (; i < end; ++i)
    if (values[i] < threshold) return i;
  return end;
}

std::size_t findBelow(const double* values, std::size_t begin,
                      std::size_t end, double threshold) {
#if MOLOC_SIMD_ENABLED
  if (useAvx2())
    return detail::findBelowAvx2(values, begin, end, threshold);
#endif
  return findBelowScalar(values, begin, end, threshold);
}

/// Replaces the heap's root (its worst entry) with `entry` and
/// restores the max-heap-by-betterEntry invariant with a single
/// sift-down — half the work of a pop_heap/push_heap pair.
void replaceWorst(std::vector<TopKEntry>& heap, const TopKEntry& entry) {
  const std::size_t n = heap.size();
  std::size_t hole = 0;
  for (;;) {
    std::size_t child = 2 * hole + 1;
    if (child >= n) break;
    if (child + 1 < n && betterEntry(heap[child], heap[child + 1]))
      ++child;  // The worse of the two children.
    if (!betterEntry(entry, heap[child])) break;
    heap[hole] = heap[child];
    hole = child;
  }
  heap[hole] = entry;
}

}  // namespace

void selectSmallestK(std::span<const double> distances, std::size_t k,
                     std::vector<TopKEntry>& out) {
  out.clear();
  if (k == 0 || distances.empty()) return;
  const std::size_t kept = std::min(k, distances.size());
  out.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) out.push_back({distances[i], i});
  std::make_heap(out.begin(), out.end(), betterEntry);
  // Steady-state scan: candidates arrive in ascending row order, so a
  // candidate tying the heap's worst distance always has the larger
  // row and loses the tie-break — replacement happens exactly when the
  // distance is strictly below the cached threshold, which lets the
  // scan between replacements run as a plain "first value below x"
  // search with a single predictable compare per element.
  double threshold = out.front().squaredDistance;
  for (std::size_t i = kept;;) {
    i = findBelow(distances.data(), i, distances.size(), threshold);
    if (i == distances.size()) break;
    replaceWorst(out, {distances[i], i});
    threshold = out.front().squaredDistance;
    ++i;
  }
  std::sort_heap(out.begin(), out.end(), betterEntry);
}

}  // namespace moloc::kernel
