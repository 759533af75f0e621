// AVX2 lane-per-row squared-distance kernel.  This translation unit is
// the only one compiled with -mavx2 (and deliberately without -mfma:
// an FMA contraction of mul+add would round once instead of twice and
// break bitwise equality with the scalar path).  Callers reach it only
// through the runtime dispatch in fingerprint_kernel.cpp, which checks
// cpuid first, so the binary stays safe on non-AVX2 machines.
//
// Layout note: with 4-6 APs per fingerprint the row is far too short
// to vectorize along, so the kernel assigns one SIMD lane per *row*
// and walks columns sequentially.  The FlatMatrix interleaved layout
// makes column c of a block's four rows contiguous, so each step is a
// single vector load rather than four strided scalar loads, and each
// lane's accumulation order stays identical to the scalar loop's —
// which is what makes the result bitwise-identical per row.
//
// The main loop carries four blocks (16 rows) at once: a lone
// accumulator would serialize on vaddpd latency (cols sequential adds
// back to back), while four independent accumulator chains keep the
// FP add ports busy.
//
// The TU also holds the four-word pass of the tiered index's
// bucket-distance scan (bucketDistances): the adder network of
// kernel/adder_network.hpp over __m256i, 256 entries per pass.

#if MOLOC_SIMD_ENABLED

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>

#include "kernel/adder_network.hpp"

namespace moloc::kernel::detail {

void squaredDistancesAvx2(const double* data, std::size_t paddedRows,
                          std::size_t cols, const double* query,
                          double* out) {
  const std::size_t blockDoubles = 4 * cols;
  const std::size_t blocks = paddedRows / 4;
  std::size_t b = 0;
  for (; b + 4 <= blocks; b += 4) {
    const double* b0 = data + b * blockDoubles;
    const double* b1 = b0 + blockDoubles;
    const double* b2 = b1 + blockDoubles;
    const double* b3 = b2 + blockDoubles;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (std::size_t c = 0; c < cols; ++c) {
      const __m256d q = _mm256_set1_pd(query[c]);
      const __m256d d0 = _mm256_sub_pd(q, _mm256_loadu_pd(b0 + c * 4));
      const __m256d d1 = _mm256_sub_pd(q, _mm256_loadu_pd(b1 + c * 4));
      const __m256d d2 = _mm256_sub_pd(q, _mm256_loadu_pd(b2 + c * 4));
      const __m256d d3 = _mm256_sub_pd(q, _mm256_loadu_pd(b3 + c * 4));
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d2, d2));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d3, d3));
    }
    _mm256_storeu_pd(out + b * 4, acc0);
    _mm256_storeu_pd(out + b * 4 + 4, acc1);
    _mm256_storeu_pd(out + b * 4 + 8, acc2);
    _mm256_storeu_pd(out + b * 4 + 12, acc3);
  }
  for (; b < blocks; ++b) {
    const double* block = data + b * blockDoubles;
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t c = 0; c < cols; ++c) {
      const __m256d q = _mm256_set1_pd(query[c]);
      const __m256d d = _mm256_sub_pd(q, _mm256_loadu_pd(block + c * 4));
      acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
    }
    _mm256_storeu_pd(out + b * 4, acc);
  }
}

namespace {

/// Squared distances of G groups of four rows, one lane per row.  Each
/// step of four columns loads the rows' 128-bit column pairs into the
/// halves of two vectors and unpacks them — a 4x4 transpose that costs
/// one shuffle per column vector — so column c of the group's four
/// rows lands in one vector and every lane runs exactly the scalar
/// loop's sub -> mul -> add sequence, column by column.  G independent
/// accumulator chains hide the vaddpd latency, as in the blocked
/// kernel above.
template <std::size_t G>
void rowGroups(const double* const* p, std::size_t cols,
               const double* query, __m256d* acc) {
  for (std::size_t g = 0; g < G; ++g) acc[g] = _mm256_setzero_pd();
  std::size_t c = 0;
  for (; c + 4 <= cols; c += 4) {
    const __m256d q0 = _mm256_set1_pd(query[c]);
    const __m256d q1 = _mm256_set1_pd(query[c + 1]);
    const __m256d q2 = _mm256_set1_pd(query[c + 2]);
    const __m256d q3 = _mm256_set1_pd(query[c + 3]);
    for (std::size_t g = 0; g < G; ++g) {
      const double* const* r = p + 4 * g;
      // (r0[c], r0[c+1], r2[c], r2[c+1]) and the same for rows 1, 3.
      const __m256d lo02 = _mm256_loadu2_m128d(r[2] + c, r[0] + c);
      const __m256d lo13 = _mm256_loadu2_m128d(r[3] + c, r[1] + c);
      const __m256d hi02 = _mm256_loadu2_m128d(r[2] + c + 2, r[0] + c + 2);
      const __m256d hi13 = _mm256_loadu2_m128d(r[3] + c + 2, r[1] + c + 2);
      const __m256d d0 = _mm256_sub_pd(q0, _mm256_unpacklo_pd(lo02, lo13));
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(d0, d0));
      const __m256d d1 = _mm256_sub_pd(q1, _mm256_unpackhi_pd(lo02, lo13));
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(d1, d1));
      const __m256d d2 = _mm256_sub_pd(q2, _mm256_unpacklo_pd(hi02, hi13));
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(d2, d2));
      const __m256d d3 = _mm256_sub_pd(q3, _mm256_unpackhi_pd(hi02, hi13));
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(d3, d3));
    }
  }
  for (; c < cols; ++c) {
    const __m256d q = _mm256_set1_pd(query[c]);
    for (std::size_t g = 0; g < G; ++g) {
      const double* const* r = p + 4 * g;
      const __m256d d = _mm256_sub_pd(
          q, _mm256_set_pd(r[3][c], r[2][c], r[1][c], r[0][c]));
      acc[g] = _mm256_add_pd(acc[g], _mm256_mul_pd(d, d));
    }
  }
}

}  // namespace

void squaredDistancesRowsAvx2(const std::span<const double>* rows,
                              std::size_t count, std::size_t cols,
                              const double* query, double* out) {
  // Two groups (eight rows) per pass; the last partial group repeats
  // its first row in the missing lanes and stores only the real ones.
  const double* p[8] = {};
  __m256d acc[2] = {};
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    for (std::size_t j = 0; j < 8; ++j) p[j] = rows[i + j].data();
    rowGroups<2>(p, cols, query, acc);
    _mm256_storeu_pd(out + i, acc[0]);
    _mm256_storeu_pd(out + i + 4, acc[1]);
  }
  for (; i < count; i += 4) {
    const std::size_t lanes = count - i < 4 ? count - i : 4;
    for (std::size_t j = 0; j < 4; ++j)
      p[j] = rows[i + (j < lanes ? j : 0)].data();
    rowGroups<1>(p, cols, query, acc);
    alignas(32) double lane[4];
    _mm256_store_pd(lane, acc[0]);
    for (std::size_t j = 0; j < lanes; ++j) out[i + j] = lane[j];
  }
}

std::size_t findBelowAvx2(const double* values, std::size_t begin,
                          std::size_t end, double threshold) {
  const __m256d t = _mm256_set1_pd(threshold);
  std::size_t i = begin;
  for (; i + 16 <= end; i += 16) {
    const __m256d c0 =
        _mm256_cmp_pd(_mm256_loadu_pd(values + i), t, _CMP_LT_OQ);
    const __m256d c1 =
        _mm256_cmp_pd(_mm256_loadu_pd(values + i + 4), t, _CMP_LT_OQ);
    const __m256d c2 =
        _mm256_cmp_pd(_mm256_loadu_pd(values + i + 8), t, _CMP_LT_OQ);
    const __m256d c3 =
        _mm256_cmp_pd(_mm256_loadu_pd(values + i + 12), t, _CMP_LT_OQ);
    const __m256d any =
        _mm256_or_pd(_mm256_or_pd(c0, c1), _mm256_or_pd(c2, c3));
    if (_mm256_movemask_pd(any)) {
      for (std::size_t j = i;; ++j)
        if (values[j] < threshold) return j;
    }
  }
  for (; i < end; ++i)
    if (values[i] < threshold) return i;
  return end;
}

namespace {

/// transposeBits8x8 of the scalar path, on each 64-bit lane.
__m256i transposeLanes8x8(__m256i x) {
  __m256i t = _mm256_and_si256(x ^ _mm256_srli_epi64(x, 7),
                               _mm256_set1_epi64x(0x00AA00AA00AA00AAll));
  x ^= t ^ _mm256_slli_epi64(t, 7);
  t = _mm256_and_si256(x ^ _mm256_srli_epi64(x, 14),
                       _mm256_set1_epi64x(0x0000CCCC0000CCCCll));
  x ^= t ^ _mm256_slli_epi64(t, 14);
  t = _mm256_and_si256(x ^ _mm256_srli_epi64(x, 28),
                       _mm256_set1_epi64x(0x00000000F0F0F0F0ll));
  x ^= t ^ _mm256_slli_epi64(t, 28);
  return x;
}

/// One distance byte of a four-word group's 256 lanes, from eight of
/// its vertical counters c[0..7].  Three rounds of unpacks gather byte
/// i of c[0..7] into one 64-bit lane (the scalar counterBytes, for all
/// 32 bytes at once); the 8x8 transpose then turns that lane into the
/// byte of eight consecutive entries.  bytes[k] ends up holding lanes
/// 16k .. 16k+15 in its low 128 bits and 128+16k .. 128+16k+15 in its
/// high 128 bits.
void distanceBytes(const __m256i* c, __m256i* bytes) {
  __m256i lo[4] = {};
  __m256i hi[4] = {};
  for (std::size_t p = 0; p < 4; ++p) {
    lo[p] = _mm256_unpacklo_epi8(c[2 * p], c[2 * p + 1]);
    hi[p] = _mm256_unpackhi_epi8(c[2 * p], c[2 * p + 1]);
  }
  __m256i quads[2][4] = {};
  for (std::size_t q = 0; q < 2; ++q) {
    quads[q][0] = _mm256_unpacklo_epi16(lo[2 * q], lo[2 * q + 1]);
    quads[q][1] = _mm256_unpackhi_epi16(lo[2 * q], lo[2 * q + 1]);
    quads[q][2] = _mm256_unpacklo_epi16(hi[2 * q], hi[2 * q + 1]);
    quads[q][3] = _mm256_unpackhi_epi16(hi[2 * q], hi[2 * q + 1]);
  }
  for (std::size_t m = 0; m < 4; ++m) {
    bytes[2 * m] = transposeLanes8x8(
        _mm256_unpacklo_epi32(quads[0][m], quads[1][m]));
    bytes[2 * m + 1] = transposeLanes8x8(
        _mm256_unpackhi_epi32(quads[0][m], quads[1][m]));
  }
}

/// Widens 16 low and 16 high distance bytes to 16 uint32 distances.
void storeDistances(__m128i low, __m128i high, std::uint32_t* out) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out),
                      _mm256_cvtepu16_epi32(_mm_unpacklo_epi8(low, high)));
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 8),
                      _mm256_cvtepu16_epi32(_mm_unpackhi_epi8(low, high)));
}

/// The scalar bucketWordsScalar, four words per pass: lane 64j + i of
/// each __m256i counter is bit i of word w + j.
template <int P>
std::size_t bucketGroupsAvx2(const std::uint64_t* planes,
                             std::size_t columns, std::size_t entries,
                             const std::uint8_t* qBuckets,
                             std::uint32_t* out) {
  const std::size_t words = (entries + 63) / 64;
  const auto depth = static_cast<int>(std::bit_width(columns * P));
  std::size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    __m256i counters[16] = {};
    for (std::size_t a = 0; a < columns; ++a) {
      const std::uint64_t* p = planes + a * P * words + w;
      const auto& mask = kThermometerMasks[qBuckets[a]];
      addColumn<P>(
          [&](int t) {
            return _mm256_loadu_si256(
                       reinterpret_cast<const __m256i*>(p + t * words)) ^
                   _mm256_set1_epi64x(static_cast<long long>(mask[t]));
          },
          counters, depth);
    }
    __m256i low[8] = {};
    __m256i high[8] = {};
    distanceBytes(counters, low);
    if (depth > 8) distanceBytes(counters + 8, high);
    const auto store = [&](std::uint32_t* dst) {
      for (std::size_t k = 0; k < 8; ++k) {
        storeDistances(_mm256_castsi256_si128(low[k]),
                       _mm256_castsi256_si128(high[k]), dst + 16 * k);
        storeDistances(_mm256_extracti128_si256(low[k], 1),
                       _mm256_extracti128_si256(high[k], 1),
                       dst + 128 + 16 * k);
      }
    };

    // A shard's last group may end in a partial word: its lanes go
    // through a buffer so nothing past `entries` is written.
    const std::size_t lanes = std::min<std::size_t>(256, entries - 64 * w);
    if (lanes == 256) {
      store(out + 64 * w);
    } else {
      alignas(32) std::uint32_t buffer[256] = {};
      store(buffer);
      std::memcpy(out + 64 * w, buffer, lanes * sizeof(std::uint32_t));
    }
  }
  return w;
}

using BucketGroupsFn = std::size_t (*)(const std::uint64_t*, std::size_t,
                                       std::size_t, const std::uint8_t*,
                                       std::uint32_t*);

template <int... P>
constexpr std::array<BucketGroupsFn, sizeof...(P)> bucketGroupsTable(
    std::integer_sequence<int, P...>) {
  return {&bucketGroupsAvx2<P + 1>...};
}

}  // namespace

std::size_t bucketDistancesAvx2(const std::uint64_t* planes,
                                std::size_t columns, int planeCount,
                                std::size_t entries,
                                const std::uint8_t* qBuckets,
                                std::uint32_t* out) {
  static constexpr auto kScans =
      bucketGroupsTable(std::make_integer_sequence<int, 15>{});
  return kScans[static_cast<std::size_t>(planeCount - 1)](
      planes, columns, entries, qBuckets, out);
}

}  // namespace moloc::kernel::detail

#endif  // MOLOC_SIMD_ENABLED
