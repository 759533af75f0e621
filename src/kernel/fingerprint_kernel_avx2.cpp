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

#if MOLOC_SIMD_ENABLED

#include <immintrin.h>

#include <cstddef>
#include <span>

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

}  // namespace moloc::kernel::detail

#endif  // MOLOC_SIMD_ENABLED
