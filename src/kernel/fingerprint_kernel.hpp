#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace moloc::kernel {

/// Rows per interleaved block: storage groups this many rows together,
/// and the vectorized kernels process one SIMD lane per row in the
/// block.
inline constexpr std::size_t kRowBlock = 4;

/// Blocked row-interleaved (AoSoA) storage for the fingerprint radio
/// map — the data-oriented layout behind the matching hot path.
///
/// Rows are grouped into blocks of kRowBlock; within a block the
/// values are column-major, so column c of the block's four rows is
/// one contiguous run of kRowBlock doubles:
///
///   data[block * kRowBlock * cols + c * kRowBlock + lane]
///     == element (block * kRowBlock + lane, c)
///
/// A squared-distance kernel can then load column c of four rows with
/// a single vector load instead of four strided scalar loads, while
/// each row's accumulation still walks columns sequentially — the same
/// order as a plain per-row scalar loop, which is what keeps results
/// bitwise-identical across code paths.
///
/// The trailing partial block is zero-padded: kernels always process
/// whole blocks, and the padded rows' outputs (a deterministic, finite
/// sum of query squares) are simply never read.
class FlatMatrix {
 public:
  FlatMatrix() = default;

  /// A non-owning view over an externally owned blocked buffer — the
  /// zero-copy path of the mmap venue image (src/image).  `data` must
  /// hold paddedRows * cols doubles in exactly the layout described
  /// above (including the zero-padded trailing block) and must outlive
  /// the matrix and every copy of it.  A view is immutable: reset()
  /// and appendRow() throw util::StateError.
  static FlatMatrix view(const double* data, std::size_t rows,
                         std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0; }

  /// True when this matrix borrows external storage (see view()).
  bool isView() const { return borrowed_ != nullptr; }

  /// rows() rounded up to a whole number of blocks — the number of
  /// distance outputs a kernel writes.
  std::size_t paddedRows() const {
    return (rows_ + kRowBlock - 1) / kRowBlock * kRowBlock;
  }

  const double* data() const {
    return borrowed_ != nullptr ? borrowed_ : data_.data();
  }

  /// Element access through the interleaved layout (test/debug path;
  /// the kernels index the raw block layout directly).
  double at(std::size_t row, std::size_t col) const {
    return data()[(row / kRowBlock) * kRowBlock * cols_ +
                  col * kRowBlock + row % kRowBlock];
  }

  /// Drops all rows and fixes the column count.  Throws
  /// std::logic_error on a view.
  void reset(std::size_t cols);

  /// Appends one row; `row.size()` must equal cols() (throws
  /// std::invalid_argument otherwise, std::logic_error on a view).
  void appendRow(std::span<const double> row);

 private:
  std::vector<double> data_;
  /// Set iff this matrix is a view; owning matrices read data_ so the
  /// default copy/move semantics stay correct (a copied view stays a
  /// shallow view, a copied owner re-points at its own buffer).
  const double* borrowed_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
};

/// Which code path the dispatched kernels (squaredDistances,
/// squaredDistancesRows, selectSmallestK's scan, bucketDistances) take
/// on this machine and build.
enum class SimdLevel { scalar, avx2 };
SimdLevel activeSimdLevel();
const char* simdLevelName(SimdLevel level);

/// Test hook: forces the scalar path even when the AVX2 path is
/// compiled in and supported.  Not for concurrent use with running
/// kernels (tests toggle it single-threaded).
void setForceScalar(bool force);

/// out[r] = sum_c (query[c] - m[r][c])^2 for every row, accumulated
/// sequentially over columns per row — the same order as a plain
/// scalar loop, so every dispatch target returns bitwise-identical
/// results.  `query` must hold cols() doubles; `out` must hold
/// paddedRows() doubles (the padded tail's outputs are deterministic
/// garbage — see FlatMatrix).
void squaredDistances(const FlatMatrix& m, const double* query,
                      double* out);

/// The scalar reference the dispatched paths are tested against.
void squaredDistancesScalar(const FlatMatrix& m, const double* query,
                            double* out);

/// out[i] = sum_c (query[c] - rows[i][c])^2 over rows that live
/// anywhere in memory — the re-rank of a shortlist in place, with no
/// copy into a FlatMatrix.  Same per-row column order as
/// squaredDistances, so a row's result is bitwise the same through
/// either entry and every dispatch target.  Every row must hold
/// query.size() doubles (throws util::ConfigError otherwise); `out`
/// must hold rows.size() doubles.
void squaredDistancesRows(std::span<const std::span<const double>> rows,
                          std::span<const double> query, double* out);

/// The scalar reference of squaredDistancesRows.
void squaredDistancesRowsScalar(
    std::span<const std::span<const double>> rows,
    std::span<const double> query, double* out);

/// Bit-sliced thermometer-coded bucket values of `entries` entries over
/// `columns` columns (the tiered index's shard slab): bit e of plane t
/// of a column is set iff entry e's bucket in that column exceeds t.
/// Plane-major, planes[(a * planeCount + t) * words + w] holds plane t
/// of column a for entries 64w .. 64w + 63, words = ceil(entries / 64).
/// Bits past the last entry are never read out.
struct BucketPlanes {
  std::span<const std::uint64_t> planes;
  std::size_t columns = 0;
  int planeCount = 0;  ///< bucketCount - 1, in [1, 15].
  std::size_t entries = 0;
};

/// out[e] = sum over columns a of |qBuckets[a] - bucket(a, e)| for
/// every entry e < entries: the tiered index's bucket-space L1
/// distance.  A branchless adder network sums each column's XORed
/// planes into per-entry vertical counters, one 64-entry word per pass
/// on the scalar path and four words per pass on the AVX2 path; both
/// give the same distances.  `qBuckets` holds one bucket (at most
/// planeCount) per column.  Throws util::ConfigError when planeCount
/// is outside [1, 15], columns * planeCount exceeds the 16-bit counter
/// range, the planes span has the wrong size, or a query bucket
/// exceeds planeCount.
void bucketDistances(const BucketPlanes& slab, const std::uint8_t* qBuckets,
                     std::uint32_t* out);

/// One top-k candidate: a squared distance and the row it came from.
struct TopKEntry {
  double squaredDistance = 0.0;
  std::size_t row = 0;
};

/// Selects the k smallest distances (ties broken toward the lower row
/// index) into `out`, ascending, using a bounded max-heap — O(n log k)
/// and no n-sized materialization, unlike a full partial_sort.
/// Returns fewer than k entries when n < k.
void selectSmallestK(std::span<const double> distances, std::size_t k,
                     std::vector<TopKEntry>& out);

/// Reusable scratch for a query against a FlatMatrix, so the serving
/// hot path performs no per-call allocations once warm.
struct QueryWorkspace {
  std::vector<double> distances;
  std::vector<TopKEntry> topk;
};

}  // namespace moloc::kernel
