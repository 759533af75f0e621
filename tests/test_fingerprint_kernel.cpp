#include "kernel/fingerprint_kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "radio/fingerprint.hpp"
#include "radio/fingerprint_database.hpp"
#include "util/rng.hpp"

namespace moloc::kernel {
namespace {

std::vector<double> randomRow(util::Rng& rng, std::size_t cols) {
  std::vector<double> row(cols);
  for (auto& v : row) v = rng.uniform(-95.0, -35.0);
  return row;
}

/// The plain per-row loop both kernel paths must match bitwise — the
/// same accumulation order as radio::squaredDissimilarity.
double rowSquaredDistance(const std::vector<double>& row,
                          const std::vector<double>& query) {
  double acc = 0.0;
  for (std::size_t c = 0; c < row.size(); ++c) {
    const double d = query[c] - row[c];
    acc += d * d;
  }
  return acc;
}

TEST(FlatMatrixTest, InterleavedLayoutRoundTrips) {
  FlatMatrix m;
  m.reset(3);
  EXPECT_TRUE(m.empty());
  m.appendRow(std::vector<double>{1.0, 2.0, 3.0});
  m.appendRow(std::vector<double>{4.0, 5.0, 6.0});
  m.appendRow(std::vector<double>{7.0, 8.0, 9.0});
  m.appendRow(std::vector<double>{10.0, 11.0, 12.0});
  m.appendRow(std::vector<double>{13.0, 14.0, 15.0});

  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.paddedRows(), 8u);
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_EQ(m.at(r, c), static_cast<double>(r * 3 + c + 1));

  // Column c of a block's rows is contiguous in storage.
  const double* data = m.data();
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t lane = 0; lane < kRowBlock; ++lane)
      EXPECT_EQ(data[c * kRowBlock + lane],
                static_cast<double>(lane * 3 + c + 1));

  // The trailing partial block is zero-padded.
  const double* tail = data + kRowBlock * 3;
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t lane = 1; lane < kRowBlock; ++lane)
      EXPECT_EQ(tail[c * kRowBlock + lane], 0.0);
}

TEST(FlatMatrixTest, AppendRowRejectsLengthMismatch) {
  FlatMatrix m;
  m.reset(4);
  EXPECT_THROW(m.appendRow(std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(FlatMatrixTest, ResetDropsRowsAndChangesCols) {
  FlatMatrix m;
  m.reset(2);
  m.appendRow(std::vector<double>{1.0, 2.0});
  m.reset(3);
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.paddedRows(), 0u);
}

TEST(FingerprintKernelTest, ScalarMatchesPlainLoopBitwise) {
  util::Rng rng(7);
  for (const std::size_t cols : {1u, 2u, 5u, 6u, 9u}) {
    for (const std::size_t rows : {1u, 3u, 4u, 7u, 33u}) {
      FlatMatrix m;
      m.reset(cols);
      std::vector<std::vector<double>> raw;
      for (std::size_t r = 0; r < rows; ++r) {
        raw.push_back(randomRow(rng, cols));
        m.appendRow(raw.back());
      }
      const auto query = randomRow(rng, cols);
      std::vector<double> out(m.paddedRows());
      squaredDistancesScalar(m, query.data(), out.data());
      for (std::size_t r = 0; r < rows; ++r)
        EXPECT_EQ(out[r], rowSquaredDistance(raw[r], query))
            << "rows=" << rows << " cols=" << cols << " r=" << r;
    }
  }
}

TEST(FingerprintKernelTest, DispatchMatchesScalarBitwise) {
  // On an AVX2 machine with MOLOC_SIMD=ON this exercises the vector
  // path; elsewhere both calls take the scalar path and the test is a
  // tautology (the ON/OFF CI matrix covers both sides).
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    const auto cols = static_cast<std::size_t>(rng.uniformInt(1, 9));
    const auto rows = static_cast<std::size_t>(rng.uniformInt(1, 70));
    FlatMatrix m;
    m.reset(cols);
    std::vector<double> first;
    for (std::size_t r = 0; r < rows; ++r) {
      auto row = randomRow(rng, cols);
      if (r == 0) first = row;
      if (r + 1 == rows && rows > 1) row = first;  // Duplicate rows too.
      m.appendRow(row);
    }
    const auto query = randomRow(rng, cols);
    std::vector<double> viaDispatch(m.paddedRows());
    std::vector<double> viaScalar(m.paddedRows());
    squaredDistances(m, query.data(), viaDispatch.data());
    setForceScalar(true);
    squaredDistances(m, query.data(), viaScalar.data());
    setForceScalar(false);
    for (std::size_t r = 0; r < rows; ++r)
      EXPECT_EQ(viaDispatch[r], viaScalar[r])
          << "trial=" << trial << " r=" << r;
  }
}

TEST(SelectSmallestKTest, MatchesSortReferenceWithTies) {
  util::Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniformInt(1, 60));
    const auto k = static_cast<std::size_t>(rng.uniformInt(1, 20));
    std::vector<double> distances(n);
    // Coarse quantization forces duplicate distances.
    for (auto& d : distances)
      d = static_cast<double>(rng.uniformInt(0, 9));

    std::vector<TopKEntry> expected;
    for (std::size_t i = 0; i < n; ++i) expected.push_back({distances[i], i});
    std::stable_sort(expected.begin(), expected.end(),
                     [](const TopKEntry& a, const TopKEntry& b) {
                       return a.squaredDistance < b.squaredDistance;
                     });
    expected.resize(std::min(k, n));

    std::vector<TopKEntry> got;
    selectSmallestK(distances, k, got);
    ASSERT_EQ(got.size(), expected.size()) << "trial=" << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].squaredDistance, expected[i].squaredDistance);
      EXPECT_EQ(got[i].row, expected[i].row) << "trial=" << trial;
    }
  }
}

TEST(SelectSmallestKTest, ZeroKAndEmptyInputReturnNothing) {
  std::vector<TopKEntry> out{{1.0, 3}};
  selectSmallestK(std::vector<double>{1.0, 2.0}, 0, out);
  EXPECT_TRUE(out.empty());
  selectSmallestK(std::vector<double>{}, 4, out);
  EXPECT_TRUE(out.empty());
}

// ---- Database-level equivalence against the pre-kernel algorithm ----

radio::FingerprintDatabase makeDb(util::Rng& rng, std::size_t locations,
                                  std::size_t aps) {
  radio::FingerprintDatabase db;
  for (std::size_t i = 0; i < locations; ++i)
    db.addLocation(static_cast<env::LocationId>(i),
                   radio::Fingerprint(randomRow(rng, aps)));
  return db;
}

/// The pre-kernel queryInto, re-implemented as the oracle: sqrt
/// dissimilarity per entry, partial_sort, Eq. 4 with the 0.5 floor.
std::vector<radio::Match> oracleQuery(const radio::FingerprintDatabase& db,
                                      const radio::Fingerprint& query,
                                      std::size_t k) {
  std::vector<radio::Match> out;
  for (const auto id : db.locationIds())
    out.push_back(
        {id, radio::dissimilarity(query, db.entry(id)), 0.0});
  std::partial_sort(out.begin(),
                    out.begin() + static_cast<long>(std::min(k, out.size())),
                    out.end(), [](const radio::Match& a,
                                  const radio::Match& b) {
                      return a.dissimilarity < b.dissimilarity;
                    });
  out.resize(std::min(k, out.size()));
  double invSum = 0.0;
  for (const auto& m : out)
    invSum += 1.0 / std::max(m.dissimilarity, 0.5);
  for (auto& m : out)
    m.probability = (1.0 / std::max(m.dissimilarity, 0.5)) / invSum;
  return out;
}

TEST(FingerprintDatabaseKernelTest, QueryMatchesPreKernelOracleBitwise) {
  util::Rng rng(31);
  const auto db = makeDb(rng, 41, 6);
  for (int trial = 0; trial < 20; ++trial) {
    const radio::Fingerprint query(randomRow(rng, 6));
    const auto got = db.query(query, 12);
    const auto expected = oracleQuery(db, query, 12);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].location, expected[i].location) << "trial=" << trial;
      EXPECT_EQ(got[i].dissimilarity, expected[i].dissimilarity);
      EXPECT_EQ(got[i].probability, expected[i].probability);
    }
  }
}

TEST(SelectSmallestKTest, KAtLeastNReturnsEverythingSorted) {
  util::Rng rng(41);
  for (const std::size_t n : {1u, 2u, 7u, 33u}) {
    std::vector<double> distances(n);
    for (auto& d : distances)
      d = static_cast<double>(rng.uniformInt(0, 4));
    for (const std::size_t k : {n, n + 1, 10 * n}) {
      std::vector<TopKEntry> out;
      selectSmallestK(distances, k, out);
      ASSERT_EQ(out.size(), n) << "n=" << n << " k=" << k;
      for (std::size_t i = 1; i < out.size(); ++i) {
        EXPECT_LE(out[i - 1].squaredDistance, out[i].squaredDistance);
        // Equal distances keep ascending row order (lower row wins).
        if (out[i - 1].squaredDistance == out[i].squaredDistance) {
          EXPECT_LT(out[i - 1].row, out[i].row);
        }
      }
    }
  }
}

// Shortlist-sized inputs straddling the kernel's block boundary: the
// tiered index hands the kernel matrices of arbitrary small sizes, so
// every size around a multiple of kRowBlock must stay bitwise-exact
// (including the zero-padded tail never leaking into real outputs).
TEST(FingerprintKernelTest, BlockStraddlingSizesMatchPlainLoopBitwise) {
  util::Rng rng(43);
  const std::size_t cols = 6;
  const std::vector<double> query = randomRow(rng, cols);
  for (const std::size_t rows : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 63u,
                                 64u, 65u, 95u, 96u, 97u}) {
    FlatMatrix m;
    m.reset(cols);
    std::vector<std::vector<double>> raw;
    for (std::size_t r = 0; r < rows; ++r) {
      raw.push_back(randomRow(rng, cols));
      m.appendRow(raw.back());
    }
    std::vector<double> out(m.paddedRows());
    squaredDistances(m, query.data(), out.data());
    for (std::size_t r = 0; r < rows; ++r) {
      const double expected = rowSquaredDistance(raw[r], query);
      EXPECT_EQ(std::memcmp(&out[r], &expected, sizeof(double)), 0)
          << "rows=" << rows << " r=" << r;
    }
  }
}

// The 64k-location venue pushes FlatMatrix well past every prior use;
// the interleaved layout and the kernel must stay exact at that scale.
TEST(FlatMatrixTest, HandlesSixtyFourKRows) {
  util::Rng rng(47);
  const std::size_t rows = (1u << 16) + 3;
  const std::size_t cols = 8;
  FlatMatrix m;
  m.reset(cols);
  std::vector<double> row(cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c)
      row[c] = static_cast<double>(r * cols + c);
    m.appendRow(row);
  }
  ASSERT_EQ(m.rows(), rows);
  EXPECT_EQ(m.paddedRows(), ((rows + kRowBlock - 1) / kRowBlock) *
                                kRowBlock);
  // Spot-check the layout at the far end and across a block seam.
  for (const std::size_t r :
       {std::size_t{0}, rows / 2, rows - 5, rows - 1})
    for (std::size_t c = 0; c < cols; ++c)
      ASSERT_EQ(m.at(r, c), static_cast<double>(r * cols + c));

  const std::vector<double> query = randomRow(rng, cols);
  std::vector<double> out(m.paddedRows());
  squaredDistances(m, query.data(), out.data());
  for (const std::size_t r :
       {std::size_t{0}, std::size_t{1}, rows / 3, rows - 2, rows - 1}) {
    std::vector<double> expectRow(cols);
    for (std::size_t c = 0; c < cols; ++c)
      expectRow[c] = static_cast<double>(r * cols + c);
    const double expected = rowSquaredDistance(expectRow, query);
    EXPECT_EQ(std::memcmp(&out[r], &expected, sizeof(double)), 0)
        << "r=" << r;
  }
}

TEST(FingerprintDatabaseKernelTest, NearestIsArgminWithEarliestTieWin) {
  radio::FingerprintDatabase db;
  db.addLocation(7, radio::Fingerprint(std::vector<double>{-50.0, -60.0}));
  db.addLocation(3, radio::Fingerprint(std::vector<double>{-40.0, -70.0}));
  // Same fingerprint as location 7: a twin; the earlier insertion wins.
  db.addLocation(9, radio::Fingerprint(std::vector<double>{-50.0, -60.0}));
  EXPECT_EQ(db.nearest(radio::Fingerprint(std::vector<double>{-50.5, -60.5})),
            7);
  EXPECT_EQ(db.nearest(radio::Fingerprint(std::vector<double>{-41.0, -69.0})),
            3);
}

}  // namespace
}  // namespace moloc::kernel
