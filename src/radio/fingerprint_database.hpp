#pragma once

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "env/floor_plan.hpp"
#include "kernel/fingerprint_kernel.hpp"
#include "radio/fingerprint.hpp"

namespace moloc::radio {

/// Floor for Eq. 4's 1/m weights.  Besides guarding the division when a
/// query exactly matches a stored fingerprint, the floor encodes a
/// physical fact: dissimilarities below ~half a dB are measurement
/// coincidence, not information, and must not let the fingerprint term
/// overrule the motion term (a 1e-9 floor would make an exact match
/// ~10^9 times "more likely" than a twin 0.1 dB away).  Exported so
/// alternative matching backends (index::TieredIndex) reproduce Eq. 4
/// bitwise.
inline constexpr double kMinDissimilarity = 0.5;

/// One fingerprint-matching result: a candidate location, its
/// dissimilarity m_i = phi(F, F_i), and its probability from Eq. 4.
struct Match {
  env::LocationId location = 0;
  double dissimilarity = 0.0;
  double probability = 0.0;
};

/// The location -> fingerprint radio map built by the site survey
/// (Sec. IV.B.1), supporting the paper's two query modes:
///   - `nearest` implements Eq. 2 (the plain WiFi baseline), and
///   - `query` implements Eq. 3-4 (the k-nearest candidate set with
///     probabilities P(x = l_i | F) = (1/m_i) / sum_j (1/m_j)).
///
/// Matching runs on a data-oriented kernel (src/kernel): entries are
/// mirrored into a contiguous row-major flat matrix (entries x APs,
/// stride padded to the kernel block) maintained incrementally by
/// addLocation, squared distances are computed by a blocked kernel
/// (auto-vectorized scalar, or runtime-dispatched AVX2 when the build
/// enables MOLOC_SIMD), and the top k are selected with a bounded
/// max-heap instead of materializing and partial-sorting all matches.
/// Ties in dissimilarity rank the earlier-inserted entry first.
class FingerprintDatabase {
 public:
  FingerprintDatabase() = default;

  /// Zero-copy construction from a venue image (src/image): entry r
  /// becomes a Fingerprint::view over row r of `rowMajorValues`
  /// (ids.size() x apCount doubles, row-major) and the kernel mirror
  /// adopts `blockedFlat` (a FlatMatrix::view over the image's blocked
  /// section) instead of re-packing it.  Both buffers must outlive the
  /// database — the image loader pins the mapping for it.  Only the
  /// shape and id uniqueness are validated here; value-level integrity
  /// is the image's CRC contract.  Throws std::invalid_argument on a
  /// shape mismatch or duplicate id.
  static FingerprintDatabase fromImageView(
      std::span<const env::LocationId> ids, std::size_t apCount,
      const double* rowMajorValues, kernel::FlatMatrix blockedFlat);

  /// Registers the radio-map entry for a location.  Entries must share
  /// one AP dimensionality; ids may arrive in any order but must be
  /// unique.  Throws std::invalid_argument on violations.
  void addLocation(env::LocationId id, Fingerprint radioMapEntry);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Dimensionality (number of APs) of stored fingerprints; 0 if empty.
  std::size_t apCount() const;

  /// The stored radio-map entry for `id`; throws std::out_of_range when
  /// the id was never added.
  const Fingerprint& entry(env::LocationId id) const;

  /// The entry at insertion position `row` (row order matches
  /// flatMatrix() rows); exposed for the venue-image writer and the
  /// tiered index so per-row walks skip the id hash.  `row` must be
  /// < size().
  const Fingerprint& entryAt(std::size_t row) const {
    return entries_[row].fingerprint;
  }
  env::LocationId idAt(std::size_t row) const { return entries_[row].id; }

  /// True iff `id` has a radio-map entry.
  bool contains(env::LocationId id) const;

  /// All stored location ids, in insertion order.
  std::vector<env::LocationId> locationIds() const;

  /// Eq. 2: the single location of least dissimilarity (ties keep the
  /// earliest-inserted entry).  Throws std::logic_error on an empty
  /// database.
  env::LocationId nearest(const Fingerprint& query) const;

  /// Eq. 3-4: the k nearest locations, ascending by dissimilarity, with
  /// normalized inverse-dissimilarity probabilities.  Returns fewer than
  /// k matches when the database is smaller.  k must be >= 1.
  std::vector<Match> query(const Fingerprint& query, std::size_t k) const;

  /// Allocation-free variant of query(): fills `out` (clearing it
  /// first) so a caller on the serving hot path can reuse one scratch
  /// buffer across rounds instead of allocating a size-n vector per
  /// call.  `out` is left unspecified if an exception is thrown.
  void queryInto(const Fingerprint& query, std::size_t k,
                 std::vector<Match>& out) const;

  /// A copy of this database restricted to the first `n` APs — how the
  /// paper derives its 4- and 5-AP configurations from the 6-AP survey.
  FingerprintDatabase truncatedTo(std::size_t n) const;

  /// The kernel-side storage (exposed for tests and benchmarks).
  const kernel::FlatMatrix& flatMatrix() const { return flat_; }

 private:
  struct Entry {
    env::LocationId id;
    Fingerprint fingerprint;
  };

  std::vector<Entry> entries_;
  /// id -> position in entries_, so entry()/contains() are O(1) and DB
  /// construction is amortized O(n) instead of the O(n^2) of scanning
  /// entries_ per lookup.  Positions stay valid because entries_ is
  /// append-only.
  std::unordered_map<env::LocationId, std::size_t> indexById_;
  /// Row r mirrors entries_[r].fingerprint in the kernel's blocked
  /// interleaved layout; rebuilt never, appended on every addLocation.
  kernel::FlatMatrix flat_;
};

}  // namespace moloc::radio
