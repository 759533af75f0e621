#pragma once

// Measurement primitives of the serving benchmark: the seeded Poisson
// arrival schedule, nearest-rank percentiles with the "highest
// percentile that still has ten samples beyond it" tail rule, and the
// in-memory span recorder whose self times give the per-layer
// breakdown.  Pure functions and plain data, so tests/ can pin them.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since an arbitrary steady epoch.
inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Send offsets (ns from phase start, ascending) of a Poisson process
/// with `ratePerSec` arrivals per second over `durationSec`: gaps are
/// exponential draws from a stream seeded by `seed` alone, so one seed
/// always yields one schedule.
std::vector<std::int64_t> poissonSchedule(std::uint64_t seed,
                                          double ratePerSec,
                                          double durationSec);

/// Nearest-rank percentile (`p` in [0, 100]) of `sorted`, ascending.
/// Infinite entries (failed requests) sort last and can be returned.
double percentile(const std::vector<double>& sorted, double p);

/// The highest of the benchmark's ladder of percentiles (50, 90, 99,
/// 99.9, 99.99) that leaves at least ten of `samples` beyond it; 0
/// when there are fewer than twenty samples (not even the median has
/// ten above it).
double tailPercentile(std::size_t samples);

/// Median of `values` (copied and sorted); 0 for an empty input.
double median(std::vector<double> values);

/// The `p`-th percentile of each full block of `block` consecutive
/// samples (in arrival order), then the median over blocks: a tail
/// figure that one burst of machine noise moves by one block, not
/// wholesale.  Falls back to the plain percentile with fewer samples.
double blockPercentile(const std::vector<double>& samples, std::size_t block,
                       double p);

/// One timed interval of the traced replay.
struct Span {
  std::uint32_t name = 0;     ///< Index into SpanRecorder::names().
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::int32_t parent = -1;   ///< Index of the enclosing span, or -1.
  std::uint64_t requestId = 0;
};

/// Keeps spans in memory while a replay runs; nothing is written until
/// the caller asks.  begin()/end() nest like a stack, so a span's
/// parent is whatever span is open when it begins.
class SpanRecorder {
 public:
  /// Interns `name`; call before timing to keep lookups off the path.
  std::uint32_t intern(const std::string& name);

  /// Opens a span now; returns its index for end().
  std::size_t begin(std::uint32_t name, std::uint64_t requestId);
  /// Closes span `index` now.  Spans must close innermost first.
  void end(std::size_t index);

  /// Appends a span with explicit times (tests, imported timings).
  std::size_t add(std::uint32_t name, std::int64_t startNs,
                  std::int64_t endNs, std::int32_t parent,
                  std::uint64_t requestId);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Writes one span per line: request, name, start, end, parent.
  bool writeTsv(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// Total self time per span name, in ns: each span's duration minus
/// the part of it that its direct children cover.
std::map<std::string, double> selfTimeByName(const SpanRecorder& recorder);

}  // namespace perfbench
