#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

std::vector<std::int64_t> poissonSchedule(std::uint64_t seed,
                                          double ratePerSec,
                                          double durationSec) {
  if (!(ratePerSec > 0.0) || !(durationSec > 0.0))
    throw std::invalid_argument("poissonSchedule: rate and duration > 0");
  moloc::util::Rng rng(seed);
  std::vector<std::int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(ratePerSec * durationSec * 1.1));
  const double endNs = durationSec * 1e9;
  double t = 0.0;
  for (;;) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.uniform(0.0, 1.0)) / ratePerSec * 1e9;
    if (t >= endNs) break;
    offsets.push_back(static_cast<std::int64_t>(t));
  }
  return offsets;
}

namespace {

/// 1-based nearest rank of the p-th percentile among n samples.  The
/// epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
double nearestRank(double p, std::size_t n) {
  return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(nearestRank(p, sorted.size())), 1,
      sorted.size());
  return sorted[rank - 1];
}

double tailPercentile(std::size_t samples) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Samples ranked above the p-th percentile's nearest rank.
    if (static_cast<double>(samples) - nearestRank(p, samples) >= 10.0)
      best = p;
  }
  return best;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double blockPercentile(const std::vector<double>& samples, std::size_t block,
                       double p) {
  std::vector<double> perBlock;
  for (std::size_t b = 0; block > 0 && b + block <= samples.size();
       b += block) {
    std::vector<double> sorted(samples.begin() + b,
                               samples.begin() + b + block);
    std::sort(sorted.begin(), sorted.end());
    perBlock.push_back(percentile(sorted, p));
  }
  if (!perBlock.empty()) return median(perBlock);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  return percentile(sorted, p);
}

std::uint32_t SpanRecorder::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t SpanRecorder::begin(std::uint32_t name,
                                std::uint64_t requestId) {
  const std::int32_t parent =
      open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  spans_.push_back({name, nowNs(), 0, parent, requestId});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::end(std::size_t index) {
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  spans_[index].endNs = nowNs();
  open_.pop_back();
}

std::size_t SpanRecorder::add(std::uint32_t name, std::int64_t startNs,
                              std::int64_t endNs, std::int32_t parent,
                              std::uint64_t requestId) {
  spans_.push_back({name, startNs, endNs, parent, requestId});
  return spans_.size() - 1;
}

bool SpanRecorder::writeTsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "request\tname\tstart_ns\tend_ns\tparent\n");
  for (const Span& s : spans_)
    std::fprintf(f, "%llu\t%s\t%lld\t%lld\t%d\n",
                 static_cast<unsigned long long>(s.requestId),
                 names_[s.name].c_str(), static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs), s.parent);
  return std::fclose(f) == 0;
}

std::map<std::string, double> selfTimeByName(const SpanRecorder& recorder) {
  const auto& spans = recorder.spans();
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = static_cast<double>(spans[i].endNs - spans[i].startNs);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    // Only the part of the child inside its parent is the parent's.
    const std::int64_t covered = std::min(s.endNs, p.endNs) -
                                 std::max(s.startNs, p.startNs);
    if (covered > 0)
      self[static_cast<std::size_t>(s.parent)] -=
          static_cast<double>(covered);
  }
  std::map<std::string, double> byName;
  for (const auto& name : recorder.names()) byName[name] = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i)
    byName[recorder.names()[spans[i].name]] += self[i];
  return byName;
}

}  // namespace perfbench
