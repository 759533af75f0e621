#include "workload.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "image/image_writer.hpp"
#include "util/rng.hpp"
#include "worldgen/venue_spec.hpp"

namespace perfbench {

using namespace moloc;

namespace {

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // name, venue, intake, Localize/s (README: rates against the
      // measured closed-loop capacity)
      {"hall-walk", Venue::kHall, false, 8000.0},
      {"campus-16k", Venue::kCampus, false, 1000.0},
      {"hall-intake", Venue::kHall, true, 1000.0},
  };
  return specs;
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

const WorkloadSpec& workloadByName(const std::string& name) {
  for (const auto& spec : workloads())
    if (spec.name == name) return spec;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::size_t usersOf(const WorkloadSpec& spec) {
  return static_cast<std::size_t>(spec.localizeRate * kScanPeriodSec);
}

World::World(const WorkloadSpec& spec, std::uint64_t seed,
             std::size_t walks, std::size_t legs)
    : venue_(spec.venue) {
  walks_.resize(walks);
  if (venue_ == Venue::kHall) {
    eval::WorldConfig config;
    config.seed = kWorldSeed;
    hall_ = std::make_unique<eval::ExperimentWorld>(config);
    const auto& users = hall_->users();
    for (std::size_t w = 0; w < walks; ++w) {
      util::Rng rng(seed * 1000003ULL + w);
      const traj::Trace trace = hall_->makeTrace(
          users[w % users.size()], static_cast<int>(legs), rng);
      Walk& walk = walks_[w];
      walk.scans.push_back(trace.initialScan);
      walk.imus.emplace_back();
      for (const auto& interval : trace.intervals) {
        walk.scans.push_back(interval.scanAtArrival);
        walk.imus.push_back(interval.imu);
        walk.legs.push_back({interval.fromTruth, interval.toTruth,
                             interval.trueDirectionDeg,
                             interval.trueOffsetMeters});
      }
    }
    return;
  }
  worldgen::VenueSpec venueSpec = worldgen::parseVenueSpec(kCampusSpec);
  venueSpec.seed = kVenueSeed;
  campus_ = std::make_unique<worldgen::GeneratedVenue>(venueSpec);
  // Same-floor random walks, fingerprint-only (empty IMU): each scan is
  // taken facing along the straight leg just walked.
  const env::WalkGraph& graph = campus_->site().graph;
  for (std::size_t w = 0; w < walks; ++w) {
    util::Rng rng(seed * 1000003ULL + 0x70000000ULL + w);
    Walk& walk = walks_[w];
    auto loc = static_cast<env::LocationId>(
        rng.uniformIndex(campus_->locationCount()));
    walk.scans.push_back(campus_->scanAt(loc, 0.0, rng));
    walk.imus.emplace_back();
    for (std::size_t leg = 0; leg < legs; ++leg) {
      const auto neighbors = graph.neighbors(loc);
      env::LocationId next = loc;
      double heading = 0.0;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const auto& edge = neighbors[static_cast<std::size_t>(
            rng.uniformIndex(neighbors.size()))];
        if (&campus_->floorOf(edge.to) != &campus_->floorOf(loc)) continue;
        next = edge.to;
        heading = edge.headingDeg;
        break;
      }
      loc = next;
      walk.scans.push_back(campus_->scanAt(loc, heading, rng));
      walk.imus.emplace_back();
    }
  }
}

const env::FloorPlan& World::plan() const {
  return hall_ ? hall_->hall().plan : campus_->site().plan;
}

service::ServiceConfig World::serviceConfig(std::size_t threads) const {
  service::ServiceConfig config;
  config.threadCount = threads;
  if (campus_) config.indexShardStarts = campus_->shardStarts();
  return config;
}

std::unique_ptr<service::LocalizationService> World::makeService(
    std::size_t threads) const {
  if (hall_)
    return std::make_unique<service::LocalizationService>(
        hall_->fingerprintDb(), hall_->motionDb(), serviceConfig(threads));
  return std::make_unique<service::LocalizationService>(
      campus_->fingerprints(), campus_->motion(), serviceConfig(threads));
}

std::unique_ptr<service::LocalizationService> World::makeImageService(
    const image::VenueImage& image, service::ServiceConfig config) {
  return std::make_unique<service::LocalizationService>(
      image.fingerprints(), image.adjacency(), image.tieredIndex(),
      image.meta().generation, image.meta().intakeRecords, config);
}

void World::writeImage(const std::string& path) const {
  const auto service = makeService(1);
  image::writeVenueImage(path, *service->currentWorld());
}

bool bitwiseEqual(const core::LocationEstimate& a,
                  const core::LocationEstimate& b) {
  if (a.location != b.location || !sameBits(a.probability, b.probability) ||
      a.candidates.size() != b.candidates.size())
    return false;
  for (std::size_t i = 0; i < a.candidates.size(); ++i)
    if (a.candidates[i].location != b.candidates[i].location ||
        !sameBits(a.candidates[i].probability, b.candidates[i].probability))
      return false;
  return true;
}

bool structurallyValid(const core::LocationEstimate& estimate,
                       std::size_t locationCount) {
  const auto probabilityOk = [](double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
  };
  if (!estimate.hasFix() || estimate.location < 0 ||
      static_cast<std::size_t>(estimate.location) >= locationCount ||
      !probabilityOk(estimate.probability))
    return false;
  for (const auto& c : estimate.candidates)
    if (c.location < 0 ||
        static_cast<std::size_t>(c.location) >= locationCount ||
        !probabilityOk(c.probability))
      return false;
  return true;
}

bool sameIntakeState(const core::OnlineMotionDatabase& a,
                     const core::OnlineMotionDatabase& b) {
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  if (sa.rngState != sb.rngState || sa.capacity != sb.capacity ||
      sa.locationCount != sb.locationCount ||
      sa.counters.accepted != sb.counters.accepted ||
      sa.reservoirs.size() != sb.reservoirs.size() ||
      sa.entries.size() != sb.entries.size())
    return false;
  for (std::size_t p = 0; p < sa.reservoirs.size(); ++p) {
    const auto& ra = sa.reservoirs[p];
    const auto& rb = sb.reservoirs[p];
    if (ra.i != rb.i || ra.j != rb.j || ra.seen != rb.seen ||
        ra.samples.size() != rb.samples.size())
      return false;
    for (std::size_t k = 0; k < ra.samples.size(); ++k)
      if (!sameBits(ra.samples[k].directionDeg, rb.samples[k].directionDeg) ||
          !sameBits(ra.samples[k].offsetMeters, rb.samples[k].offsetMeters))
        return false;
  }
  for (std::size_t e = 0; e < sa.entries.size(); ++e) {
    const auto& ea = sa.entries[e];
    const auto& eb = sb.entries[e];
    if (ea.i != eb.i || ea.j != eb.j ||
        ea.stats.sampleCount != eb.stats.sampleCount ||
        !sameBits(ea.stats.muDirectionDeg, eb.stats.muDirectionDeg) ||
        !sameBits(ea.stats.sigmaDirectionDeg, eb.stats.sigmaDirectionDeg) ||
        !sameBits(ea.stats.muOffsetMeters, eb.stats.muOffsetMeters) ||
        !sameBits(ea.stats.sigmaOffsetMeters, eb.stats.sigmaOffsetMeters))
      return false;
  }
  return true;
}

}  // namespace perfbench
