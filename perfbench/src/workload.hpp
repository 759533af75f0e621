#pragma once

// The benchmark's workloads: which venue molocd serves, at what
// open-loop rates, and the seeded user walks and ground-truth
// observations that become its requests.  The workload seed drives
// every walk, scan, IMU trace and arrival time; the venue itself is
// fixed (world seed 42, campus-16k venue seed 42), so molocd only ever
// receives venue flags and the generated requests.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/online_motion_database.hpp"
#include "env/floor_plan.hpp"
#include "eval/experiment_world.hpp"
#include "image/image_loader.hpp"
#include "radio/fingerprint.hpp"
#include "sensors/imu_trace.hpp"
#include "service/localization_service.hpp"
#include "worldgen/generated_venue.hpp"

namespace perfbench {

enum class Venue { kHall, kCampus };

/// One workload's fixed definition (see perfbench/README.md for why
/// each exists and which layer it stresses).
struct WorkloadSpec {
  std::string name;
  Venue venue = Venue::kHall;
  /// Every user also reports each leg it walks as a ground-truth
  /// observation, to the daemon serving the reads, which keeps its
  /// intake durable (--wal-dir, --checkpoint-every).
  bool intake = false;
  double localizeRate = 0.0;  ///< Open-loop Localize per second.
};

/// The workload called `name`; throws std::invalid_argument when unknown.
const WorkloadSpec& workloadByName(const std::string& name);

inline constexpr std::uint64_t kWorldSeed = 42;
inline constexpr const char* kCampusSpec = "campus-16k";
inline constexpr std::uint64_t kVenueSeed = 42;
/// Observations per Flush barrier: the intake's publish cadence.
inline constexpr std::size_t kFlushEvery = 64;
/// molocd --checkpoint-every on the intake workload.
inline constexpr std::uint64_t kCheckpointEvery = 1024;
/// Seconds between one user's scans: the mean walk time of a hall leg
/// (the IMU trace a scan carries).  A workload's users are its
/// Localize rate times this.
inline constexpr double kScanPeriodSec = 4.0;

/// Open-loop users of `spec`: each scans once per kScanPeriodSec.
std::size_t usersOf(const WorkloadSpec& spec);

/// A ground-truth relative-location observation (one walked leg).
struct Observation {
  std::int32_t from = 0;
  std::int32_t to = 0;
  double directionDeg = 0.0;
  double offsetMeters = 0.0;
};

/// One user's walk: scans[r] is the scan of round r, imus[r] the IMU
/// recording since round r-1 (imus[0] empty; all empty on the campus,
/// which is served fingerprint-only).  On the hall, legs[r-1] is the
/// ground truth of the leg walked before round r.
struct Walk {
  std::vector<moloc::radio::Fingerprint> scans;
  std::vector<moloc::sensors::ImuTrace> imus;
  std::vector<Observation> legs;
};

/// The venue a workload runs on, built in-process exactly as molocd
/// builds it, plus the seeded walks over it.
class World {
 public:
  World(const WorkloadSpec& spec, std::uint64_t seed, std::size_t walks,
        std::size_t legs);

  Venue venue() const { return venue_; }
  const moloc::env::FloorPlan& plan() const;
  std::size_t locationCount() const { return plan().locationCount(); }
  const std::vector<Walk>& walks() const { return walks_; }
  /// Rounds per walk (legs + 1).
  std::size_t rounds() const { return walks_.front().scans.size(); }

  /// The service config molocd runs with (batch pool of `threads`).
  moloc::service::ServiceConfig serviceConfig(std::size_t threads) const;

  /// A service over the venue molocd boots from: the hall world or
  /// the generated campus venue (not the image).
  std::unique_ptr<moloc::service::LocalizationService> makeService(
      std::size_t threads) const;

  /// A service over a loaded campus venue image, as molocd --image
  /// builds it.
  static std::unique_ptr<moloc::service::LocalizationService>
  makeImageService(const moloc::image::VenueImage& image,
                   moloc::service::ServiceConfig config);

  /// Writes the campus venue image molocd --image serves.
  void writeImage(const std::string& path) const;

 private:
  Venue venue_;
  std::unique_ptr<moloc::eval::ExperimentWorld> hall_;
  std::unique_ptr<moloc::worldgen::GeneratedVenue> campus_;
  std::vector<Walk> walks_;
};

/// Bitwise equality of two estimates (location, every probability).
bool bitwiseEqual(const moloc::core::LocationEstimate& a,
                  const moloc::core::LocationEstimate& b);

/// A served estimate that could be right: a fix at a location of the
/// map with finite probabilities in [0, 1].
bool structurallyValid(const moloc::core::LocationEstimate& estimate,
                       std::size_t locationCount);

/// Bitwise equality of two intake databases' full state (reservoirs,
/// published entries, RNG position).
bool sameIntakeState(const moloc::core::OnlineMotionDatabase& a,
                     const moloc::core::OnlineMotionDatabase& b);

}  // namespace perfbench
