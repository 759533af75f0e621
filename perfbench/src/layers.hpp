#pragma once

// The traced run's in-process half: replays a workload's request
// stream against the library and times calls into each layer's public
// functions from here (nothing inside src/ is instrumented).  Returns
// the per-layer metrics that do not need the network.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/moloc_engine.hpp"
#include "measure.hpp"
#include "workload.hpp"

namespace perfbench {

/// One Localize request of a stream: which user, which walk and round.
struct LocalizeRef {
  std::uint64_t session = 0;
  std::uint32_t walk = 0;
  std::uint32_t round = 0;
};

struct LayerInputs {
  const WorkloadSpec* spec = nullptr;
  const World* world = nullptr;
  /// The service molocd serves with, built in-process: its radio map,
  /// index, serving adjacency and engine config drive the replay.
  const moloc::service::LocalizationService* reference = nullptr;
  std::size_t threads = 1;  ///< Batch pool size for the scaling pass.
  std::vector<LocalizeRef> stream;  ///< The open-loop Localize stream.
  /// What molocd answered for each stream entry (nullopt: no answer).
  std::vector<std::optional<moloc::core::LocationEstimate>> served;
  /// Whether served answers must equal the replay bitwise (false when
  /// intake publishes race the reads).
  bool expectBitwise = true;
  std::vector<Observation> observations;  ///< The intake stream.
  std::string imagePath;  ///< Campus venue image, else empty.
  std::string workDir;    ///< Scratch for the replay's own stores.
};

/// One reported figure and its unit.
struct Metric {
  double value = 0.0;
  const char* unit = "";
};

struct LayerResult {
  std::map<std::string, Metric> metrics;
  bool bitwiseOk = true;
  std::size_t mismatches = 0;
};

/// Runs every in-process layer measurement; spans of the traced replay
/// land in `recorder`.
LayerResult measureLayers(const LayerInputs& in, SpanRecorder& recorder);

}  // namespace perfbench
