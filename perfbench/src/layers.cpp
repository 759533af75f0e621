#include "layers.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "core/localization_session.hpp"
#include "core/world_snapshot.hpp"
#include "image/image_loader.hpp"
#include "index/tiered_index.hpp"
#include "net/wire.hpp"
#include "sensors/motion_processor.hpp"
#include "store/state_store.hpp"

namespace perfbench {

using namespace moloc;

namespace {

double usBetween(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e3;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// What one pass of the replay produced.
struct ReplayPass {
  double seconds = 0.0;
  std::vector<core::LocationEstimate> estimates;
  std::size_t queries = 0;
  std::size_t shortlist = 0;
  std::size_t scanned = 0;
  std::size_t candidates = 0;
};

/// A session as the service makes one for a new user: index-backed
/// candidate estimation when the service built the tiered index, the
/// radio-map backend otherwise.
std::unique_ptr<core::LocalizationSession> makeSession(
    const service::LocalizationService& ref) {
  const service::ServiceConfig& config = ref.config();
  const index::TieredIndex* tiered = ref.tieredIndex().get();
  if (tiered == nullptr)
    return std::make_unique<core::LocalizationSession>(
        ref.fingerprints(), ref.motion(), config.defaultStepLengthMeters,
        config.engine, config.motion);
  return std::make_unique<core::LocalizationSession>(
      core::CandidateEstimator(
          [tiered](const radio::Fingerprint& query, std::size_t k,
                   std::vector<core::Candidate>& out) {
            tiered->queryInto(query, k, out);
          },
          config.engine.candidateCount),
      ref.motion(), config.defaultStepLengthMeters, config.engine,
      config.motion);
}

/// Replays the stream through the calls a served request makes, one
/// LocalizationSession per user bound to the serving world: the
/// candidate stage (FingerprintDatabase::queryInto, or
/// TieredIndex::queryInto when the service built the index), then
/// LocalizationSession::onScanWithCandidates under a "core.on_scan"
/// span.  With a null recorder nothing is traced (the overhead
/// baseline).
ReplayPass replay(const LayerInputs& in, SpanRecorder* rec) {
  const service::LocalizationService& ref = *in.reference;
  const radio::FingerprintDatabase& fingerprints = ref.fingerprints();
  const index::TieredIndex* tiered = ref.tieredIndex().get();
  const auto adjacency =
      core::WorldSnapshot::adjacencyOf(ref.currentWorld());
  const std::size_t k = ref.config().engine.candidateCount;

  std::uint32_t nRequest = 0, nCandidate = 0, nOnScan = 0;
  if (rec) {
    nRequest = rec->intern("request");
    nCandidate = rec->intern(tiered ? "index.query" : "radio.query");
    nOnScan = rec->intern("core.on_scan");
    rec->reserve(in.stream.size() * 3);
  }
  ReplayPass pass;
  pass.estimates.reserve(in.stream.size());
  std::unordered_map<std::uint64_t,
                     std::unique_ptr<core::LocalizationSession>>
      sessions;
  std::vector<core::Candidate> candidates;
  index::QueryStats stats;
  const std::int64_t t0 = nowNs();
  for (std::size_t j = 0; j < in.stream.size(); ++j) {
    const LocalizeRef& r = in.stream[j];
    const Walk& walk = in.world->walks()[r.walk];
    const auto& scan = walk.scans[r.round];
    const std::size_t root = rec ? rec->begin(nRequest, j) : 0;
    auto& session = sessions[r.session];
    if (!session) {
      session = makeSession(ref);
      session->rebindMotion(adjacency);
    }
    const std::size_t cand = rec ? rec->begin(nCandidate, j) : 0;
    if (tiered) {
      tiered->queryInto(scan, k, candidates, &stats);
      pass.shortlist += stats.shortlistSize;
      pass.scanned += stats.scannedEntries;
    } else {
      fingerprints.queryInto(scan, k, candidates);
    }
    if (rec) rec->end(cand);
    pass.candidates += candidates.size();
    ++pass.queries;
    const std::size_t onScan = rec ? rec->begin(nOnScan, j) : 0;
    pass.estimates.push_back(session->onScanWithCandidates(
        candidates, nullptr, walk.imus[r.round]));
    if (rec) {
      rec->end(onScan);
      rec->end(root);
    }
  }
  pass.seconds = static_cast<double>(nowNs() - t0) / 1e9;
  return pass;
}

/// Times MotionProcessor::process alone on the stream's IMU traces,
/// with the step length and parameters onScanWithCandidates uses: one
/// root "sensors.process" span per request that carries an IMU.
void timeMotion(const LayerInputs& in, SpanRecorder& rec) {
  const service::ServiceConfig& config = in.reference->config();
  const sensors::MotionProcessor processor(config.motion);
  const std::uint32_t name = rec.intern("sensors.process");
  for (std::size_t j = 0; j < in.stream.size(); ++j) {
    const LocalizeRef& r = in.stream[j];
    const auto& imu = in.world->walks()[r.walk].imus[r.round];
    if (imu.empty()) continue;
    const std::size_t span = rec.begin(name, j);
    processor.process(imu, config.defaultStepLengthMeters);
    rec.end(span);
  }
}

/// A fresh service as molocd boots it for this workload (intake
/// attached to `db` where molocd attaches one).
std::unique_ptr<service::LocalizationService> bootService(
    const LayerInputs& in, const image::VenueImage* image,
    std::size_t threads, core::OnlineMotionDatabase* db) {
  auto service =
      image ? World::makeImageService(*image,
                                      in.world->serviceConfig(threads))
            : in.world->makeService(threads);
  if (db) service->attachIntake(db);
  return service;
}

}  // namespace

LayerResult measureLayers(const LayerInputs& in, SpanRecorder& recorder) {
  LayerResult result;
  auto& m = result.metrics;
  const bool campus = in.world->venue() == Venue::kCampus;
  const double n = static_cast<double>(std::max<std::size_t>(
      in.stream.size(), 1));

  // ---- image / eval: what molocd's set-up is made of ----------------
  std::vector<double> opens;
  std::unique_ptr<image::VenueImage> image;
  for (int i = 0; i < 3; ++i) {
    if (!campus) break;
    const std::int64_t t = nowNs();
    image = std::make_unique<image::VenueImage>(
        image::VenueImage::open(in.imagePath));
    opens.push_back(static_cast<double>(nowNs() - t) / 1e9);
  }
  m["image.open_s"] = {median(opens), "s"};
  std::vector<double> builds;
  for (int i = 0; i < 3; ++i) {
    if (campus) break;
    eval::WorldConfig config;
    config.seed = kWorldSeed;
    const std::int64_t t = nowNs();
    const eval::ExperimentWorld world(config);
    builds.push_back(static_cast<double>(nowNs() - t) / 1e9);
  }
  m["eval.world_build_s"] = {median(builds), "s"};

  // ---- decomposed replay: radio/index, sensors, core ----------------
  // Alternate untraced and traced passes; the faster of each pair is
  // the least disturbed by the rest of the machine.
  double untraced = 0.0;
  double traced = 0.0;
  ReplayPass last;
  for (int round = 0; round < 2; ++round) {
    const ReplayPass plain = replay(in, nullptr);
    untraced = round == 0 ? plain.seconds : std::min(untraced, plain.seconds);
    SpanRecorder rec;
    last = replay(in, &rec);
    traced = round == 0 ? last.seconds : std::min(traced, last.seconds);
    recorder = std::move(rec);
  }
  m["trace.overhead_frac"] = {untraced > 0.0 ? traced / untraced - 1.0 : 0.0, "ratio"};
  timeMotion(in, recorder);
  const auto self = selfTimeByName(recorder);
  const auto selfUs = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / 1e3 / n;
  };
  m["radio.query_us"] = {selfUs("radio.query"), "us"};
  m["index.query_us"] = {selfUs("index.query"), "us"};
  // onScanWithCandidates is motion processing plus the engine's motion
  // matching and fusion; the fusion is what is left of it.
  m["sensors.process_us"] = {selfUs("sensors.process"), "us"};
  m["core.fuse_us"] = {selfUs("core.on_scan") - selfUs("sensors.process"),
                       "us"};
  const double queries = static_cast<double>(std::max<std::size_t>(
      last.queries, 1));
  m["index.shortlist_mean"] = {campus ? static_cast<double>(last.shortlist) / queries : 0.0, "count"};
  m["index.scanned_entries_mean"] = {campus ? static_cast<double>(last.scanned) / queries : 0.0, "count"};
  m["index.useful_ratio"] = {campus && last.shortlist > 0
          ? static_cast<double>(last.candidates) /
                static_cast<double>(last.shortlist)
          : 0.0, "ratio"};
  for (std::size_t j = 0; j < in.stream.size(); ++j) {
    if (!in.expectBitwise || !in.served[j]) continue;
    if (!bitwiseEqual(*in.served[j], last.estimates[j])) {
      result.bitwiseOk = false;
      ++result.mismatches;
    }
  }

  // ---- net codec: client-side encode + reassemble + decode ----------
  {
    std::vector<std::string> responses(in.stream.size());
    for (std::size_t j = 0; j < in.stream.size(); ++j) {
      net::LocalizeResponse response;
      response.tag = j;
      response.estimate = last.estimates[j];
      responses[j] = net::encodeLocalizeResponse(response);
    }
    net::FrameAssembler assembler;
    net::Frame frame;
    const std::int64_t t = nowNs();
    for (std::size_t j = 0; j < in.stream.size(); ++j) {
      const LocalizeRef& r = in.stream[j];
      const Walk& walk = in.world->walks()[r.walk];
      net::LocalizeRequest request;
      request.tag = j;
      request.scan = {r.session, walk.scans[r.round], walk.imus[r.round]};
      const std::string wire = net::encodeLocalizeRequest(request);
      assembler.feed(responses[j].data(), responses[j].size());
      if (!assembler.next(frame) ||
          net::decodeLocalizeResponse(frame.payload).tag != j ||
          wire.empty())
        result.bitwiseOk = false;  // The codec itself lost a message.
    }
    m["net.codec_us"] = {usBetween(t, nowNs()) / n, "us"};
  }

  // ---- service: submitScan, then localizeBatch scaling ---------------
  {
    auto db = campus ? nullptr
                     : std::make_unique<core::OnlineMotionDatabase>(
                           in.world->plan());
    const auto service = bootService(in, image.get(), 1, db.get());
    std::vector<double> us;
    us.reserve(in.stream.size());
    for (const LocalizeRef& r : in.stream) {
      const Walk& walk = in.world->walks()[r.walk];
      const std::int64_t t = nowNs();
      service->submitScan(r.session, walk.scans[r.round], walk.imus[r.round]);
      us.push_back(usBetween(t, nowNs()));
    }
    std::sort(us.begin(), us.end());
    m["service.submit_us"] = {percentile(us, 50.0), "us"};
    m["service.submit_p99_us"] = {percentile(us, 99.0), "us"};
  }
  const auto batchQps = [&](std::size_t threads) {
    const auto service = bootService(in, image.get(), threads, nullptr);
    constexpr std::size_t kBatch = 64;
    double seconds = 0.0;
    for (std::size_t b = 0; b < in.stream.size(); b += kBatch) {
      std::vector<service::ScanRequest> batch;
      for (std::size_t j = b; j < std::min(b + kBatch, in.stream.size());
           ++j) {
        const LocalizeRef& r = in.stream[j];
        const Walk& walk = in.world->walks()[r.walk];
        batch.push_back({r.session, walk.scans[r.round], walk.imus[r.round]});
      }
      const std::int64_t t = nowNs();
      service->localizeBatch(batch);
      seconds += static_cast<double>(nowNs() - t) / 1e9;
    }
    return seconds > 0.0 ? static_cast<double>(in.stream.size()) / seconds
                         : 0.0;
  };
  m["service.batch_qps_1t"] = {batchQps(1), "1/s"};
  m["service.batch_qps_nt"] = {batchQps(in.threads), "1/s"};
  m["service.batch_scaling"] = {m["service.batch_qps_1t"].value > 0.0
          ? m["service.batch_qps_nt"].value / m["service.batch_qps_1t"].value
          : 0.0, "ratio"};

  // ---- service intake + store (the intake workload only) -------------
  double reportUs = 0.0, flushUs = 0.0, publishes = 0.0;
  double appendUs = 0.0, fsyncs = 0.0;
  if (in.spec->intake) {
    // The intake as molocd runs it there: durable, with checkpoints.
    const std::string serviceDir = in.workDir + "/replay-store";
    std::filesystem::remove_all(serviceDir);
    store::StateStore serviceStore(serviceDir);
    const auto db =
        std::make_unique<core::OnlineMotionDatabase>(in.world->plan());
    const auto service = in.world->makeService(1);
    service->attachIntake(db.get(), &serviceStore, kCheckpointEvery);
    const std::uint64_t before = service->currentWorld()->generation();
    std::vector<double> report, flush;
    std::vector<Observation> accepted;
    for (std::size_t i = 0; i < in.observations.size(); ++i) {
      const Observation& o = in.observations[i];
      std::int64_t t = nowNs();
      const bool ok = service->reportObservation(o.from, o.to, o.directionDeg,
                                                 o.offsetMeters);
      report.push_back(usBetween(t, nowNs()));
      if (ok) accepted.push_back(o);
      if ((i + 1) % kFlushEvery == 0) {
        t = nowNs();
        service->flushIntake();
        flush.push_back(usBetween(t, nowNs()));
      }
    }
    service->flushIntake();
    std::sort(report.begin(), report.end());
    reportUs = percentile(report, 50.0);
    flushUs = median(flush);
    publishes = static_cast<double>(service->currentWorld()->generation() -
                                    before);

    // StateStore::onAccepted alone, under the same (default) policy.
    const std::string dir = in.workDir + "/append-store";
    std::filesystem::remove_all(dir);
    store::StateStore appendStore(dir);
    std::vector<double> us;
    for (const Observation& o : accepted) {
      const std::int64_t t = nowNs();
      appendStore.onAccepted(o.from, o.to, o.directionDeg, o.offsetMeters);
      us.push_back(usBetween(t, nowNs()));
    }
    appendUs = mean(us);
    fsyncs = static_cast<double>(appendStore.walStats().fsyncs);
  }
  m["service.report_us"] = {reportUs, "us"};
  m["service.flush_us"] = {flushUs, "us"};
  m["service.publishes"] = {publishes, "count"};
  m["store.append_us"] = {appendUs, "us"};
  m["store.fsyncs"] = {fsyncs, "count"};
  return result;
}

}  // namespace perfbench
