// molocbench: the serving benchmark for molocd.
//
// One run = one workload at one seed.  It builds the workload's venue
// and seeded user walks in-process, starts the serving molocd, then
// drives it from this single process through kCycles cycles, each
// after two more timed molocd launches (set-up samples):
//
//   open loop   — Localize on a seeded Poisson schedule at the
//                 workload's rate, each request timed from its intended
//                 send time (coordinated-omission correction); on
//                 hall-intake each user also reports every leg it
//                 walked, with a Flush after every 64th report;
//   closed loop — every Localize connection keeps a fixed pipeline
//                 depth outstanding: completed Localize per second.
//
// Then it drains molocd with SIGTERM and checks every answer: bitwise
// against an in-process LocalizationService on hall-walk and
// campus-16k; structurally, plus intake accounting and recovery of
// molocd's WAL, on hall-intake.  With --trace 1 it also replays the
// request stream in-process with spans around each layer's public
// calls and reports the per-layer metrics instead.  The last stdout
// line is the JSON result; see perfbench/README.md.

#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "daemon.hpp"
#include "load_engine.hpp"
#include "kernel/fingerprint_kernel.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "net/client.hpp"
#include "net/wire.hpp"
#include "store/state_store.hpp"
#include "util/args.hpp"
#include "workload.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace {

using namespace moloc;
using namespace perfbench;

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Localize connections at most; one more carries the intake stream,
/// and the total never exceeds nproc.
constexpr std::size_t kMaxLocalizeConnections = 3;
/// Closed loop: requests kept outstanding per connection.
constexpr std::size_t kClosedDepth = 32;
/// Closed loop: users per connection.
constexpr std::size_t kClosedSessions = 64;
/// Distinct walks the users share.
constexpr std::size_t kWalks = 256;
/// Extra molocd launches before each measured cycle; setup_s is the
/// median over them and the serving daemon's launch.
constexpr int kSetupPerCycle = 2;
/// A run whose generator sent its 99th-percentile request later than
/// this behind schedule measured the client, not molocd: invalid.  A
/// saturated generator falls behind by seconds; host vCPU stalls of a
/// few hundred milliseconds must not void a run.
constexpr double kMaxSendLagMs = 100.0;
constexpr std::int64_t kDrainNs = 10'000'000'000;
/// Tail latencies are the median over blocks of this many requests of
/// each block's p99 (ten samples beyond it per block).
constexpr std::size_t kTailBlock = 1000;
/// Closed-loop throughput is the median over windows this long.
constexpr double kQpsWindowSec = 0.5;
/// Measurement cycles per run.
constexpr int kCycles = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string molocd;
  std::string netThreads;
  std::string threads;
  std::string workDir;
  std::string spansPath;
  std::string record;
  std::string gitSha;
  std::string srcDigest;
};

/// Build and machine facts stamped on every result.
struct Machine {
  long nproc = 1;
  std::string cpu = "unknown";
  std::string simd;
  std::string buildType = PERFBENCH_BUILD_TYPE;
  bool optimized = false;
  bool metrics = MOLOC_METRICS_ENABLED != 0;
};

Machine probeMachine() {
  Machine m;
  m.nproc = std::max(1L, ::sysconf(_SC_NPROCESSORS_ONLN));
  m.simd = kernel::simdLevelName(kernel::activeSimdLevel());
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  m.optimized = true;
#endif
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      unsigned r[4] = {};
      __get_cpuid(0x80000002u + leaf, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + 16 * leaf, r, 16);
    }
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    s.erase(s.find_last_not_of(' ') + 1);
    if (!s.empty()) m.cpu = s;
  }
#endif
  return m;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string machineJson(const Machine& m, const Options& o) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%ld", m.nproc);
  return std::string("{\"nproc\": ") + buf +
         ", \"cpu\": " + jsonString(m.cpu) +
         ", \"simd\": " + jsonString(m.simd) +
         ", \"build_type\": " + jsonString(m.buildType) +
         ", \"optimized\": " + (m.optimized ? "true" : "false") +
         ", \"moloc_metrics\": " + (m.metrics ? "true" : "false") +
         ", \"git_sha\": " + jsonString(o.gitSha) +
         ", \"src_digest\": " + jsonString(o.srcDigest) +
         ", \"smoke\": " + (o.smoke ? "true" : "false") + "}";
}

/// Failure accounting across every request a run sends.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t missing = 0;    ///< Never answered (timeout, hang-up).
  std::uint64_t protocol = 0;   ///< Wrong type, tag or bytes.
  std::uint64_t overloaded = 0; ///< OVERLOADED status.
  std::uint64_t status = 0;     ///< Any other non-OK status.
  std::uint64_t failed() const {
    return missing + protocol + overloaded + status;
  }
};

/// Classifies one answer; true when it arrived, parsed and is OK.
template <typename Response, typename Decode>
bool accept(const Outcome& o, net::MsgType type, std::uint64_t tag,
            Decode decode, Tally& tally, Response& out) {
  ++tally.attempted;
  if (!o.answered()) {
    ++tally.missing;
    return false;
  }
  if (o.type != type) {
    ++tally.protocol;
    return false;
  }
  try {
    out = decode(o.payload);
  } catch (const net::ProtocolError&) {
    ++tally.protocol;
    return false;
  }
  if (out.tag != tag) {
    ++tally.protocol;
    return false;
  }
  if (out.status == net::Status::kOverloaded) {
    ++tally.overloaded;
    return false;
  }
  if (out.status != net::Status::kOk) {
    ++tally.status;
    return false;
  }
  return true;
}

enum class Kind { kLocalize, kObserve, kFlush };

/// One request of an open-loop phase.
struct Planned {
  Kind kind = Kind::kLocalize;
  /// Localize and report: index into the Localize stream; Flush: its
  /// number.
  std::size_t index = 0;
  std::int64_t offsetNs = 0;
  std::uint32_t connection = 0;
};

std::uint64_t tagOf(std::uint64_t phase, std::uint64_t sequence) {
  return (phase << 56) | sequence;
}

std::string encodeLocalize(const World& world, const LocalizeRef& r,
                           std::uint64_t tag) {
  const Walk& walk = world.walks()[r.walk];
  net::LocalizeRequest request;
  request.tag = tag;
  request.scan = {r.session, walk.scans[r.round], walk.imus[r.round]};
  return net::encodeLocalizeRequest(request);
}

/// The leg a Localize request's user walked to reach the scan: what
/// the user reports on the intake workload.  Null on a walk's first
/// round.
const Observation* legOf(const World& world, const LocalizeRef& r) {
  return r.round == 0 ? nullptr : &world.walks()[r.walk].legs[r.round - 1];
}

/// The intake stream, one report per walked leg: every Localize past a
/// walk's first round is followed, at the same intended time and on
/// connection `conn`, by its leg's observation; a Flush barrier goes
/// right after every kFlushEvery-th report.  (`index` of a report is
/// its Localize request's.)
std::vector<Planned> planIntake(const std::vector<Planned>& localizePlan,
                                const std::vector<LocalizeRef>& stream,
                                std::uint32_t conn) {
  std::vector<Planned> plan;
  std::size_t reports = 0;
  for (const Planned& p : localizePlan) {
    if (stream[p.index].round == 0) continue;
    plan.push_back({Kind::kObserve, p.index, p.offsetNs, conn});
    if (++reports % kFlushEvery == 0)
      plan.push_back(
          {Kind::kFlush, reports / kFlushEvery - 1, p.offsetNs, conn});
  }
  return plan;
}

/// What an open-loop phase measured.
struct OpenLoopResult {
  std::vector<double> localizeMs;  ///< From intended time; inf = failed.
  std::vector<double> observeMs;
  std::vector<double> flushMs;
  std::vector<double> sendLagMs;
  std::vector<std::optional<core::LocationEstimate>> served;
  std::vector<Observation> accepted;  ///< In admission order.
};

/// Runs one open-loop slice and appends what it measured to `r`
/// (whose `served` is indexed by position in `stream`).
void runOpenLoop(LoadEngine& engine, const std::vector<Planned>& plan,
                 const World& world, const std::vector<LocalizeRef>& stream,
                 Tally& tally, OpenLoopResult& r) {
  OpenLoopPlan wire;
  for (const Planned& p : plan) {
    wire.offsetNs.push_back(p.offsetNs);
    wire.connection.push_back(p.connection);
  }
  wire.encode = [&](std::size_t i) -> std::string {
    const Planned& p = plan[i];
    switch (p.kind) {
      case Kind::kLocalize:
        return encodeLocalize(world, stream[p.index], tagOf(1, p.index));
      case Kind::kObserve: {
        const Observation& o = *legOf(world, stream[p.index]);
        return net::encodeReportObservationRequest(
            {tagOf(3, p.index), o.from, o.to, o.directionDeg,
             o.offsetMeters});
      }
      case Kind::kFlush:
        return net::encodeFlushRequest({tagOf(4, p.index)});
    }
    return {};
  };
  const std::vector<Outcome> outcomes = engine.openLoop(wire, kDrainNs);
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    const Outcome& o = outcomes[i];
    r.sendLagMs.push_back(static_cast<double>(o.sentNs - o.intendedNs) / 1e6);
    const double ms =
        o.answered() ? static_cast<double>(o.doneNs - o.intendedNs) / 1e6
                     : kInf;
    switch (p.kind) {
      case Kind::kLocalize: {
        net::LocalizeResponse resp;
        const bool ok = accept(o, net::MsgType::kLocalizeResponse,
                               tagOf(1, p.index), net::decodeLocalizeResponse,
                               tally, resp);
        r.localizeMs.push_back(ok ? ms : kInf);
        if (ok) r.served[p.index] = std::move(resp.estimate);
        break;
      }
      case Kind::kObserve: {
        net::ReportObservationResponse resp;
        const bool ok = accept(o, net::MsgType::kReportObservationResponse,
                               tagOf(3, p.index),
                               net::decodeReportObservationResponse, tally,
                               resp);
        r.observeMs.push_back(ok ? ms : kInf);
        if (ok && resp.accepted)
          r.accepted.push_back(*legOf(world, stream[p.index]));
        break;
      }
      case Kind::kFlush: {
        net::FlushResponse resp;
        const bool ok = accept(o, net::MsgType::kFlushResponse,
                               tagOf(4, p.index), net::decodeFlushResponse,
                               tally, resp);
        r.flushMs.push_back(ok ? ms : kInf);
        break;
      }
    }
  }
}

/// A closed loop run in slices: each connection cycles through its
/// own users' pre-encoded requests, continuing where the last slice
/// stopped, so every user's requests stay in walk order.
struct ClosedLoop {
  std::uint64_t phase = 0;
  std::vector<std::vector<LocalizeRef>> refs;  ///< Per connection.
  std::vector<std::vector<std::string>> frames;
  std::vector<std::uint64_t> sent;  ///< Per connection, across slices.
  std::vector<double> windowQps;  ///< Completions per second, per window.
  std::vector<double> rttUs;  ///< Send to answer, answered requests.
  std::vector<LocalizeRef> servedRefs;  ///< Every request sent, in order.
  std::vector<std::optional<core::LocationEstimate>> served;

  ClosedLoop(std::uint64_t phaseTag, std::vector<std::vector<LocalizeRef>> r,
             const World& world)
      : phase(phaseTag), refs(std::move(r)), frames(refs.size()),
        sent(refs.size(), 0) {
    for (std::size_t c = 0; c < refs.size(); ++c)
      for (std::size_t f = 0; f < refs[c].size(); ++f)
        frames[c].push_back(
            encodeLocalize(world, refs[c][f], tagOf(phase, (c << 32) | f)));
  }

  double qps() const { return median(windowQps); }
};

void runClosedLoop(LoadEngine& engine, ClosedLoop& loop, std::size_t depth,
                   double seconds, Tally& tally) {
  const auto durationNs = static_cast<std::int64_t>(seconds * 1e9);
  const std::vector<Outcome> outcomes =
      engine.closedLoop(loop.frames, loop.sent, depth, durationNs, kDrainNs);
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  for (const Outcome& o : outcomes) first = std::min(first, o.sentNs);
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kQpsWindowSec));
  const double windowSec = seconds / static_cast<double>(windows);
  std::vector<double> completions(windows, 0.0);
  for (const Outcome& o : outcomes) {
    const std::size_t f = o.sequence % loop.refs[o.connection].size();
    net::LocalizeResponse resp;
    const bool ok =
        accept(o, net::MsgType::kLocalizeResponse,
               tagOf(loop.phase, (std::uint64_t{o.connection} << 32) | f),
               net::decodeLocalizeResponse, tally, resp);
    loop.servedRefs.push_back(loop.refs[o.connection][f]);
    loop.served.emplace_back();
    if (!ok) continue;
    loop.served.back() = std::move(resp.estimate);
    loop.rttUs.push_back(static_cast<double>(o.doneNs - o.sentNs) / 1e3);
    const auto w = static_cast<std::size_t>(
        static_cast<double>(o.doneNs - first) / (windowSec * 1e9));
    if (w < windows) completions[w] += 1.0 / windowSec;
  }
  loop.windowQps.insert(loop.windowQps.end(), completions.begin(),
                        completions.end());
}

double sortedPercentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return percentile(v, p);
}

/// molocd with the fixed thread flags plus `venueArgs`.
std::vector<std::string> molocdArgs(const Options& o,
                                    std::vector<std::string> venueArgs) {
  std::vector<std::string> args = {o.molocd, "--net-threads", o.netThreads,
                                   "--threads", o.threads};
  args.insert(args.end(), venueArgs.begin(), venueArgs.end());
  return args;
}

/// Flush + Stats over a fresh connection: the intake barrier and the
/// daemon's counters.  Counts both requests.
std::optional<net::ServerStats> control(std::uint16_t port, bool flush,
                                        Tally& tally) {
  try {
    net::Client client("127.0.0.1", port);
    if (flush) {
      ++tally.attempted;
      if (client.flush(tagOf(5, 0)).status != net::Status::kOk) {
        ++tally.status;
        return std::nullopt;
      }
    }
    ++tally.attempted;
    const auto stats = client.stats(tagOf(5, 1));
    if (stats.status != net::Status::kOk) {
      ++tally.status;
      return std::nullopt;
    }
    return stats.stats;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "molocbench: control request failed: %s\n", e.what());
    ++tally.missing;
    return std::nullopt;
  }
}

/// The CPUs this process may run on, and binding threads to them.
class CpuSet {
 public:
  CpuSet() {
    CPU_ZERO(&all_);
    if (::sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
  }
  std::size_t size() const { return cpus_.size(); }
  /// Binds thread `tid` (0: the calling one) to the allowed CPUs
  /// [first, first + count).
  void bind(std::size_t first, std::size_t count, pid_t tid = 0) const {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i = first; i < first + count && i < cpus_.size(); ++i)
      CPU_SET(cpus_[i], &set);
    ::sched_setaffinity(tid, sizeof set, &set);
  }
  void unbind() const { ::sched_setaffinity(0, sizeof all_, &all_); }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

/// Binds the threads of process `pid`, in creation order, one each to
/// the allowed CPUs [0, count) round robin.  molocd starts its event
/// loop and request workers one after another, so they land on
/// distinct CPUs.
void spreadThreads(pid_t pid, const CpuSet& cpus, std::size_t count) {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid) + "/task", ec))
    tids.push_back(static_cast<pid_t>(
        std::stol(entry.path().filename().string())));
  std::sort(tids.begin(), tids.end());
  for (std::size_t i = 0; i < tids.size(); ++i)
    cpus.bind(i % count, 1, tids[i]);
}

struct Verdict {
  bool ok = true;
  void fail(const std::string& why) {
    ok = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
    std::fprintf(stderr, "molocbench: CHECK FAILED: %s\n", why.c_str());
  }
};

int run(const Options& opt) {
  const Machine machine = probeMachine();
  std::printf("machine %s\n", machineJson(machine, opt).c_str());
  if (!machine.optimized && !opt.smoke) {
    std::fprintf(stderr,
                 "molocbench: refusing to measure an unoptimised build "
                 "(%s)\n", machine.buildType.c_str());
    return 2;
  }
  if (!opt.record.empty() && (opt.smoke || !machine.optimized)) {
    std::fprintf(stderr,
                 "molocbench: --record refuses smoke runs and unoptimised "
                 "builds\n");
    return 2;
  }
  // Sleep no longer than asked: the default 50 us timer slack would
  // show up as schedule lag at the open-loop send times.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  const WorkloadSpec& spec = workloadByName(opt.workload);
  const std::size_t users = usersOf(spec);
  const std::size_t localizeConns = std::clamp<std::size_t>(
      static_cast<std::size_t>(machine.nproc) - 1, 1,
      kMaxLocalizeConnections);
  // The intake stream, where there is one, has a connection of its own.
  const std::size_t connections = localizeConns + (spec.intake ? 1 : 0);
  // The run is kCycles cycles of [open loop | closed loop], so every
  // figure samples the whole run rather than one stretch of it.
  const double cycleSec = opt.seconds / kCycles;
  const double closedSlice = 0.2 * cycleSec;
  const double openSlice = cycleSec - closedSlice;
  const double probeSec = std::min(1.0, 0.1 * opt.seconds);
  std::filesystem::create_directories(opt.workDir);

  // ---- the venue and the seeded requests -----------------------------
  const std::int64_t prepNs = nowNs();
  const auto localizeOffsets = poissonSchedule(
      opt.seed * 7919 + 1, spec.localizeRate, openSlice * kCycles);
  const std::size_t rounds = std::max<std::size_t>(
      8, (localizeOffsets.size() + users - 1) / users);
  const World world(spec, opt.seed, kWalks, rounds);
  std::vector<LocalizeRef> stream;
  std::vector<Planned> localizePlan;
  for (std::size_t j = 0; j < localizeOffsets.size(); ++j) {
    const std::size_t s = j % users;
    stream.push_back({s + 1, static_cast<std::uint32_t>(s % kWalks),
                      static_cast<std::uint32_t>((j / users) %
                                                 world.rounds())});
    localizePlan.push_back(
        {Kind::kLocalize, j, localizeOffsets[j],
         static_cast<std::uint32_t>(s % localizeConns)});
  }
  // The observation stream rides the last connection.
  const std::vector<Planned> intakePlan =
      spec.intake ? planIntake(localizePlan, stream,
                               static_cast<std::uint32_t>(localizeConns))
                  : std::vector<Planned>{};
  // Closed-loop users: their own sessions, walks cycled round by round.
  const auto closedRefs = [&](std::uint64_t base, std::size_t conns) {
    std::vector<std::vector<LocalizeRef>> refs(connections);
    for (std::size_t c = 0; c < conns; ++c)
      for (std::size_t r = 0; r < world.rounds(); ++r)
        for (std::size_t k = 0; k < kClosedSessions; ++k)
          refs[c].push_back(
              {base + c * 10000 + k,
               static_cast<std::uint32_t>((c * kClosedSessions + k) % kWalks),
               static_cast<std::uint32_t>(r)});
    return refs;
  };
  ClosedLoop closed(2, closedRefs(1000000, localizeConns), world);
  ClosedLoop probe(6, closedRefs(2000000, 1), world);
  std::string imagePath;
  if (spec.venue == Venue::kCampus) {
    imagePath = opt.workDir + "/campus-16k.img";
    world.writeImage(imagePath);
  }
  // The hall walks' mean leg time: what kScanPeriodSec stands for.
  double legSec = 0.0;
  std::size_t legCount = 0;
  for (const Walk& walk : world.walks())
    for (const auto& imu : walk.imus)
      if (!imu.empty()) {
        legSec += imu.duration();
        ++legCount;
      }
  std::printf("prep: venue, %zu walks x %zu rounds, %zu users, mean leg "
              "%.2f s%s in %.2f s\n",
              world.walks().size(), world.rounds(), users,
              legCount ? legSec / static_cast<double>(legCount) : 0.0,
              imagePath.empty() ? "" : ", venue image",
              static_cast<double>(nowNs() - prepNs) / 1e9);

  // ---- set-up: launch molocd ------------------------------------------
  // setup_s is the median over the serving daemon's launch and
  // kSetupPerCycle more before each measured cycle, so it samples the
  // whole run like every other figure.  On hall-intake each launch
  // opens a fresh durable store: set-up covers the world build plus the
  // store open.
  Tally tally;
  Verdict verdict;
  std::vector<double> setups;
  // molocd gets all CPUs but the last (a spawned child inherits this
  // thread's mask), the serving one a CPU per thread, and the generator
  // the last CPU while measuring.  Left to the scheduler, molocd's busy
  // threads often shared one CPU for a whole run, which halved its
  // closed-loop throughput.
  const CpuSet cpus;
  const bool pin = cpus.size() >= 2;
  const auto launch = [&](const std::string& name) {
    std::vector<std::string> args =
        spec.venue == Venue::kCampus
            ? std::vector<std::string>{"--image", imagePath,
                                       "--image-verify", "full"}
            : std::vector<std::string>{"--seed", std::to_string(kWorldSeed)};
    if (spec.intake) {
      const std::string wal = opt.workDir + "/" + name + "-wal";
      std::filesystem::remove_all(wal);
      args.insert(args.end(), {"--wal-dir", wal, "--checkpoint-every",
                               std::to_string(kCheckpointEvery)});
    }
    if (pin) cpus.bind(0, cpus.size() - 1);
    auto d = std::make_unique<Daemon>(
        molocdArgs(opt, args), opt.workDir + "/" + name + ".port",
        opt.workDir + "/" + name + ".log", 120.0);
    setups.push_back(d->setupSeconds());
    return d;
  };
  std::unique_ptr<Daemon> daemon = launch("serve");
  if (pin) spreadThreads(daemon->pid(), cpus, cpus.size() - 1);
  const std::string walDir = opt.workDir + "/serve-wal";
  const int setupPerCycle = opt.smoke ? 0 : kSetupPerCycle;

  // ---- the measured cycles ----------------------------------------------
  OpenLoopResult open;
  open.served.resize(stream.size());
  {
    std::vector<int> fds;
    for (std::size_t c = 0; c < connections; ++c)
      fds.push_back(connectLoopback(daemon->port()));
    LoadEngine engine(std::move(fds));
    // The entries of `plan` due in [from, from + len), rebased to from.
    const auto slice = [](const std::vector<Planned>& plan, double from,
                          double len, std::vector<Planned>& out) {
      const auto lo = static_cast<std::int64_t>(from * 1e9);
      const auto hi = static_cast<std::int64_t>((from + len) * 1e9);
      for (Planned p : plan)
        if (p.offsetNs >= lo && p.offsetNs < hi) {
          p.offsetNs -= lo;
          out.push_back(p);
        }
    };
    for (int k = 0; k < kCycles; ++k) {
      for (int i = 0; i < setupPerCycle; ++i)
        if (launch("setup")->stop(30.0) != 0)
          verdict.fail("molocd did not exit 0 after SIGTERM");
      if (pin) cpus.bind(cpus.size() - 1, 1);
      std::vector<Planned> plan;
      slice(localizePlan, k * openSlice, openSlice, plan);
      slice(intakePlan, k * openSlice, openSlice, plan);
      std::stable_sort(plan.begin(), plan.end(),
                       [](const Planned& a, const Planned& b) {
                         return a.offsetNs < b.offsetNs;
                       });
      runOpenLoop(engine, plan, world, stream, tally, open);
      runClosedLoop(engine, closed, kClosedDepth, closedSlice, tally);
    }
    // Traced runs: the round trip with one request outstanding.
    if (opt.trace) runClosedLoop(engine, probe, 1, probeSec, tally);
    const EngineStats& ds = engine.stats();
    if (ds.protocolErrors > 0 || ds.connectionsLost > 0)
      std::fprintf(stderr,
                   "molocbench: %" PRIu64 " malformed response streams, %"
                   PRIu64 " connections lost\n",
                   ds.protocolErrors, ds.connectionsLost);
  }

  if (pin) cpus.unbind();
  const double setupS = median(setups);
  std::printf("setup: molocd launch to listening, median of %zu spread "
              "over the run: %.4f s\n",
              setups.size(), setupS);

  // ---- drain: intake barrier, counters, SIGTERM --------------------------
  const auto stats = control(daemon->port(), spec.intake, tally);
  if (!stats) verdict.fail("Stats request to molocd failed");
  if (stats && spec.intake && stats->intakeApplied != open.accepted.size())
    verdict.fail("intake applied count differs from accepted count");
  if (daemon->stop(30.0) != 0)
    verdict.fail("molocd did not exit 0 after SIGTERM");
  daemon.reset();

  // ---- correctness ----------------------------------------------------
  std::unique_ptr<image::VenueImage> image;
  std::unique_ptr<core::OnlineMotionDatabase> referenceDb;
  std::unique_ptr<service::LocalizationService> reference;
  if (spec.venue == Venue::kCampus) {
    image = std::make_unique<image::VenueImage>(
        image::VenueImage::open(imagePath));
    reference = World::makeImageService(*image, world.serviceConfig(1));
  } else {
    referenceDb = std::make_unique<core::OnlineMotionDatabase>(world.plan());
    reference = world.makeService(1);
    reference->attachIntake(referenceDb.get());
  }
  const bool bitwise = !spec.intake;
  std::atomic<std::size_t> compared{0};
  std::atomic<std::size_t> mismatches{0};
  // Sessions are independent: one checker per CPU, each replaying its
  // share of the sessions in send order.
  const std::size_t checkers = std::max<std::size_t>(1, cpus.size());
  const auto check = [&](std::size_t part, const std::vector<LocalizeRef>& refs,
                         const std::vector<std::optional<core::LocationEstimate>>&
                             served) {
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (refs[i].session % checkers != part) continue;
      if (bitwise) {
        // Replay every request molocd received, answered or not, so
        // each session's history matches the served one.
        const Walk& walk = world.walks()[refs[i].walk];
        const auto local = reference->submitScan(
            refs[i].session, walk.scans[refs[i].round],
            walk.imus[refs[i].round]);
        if (!served[i]) continue;
        ++compared;
        if (!bitwiseEqual(local, *served[i])) ++mismatches;
      } else if (served[i]) {
        ++compared;
        if (!structurallyValid(*served[i], world.locationCount()))
          ++mismatches;
      }
    }
  };
  {
    std::vector<std::thread> threads;
    for (std::size_t part = 0; part < checkers; ++part)
      threads.emplace_back([&, part] {
        if (pin) cpus.bind(part, 1);
        check(part, stream, open.served);
        check(part, closed.servedRefs, closed.served);
        check(part, probe.servedRefs, probe.served);
      });
    for (auto& t : threads) t.join();
  }
  if (mismatches > 0)
    verdict.fail(std::to_string(mismatches.load()) + " of " +
                 std::to_string(compared.load()) +
                 " served estimates wrong");
  std::printf("verify: %zu served estimates %s, %zu wrong\n",
              compared.load(),
              bitwise ? "compared bitwise to an in-process service"
                      : "checked structurally",
              mismatches.load());
  if (spec.intake) {
    // The WAL the serving molocd wrote must rebuild exactly what the
    // accepted observations build.
    core::OnlineMotionDatabase expected(world.plan());
    for (const Observation& o : open.accepted)
      expected.addObservation(o.from, o.to, o.directionDeg, o.offsetMeters);
    core::OnlineMotionDatabase recovered(world.plan());
    const auto info = store::recover(walDir, recovered);
    if (info.lastSeq != open.accepted.size() ||
        !sameIntakeState(expected, recovered))
      verdict.fail("WAL recovery does not rebuild the accepted stream");
    else
      std::printf("verify: molocd's WAL recovers %zu observations bitwise\n",
                  open.accepted.size());
  }

  // ---- end-to-end figures ----------------------------------------------
  const double localizeP50 = sortedPercentile(open.localizeMs, 50.0);
  const double localizeP99 =
      blockPercentile(open.localizeMs, kTailBlock, 99.0);
  const double lagP99 = sortedPercentile(open.sendLagMs, 99.0);
  std::printf(
      "open loop: %zu Localize at %.0f/s over %.1f s: p50 %.4f ms, p99 "
      "(median of %zu-request blocks) %.4f ms, whole-run tail p%g = %.4f "
      "ms\n",
      open.localizeMs.size(), spec.localizeRate, openSlice * kCycles, localizeP50,
      kTailBlock, localizeP99, tailPercentile(open.localizeMs.size()),
      sortedPercentile(open.localizeMs,
                       tailPercentile(open.localizeMs.size())));
  std::printf("closed loop: depth %zu x %zu connections over %.1f s: %.0f "
              "Localize/s (median of %.1f s windows; quartiles %.0f-%.0f)\n",
              kClosedDepth, localizeConns, closedSlice * kCycles, closed.qps(),
              kQpsWindowSec, sortedPercentile(closed.windowQps, 25.0),
              sortedPercentile(closed.windowQps, 75.0));
  double observeP99 = 0.0;
  double flushP50 = 0.0;
  if (spec.intake) {
    observeP99 = blockPercentile(open.observeMs, kTailBlock, 99.0);
    flushP50 = sortedPercentile(open.flushMs, 50.0);
    std::printf("intake: %zu observations (%zu accepted): p99 %.4f ms; %zu "
                "flushes: p50 %.4f ms\n",
                open.observeMs.size(), open.accepted.size(), observeP99,
                open.flushMs.size(), flushP50);
    for (const double v : {observeP99, flushP50})
      if (!std::isfinite(v) || v <= 0.0)
        verdict.fail("an intake percentile falls on failed requests");
    if (!opt.smoke && tailPercentile(open.observeMs.size()) < 99.0)
      verdict.fail("too few observations for a p99 with ten beyond it");
  }
  std::printf("generator: send lag p99 %.4f ms (bound %.1f ms)\n", lagP99,
              kMaxSendLagMs);
  std::printf("requests: %" PRIu64 " attempted, %" PRIu64 " failed (%" PRIu64
              " missing, %" PRIu64 " protocol, %" PRIu64 " overloaded, %" PRIu64
              " other status)\n",
              tally.attempted, tally.failed(), tally.missing, tally.protocol,
              tally.overloaded, tally.status);
  if (lagP99 > kMaxSendLagMs)
    verdict.fail("generator ran behind schedule: the client, not molocd, "
                 "was measured");
  for (const double v : {localizeP50, localizeP99})
    if (!std::isfinite(v) || v <= 0.0)
      verdict.fail("a latency percentile falls on failed requests");
  if (!opt.smoke && tailPercentile(open.localizeMs.size()) < 99.0)
    verdict.fail("too few samples for a p99 with ten beyond it");

  // The latencies are printed above and recorded, not gated: on a VM
  // with vCPU steal their run-to-run spread exceeds any bound the
  // result format allows, and the intake ones exist on hall-intake
  // only (see perfbench/README.md).
  std::map<std::string, Metric> metrics;
  if (!opt.trace) {
    metrics["setup_s"] = {setupS, "s"};
    metrics["localize_qps"] = {closed.qps(), "1/s"};
  } else {
    LayerInputs in;
    in.spec = &spec;
    in.world = &world;
    in.reference = reference.get();
    in.threads = static_cast<std::size_t>(machine.nproc);
    in.stream = stream;
    in.served = open.served;
    in.expectBitwise = bitwise;
    for (const Planned& p : intakePlan)
      if (p.kind == Kind::kObserve)
        in.observations.push_back(*legOf(world, stream[p.index]));
    in.imagePath = imagePath;
    in.workDir = opt.workDir;
    SpanRecorder recorder;
    const LayerResult layers = measureLayers(in, recorder);
    if (!layers.bitwiseOk)
      verdict.fail("traced replay differs from served estimates (" +
                   std::to_string(layers.mismatches) + ")");
    if (!opt.spansPath.empty() && !recorder.writeTsv(opt.spansPath))
      verdict.fail("cannot write spans to " + opt.spansPath);
    metrics.insert(layers.metrics.begin(), layers.metrics.end());
    const double rtt = sortedPercentile(probe.rttUs, 50.0);
    metrics["net.rtt_unloaded_us"] = {rtt, "us"};
    metrics["net.overhead_us"] = {
        rtt - layers.metrics.at("service.submit_us").value, "us"};
    metrics["net.queueing_us"] = {localizeP50 * 1e3 - rtt, "us"};
    metrics["net.overload_rejections"] = {
        stats ? static_cast<double>(stats->overloadRejections) : 0.0,
        "count"};
    metrics["net.protocol_errors"] = {
        stats ? static_cast<double>(stats->protocolErrors) : 0.0, "count"};
  }

  std::string json = "{\"correct\": ";
  json += verdict.ok ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    json += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
            value + ", \"unit\": " + jsonString(metric.unit) + "}";
    first = false;
  }
  json += "}}";
  if (!opt.record.empty() && verdict.ok) {
    std::FILE* f = std::fopen(opt.record.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "molocbench: cannot write %s\n",
                   opt.record.c_str());
      return 1;
    }
    // The intake latencies are null where there is no intake stream.
    const auto number = [&](double v) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.6g", v);
      return spec.intake ? std::string(buf) : std::string("null");
    };
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %" PRIu64
                 ", \"seconds\": %g, \"trace\": %s, \"machine\": %s, "
                 "\"send_lag_p99_ms\": %.6g, \"localize_p50_ms\": %.6g, "
                 "\"localize_p99_ms\": %.6g, \"observe_p99_ms\": %s, "
                 "\"flush_p50_ms\": %s, \"result\": %s}\n",
                 jsonString(opt.workload).c_str(), opt.seed, opt.seconds,
                 opt.trace ? "true" : "false",
                 machineJson(machine, opt).c_str(), lagP99, localizeP50,
                 localizeP99, number(observeP99).c_str(),
                 number(flushP50).c_str(), json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
  return verdict.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(
      "molocbench: drives molocd with one workload and prints the "
      "benchmark result as the last line (see perfbench/README.md)");
  args.addOption("workload", "hall-walk", "hall-walk, campus-16k or hall-intake");
  args.addOption("seed", "1", "workload seed (walks, scans, IMU, arrivals)");
  args.addOption("seconds", "10", "measured seconds across the phases");
  args.addOption("trace", "0", "1 = per-layer metrics from a traced replay");
  args.addOption("molocd", "", "path of the molocd binary");
  args.addOption("net-threads", "2", "molocd --net-threads");
  args.addOption("threads", "1", "molocd --threads");
  args.addOption("work-dir", "", "scratch directory for images, WALs, logs");
  args.addOption("spans", "", "write the traced replay's spans here (TSV)");
  args.addOption("record", "", "also write the stamped result to this file");
  args.addOption("git-sha", "unknown", "source revision, for the stamp");
  args.addOption("src-digest", "unknown", "source digest, for the stamp");
  args.addSwitch("smoke", "one set-up launch, no sample-count floor; never "
                          "recordable");
  Options opt;
  try {
    if (!args.parse(argc, argv)) return 0;
    opt.workload = args.getString("workload");
    const long long seed = std::stoll(args.getString("seed"));
    if (seed < 0) throw std::invalid_argument("--seed must be >= 0");
    opt.seed = static_cast<std::uint64_t>(seed);
    opt.seconds = args.getDouble("seconds");
    opt.trace = args.getInt("trace") != 0;
    opt.smoke = args.getSwitch("smoke");
    opt.molocd = args.getString("molocd");
    opt.netThreads = args.getString("net-threads");
    opt.threads = args.getString("threads");
    opt.workDir = args.getString("work-dir");
    opt.spansPath = args.getString("spans");
    opt.record = args.getString("record");
    opt.gitSha = args.getString("git-sha");
    opt.srcDigest = args.getString("src-digest");
    workloadByName(opt.workload);
    if (opt.molocd.empty() || opt.workDir.empty())
      throw std::invalid_argument("--molocd and --work-dir are required");
    if (!(opt.seconds >= 1.0))
      throw std::invalid_argument("--seconds must be >= 1");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "molocbench: %s\n%s", e.what(), args.usage().c_str());
    return 2;
  }
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "molocbench: fatal: %s\n", e.what());
    return 1;
  }
}
