// Tests of the benchmark's own logic: the seeded arrival schedule, the
// tail-percentile rule, the coordinated-omission correction of the
// open-loop engine, and span self time.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>

#include "load_engine.hpp"
#include "measure.hpp"
#include "net/wire.hpp"

namespace perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedDiffers) {
  const auto a = poissonSchedule(7, 1000.0, 2.0);
  const auto b = poissonSchedule(7, 1000.0, 2.0);
  const auto c = poissonSchedule(8, 1000.0, 2.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // About rate x duration arrivals, ascending, inside the window.
  EXPECT_GT(a.size(), 1800u);
  EXPECT_LT(a.size(), 2200u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0);
  EXPECT_LT(a.back(), 2'000'000'000);
}

TEST(Percentiles, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 4.0}), 2.5);
}

TEST(Percentiles, TailIsHighestWithTenSamplesBeyond) {
  EXPECT_EQ(tailPercentile(19), 0.0);    // Median has only 9 above.
  EXPECT_EQ(tailPercentile(20), 50.0);
  EXPECT_EQ(tailPercentile(100), 90.0);  // p99 would leave 1 beyond.
  EXPECT_EQ(tailPercentile(999), 90.0);  // p99 leaves 9 beyond.
  EXPECT_EQ(tailPercentile(1000), 99.0);
  EXPECT_EQ(tailPercentile(9999), 99.0);
  EXPECT_EQ(tailPercentile(10000), 99.9);
  EXPECT_EQ(tailPercentile(100000), 99.99);
}

/// Answers every Localize frame on `fd` in order, pausing `stallMs`
/// before answering request `stallAt`.
void respond(int fd, std::size_t total, std::size_t stallAt, int stallMs) {
  moloc::net::FrameAssembler assembler;
  std::size_t answered = 0;
  char buf[65536];
  while (answered < total) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return;
    assembler.feed(buf, static_cast<std::size_t>(n));
    moloc::net::Frame frame;
    while (assembler.next(frame)) {
      const auto request = moloc::net::decodeLocalizeRequest(frame.payload);
      if (answered == stallAt)
        std::this_thread::sleep_for(std::chrono::milliseconds(stallMs));
      moloc::net::LocalizeResponse response;
      response.tag = request.tag;
      const std::string out = moloc::net::encodeLocalizeResponse(response);
      if (::send(fd, out.data(), out.size(), MSG_NOSIGNAL) !=
          static_cast<ssize_t>(out.size()))
        return;
      ++answered;
    }
  }
}

TEST(OpenLoop, StallRaisesLatencyOfRequestsScheduledBehindIt) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  constexpr std::size_t kRequests = 200;
  constexpr std::size_t kStallAt = 50;
  constexpr int kStallMs = 150;
  std::thread server(respond, fds[1], kRequests, kStallAt, kStallMs);

  OpenLoopPlan plan;
  for (std::size_t i = 0; i < kRequests; ++i) {
    plan.offsetNs.push_back(static_cast<std::int64_t>(i) * 2'000'000);
    plan.connection.push_back(0);
  }
  plan.encode = [](std::size_t i) {
    moloc::net::LocalizeRequest request;
    request.tag = i;
    return moloc::net::encodeLocalizeRequest(request);
  };
  std::vector<Outcome> outcomes;
  {
    LoadEngine engine({fds[0]});
    outcomes = engine.openLoop(plan, 5'000'000'000);
  }
  server.join();
  ::close(fds[1]);

  ASSERT_EQ(outcomes.size(), kRequests);
  const auto latencyMs = [&](std::size_t i) {
    EXPECT_TRUE(outcomes[i].answered()) << i;
    return static_cast<double>(outcomes[i].doneNs - outcomes[i].intendedNs) /
           1e6;
  };
  // Requests well before the stall are fast.
  EXPECT_LT(latencyMs(kStallAt - 10), 50.0);
  // Every request due during the stall waits for its remainder: the
  // one due 20 ms into the 150 ms stall waits ~130 ms, although it was
  // sent on time.
  for (std::size_t i = kStallAt; i < kStallAt + 60; i += 10) {
    const double dueIntoStallMs = 2.0 * static_cast<double>(i - kStallAt);
    EXPECT_GT(latencyMs(i), 0.8 * (kStallMs - dueIntoStallMs)) << i;
  }
  // Long after the stall the queue has drained again.
  EXPECT_LT(latencyMs(kRequests - 1), 50.0);
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  SpanRecorder rec;
  const auto root = rec.intern("request");
  const auto layer = rec.intern("layer");
  const auto leaf = rec.intern("leaf");
  // request [0,100) > layer [10,40) > leaf [20,30); layer [50,90).
  const auto r = rec.add(root, 0, 100, -1, 1);
  const auto a = rec.add(layer, 10, 40, static_cast<std::int32_t>(r), 1);
  rec.add(leaf, 20, 30, static_cast<std::int32_t>(a), 1);
  rec.add(layer, 50, 90, static_cast<std::int32_t>(r), 1);
  const auto self = selfTimeByName(rec);
  EXPECT_EQ(self.at("request"), 30.0);  // 100 - 30 - 40
  EXPECT_EQ(self.at("layer"), 20.0 + 40.0);
  EXPECT_EQ(self.at("leaf"), 10.0);
}

TEST(Spans, BeginEndNestsAndRecordsParents) {
  SpanRecorder rec;
  const auto outer = rec.begin(rec.intern("outer"), 9);
  const auto inner = rec.begin(rec.intern("inner"), 9);
  rec.end(inner);
  EXPECT_THROW(rec.end(inner), std::logic_error);
  rec.end(outer);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].requestId, 9u);
  EXPECT_LE(rec.spans()[0].startNs, rec.spans()[1].startNs);
  EXPECT_GE(rec.spans()[0].endNs, rec.spans()[1].endNs);
  const auto self = selfTimeByName(rec);
  EXPECT_GE(self.at("outer"), 0.0);
}

}  // namespace
}  // namespace perfbench
