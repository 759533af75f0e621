#include "load_engine.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <stdexcept>

#include "measure.hpp"

namespace perfbench {

LoadEngine::LoadEngine(std::vector<int> fds) : conns_(fds.size()) {
  for (std::size_t c = 0; c < fds.size(); ++c) {
    conns_[c].fd = fds[c];
    const int flags = ::fcntl(fds[c], F_GETFL, 0);
    if (flags < 0 || ::fcntl(fds[c], F_SETFL, flags | O_NONBLOCK) < 0)
      throw std::runtime_error("engine: cannot make socket non-blocking");
  }
}

LoadEngine::~LoadEngine() {
  for (const Conn& conn : conns_)
    if (conn.fd >= 0) ::close(conn.fd);
}

bool LoadEngine::anyInFlight() const {
  return std::any_of(conns_.begin(), conns_.end(), [](const Conn& c) {
    return c.alive && !c.inFlight.empty();
  });
}

void LoadEngine::fail(Conn& conn) {
  // Outstanding requests stay unanswered (doneNs = -1): they count as
  // failed, never as fast.
  conn.alive = false;
  conn.inFlight.clear();
  conn.out.clear();
  conn.outOffset = 0;
}

void LoadEngine::flushOut(Conn& conn) {
  while (conn.alive && conn.outOffset < conn.out.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.out.data() + conn.outOffset,
               conn.out.size() - conn.outOffset, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outOffset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    ++stats_.connectionsLost;
    fail(conn);
    return;
  }
  conn.out.clear();
  conn.outOffset = 0;
}

void LoadEngine::enqueue(std::size_t c, std::string_view frame,
                     std::size_t outcome) {
  Conn& conn = conns_[c];
  (*outcomes_)[outcome].sentNs = nowNs();
  if (!conn.alive) return;
  conn.out.append(frame);
  conn.inFlight.push_back(outcome);
  flushOut(conn);
}

void LoadEngine::pump(
    std::int64_t timeoutNs,
    const std::function<void(std::size_t, std::size_t)>& onDone) {
  std::vector<pollfd> pfds;
  std::vector<std::size_t> which;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (!conns_[c].alive) continue;
    short events = POLLIN;
    if (conns_[c].outOffset < conns_[c].out.size()) events |= POLLOUT;
    pfds.push_back({conns_[c].fd, events, 0});
    which.push_back(c);
  }
  timespec ts{};
  timeoutNs = std::max<std::int64_t>(timeoutNs, 0);
  ts.tv_sec = static_cast<time_t>(timeoutNs / 1000000000);
  ts.tv_nsec = static_cast<long>(timeoutNs % 1000000000);
  const int ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
  if (ready <= 0) return;  // Timeout or EINTR: the caller re-checks.
  for (std::size_t k = 0; k < pfds.size(); ++k) {
    Conn& conn = conns_[which[k]];
    if (pfds[k].revents & POLLOUT) flushOut(conn);
    if (!(pfds[k].revents & (POLLIN | POLLERR | POLLHUP))) continue;
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.assembler.feed(buf, static_cast<std::size_t>(n));
        if (static_cast<std::size_t>(n) < sizeof buf) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      ++stats_.connectionsLost;  // EOF or error with requests owed.
      fail(conn);
      break;
    }
    const std::int64_t doneNs = nowNs();
    moloc::net::Frame frame;
    try {
      while (conn.alive && conn.assembler.next(frame)) {
        if (conn.inFlight.empty()) {
          ++stats_.protocolErrors;  // An answer nobody asked for.
          fail(conn);
          break;
        }
        const std::size_t idx = conn.inFlight.front();
        conn.inFlight.pop_front();
        Outcome& outcome = (*outcomes_)[idx];
        outcome.doneNs = doneNs;
        outcome.type = frame.type;
        outcome.payload = std::move(frame.payload);
        onDone(which[k], idx);
      }
    } catch (const moloc::net::ProtocolError&) {
      ++stats_.protocolErrors;
      fail(conn);
    }
  }
}

std::vector<Outcome> LoadEngine::openLoop(const OpenLoopPlan& plan,
                                      std::int64_t drainNs) {
  const std::size_t n = plan.offsetNs.size();
  std::vector<Outcome> outcomes(n);
  outcomes_ = &outcomes;
  const std::int64_t startNs = nowNs() + 1000000;
  for (std::size_t i = 0; i < n; ++i) {
    outcomes[i].connection = plan.connection[i];
    outcomes[i].sequence = i;
    outcomes[i].intendedNs = startNs + plan.offsetNs[i];
  }
  const auto ignore = [](std::size_t, std::size_t) {};
  std::size_t next = 0;
  std::int64_t drainDeadline = 0;
  for (;;) {
    std::int64_t now = nowNs();
    while (next < n && outcomes[next].intendedNs <= now) {
      enqueue(plan.connection[next], plan.encode(next), next);
      ++next;
      now = nowNs();
    }
    if (next == n) {
      if (drainDeadline == 0) drainDeadline = now + drainNs;
      if (!anyInFlight() || now >= drainDeadline) break;
      pump(drainDeadline - now, ignore);
    } else {
      pump(outcomes[next].intendedNs - now, ignore);
    }
  }
  outcomes_ = nullptr;
  return outcomes;
}

std::vector<Outcome> LoadEngine::closedLoop(
    const std::vector<std::vector<std::string>>& frames,
    std::vector<std::uint64_t>& sent, std::size_t depth,
    std::int64_t durationNs, std::int64_t drainNs) {
  if (frames.size() != conns_.size() || sent.size() != conns_.size())
    throw std::invalid_argument("closedLoop: one frame list per connection");
  std::vector<Outcome> outcomes;
  // Reserve generously: enqueue() holds an index, not a reference, but
  // growth still moves payload strings around on the hot path.
  outcomes.reserve(1 << 16);
  outcomes_ = &outcomes;
  bool sending = true;
  const auto sendNext = [&](std::size_t c) {
    const auto& list = frames[c];
    const std::uint64_t seq = sent[c]++;
    outcomes.emplace_back();
    Outcome& o = outcomes.back();
    o.connection = static_cast<std::uint32_t>(c);
    o.sequence = seq;
    enqueue(c, list[seq % list.size()], outcomes.size() - 1);
    o.intendedNs = o.sentNs;
  };
  for (std::size_t c = 0; c < conns_.size(); ++c)
    for (std::size_t d = 0; d < depth && !frames[c].empty(); ++d)
      sendNext(c);
  const std::int64_t deadline = nowNs() + durationNs;
  const auto onDone = [&](std::size_t c, std::size_t) {
    if (sending && !frames[c].empty()) sendNext(c);
  };
  for (;;) {
    const std::int64_t now = nowNs();
    if (now >= deadline) break;
    pump(deadline - now, onDone);
  }
  sending = false;
  const std::int64_t drainDeadline = nowNs() + drainNs;
  for (;;) {
    const std::int64_t now = nowNs();
    if (!anyInFlight() || now >= drainDeadline) break;
    pump(drainDeadline - now, onDone);
  }
  outcomes_ = nullptr;
  return outcomes;
}

}  // namespace perfbench
