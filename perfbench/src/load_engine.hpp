#pragma once

// The load generator's socket engine: one thread multiplexing a few
// pipelined molocd connections with ppoll().  Open loop sends each
// request at its scheduled time whether or not earlier ones have been
// answered, and stamps it with that *intended* time, so a stall in the
// server (or in this thread) shows as latency of every request
// scheduled behind it.  Closed loop keeps a fixed number of requests
// outstanding per connection and measures completions per second.
//
// The engine neither encodes nor decodes messages: it moves frames and
// records times.  Callers match each outcome to their own request
// metadata and decode the payload after the phase, off the clock.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/wire.hpp"

namespace perfbench {

/// What happened to one request.
struct Outcome {
  std::uint32_t connection = 0;
  /// Open loop: the request's index in the plan.  Closed loop: its
  /// send sequence on its connection.
  std::uint64_t sequence = 0;
  std::int64_t intendedNs = 0;  ///< When it was due (closed: = sentNs).
  std::int64_t sentNs = 0;      ///< When it was handed to the socket.
  std::int64_t doneNs = -1;     ///< Response complete; -1 = never.
  moloc::net::MsgType type = moloc::net::MsgType::kLocalize;
  std::string payload;          ///< Raw response payload.

  bool answered() const { return doneNs >= 0; }
};

/// An open-loop phase: request i goes out on `connection[i]` at
/// `startNs + offsetNs[i]` (offsets ascending), framed by `encode(i)`.
struct OpenLoopPlan {
  std::vector<std::int64_t> offsetNs;
  std::vector<std::uint32_t> connection;
  std::function<std::string(std::size_t)> encode;
};

/// Send/receive counters of one phase.
struct EngineStats {
  std::uint64_t protocolErrors = 0;   ///< Malformed response streams.
  std::uint64_t connectionsLost = 0;  ///< Peer hang-ups mid-phase.
};

class LoadEngine {
 public:
  /// Takes ownership of connected sockets (switched to non-blocking).
  explicit LoadEngine(std::vector<int> fds);
  ~LoadEngine();
  LoadEngine(const LoadEngine&) = delete;
  LoadEngine& operator=(const LoadEngine&) = delete;

  /// Runs `plan` starting a millisecond from now.  Waits at most
  /// `drainNs` after the last send for outstanding responses; the rest
  /// stay unanswered.  Returns one outcome per plan entry, in order.
  std::vector<Outcome> openLoop(const OpenLoopPlan& plan,
                                std::int64_t drainNs);

  /// Keeps `depth` requests in flight on every connection with frames
  /// for `durationNs`, cycling through `frames[c]` on connection c from
  /// send number `sent[c]` on (updated), then drains for at most
  /// `drainNs`.  Outcomes are in send order; `sequence` is the send
  /// number, which indexes frames[c] modulo its size.
  std::vector<Outcome> closedLoop(
      const std::vector<std::vector<std::string>>& frames,
      std::vector<std::uint64_t>& sent, std::size_t depth,
      std::int64_t durationNs, std::int64_t drainNs);

  const EngineStats& stats() const { return stats_; }

 private:
  struct Conn {
    int fd = -1;
    bool alive = true;
    std::string out;
    std::size_t outOffset = 0;
    moloc::net::FrameAssembler assembler;
    std::deque<std::size_t> inFlight;  ///< Outcome indices, send order.
  };

  void enqueue(std::size_t c, std::string_view frame,
               std::size_t outcome);
  void flushOut(Conn& conn);
  /// One ppoll round of at most `timeoutNs`; calls `onDone(c, outcome)`
  /// for every completed response.
  void pump(std::int64_t timeoutNs,
            const std::function<void(std::size_t, std::size_t)>& onDone);
  void fail(Conn& conn);
  bool anyInFlight() const;

  std::vector<Conn> conns_;
  std::vector<Outcome>* outcomes_ = nullptr;
  EngineStats stats_;
};

}  // namespace perfbench
