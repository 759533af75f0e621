#pragma once

// One molocd child process: spawned with its output in a log file,
// considered up once it has written its port file, stopped with
// SIGTERM (its graceful drain) and always reaped.

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

class Daemon {
 public:
  /// Spawns `argv` (argv[0] is the program path) with
  /// `--port-file portFile` appended and waits up to `timeoutSec` for
  /// the port file.  Throws std::runtime_error (after killing the
  /// child) when it exits early or never listens.
  Daemon(std::vector<std::string> argv, std::string portFile,
         const std::string& logPath, double timeoutSec);
  /// Kills and reaps a child that was not stopped.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Launch to port file, in seconds: what a user waits before the
  /// first request can be served.
  double setupSeconds() const { return setupSeconds_; }

  /// SIGTERM, then waits up to `timeoutSec` for the drain (SIGKILL
  /// past it).  Returns the exit code, or -1 when it had to be killed
  /// or died of a signal.
  int stop(double timeoutSec);

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  double setupSeconds_ = 0.0;
};

/// A blocking TCP connection to 127.0.0.1:`port`; throws on failure.
int connectLoopback(std::uint16_t port);

}  // namespace perfbench
