#include "daemon.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "measure.hpp"

extern char** environ;

namespace perfbench {

namespace {

/// Reads a positive port number from `path`, or 0 if not there yet.
std::uint16_t readPort(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  unsigned port = 0;
  const int got = std::fscanf(f, "%u\n", &port);
  std::fclose(f);
  return got == 1 && port > 0 && port < 65536
             ? static_cast<std::uint16_t>(port)
             : 0;
}

/// Waits for `pid` up to `timeoutSec`; returns the raw status or -1.
int waitFor(pid_t pid, double timeoutSec) {
  const std::int64_t deadline =
      nowNs() + static_cast<std::int64_t>(timeoutSec * 1e9);
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) return -1;
    if (nowNs() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

Daemon::Daemon(std::vector<std::string> argv, std::string portFile,
               const std::string& logPath, double timeoutSec) {
  ::unlink(portFile.c_str());
  argv.push_back("--port-file");
  argv.push_back(portFile);
  std::vector<char*> cargv;
  for (auto& arg : argv) cargv.push_back(arg.data());
  cargv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                   logPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  const std::int64_t launchNs = nowNs();
  const int rc = ::posix_spawn(&pid_, cargv[0], &actions, nullptr,
                               cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + argv[0] + ": " +
                             std::strerror(rc));
  }
  const std::int64_t deadline =
      launchNs + static_cast<std::int64_t>(timeoutSec * 1e9);
  for (;;) {
    port_ = readPort(portFile);
    if (port_ != 0) break;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error(argv[0] + " exited before listening (see " +
                               logPath + ")");
    }
    if (nowNs() >= deadline) {
      stop(5.0);
      throw std::runtime_error(argv[0] + " did not listen in time");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  setupSeconds_ = static_cast<double>(nowNs() - launchNs) / 1e9;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    waitFor(pid_, 30.0);
  }
}

int Daemon::stop(double timeoutSec) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = waitFor(pid_, timeoutSec);
  if (status == -1) {
    ::kill(pid_, SIGKILL);
    waitFor(pid_, 30.0);
    pid_ = -1;
    return -1;
  }
  pid_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int connectLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc = 0;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    ::close(fd);
    throw std::runtime_error("cannot connect to molocd");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace perfbench
