//===----------------------------------------------------------------------===//
///
/// \file
/// A real `tccd` child process observed only from outside: spawned at its
/// default settings in the current directory, probed with `ping` health
/// requests, measured through /proc/<pid>/stat and /proc/<pid>/status,
/// and stopped with a SIGTERM drain.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_DAEMON_H
#define PERFBENCH_DAEMON_H

#include <cstdint>
#include <string>
#include <sys/types.h>

namespace perfbench {

/// The counters of one `ping` health response.
struct Health {
  uint64_t QueueDepth = 0;
  uint64_t Shed = 0;
  uint64_t HotHits = 0;
  uint64_t HotMisses = 0;
  uint64_t HotEvictions = 0;
};

/// Parses a health response line; false when a counter is missing.
bool parseHealth(const std::string &Json, Health &H);

/// Sends one ping to the daemon on \p Socket.
bool ping(const std::string &Socket, Health &H, int TimeoutMs = 2000);

class Daemon {
public:
  /// \p Tccd is the daemon binary; it serves ".tccd.sock" in the current
  /// directory, its default.  Its stderr goes to \p LogPath.
  Daemon(std::string Tccd, std::string LogPath)
      : Tccd(std::move(Tccd)), LogPath(std::move(LogPath)) {}
  ~Daemon(); ///< Kills and reaps a daemon still running.
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  static constexpr const char *Socket = ".tccd.sock";

  /// Starts the daemon and polls with pings until one is answered.  On
  /// success \p SetupSeconds is the time from its start to that answer.
  bool spawn(double &SetupSeconds, std::string &Error);

  /// utime + stime of the daemon so far, in ms.
  double cpuMs() const;
  /// VmHWM of the daemon, in MiB.
  double peakRssMiB() const;

  /// SIGTERM, then wait (bounded) for the drain.  True iff the daemon
  /// exited 0 within the bound; otherwise it is killed.
  bool drain();

private:
  std::string Tccd, LogPath;
  pid_t Pid = -1;
};

/// CPU time (utime + stime) of \p Pid in ms, from /proc/<pid>/stat.
double procCpuMs(pid_t Pid);
/// VmHWM of \p Pid in MiB, from /proc/<pid>/status ("self" for 0).
double procPeakRssMiB(pid_t Pid);

/// The machine's CPU time so far, from the first line of /proc/stat, in
/// clock ticks: all of it, and the part the hypervisor gave to other
/// guests (steal).  A run's window is only comparable to another's when
/// both saw little steal.
struct HostTicks {
  uint64_t Total = 0;
  uint64_t Steal = 0;
};
HostTicks hostTicks();

/// Steal as a share of the CPU time between two samples.
double stealShare(const HostTicks &Before, const HostTicks &After);

} // namespace perfbench

#endif // PERFBENCH_DAEMON_H
