#include "Daemon.h"

#include "Trace.h"
#include "server/Client.h"

#include <csignal>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

bool readCounter(const std::string &Json, const char *Key, uint64_t &Out) {
  std::string Pattern = std::string("\"") + Key + "\":";
  size_t At = Json.find(Pattern);
  if (At == std::string::npos)
    return false;
  Out = std::strtoull(Json.c_str() + At + Pattern.size(), nullptr, 10);
  return true;
}

bool reap(pid_t Pid, int &Status, int TimeoutMs) {
  for (int Waited = 0;; Waited += 10) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid)
      return true;
    if (R < 0 && errno != EINTR)
      return false;
    if (Waited >= TimeoutMs)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

} // namespace

bool perfbench::parseHealth(const std::string &Json, Health &H) {
  return readCounter(Json, "queueDepth", H.QueueDepth) &&
         readCounter(Json, "shed", H.Shed) &&
         readCounter(Json, "hotHits", H.HotHits) &&
         readCounter(Json, "hotMisses", H.HotMisses) &&
         readCounter(Json, "hotEvictions", H.HotEvictions);
}

bool perfbench::ping(const std::string &Socket, Health &H, int TimeoutMs) {
  tcc::server::Request Req;
  Req.Kind = "ping";
  tcc::server::Client C(TimeoutMs);
  tcc::server::Response Resp;
  std::string Error;
  if (!C.connect(Socket, Error) || !C.roundTrip(Req, Resp, Error))
    return false;
  return Resp.Exit == 0 && parseHealth(Resp.Out, H);
}

double perfbench::procCpuMs(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/stat");
  std::string Line;
  std::getline(In, Line);
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  size_t Close = Line.rfind(')');
  if (Close == std::string::npos)
    return 0.0;
  std::istringstream Rest(Line.substr(Close + 2));
  std::string Field;
  unsigned long long UTime = 0, STime = 0;
  for (int I = 3; I <= 15 && (Rest >> Field); ++I) {
    if (I == 14)
      UTime = std::strtoull(Field.c_str(), nullptr, 10);
    if (I == 15)
      STime = std::strtoull(Field.c_str(), nullptr, 10);
  }
  return 1000.0 * static_cast<double>(UTime + STime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double perfbench::procPeakRssMiB(pid_t Pid) {
  std::ifstream In(Pid ? "/proc/" + std::to_string(Pid) + "/status"
                       : std::string("/proc/self/status"));
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

HostTicks perfbench::hostTicks() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  In >> Cpu; // "cpu": user nice system idle iowait irq softirq steal ...
  HostTicks T;
  for (int I = 0; I < 8; ++I) {
    uint64_t V = 0;
    if (!(In >> V))
      break;
    T.Total += V;
    if (I == 7)
      T.Steal = V;
  }
  return T;
}

double perfbench::stealShare(const HostTicks &Before, const HostTicks &After) {
  uint64_t Total = After.Total - Before.Total;
  return Total ? static_cast<double>(After.Steal - Before.Steal) / Total : 0.0;
}

Daemon::~Daemon() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGKILL);
  int Status = 0;
  ::waitpid(Pid, &Status, 0);
}

bool Daemon::spawn(double &SetupSeconds, std::string &Error) {
  // posix_spawn, not fork: the figure is the daemon's start-up, not the
  // cost of copying the benchmark's own address space.
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_addopen(&Actions, STDERR_FILENO, LogPath.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&Actions, STDERR_FILENO, STDOUT_FILENO);
  char *Argv[] = {const_cast<char *>(Tccd.c_str()), nullptr};
  const int64_t Start = nowNs();
  int Rc =
      ::posix_spawn(&Pid, Tccd.c_str(), &Actions, nullptr, Argv, environ);
  posix_spawn_file_actions_destroy(&Actions);
  if (Rc != 0) {
    Pid = -1;
    Error = std::string("posix_spawn tccd: ") + std::strerror(Rc);
    return false;
  }
  // Poll tightly: the figure is the daemon's start-up, not the poll gap.
  for (int I = 0; I < 20000; ++I) {
    Health H;
    if (ping(Socket, H, 1000)) {
      SetupSeconds = (nowNs() - Start) / 1e9;
      return true;
    }
    int Status = 0;
    if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
      Pid = -1;
      Error = "tccd exited during start-up (see " + LogPath + ")";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  Error = "tccd never answered a ping";
  return false;
}

double Daemon::cpuMs() const { return Pid > 0 ? procCpuMs(Pid) : 0.0; }

double Daemon::peakRssMiB() const {
  return Pid > 0 ? procPeakRssMiB(Pid) : 0.0;
}

bool Daemon::drain() {
  if (Pid <= 0)
    return false;
  ::kill(Pid, SIGTERM);
  int Status = 0;
  bool Exited = reap(Pid, Status, 20000);
  if (!Exited) {
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
  }
  Pid = -1;
  return Exited && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}
