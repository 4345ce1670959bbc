//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench — the repository benchmark driver.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --run-dir DIR [--trace-out FILE]
///
/// Runs one workload inside DIR (created by the caller, left for it to
/// remove), prints a human-readable summary, and prints as its last
/// stdout line one JSON object: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.  Exit code 0 whenever the run
/// completed, whatever its correctness; 2 on bad arguments or when the
/// run could not be set up.  run.py builds this binary and calls it.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unistd.h>

using namespace perfbench;

namespace {

std::string selfExe() {
  char Buf[PATH_MAX];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return "";
  Buf[N] = '\0';
  return Buf;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --run-dir DIR [--trace-out FILE]\n",
               Why);
  return 2;
}

void printJson(const RunResult &R) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I < R.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
                R.Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

} // namespace

int main(int argc, char **argv) {
  if (argc == 2 && std::strcmp(argv[1], "--probe-cold-compile") == 0)
    return probeColdCompile();

  RunConfig Cfg;
  std::string RunDir;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Arg).c_str());
    std::string Val = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Cfg.Workload = Val;
    } else if (Arg == "--seed") {
      Cfg.Seed = std::strtoull(Val.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !Val.empty();
    } else if (Arg == "--seconds") {
      Cfg.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = End && *End == '\0' && Cfg.Seconds > 0;
    } else if (Arg == "--trace") {
      HaveTrace = Val == "0" || Val == "1";
      Cfg.Trace = Val == "1";
    } else if (Arg == "--run-dir") {
      RunDir = Val;
    } else if (Arg == "--trace-out") {
      Cfg.TraceOut = Val;
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
  }
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Cfg.Workload) == Names.end())
    return usage("unknown workload");
  if (!HaveSeed || !HaveSeconds || !HaveTrace || RunDir.empty())
    return usage("--seed, --seconds, --trace and --run-dir are required");

  Cfg.SelfExe = selfExe();
  std::string Dir = Cfg.SelfExe.substr(0, Cfg.SelfExe.rfind('/'));
  Cfg.Tccd = Dir + "/tccd";
  if (::chdir(RunDir.c_str()) != 0)
    return usage(("cannot enter run directory " + RunDir).c_str());
  // The system cc and anything else spawned keeps its files in the run
  // directory too.
  ::setenv("TMPDIR", ".", 1);

  RunResult R;
  try {
    R = runWorkload(Cfg);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 2;
  }
  if (R.Metrics.empty()) {
    for (const std::string &P : R.Problems)
      std::fprintf(stderr, "perfbench: %s\n", P.c_str());
    return 2;
  }

  std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
              Cfg.Workload.c_str(), static_cast<unsigned long long>(Cfg.Seed),
              Cfg.Seconds, Cfg.Trace ? 1 : 0);
  for (const Metric &M : R.Metrics)
    std::printf("  %-26s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const std::string &N : R.Notes)
    std::printf("  note: %s\n", N.c_str());
  for (const std::string &P : R.Problems)
    std::printf("  PROBLEM: %s\n", P.c_str());
  printJson(R);
  return 0;
}
