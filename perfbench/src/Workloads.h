//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads: `suite` (the paper's kernels compiled and
/// run in process) and `tccd_hot` (the same kernels through a real
/// daemon, served from its hot cache).  See README.md for why each exists.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string SelfExe;  ///< This binary (re-executed to time cold set-up).
  std::string Tccd;     ///< The daemon binary.
  std::string TraceOut; ///< Chrome trace path for traced runs.
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Problems; ///< Why Correct is false.
  std::vector<std::string> Notes;    ///< Sample counts and side figures.
};

const std::vector<std::string> &workloadNames();

/// Runs one workload in the current directory, which must be a scratch
/// directory of the run's own.
RunResult runWorkload(const RunConfig &Cfg);

/// The cold set-up probe: one compile+run of the first suite kernel in a
/// fresh process.  Prints the seconds that first compileAndRun took and
/// returns the process exit code.
int probeColdCompile();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
