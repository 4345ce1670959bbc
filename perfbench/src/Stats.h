//===----------------------------------------------------------------------===//
///
/// \file
/// Summary statistics the benchmark reports: percentiles that carry their
/// sample count, geometric means, and failure accounting against the
/// number of operations attempted.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile of a sample set, with the counts that say whether it can
/// be trusted: a percentile is reported only when at least ten samples
/// lie beyond it.
struct Percentile {
  double Value = 0.0;
  size_t Samples = 0; ///< Size of the sample set.
  size_t Beyond = 0;  ///< Samples strictly above the percentile's rank.
  bool Supported = false; ///< Beyond >= MinBeyond.
};

/// Samples required beyond a reported percentile.
constexpr size_t MinBeyond = 10;

/// Nearest-rank percentile \p P (in (0, 1]) of \p Samples.  The value is
/// the ceil(P * n)-th smallest sample; Beyond counts the n - rank samples
/// above it.
Percentile percentile(std::vector<double> Samples, double P);

/// Median (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> Samples);

/// Geometric mean of strictly positive values.  Returns 0 when \p Values
/// is empty or holds a value <= 0: a geomean over a zero is meaningless,
/// so callers filter first and document the filter.
double geomean(const std::vector<double> &Values);

/// Why an attempted operation failed.  Every kind counts against the
/// operations attempted; none is excluded from the error rate.
enum class Failure {
  CompileOrRun,  ///< The compiler or simulator reported an error.
  WrongOutput,   ///< Output differs from its independent reference.
  Refused,       ///< Connection refused or the daemon was not there.
  Busy,          ///< The daemon shed the request with a busy response.
  Timeout,       ///< A client deadline expired.
  Transport,     ///< Any other transport failure (reset, bad frame).
  Drain,         ///< The daemon did not drain and exit 0 on SIGTERM.
};

const char *failureName(Failure F);

/// Attempted/failed counts with a per-kind breakdown.
struct ErrorTally {
  uint64_t Attempted = 0;
  uint64_t Succeeded = 0;
  uint64_t ByKind[7] = {};

  void success() {
    ++Attempted;
    ++Succeeded;
  }
  void fail(Failure F) {
    ++Attempted;
    ++ByKind[static_cast<int>(F)];
  }
  void merge(const ErrorTally &O);

  uint64_t failed() const { return Attempted - Succeeded; }
  double errorRate() const {
    return Attempted ? static_cast<double>(failed()) / Attempted : 1.0;
  }
  double successRate() const { return 1.0 - errorRate(); }
  /// "busy=2 timeout=1" — empty when nothing failed.
  std::string breakdown() const;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_H
