//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span recorder.  Spans are recorded from outside the
/// compiler, around calls into each layer's public functions, and kept
/// in memory until the run ends, when they are summarised per layer and
/// written as Chrome trace-event JSON.
///
/// One recorder belongs to one thread (no locking on the record path);
/// recorders of several threads are merged only after those threads have
/// been joined.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr int NoParent = -1;

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = NoParent; ///< Index into the same recorder; NoParent = root.
  uint64_t RequestId = 0;
  unsigned Thread = 0;

  double ms() const { return (EndNs - StartNs) / 1e6; }
};

class SpanRecorder {
public:
  explicit SpanRecorder(unsigned Thread = 0) : Thread(Thread) {}

  /// Opens a span now; close it with end().
  int begin(const std::string &Name, uint64_t RequestId,
            int Parent = NoParent);
  void end(int Id) { Spans[Id].EndNs = nowNs(); }

  /// Records a span whose times were measured elsewhere (a pass's time
  /// read from the pipeline's telemetry).
  int add(const std::string &Name, int64_t StartNs, int64_t EndNs,
          uint64_t RequestId, int Parent = NoParent);

  const std::vector<Span> &spans() const { return Spans; }

  /// Appends \p Other's spans, re-basing its parent indices.
  void absorb(const SpanRecorder &Other);

private:
  unsigned Thread;
  std::vector<Span> Spans;
};

/// Self time of every span, in ms: its duration minus the part of its
/// interval covered by the union of its children's intervals (children
/// clipped to the parent; overlapping children are not double counted).
std::vector<double> selfTimesMs(const std::vector<Span> &Spans);

/// Per span name: total duration, total self time, count.
struct LayerTotals {
  double Ms = 0.0;
  double SelfMs = 0.0;
  uint64_t Count = 0;
};
std::map<std::string, LayerTotals> totalsByName(const std::vector<Span> &Spans);

/// Chrome trace-event JSON ("X" complete events, microseconds), with the
/// request id, parent and self time in each event's args.
void writeChromeTrace(std::ostream &OS, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
