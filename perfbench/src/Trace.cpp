#include "Trace.h"

#include <algorithm>
#include <ostream>

using namespace perfbench;

int SpanRecorder::begin(const std::string &Name, uint64_t RequestId,
                        int Parent) {
  int64_t Now = nowNs();
  return add(Name, Now, Now, RequestId, Parent);
}

int SpanRecorder::add(const std::string &Name, int64_t StartNs, int64_t EndNs,
                      uint64_t RequestId, int Parent) {
  Spans.push_back({Name, StartNs, EndNs, Parent, RequestId, Thread});
  return static_cast<int>(Spans.size()) - 1;
}

void SpanRecorder::absorb(const SpanRecorder &Other) {
  const int Base = static_cast<int>(Spans.size());
  for (Span S : Other.Spans) {
    if (S.Parent != NoParent)
      S.Parent += Base;
    Spans.push_back(std::move(S));
  }
}

namespace {

std::vector<std::vector<int>> childLists(const std::vector<Span> &Spans) {
  std::vector<std::vector<int>> Children(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent != NoParent)
      Children[Spans[I].Parent].push_back(static_cast<int>(I));
  return Children;
}

/// Nanoseconds of [Lo, Hi) covered by the union of \p Kids' intervals.
int64_t coveredNs(const std::vector<Span> &Spans, const std::vector<int> &Kids,
                  int64_t Lo, int64_t Hi) {
  std::vector<std::pair<int64_t, int64_t>> Iv;
  for (int K : Kids) {
    int64_t S = std::max(Spans[K].StartNs, Lo);
    int64_t E = std::min(Spans[K].EndNs, Hi);
    if (E > S)
      Iv.push_back({S, E});
  }
  std::sort(Iv.begin(), Iv.end());
  int64_t Covered = 0, CurS = 0, CurE = 0;
  bool Open = false;
  for (auto [S, E] : Iv) {
    if (Open && S <= CurE) {
      CurE = std::max(CurE, E);
      continue;
    }
    if (Open)
      Covered += CurE - CurS;
    CurS = S;
    CurE = E;
    Open = true;
  }
  if (Open)
    Covered += CurE - CurS;
  return Covered;
}

} // namespace

std::vector<double> perfbench::selfTimesMs(const std::vector<Span> &Spans) {
  auto Children = childLists(Spans);
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    int64_t Dur = S.EndNs - S.StartNs;
    Self[I] = (Dur - coveredNs(Spans, Children[I], S.StartNs, S.EndNs)) / 1e6;
  }
  return Self;
}

std::map<std::string, LayerTotals>
perfbench::totalsByName(const std::vector<Span> &Spans) {
  std::vector<double> Self = selfTimesMs(Spans);
  std::map<std::string, LayerTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    LayerTotals &T = Out[Spans[I].Name];
    T.Ms += Spans[I].ms();
    T.SelfMs += Self[I];
    ++T.Count;
  }
  return Out;
}

void perfbench::writeChromeTrace(std::ostream &OS,
                                 const std::vector<Span> &Spans) {
  std::vector<double> Self = selfTimesMs(Spans);
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  for (const Span &S : Spans)
    Origin = std::min(Origin, S.StartNs);
  OS << "{\"traceEvents\":[\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Span names are fixed identifiers from the benchmark's own code, so
    // they need no JSON escaping.
    OS << "{\"name\":\"" << S.Name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << S.Thread << ",\"ts\":" << (S.StartNs - Origin) / 1e3
       << ",\"dur\":" << (S.EndNs - S.StartNs) / 1e3
       << ",\"args\":{\"rid\":" << S.RequestId << ",\"parent\":" << S.Parent
       << ",\"self_us\":" << Self[I] * 1e3 << "}}"
       << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  OS << "],\"displayTimeUnit\":\"ms\"}\n";
}
