#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

Percentile perfbench::percentile(std::vector<double> Samples, double P) {
  Percentile R;
  R.Samples = Samples.size();
  if (Samples.empty() || P <= 0.0 || P > 1.0)
    return R;
  std::sort(Samples.begin(), Samples.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * Samples.size()));
  Rank = std::clamp<size_t>(Rank, 1, Samples.size());
  R.Value = Samples[Rank - 1];
  R.Beyond = Samples.size() - Rank;
  R.Supported = R.Beyond >= MinBeyond;
  return R;
}

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values) {
    if (!(V > 0.0))
      return 0.0;
    LogSum += std::log(V);
  }
  return std::exp(LogSum / Values.size());
}

const char *perfbench::failureName(Failure F) {
  switch (F) {
  case Failure::CompileOrRun:
    return "compile-or-run";
  case Failure::WrongOutput:
    return "wrong-output";
  case Failure::Refused:
    return "refused";
  case Failure::Busy:
    return "busy";
  case Failure::Timeout:
    return "timeout";
  case Failure::Transport:
    return "transport";
  case Failure::Drain:
    return "drain";
  }
  return "?";
}

void ErrorTally::merge(const ErrorTally &O) {
  Attempted += O.Attempted;
  Succeeded += O.Succeeded;
  for (int I = 0; I < 7; ++I)
    ByKind[I] += O.ByKind[I];
}

std::string ErrorTally::breakdown() const {
  std::string S;
  for (int I = 0; I < 7; ++I) {
    if (!ByKind[I])
      continue;
    if (!S.empty())
      S += ' ';
    S += failureName(static_cast<Failure>(I));
    S += '=';
    S += std::to_string(ByKind[I]);
  }
  return S;
}
