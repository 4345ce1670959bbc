//===----------------------------------------------------------------------===//
///
/// \file
/// Self-tests of the benchmark's own arithmetic and checks: the
/// percentile-with-sample-count rule, the geometric mean, span self-time
/// math, failure accounting, the cc oracle catching one flipped word, and
/// the cc oracle agreeing with the Titan runs of generated programs.
///
///   perfbench_selftest WORKDIR     (exit 0 = all passed)
///
//===----------------------------------------------------------------------===//

#include "CcOracle.h"
#include "Stats.h"
#include "Trace.h"

#include "driver/Compiler.h"
#include "fuzz/Generator.h"
#include "server/Client.h"

#include <cmath>
#include <cstdio>
#include <string>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const char *What, int Line) {
  if (!Cond) {
    ++Failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", Line, What);
  }
}
#define CHECK(C) check((C), #C, __LINE__)

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

void testPercentile() {
  std::vector<double> S;
  for (int I = 1000; I >= 1; --I)
    S.push_back(I);
  Percentile P99 = percentile(S, 0.99);
  CHECK(P99.Value == 990.0);
  CHECK(P99.Samples == 1000);
  CHECK(P99.Beyond == 10);
  CHECK(P99.Supported);
  CHECK(percentile(S, 0.50).Value == 500.0);

  S.pop_back(); // 999 samples: only 9 lie beyond p99
  Percentile Short = percentile(S, 0.99);
  CHECK(Short.Beyond == 9);
  CHECK(!Short.Supported);
  CHECK(!percentile({}, 0.5).Supported);
  CHECK(percentile({7.0}, 1.0).Value == 7.0);

  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void testGeomean() {
  CHECK(near(geomean({1.0, 4.0, 16.0}), 4.0));
  CHECK(near(geomean({2.5}), 2.5));
  CHECK(geomean({}) == 0.0);
  CHECK(geomean({1.0, 0.0, 8.0}) == 0.0);
  CHECK(geomean({1.0, -2.0}) == 0.0);
}

void testSelfTime() {
  // root [0,100] ms with children [10,30], [20,50] (overlapping) and
  // [90,120] (clipped to the parent): covered 40 + 10 = 50 ms.
  SpanRecorder R;
  const int64_t Ms = 1000000;
  int Root = R.add("op", 0, 100 * Ms, 7);
  int A = R.add("a", 10 * Ms, 30 * Ms, 7, Root);
  R.add("b", 20 * Ms, 50 * Ms, 7, Root);
  R.add("c", 90 * Ms, 120 * Ms, 7, Root);
  R.add("a.leaf", 12 * Ms, 18 * Ms, 7, A);
  std::vector<double> Self = selfTimesMs(R.spans());
  CHECK(near(Self[Root], 50.0));
  CHECK(near(Self[A], 14.0));
  CHECK(near(Self[4], 6.0));
  auto Totals = totalsByName(R.spans());
  CHECK(near(Totals["op"].SelfMs, 50.0) && Totals["op"].Count == 1);

  // absorb() re-bases parents.
  SpanRecorder Merged;
  Merged.add("x", 0, 1, 1);
  Merged.absorb(R);
  CHECK(Merged.spans()[2].Parent == 1);
  CHECK(Merged.spans()[1].Parent == NoParent);
}

void testErrorAccounting() {
  ErrorTally T;
  for (int I = 0; I < 7; ++I)
    T.success();
  T.fail(Failure::Refused);
  T.fail(Failure::Busy);
  T.fail(Failure::Timeout);
  CHECK(T.Attempted == 10);
  CHECK(T.failed() == 3);
  CHECK(near(T.errorRate(), 0.3));
  CHECK(near(T.successRate(), 0.7));
  T.fail(Failure::WrongOutput);
  CHECK(T.Attempted == 11 && T.failed() == 4);
  CHECK(T.breakdown() == "wrong-output=1 refused=1 busy=1 timeout=1");
  ErrorTally Empty;
  CHECK(Empty.errorRate() == 1.0); // nothing attempted is not a success

  // A refused connection is classified as the refusal it is.
  tcc::server::Client C(500);
  std::string Error;
  CHECK(!C.connect("no-such-daemon.sock", Error));
  CHECK(C.lastError() == tcc::server::TransportError::ConnectRefused);
}

void testOracle(const std::string &WorkDir) {
  // Pure comparison: one flipped word is found; +0.0f/-0.0f is exempt.
  GlobalImage Ref = {{"a", {0, 0, 0, 0, 1, 2, 3, 4}}};
  GlobalImage Got = Ref;
  std::string Detail;
  CHECK(compareImages(Ref, Got, Detail) == 0);
  Got["a"][1 * 4 + 2] ^= 0x10;
  CHECK(compareImages(Ref, Got, Detail) == 1);
  CHECK(Detail.find("word 1") != std::string::npos);
  CHECK(imageDigest(Ref) != imageDigest(Got));
  GlobalImage NegZero = Ref;
  NegZero["a"][3] = 0x80;
  CHECK(compareImages(Ref, NegZero, Detail) == 0);
  CHECK(imageDigest(Ref) == imageDigest(NegZero));
  CHECK(compareImages(Ref, {}, Detail) == 2); // missing global: all words

  // End to end: a Titan run agrees with the host-native build, and the
  // oracle flags one deliberately flipped word of it.
  const char *Source = R"(
    float x[8]; int n[3];
    void titan_tic(void);
    void titan_toc(void);
    void main() {
      int i;
      titan_tic();
      for (i = 0; i < 8; i++) x[i] = 0.5 * i - 1.0;
      n[0] = 7; n[1] = n[0] * 3; n[2] = -0;
      titan_toc();
    }
  )";
  CcOracle Oracle(WorkDir);
  std::string Error;
  CHECK(Oracle.prepare(Error));
  tcc::driver::RunOutcome Out = tcc::driver::compileAndRun(Source);
  CHECK(Out.Compile->ok() && Out.Run.Ok);
  if (!Out.Compile->ok() || !Out.Run.Ok)
    return;
  GlobalImage Host;
  CHECK(Oracle.reference(Source, comparedGlobals(Out.Compile->Machine),
                         "selftest", Host, Error));
  CHECK(Host.size() == 2 && Host["x"].size() == 32 && Host["n"].size() == 12);
  GlobalImage Titan = titanImage(Out.Compile->Machine, *Out.Machine, Host);
  CHECK(compareImages(Host, Titan, Detail) == 0);
  Titan["x"][5 * 4] ^= 1;
  CHECK(compareImages(Host, Titan, Detail) == 1);
  CHECK(Detail.find("'x' word 5") != std::string::npos);
}

/// Generated programs (leaf calls, while loops, pointer walks, 2D
/// indexing) under the full pipeline match their host-native builds word
/// for word.
void testGeneratedPrograms(const std::string &WorkDir) {
  constexpr uint64_t Seed = 0x5eed;
  constexpr unsigned Programs = 32;
  CcOracle Oracle(WorkDir);
  std::string Error;
  CHECK(Oracle.prepare(Error));
  unsigned Matched = 0;
  for (unsigned I = 0; I < Programs; ++I) {
    tcc::fuzz::GenProgram G =
        tcc::fuzz::generateProgram(tcc::fuzz::programSeed(Seed, I));
    tcc::driver::RunOutcome Out = tcc::driver::compileAndRun(G.Source);
    if (!Out.Compile->ok() || !Out.Run.Ok) {
      std::fprintf(stderr, "generated program %u failed to compile or run\n",
                   I);
      continue;
    }
    GlobalImage Host;
    if (!Oracle.reference(G.Source, comparedGlobals(Out.Compile->Machine),
                          "gen-" + std::to_string(I), Host, Error)) {
      std::fprintf(stderr, "generated program %u: %s\n", I, Error.c_str());
      continue;
    }
    std::string Detail;
    if (compareImages(Host, titanImage(Out.Compile->Machine, *Out.Machine, Host),
                      Detail) != 0) {
      std::fprintf(stderr, "generated program %u differs: %s\n", I,
                   Detail.c_str());
      continue;
    }
    ++Matched;
  }
  CHECK(Matched == Programs);
}

} // namespace

int main(int argc, char **argv) {
  testPercentile();
  testGeomean();
  testSelfTime();
  testErrorAccounting();
  testOracle(argc > 1 ? argv[1] : ".");
  testGeneratedPrograms(argc > 1 ? argv[1] : ".");
  if (Failures) {
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
