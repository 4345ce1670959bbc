#include "Workloads.h"

#include "CcOracle.h"
#include "Daemon.h"
#include "Stats.h"
#include "Trace.h"

#include "ablate/Kernels.h"
#include "codegen/Codegen.h"
#include "driver/Compiler.h"
#include "driver/ToolMain.h"
#include "frontend/Lower.h"
#include "lexer/Lexer.h"
#include "parser/Parser.h"
#include "pipeline/PassManager.h"
#include "server/Client.h"
#include "server/HotCache.h"
#include "server/Server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <spawn.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace tcc;

namespace {

// Closed-loop concurrency of tccd_hot, and the threads the harness uses
// for its own work outside the timed window: one per core of the 4-core
// machine the benchmark was sized on.
constexpr unsigned Connections = 4;
// Cold set-ups per run; set-up time is their median.
constexpr unsigned SetupRepeats = 15;
// Traced daemon runs: share of the run spent on client traffic; the
// requests are then replayed in process, layer by layer, for the rest.
constexpr double TraceClientShare = 0.6;
// Untimed suite operations before the window.
constexpr double WarmupSeconds = 1.0;

double msBetween(int64_t A, int64_t B) { return (B - A) / 1e6; }

double threadCpuMs() {
  timespec TS;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &TS);
  return TS.tv_sec * 1e3 + TS.tv_nsec / 1e6;
}

/// One program the workloads compile, with the tcc command line that
/// compiles it.  The in-process options are parsed from that same
/// command line, so in-process and daemon compiles cannot drift apart.
struct Job {
  std::string Name;
  driver::ToolInvocation Inv;
  server::Request Req; ///< Args and Source; the source is kept only here.
};

Job makeJob(const std::string &Name, const std::string &Source,
            std::vector<std::string> Args) {
  Job J;
  J.Name = Name;
  Args.push_back(Name + ".c");
  std::string Error;
  if (!driver::parseToolArgs(Args, J.Inv, Error))
    throw std::runtime_error("bad job command line for " + Name + ": " +
                             Error);
  J.Req.Args = Args;
  J.Req.Source = Source;
  return J;
}

/// The paper's 13 kernels: the 7 bench kernels under the full pipeline
/// at P=1, the 6 Livermore-style kernels under -P 4 (with -fno-inline
/// where the kernel asks for it).
std::vector<Job> kernelJobs() {
  std::vector<Job> Jobs;
  for (const ablate::BenchKernel &K : ablate::benchKernels())
    Jobs.push_back(makeJob(K.Name, K.Source, {}));
  for (const ablate::ParallelKernel &K : ablate::parallelKernels()) {
    std::vector<std::string> Args = {"-P", "4"};
    if (K.DisableInline)
      Args.push_back("-fno-inline");
    Jobs.push_back(makeJob(K.Name, K.Source, Args));
  }
  return Jobs;
}

/// Runs Body(I) for I in [0, N) on a few threads.
void parallelFor(size_t N, const std::function<void(size_t)> &Body) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Connections; ++T)
    Pool.emplace_back([&] {
      for (size_t I; (I = Next.fetch_add(1)) < N;)
        Body(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

/// The figures of emitted code for one program: the kernel region where
/// titan_tic/titan_toc mark one, else the whole run.
struct Emitted {
  double Cycles = 0.0;
  double Mflops = 0.0;
  uint64_t Flops = 0;
  uint64_t Instrs = 0;
};

uint64_t staticInstrs(const titan::TitanProgram &P) {
  uint64_t N = 0;
  for (const titan::TitanFunction &F : P.Functions)
    N += F.Code.size();
  return N;
}

Emitted emittedOf(const titan::TitanProgram &P, const titan::RunResult &R,
                  const titan::TitanConfig &Machine) {
  Emitted E;
  bool Region = R.RegionCycles != 0;
  E.Cycles = static_cast<double>(Region ? R.RegionCycles : R.Cycles);
  E.Flops = Region ? R.RegionFlops : R.Flops;
  E.Mflops = R.regionMflops(Machine);
  E.Instrs = staticInstrs(P);
  return E;
}

/// The full text of an emitted program, for exact comparison.
std::string programText(const titan::TitanProgram &P) {
  std::string S;
  for (const titan::TitanFunction &F : P.Functions)
    S += titan::disassemble(F) + "\n";
  for (const auto &[Name, Addr] : P.GlobalAddresses)
    S += Name + "@" + std::to_string(Addr) + "\n";
  S += "size " + std::to_string(P.GlobalSize) + " stack " +
       std::to_string(P.StackBase) + "\n";
  S.append(P.InitialImage.begin(), P.InitialImage.end());
  return S;
}

/// A job's independent reference, built outside every timed window.
struct Reference {
  GlobalImage Cc;         ///< Host-native results of the compared globals.
  uint64_t Digest = 0;    ///< imageDigest(Cc).
  Emitted E;              ///< From a reference compile of the job.
  std::string Text;       ///< programText of compileSource's output.
};

/// Problems and failure counts shared by every phase of a run.
struct Ledger {
  std::mutex M;
  ErrorTally Tally;
  std::vector<std::string> Problems;

  void problem(const std::string &P) {
    std::lock_guard<std::mutex> Lock(M);
    if (Problems.size() < 20)
      Problems.push_back(P);
  }
};

/// Compiles each job in process, builds its host-native reference with
/// the system cc, and checks the two word for word.  Mismatches are recorded as problems.  \p Parallel spreads the
/// work over threads; the suite builds its references on the main thread
/// so that they leave no thread arenas behind in the process whose peak
/// memory it reports.
std::vector<Reference> buildReferences(const std::vector<Job> &Jobs,
                                       const CcOracle &Oracle, Ledger &L,
                                       bool Parallel) {
  const size_t N = Jobs.size();
  std::vector<Reference> Refs(N);
  auto Build = [&](size_t I) {
    const Job &J = Jobs[I];
    driver::RunOutcome Out =
        driver::compileAndRun(J.Req.Source, J.Inv.Opts, J.Inv.Machine);
    if (!Out.Compile->ok() || !Out.Run.Ok) {
      L.problem(J.Name + ": reference compile/run failed: " + Out.Run.Error);
      return;
    }
    Reference &R = Refs[I];
    R.E = emittedOf(Out.Compile->Machine, Out.Run, J.Inv.Machine);
    R.Text = programText(Out.Compile->Machine);
    std::string Error;
    if (!Oracle.reference(J.Req.Source, comparedGlobals(Out.Compile->Machine),
                          J.Name, R.Cc, Error)) {
      L.problem(J.Name + ": " + Error);
      return;
    }
    R.Digest = imageDigest(R.Cc);
    std::string Detail;
    uint64_t Bad = compareImages(
        R.Cc, titanImage(Out.Compile->Machine, *Out.Machine, R.Cc), Detail);
    if (Bad)
      L.problem(J.Name + ": " + std::to_string(Bad) +
                " words differ from the cc reference; first: " + Detail);
  };
  if (Parallel)
    parallelFor(N, Build);
  else
    for (size_t I = 0; I < N; ++I)
      Build(I);
  return Refs;
}

struct EmittedSummary {
  double CyclesGeomean = 0.0;
  double MflopsGeomean = 0.0;
  double Instrs = 0.0;
};

/// Geomean of cycles over every program; geomean of MFLOPS over the
/// programs whose measured region does floating-point work (a zero
/// would make the geomean zero); total static instructions.
EmittedSummary summarize(const std::vector<Reference> &Refs) {
  std::vector<double> Cycles, Mflops;
  EmittedSummary S;
  for (const Reference &R : Refs) {
    Cycles.push_back(R.E.Cycles);
    if (R.E.Flops)
      Mflops.push_back(R.E.Mflops);
    S.Instrs += static_cast<double>(R.E.Instrs);
  }
  S.CyclesGeomean = geomean(Cycles);
  S.MflopsGeomean = geomean(Mflops);
  return S;
}

//===----------------------------------------------------------------------===//
// The layer-by-layer compile, traced
//===----------------------------------------------------------------------===//

/// The hot state a daemon keeps across compiles, for the in-process
/// replay of daemon traffic: a hot function-result cache, the shared
/// analysis pool, and the daemon-owned manifest.
struct HotStores {
  pipeline::FunctionResultCache *Hot = nullptr;
  pipeline::SharedAnalysisCache *Shared = nullptr;
  std::string Manifest;
};

/// Per-operation counters the traced compile reads at layer boundaries.
struct LayerCounts {
  double Tokens = 0, IlStmts = 0, CodegenInstrs = 0, Cycles = 0,
         Instructions = 0, VectorInstrs = 0, Loads = 0, LoopsVectorized = 0,
         VectorMissed = 0, LoopsSpread = 0;
  uint64_t Ops = 0;
};

struct TracedOutcome {
  std::string Error;
  std::unique_ptr<titan::TitanProgram> Prog;
  std::unique_ptr<titan::TitanMachine> Machine;
  titan::RunResult Run;
  // What tracedCompile() reads once the root span has ended.
  remarks::CompilationTelemetry Telemetry;
  driver::PhaseStats Stats;
  size_t Tokens = 0;
  uint64_t IlStmts = 0;
  int PipelineSpan = -1;
  int TeardownSpan = -1; ///< Begun once every layer has run.
};

/// The layers of tracedCompile() under \p Root.  Once the last layer has
/// run it opens the compile.teardown span, which tracedCompile() closes:
/// the destruction of this function's locals (the AST, the IL, the pass
/// manager) is compile time too.
void tracedLayers(const Job &J, const HotStores &Stores, SpanRecorder &R,
                  uint64_t Rid, int Root, TracedOutcome &Out) {
  const driver::CompilerOptions &Opts = J.Inv.Opts;
  DiagnosticEngine Diags;

  int S = R.begin("lexer", Rid, Root);
  Lexer Lex(J.Req.Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  R.end(S);
  Out.Tokens = Tokens.size();

  S = R.begin("parser", Rid, Root);
  il::Program P;
  ast::AstContext AstCtx;
  Parser Parse(std::move(Tokens), AstCtx, P.getTypes(), Diags);
  ast::TranslationUnit TU = Parse.parseTranslationUnit();
  R.end(S);
  if (Diags.hasErrors()) {
    Out.Error = Diags.str();
    return;
  }

  S = R.begin("frontend.lower", Rid, Root);
  lowerTranslationUnit(TU, P, Diags);
  R.end(S);
  if (Diags.hasErrors()) {
    Out.Error = Diags.str();
    return;
  }
  Out.IlStmts = pipeline::PassManager::countIL(P).Stmts;

  S = R.begin("pipeline", Rid, Root);
  pipeline::PassManagerConfig Config;
  Config.Sandbox.Enabled = Opts.SandboxPasses;
  Config.Sandbox.PassBudgetMs = Opts.PassBudgetMs;
  Config.Sandbox.StmtGrowthFactor = Opts.StmtGrowthFactor;
  Config.Sandbox.StmtGrowthSlack = Opts.StmtGrowthSlack;
  Config.Sandbox.ReproDir = Opts.ReproDir;
  Config.VerifyEach = Opts.VerifyEach;
  Config.Mode = Opts.WholeProgram ? pipeline::PipelineMode::WholeProgram
                                  : pipeline::PipelineMode::FunctionAtATime;
  Config.CacheFile = Stores.Manifest;
  Config.CacheConfig = driver::configFingerprint(Opts);
  Config.ResultCache = Stores.Hot;
  Config.SharedAnalyses = Stores.Shared;
  pipeline::PassManager PM(driver::makePipelineOptions(Opts),
                           std::move(Config));
  remarks::RemarkCollector Remarks;
  const std::string Spec =
      Opts.Passes.empty() ? Opts.pipelineSpec() : Opts.Passes;
  if (PM.addPipeline(Spec, Diags))
    Out.Telemetry = PM.run(P, Diags, Remarks, Out.Stats);
  R.end(S);
  Out.PipelineSpan = S;
  if (Diags.hasErrors()) {
    Out.Error = Diags.str();
    return;
  }

  S = R.begin("codegen", Rid, Root);
  codegen::CodegenOptions CG;
  CG.EnableDepScheduling = Opts.EnableDepScheduling;
  Out.Prog = std::make_unique<titan::TitanProgram>(
      codegen::generateProgram(P, Diags, CG));
  R.end(S);
  if (Diags.hasErrors()) {
    Out.Error = Diags.str();
    return;
  }

  S = R.begin("titan.setup", Rid, Root);
  Out.Machine = std::make_unique<titan::TitanMachine>(*Out.Prog,
                                                      J.Inv.Machine);
  R.end(S);
  S = R.begin("titan.run", Rid, Root);
  Out.Run = Out.Machine->run("main");
  R.end(S);
  Out.Error = Out.Run.Error;
  Out.TeardownSpan = R.begin("compile.teardown", Rid, Root);
}

/// compileSource() + TitanMachine construction + run, one public layer
/// call at a time in compileSource's order, with a span around each.
/// Per-pass spans are laid back to back from the pipeline span's start;
/// their durations are the pipeline's own telemetry.  They and the
/// counters are recorded after the root span ends, so that harness work
/// stays out of it.
TracedOutcome tracedCompile(const Job &J, const HotStores &Stores,
                            SpanRecorder &R, uint64_t Rid, int Parent,
                            LayerCounts &C) {
  TracedOutcome Out;
  const int Root = R.begin("compile", Rid, Parent);
  tracedLayers(J, Stores, R, Rid, Root, Out);
  if (Out.TeardownSpan >= 0)
    R.end(Out.TeardownSpan);
  R.end(Root);

  if (Out.PipelineSpan >= 0) {
    int64_t At = R.spans()[Out.PipelineSpan].StartNs;
    for (const remarks::PassRecord &Rec : Out.Telemetry.Passes) {
      int64_t Dur = static_cast<int64_t>(Rec.Millis * 1e6);
      R.add("pipeline." + Rec.Pass, At, At + Dur, Rid, Out.PipelineSpan);
      At += Dur;
    }
  }
  if (Out.TeardownSpan < 0)
    return Out;
  const titan::RunResult &Run = Out.Run;
  unsigned Missed = 0;
  for (const remarks::Remark &Rm : Out.Telemetry.Remarks)
    Missed += Rm.Kind == remarks::RemarkKind::Missed && Rm.Pass == "vectorize";
  C.Tokens += Out.Tokens;
  C.IlStmts += Out.IlStmts;
  C.CodegenInstrs += staticInstrs(*Out.Prog);
  C.Cycles += Run.Cycles;
  C.Instructions += Run.Instructions;
  C.VectorInstrs += Run.VectorInstrs;
  C.Loads += Run.Loads;
  C.LoopsVectorized += Out.Stats.Vectorize.LoopsVectorized;
  C.VectorMissed += Missed;
  C.LoopsSpread += Out.Stats.Spread.LoopsSpread;
  ++C.Ops;
  return Out;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// The per-layer metric names, in BENCHMARK.json order.  A traced run
/// reports every one; a layer the workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> M = {
      {"op.ms", "ms"},
      {"op.self_ms", "ms"},
      {"compile.ms", "ms"},
      {"compile.self_ms", "ms"},
      {"lexer.ms", "ms"},
      {"parser.ms", "ms"},
      {"frontend.lower_ms", "ms"},
      {"pipeline.ms", "ms"},
      {"pipeline.self_ms", "ms"},
      {"pipeline.inline.ms", "ms"},
      {"pipeline.whiletodo.ms", "ms"},
      {"pipeline.ivsub.ms", "ms"},
      {"pipeline.constprop.ms", "ms"},
      {"pipeline.dce.ms", "ms"},
      {"pipeline.spread.ms", "ms"},
      {"pipeline.vectorize.ms", "ms"},
      {"pipeline.depopt.ms", "ms"},
      {"codegen.ms", "ms"},
      {"titan.setup_ms", "ms"},
      {"titan.run_ms", "ms"},
      {"compile.teardown_ms", "ms"},
      {"driver.tool_ms", "ms"},
      {"server.handle_ms", "ms"},
      {"client.connect_ms", "ms"},
      {"client.roundtrip_ms", "ms"},
      {"client.close_ms", "ms"},
      {"server.transport_ms", "ms"},
      {"lexer.tokens", "count"},
      {"frontend.il_stmts", "count"},
      {"codegen.instrs", "instrs"},
      {"titan.cycles", "cycles"},
      {"titan.instructions", "instrs"},
      {"titan.vector_instrs", "instrs"},
      {"titan.loads", "count"},
      {"vector.loops_vectorized", "count"},
      {"vector.missed", "count"},
      {"parallel.loops_spread", "count"},
      {"server.hot_hits", "count"},
      {"server.hot_misses", "count"},
      {"server.hot_hit_ratio", "fraction"},
      {"server.hot_evictions", "count"},
      {"server.shed", "count"},
      {"server.queue_depth_max", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.coverage_min", "fraction"},
      {"trace.coverage_p01", "fraction"},
      {"trace.coverage", "fraction"},
      {"trace.ops", "count"},
  };
  return M;
}

/// Span name -> per-layer metric name for the timed layers.
const std::map<std::string, std::string> &spanMetricNames() {
  static const std::map<std::string, std::string> M = {
      {"op", "op.ms"},
      {"compile", "compile.ms"},
      {"lexer", "lexer.ms"},
      {"parser", "parser.ms"},
      {"frontend.lower", "frontend.lower_ms"},
      {"pipeline", "pipeline.ms"},
      {"codegen", "codegen.ms"},
      {"titan.setup", "titan.setup_ms"},
      {"titan.run", "titan.run_ms"},
      {"compile.teardown", "compile.teardown_ms"},
      {"driver.tool", "driver.tool_ms"},
      {"server.handle", "server.handle_ms"},
      {"client.connect", "client.connect_ms"},
      {"client.roundtrip", "client.roundtrip_ms"},
      {"client.close", "client.close_ms"},
  };
  return M;
}

/// Everything a traced run reports, filled in from the spans.
struct TraceReport {
  std::map<std::string, double> Values;

  void fromSpans(const std::vector<Span> &Spans) {
    std::map<std::string, LayerTotals> Totals = totalsByName(Spans);
    auto Pipeline = Totals.find("pipeline");
    const uint64_t Compiles =
        Pipeline == Totals.end() ? 1 : Pipeline->second.Count;
    for (const auto &[Name, T] : Totals) {
      if (!T.Count)
        continue;
      double Mean = T.Ms / T.Count;
      auto It = spanMetricNames().find(Name);
      if (It != spanMetricNames().end())
        Values[It->second] = Mean;
      else if (Name.rfind("pipeline.", 0) == 0)
        // Per-pass spans: mean per compile, not per pass record.
        Values[Name + ".ms"] = T.Ms / Compiles;
      if (Name == "op" || Name == "compile" || Name == "pipeline")
        Values[Name + ".self_ms"] = T.SelfMs / T.Count;
    }
    // Coverage of each operation by its top-level child spans: the part
    // of the root that is not its self time.
    std::vector<double> Coverage;
    double CoveredMs = 0.0, OpMs = 0.0;
    std::vector<double> Self = selfTimesMs(Spans);
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &Sp = Spans[I];
      double Dur = Sp.ms();
      if ((Sp.Name != "op" && Sp.Name != "compile") || Dur <= 0)
        continue;
      Coverage.push_back(1.0 - Self[I] / Dur);
      CoveredMs += Dur - Self[I];
      OpMs += Dur;
    }
    Values["trace.coverage_min"] =
        Coverage.empty() ? 1.0
                         : *std::min_element(Coverage.begin(), Coverage.end());
    Values["trace.coverage_p01"] =
        Coverage.empty() ? 1.0 : percentile(Coverage, 0.01).Value;
    Values["trace.coverage"] = OpMs > 0 ? CoveredMs / OpMs : 1.0;
  }

  void fromCounts(const LayerCounts &C) {
    if (!C.Ops)
      return;
    double N = static_cast<double>(C.Ops);
    Values["lexer.tokens"] = C.Tokens / N;
    Values["frontend.il_stmts"] = C.IlStmts / N;
    Values["codegen.instrs"] = C.CodegenInstrs / N;
    Values["titan.cycles"] = C.Cycles / N;
    Values["titan.instructions"] = C.Instructions / N;
    Values["titan.vector_instrs"] = C.VectorInstrs / N;
    Values["titan.loads"] = C.Loads / N;
    Values["vector.loops_vectorized"] = C.LoopsVectorized / N;
    Values["vector.missed"] = C.VectorMissed / N;
    Values["parallel.loops_spread"] = C.LoopsSpread / N;
  }

  /// Traced against untraced p50 of the same operations, in percent.
  void overhead(const std::vector<double> &UntracedMs,
                const std::vector<double> &TracedMs) {
    double Base = percentile(UntracedMs, 0.5).Value;
    double Traced = percentile(TracedMs, 0.5).Value;
    Values["trace.overhead_pct"] =
        Base > 0 ? 100.0 * (Traced - Base) / Base : 0.0;
  }

  /// The top-level spans must account for at least 95% of each
  /// operation's wall time.  A thread preempted between two spans leaves
  /// a gap no span can cover, so the rule is held by 99% of operations
  /// (trace.coverage_p01, the 1st percentile of per-operation coverage),
  /// and by the run's total; the worst single operation is reported as
  /// trace.coverage_min.
  void checkCoverage(Ledger &L) {
    for (const char *Name : {"trace.coverage_p01", "trace.coverage"})
      if (Values[Name] < 0.95)
        L.problem(std::string(Name) + " is " +
                  std::to_string(Values[Name]) +
                  ": top-level spans cover less than 95% of operation "
                  "wall time");
  }

  void into(RunResult &Out) const {
    for (const auto &[Name, Unit] : perLayerMetrics()) {
      auto It = Values.find(Name);
      Out.Metrics.push_back({Name, It == Values.end() ? 0.0 : It->second,
                             Unit});
    }
  }
};

void writeTrace(const std::string &Path, const std::vector<Span> &Spans,
                RunResult &Out) {
  if (Path.empty())
    return;
  std::ofstream OS(Path);
  writeChromeTrace(OS, Spans);
  Out.Notes.push_back("chrome trace: " + Path + " (" +
                      std::to_string(Spans.size()) + " spans)");
}

/// Notes how much CPU time the hypervisor took from this machine since
/// \p Before: the usual cause of a run that reads slower than its peers.
void noteSteal(RunResult &Out, const HostTicks &Before) {
  char Buf[120];
  std::snprintf(Buf, sizeof(Buf),
                "host steal during the window: %.1f%% of CPU time",
                100 * stealShare(Before, hostTicks()));
  Out.Notes.push_back(Buf);
}

struct Latencies {
  std::vector<double> Ms;
  double BusyMs = 0.0; ///< Sum of operation wall times (suite only).
  double CpuMs = 0.0;  ///< CPU time of the system under test.
  double WallS = 0.0;  ///< Length of the measured window.
  uint64_t Completed = 0;
};

void endToEnd(RunResult &Out, const Latencies &L, double ThroughputOpsS,
              double SetupS, double PeakRssMiB, double SuccessRate,
              const EmittedSummary &E) {
  Percentile P50 = percentile(L.Ms, 0.50);
  Percentile P99 = percentile(L.Ms, 0.99);
  if (!P99.Supported)
    Out.Notes.push_back("warning: p99 has only " +
                        std::to_string(P99.Beyond) +
                        " samples beyond it (needs " +
                        std::to_string(MinBeyond) + ")");
  double CpuPerOp = L.Completed ? L.CpuMs / L.Completed : 0.0;
  Out.Metrics = {
      {"setup_s", SetupS, "s"},
      {"latency_ms_p50", P50.Value, "ms"},
      {"latency_ms_p99", P99.Value, "ms"},
      {"throughput_ops_s", ThroughputOpsS, "ops/s"},
      {"cpu_ms_per_op", CpuPerOp, "ms"},
      {"peak_rss_mb", PeakRssMiB, "MiB"},
      {"success_rate", SuccessRate, "fraction"},
      {"sim_cycles_geomean", E.CyclesGeomean, "cycles"},
      {"mflops_geomean", E.MflopsGeomean, "MFLOPS"},
      {"code_size_instrs", E.Instrs, "instrs"},
  };
  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "latency: %zu samples; p50 %.4f ms (%zu beyond), p99 %.4f "
                "ms (%zu beyond); %.2f s window",
                P50.Samples, P50.Value, P50.Beyond, P99.Value, P99.Beyond,
                L.WallS);
  Out.Notes.push_back(Buf);
}

//===----------------------------------------------------------------------===//
// suite: in-process compile+run of the 13 kernels
//===----------------------------------------------------------------------===//

/// Starts this binary SetupRepeats times as a cold-compile probe, each of
/// which times its own first compileAndRun and writes the seconds to its
/// standard output; returns their median.  Process start-up is not in
/// the figure.
double coldCompileSeconds(const std::string &SelfExe, Ledger &L) {
  std::vector<double> Times;
  char Probe[] = "--probe-cold-compile";
  char *Argv[] = {const_cast<char *>(SelfExe.c_str()), Probe, nullptr};
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    int Pipe[2];
    if (::pipe(Pipe) != 0) {
      L.problem("cannot start the cold-compile probe");
      return 0.0;
    }
    posix_spawn_file_actions_t Actions;
    posix_spawn_file_actions_init(&Actions);
    posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
    pid_t Pid = -1;
    int Err = ::posix_spawn(&Pid, SelfExe.c_str(), &Actions, nullptr, Argv,
                            environ);
    posix_spawn_file_actions_destroy(&Actions);
    ::close(Pipe[1]);
    std::string Text;
    char Buf[64];
    for (ssize_t N; Err == 0 && (N = ::read(Pipe[0], Buf, sizeof(Buf))) > 0;)
      Text.append(Buf, N);
    ::close(Pipe[0]);
    int Status = 0;
    if (Err != 0 || ::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
        WEXITSTATUS(Status) != 0 || Text.empty()) {
      L.problem("the cold-compile probe failed");
      return 0.0;
    }
    Times.push_back(std::strtod(Text.c_str(), nullptr));
  }
  return median(Times);
}

/// One suite operation: compileAndRun, checked against the job's
/// reference outside the timed call.
void checkSuiteOp(const Job &J, const Reference &Ref,
                  const titan::TitanProgram &Prog,
                  const titan::TitanMachine &M, const titan::RunResult &Run,
                  Ledger &L, ErrorTally &T) {
  if (!Run.Ok) {
    T.fail(Failure::CompileOrRun);
    L.problem(J.Name + ": " + Run.Error);
    return;
  }
  Emitted E = emittedOf(Prog, Run, J.Inv.Machine);
  if (imageDigest(titanImage(Prog, M, Ref.Cc)) != Ref.Digest ||
      E.Cycles != Ref.E.Cycles || E.Instrs != Ref.E.Instrs) {
    T.fail(Failure::WrongOutput);
    L.problem(J.Name + ": output or emitted code differs from reference");
    return;
  }
  T.success();
}

/// Span recording for a traced suite run.  Every other operation goes
/// through the layer-by-layer compile and the rest through
/// compileAndRun, so the traced and untraced latency sets see the same
/// conditions and their p50s give the tracing overhead.
struct SuiteTrace {
  SpanRecorder R;
  LayerCounts Counts;
  std::vector<double> TracedMs;
  std::map<size_t, std::string> FirstText; ///< Per job, first traced program.
};

/// Runs suite operations for \p Seconds, starting the kernel rotation
/// at \p First.
Latencies suiteLoop(const std::vector<Job> &Jobs,
                    const std::vector<Reference> &Refs, double Seconds,
                    size_t First, Ledger &L, ErrorTally &T, SuiteTrace *Tr) {
  Latencies Lat;
  const int64_t Start = nowNs();
  const int64_t Deadline = Start + static_cast<int64_t>(Seconds * 1e9);
  for (size_t I = First; nowNs() < Deadline; ++I) {
    const size_t K = I % Jobs.size();
    const Job &J = Jobs[K];
    if (Tr && I % 2) {
      int Op = Tr->R.begin("op", I);
      TracedOutcome TO =
          tracedCompile(J, HotStores{}, Tr->R, I, Op, Tr->Counts);
      Tr->R.end(Op);
      Tr->TracedMs.push_back(Tr->R.spans()[Op].ms());
      if (!TO.Machine) {
        T.fail(Failure::CompileOrRun);
        L.problem(J.Name + ": " + TO.Error);
        continue;
      }
      if (!Tr->FirstText.count(K))
        Tr->FirstText[K] = programText(*TO.Prog);
      checkSuiteOp(J, Refs[K], *TO.Prog, *TO.Machine, TO.Run, L, T);
      continue;
    }
    double Cpu0 = threadCpuMs();
    int64_t T0 = nowNs();
    driver::RunOutcome Out =
        driver::compileAndRun(J.Req.Source, J.Inv.Opts, J.Inv.Machine);
    int64_t T1 = nowNs();
    Lat.CpuMs += threadCpuMs() - Cpu0;
    Lat.BusyMs += msBetween(T0, T1);
    Lat.Ms.push_back(msBetween(T0, T1));
    if (!Out.Compile->ok()) {
      T.fail(Failure::CompileOrRun);
      L.problem(J.Name + ": " + Out.Compile->Diags.str());
      continue;
    }
    checkSuiteOp(J, Refs[K], Out.Compile->Machine, *Out.Machine, Out.Run, L,
                 T);
  }
  Lat.WallS = (nowNs() - Start) / 1e9;
  Lat.Completed = Lat.Ms.size();
  return Lat;
}

RunResult runSuite(const RunConfig &Cfg, const CcOracle &Oracle, Ledger &L) {
  RunResult Out;
  std::vector<Job> Jobs = kernelJobs();
  std::vector<Reference> Refs =
      buildReferences(Jobs, Oracle, L, /*Parallel=*/false);
  double SetupS = coldCompileSeconds(Cfg.SelfExe, L);

  // Warm-up outside the window: the first compiles of a process pay for
  // lazy initialisation and heap growth, which setup_s already reports.
  // Its operations are checked but not counted.
  const size_t First = Cfg.Seed % Jobs.size();
  ErrorTally Warm;
  suiteLoop(Jobs, Refs, WarmupSeconds, First, L, Warm, nullptr);

  ErrorTally &T = L.Tally;
  if (!Cfg.Trace) {
    HostTicks Ticks0 = hostTicks();
    Latencies Lat = suiteLoop(Jobs, Refs, Cfg.Seconds, First, L, T, nullptr);
    noteSteal(Out, Ticks0);
    // One thread, no think time: throughput is operations per second of
    // compile+run time; the reference checks between operations are
    // harness time.
    endToEnd(Out, Lat, Lat.Completed / (Lat.BusyMs / 1e3), SetupS,
             procPeakRssMiB(0), T.successRate(),
             summarize(Refs));
    return Out;
  }

  SuiteTrace Tr;
  Latencies Base = suiteLoop(Jobs, Refs, Cfg.Seconds, First, L, T, &Tr);
  // The layer-by-layer compile must emit exactly what compileSource does.
  for (const auto &[K, Text] : Tr.FirstText)
    if (Text != Refs[K].Text) {
      T.fail(Failure::WrongOutput);
      L.problem(Jobs[K].Name +
                ": traced compile differs from compileSource's program");
    }

  TraceReport Rep;
  Rep.fromSpans(Tr.R.spans());
  Rep.fromCounts(Tr.Counts);
  Rep.overhead(Base.Ms, Tr.TracedMs);
  Rep.Values["trace.ops"] = static_cast<double>(Tr.Counts.Ops);
  Rep.checkCoverage(L);
  Rep.into(Out);
  writeTrace(Cfg.TraceOut, Tr.R.spans(), Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// tccd_hot: a real daemon under four closed-loop clients
//===----------------------------------------------------------------------===//

/// What one client operation produced.
struct Sent {
  size_t Job = 0;
  uint64_t Rid = 0;
  int64_t StartNs = 0;
  server::Response Resp;
};

struct ClientLoop {
  Latencies Lat;                ///< Untraced operations.
  std::vector<double> TracedMs; ///< Traced operations (traced runs only).
  std::vector<Sent> Responses; ///< Successful operations, by start time.
  std::vector<SpanRecorder> Recorders;
};

/// Drives Connections closed-loop clients for \p Seconds, each cycling
/// through all jobs and checking every response against \p Expected.  Each
/// operation is one connection, as tcc-client makes it: connect, one
/// round trip, close.  With \p Traced, every other operation of each
/// thread records client spans, so the traced and untraced latencies see
/// the same load.
ClientLoop runClients(const std::vector<Job> &Jobs,
                      const std::vector<server::Response> &Expected,
                      double Seconds, size_t Offset, bool Traced,
                      std::atomic<uint64_t> &Rids, Ledger &L) {
  ClientLoop CL;
  CL.Recorders.reserve(Connections);
  for (unsigned T = 0; T < Connections; ++T)
    CL.Recorders.emplace_back(T + 1);
  std::vector<std::vector<double>> Lat(Connections), TracedLat(Connections);
  std::vector<std::vector<Sent>> Got(Connections);
  std::vector<ErrorTally> Tallies(Connections);
  const int64_t Start = nowNs();
  const int64_t Deadline = Start + static_cast<int64_t>(Seconds * 1e9);

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Connections; ++T)
    Threads.emplace_back([&, T] {
      SpanRecorder &R = CL.Recorders[T];
      for (size_t K = T + Offset; nowNs() < Deadline; ++K) {
        const size_t Idx = K % Jobs.size();
        const uint64_t Rid = Rids.fetch_add(1);
        const bool Tr = Traced && K % 2;
        server::Client C(10000);
        server::Response Resp;
        std::string Error;
        const int64_t T0 = nowNs();
        int Op = Tr ? R.begin("op", Rid) : -1;
        int S = Tr ? R.begin("client.connect", Rid, Op) : -1;
        bool Ok = C.connect(Daemon::Socket, Error);
        if (Tr)
          R.end(S);
        if (Ok) {
          S = Tr ? R.begin("client.roundtrip", Rid, Op) : -1;
          Ok = C.roundTrip(Jobs[Idx].Req, Resp, Error);
          if (Tr)
            R.end(S);
        }
        S = Tr ? R.begin("client.close", Rid, Op) : -1;
        C.close();
        if (Tr) {
          R.end(S);
          R.end(Op);
        }
        const int64_t T1 = nowNs();
        if (!Ok) {
          server::TransportError E = C.lastError();
          Tallies[T].fail(E == server::TransportError::ConnectRefused
                              ? Failure::Refused
                          : E == server::TransportError::Timeout
                              ? Failure::Timeout
                              : Failure::Transport);
          L.problem(Jobs[Idx].Name + ": " + Error);
          continue;
        }
        if (Resp.Exit == server::BusyExit) {
          Tallies[T].fail(Failure::Busy);
          continue;
        }
        (Tr ? TracedLat : Lat)[T].push_back(msBetween(T0, T1));
        const server::Response &E = Expected[Idx];
        if (Resp.Exit != E.Exit || Resp.Out != E.Out || Resp.Err != E.Err) {
          Tallies[T].fail(Failure::WrongOutput);
          L.problem(Jobs[Idx].Name + ": daemon response differs from the "
                                     "in-process tool's");
          continue;
        }
        Tallies[T].success();
        Got[T].push_back({Idx, Rid, T0, std::move(Resp)});
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  CL.Lat.WallS = (nowNs() - Start) / 1e9;
  for (unsigned T = 0; T < Connections; ++T) {
    CL.Lat.Ms.insert(CL.Lat.Ms.end(), Lat[T].begin(), Lat[T].end());
    CL.TracedMs.insert(CL.TracedMs.end(), TracedLat[T].begin(),
                       TracedLat[T].end());
    for (Sent &S : Got[T])
      CL.Responses.push_back(std::move(S));
    std::lock_guard<std::mutex> Lock(L.M);
    L.Tally.merge(Tallies[T]);
  }
  std::sort(CL.Responses.begin(), CL.Responses.end(),
            [](const Sent &A, const Sent &B) { return A.StartNs < B.StartNs; });
  CL.Lat.Completed = CL.Lat.Ms.size();
  return CL;
}

/// The response `tcc` itself would give for \p J, rendered in process.
server::Response toolResponse(const Job &J, driver::CompilerSession &Session) {
  std::ostringstream OutS, ErrS;
  server::Response R;
  R.Exit = driver::runToolInvocation(J.Inv, J.Req.Source, Session, OutS, ErrS);
  R.Out = OutS.str();
  R.Err = ErrS.str();
  return R;
}

/// Samples the daemon's queue depth with pings while a window runs.
class HealthSampler {
public:
  HealthSampler() : Thread([this] { loop(); }) {}
  ~HealthSampler() { stop(); }
  HealthSampler(const HealthSampler &) = delete;
  HealthSampler &operator=(const HealthSampler &) = delete;

  void stop() {
    Stop = true;
    if (Thread.joinable())
      Thread.join();
  }
  uint64_t queueDepthMax() const { return MaxDepth; }
  uint64_t samples() const { return Samples; }

private:
  void loop() {
    while (!Stop) {
      Health H;
      if (ping(Daemon::Socket, H)) {
        MaxDepth = std::max<uint64_t>(MaxDepth, H.QueueDepth);
        ++Samples;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> MaxDepth{0};
  std::atomic<uint64_t> Samples{0};
  std::thread Thread;
};

RunResult runDaemonWorkload(const RunConfig &Cfg, const CcOracle &Oracle,
                            Ledger &L) {
  RunResult Out;
  std::vector<Job> Jobs = kernelJobs();

  // Harness time: every reference.
  const int64_t HarnessStart = nowNs();
  std::vector<Reference> Refs =
      buildReferences(Jobs, Oracle, L, /*Parallel=*/true);
  std::vector<server::Response> Expected(Jobs.size());
  {
    driver::CompilerSession Session;
    for (size_t I = 0; I < Jobs.size(); ++I)
      Expected[I] = toolResponse(Jobs[I], Session);
  }
  const double HarnessS = (nowNs() - HarnessStart) / 1e9;

  // Set-up: daemon spawn until its first ping is answered, repeated.
  std::vector<double> SetupTimes;
  std::unique_ptr<Daemon> D;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    D = std::make_unique<Daemon>(Cfg.Tccd, "tccd.log");
    double S = 0.0;
    std::string Error;
    if (!D->spawn(S, Error)) {
      L.problem("daemon start: " + Error);
      return Out;
    }
    SetupTimes.push_back(S);
    if (I + 1 < SetupRepeats && !D->drain()) {
      L.Tally.fail(Failure::Drain);
      L.problem("a start-up probe daemon did not drain cleanly");
    }
  }
  const double SetupS = median(SetupTimes);

  // Warm-up outside the window: one round of the kernels, so the window
  // starts from a warm daemon with a filled hot cache.
  std::atomic<uint64_t> Rids{1}; // 0 marks warm-up replays
  for (size_t I = 0; I < Jobs.size(); ++I) {
    server::Client C(10000);
    server::Response Resp;
    std::string Error;
    if (!C.connect(Daemon::Socket, Error) ||
        !C.roundTrip(Jobs[I].Req, Resp, Error) ||
        Resp.Out != Expected[I].Out)
      L.problem("warm-up request failed: " + Jobs[I].Name + " " + Error);
  }

  Health Before, After;
  if (!ping(Daemon::Socket, Before))
    L.problem("ping before the window failed");
  const double Cpu0 = D->cpuMs();
  const HostTicks Ticks0 = hostTicks();
  const double Window =
      Cfg.Trace ? Cfg.Seconds * TraceClientShare : Cfg.Seconds;
  HealthSampler Sampler;
  ClientLoop Main = runClients(Jobs, Expected, Window, Cfg.Seed % Jobs.size(),
                               Cfg.Trace, Rids, L);
  Sampler.stop();
  Main.Lat.CpuMs = D->cpuMs() - Cpu0;
  noteSteal(Out, Ticks0);
  if (!ping(Daemon::Socket, After))
    L.problem("ping before drain failed");
  const double PeakRss = D->peakRssMiB();
  if (!D->drain()) {
    L.Tally.fail(Failure::Drain);
    L.problem("the daemon did not drain and exit 0 on SIGTERM");
  }

  char Buf[200];
  std::snprintf(Buf, sizeof(Buf),
                "daemon: %llu hot hits, %llu misses, %llu evictions, %llu "
                "shed, queue depth max %llu over %llu pings",
                static_cast<unsigned long long>(After.HotHits - Before.HotHits),
                static_cast<unsigned long long>(After.HotMisses -
                                                Before.HotMisses),
                static_cast<unsigned long long>(After.HotEvictions -
                                                Before.HotEvictions),
                static_cast<unsigned long long>(After.Shed - Before.Shed),
                static_cast<unsigned long long>(Sampler.queueDepthMax()),
                static_cast<unsigned long long>(Sampler.samples()));
  Out.Notes.push_back(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "harness: %.2f s references before the window, %.0f MiB peak",
                HarnessS, procPeakRssMiB(0));
  Out.Notes.push_back(Buf);

  if (!Cfg.Trace) {
    endToEnd(Out, Main.Lat, Main.Lat.Completed / Main.Lat.WallS, SetupS,
             PeakRss, L.Tally.successRate(),
             summarize(Refs));
    return Out;
  }

  // Traced: replay the run's requests in process, in the order the
  // daemon received them, one layer at a time.  The server, tool and
  // layer-by-layer replays each keep hot state of their own, so each
  // sees the hit/miss pattern the daemon saw.
  SpanRecorder R;
  for (SpanRecorder &TR : Main.Recorders)
    R.absorb(TR);
  server::ServerOptions SO;
  SO.SocketPath = ""; // never unlink the real daemon's socket
  SO.CacheFile = ".tcc-cache-replay-server";
  server::Server InProc(SO);
  driver::CompilerSession ToolSession;
  server::HotCache ToolHot;
  ToolSession.setResultCache(&ToolHot);
  server::HotCache CompileHot;
  driver::CompilerSession CompileSession;
  HotStores Stores{&CompileHot, &CompileSession.sharedAnalyses(),
                   ".tcc-cache-replay-compile"};

  // (job, daemon response, request id); the warm-up round comes first
  // and is replayed but not reported.
  struct Replayed {
    const Job *J;
    const server::Response *Resp;
    uint64_t Rid;
  };
  std::vector<Replayed> Replay;
  for (size_t I = 0; I < Jobs.size(); ++I)
    Replay.push_back({&Jobs[I], &Expected[I], 0});
  for (const Sent &S : Main.Responses)
    Replay.push_back({&Jobs[S.Job], &S.Resp, S.Rid});

  LayerCounts Counts, Ignored;
  SpanRecorder Scratch;
  std::set<const Job *> Checked;
  const int64_t ReplayDeadline =
      nowNs() + static_cast<int64_t>(Cfg.Seconds * (1 - TraceClientShare) *
                                     1e9);
  uint64_t Reported = 0;
  for (const Replayed &Rp : Replay) {
    const bool Report = Rp.Rid != 0;
    if (Report && nowNs() >= ReplayDeadline)
      break;
    const Job &J = *Rp.J;
    SpanRecorder &Rec = Report ? R : Scratch;
    int S = Rec.begin("server.handle", Rp.Rid);
    server::Response H = InProc.handleRequest(J.Req);
    Rec.end(S);
    driver::ToolInvocation Inv = J.Inv;
    Inv.Opts.CacheFile = ".tcc-cache-replay-tool";
    S = Rec.begin("driver.tool", Rp.Rid);
    std::ostringstream OutS, ErrS;
    int Exit =
        driver::runToolInvocation(Inv, J.Req.Source, ToolSession, OutS, ErrS);
    Rec.end(S);
    TracedOutcome TO = tracedCompile(J, Stores, Rec, Rp.Rid, NoParent,
                                     Report ? Counts : Ignored);
    if (!Report)
      continue;
    ++Reported;
    if (H.Exit != Rp.Resp->Exit || H.Out != Rp.Resp->Out ||
        H.Err != Rp.Resp->Err || Exit != H.Exit || OutS.str() != H.Out ||
        ErrS.str() != H.Err) {
      L.Tally.fail(Failure::WrongOutput);
      L.problem(J.Name + ": in-process replay differs from the daemon");
    }
    if (!TO.Prog) {
      L.Tally.fail(Failure::CompileOrRun);
      L.problem(J.Name + ": " + TO.Error);
      continue;
    }
    // The first reported replay of a job is a hot hit; it must emit
    // compileSource's program.
    if (Checked.insert(&J).second &&
        programText(driver::compileSource(J.Req.Source, J.Inv.Opts)->Machine) !=
            programText(*TO.Prog)) {
      L.Tally.fail(Failure::WrongOutput);
      L.problem(J.Name +
                ": traced compile differs from compileSource's program");
    }
  }

  TraceReport Rep;
  Rep.fromSpans(R.spans());
  Rep.fromCounts(Counts);
  Rep.overhead(Main.Lat.Ms, Main.TracedMs);
  auto &V = Rep.Values;
  V["server.transport_ms"] = V["client.roundtrip_ms"] - V["server.handle_ms"];
  V["server.hot_hits"] = static_cast<double>(After.HotHits - Before.HotHits);
  V["server.hot_misses"] =
      static_cast<double>(After.HotMisses - Before.HotMisses);
  double Lookups = V["server.hot_hits"] + V["server.hot_misses"];
  V["server.hot_hit_ratio"] = Lookups > 0 ? V["server.hot_hits"] / Lookups : 0;
  V["server.hot_evictions"] =
      static_cast<double>(After.HotEvictions - Before.HotEvictions);
  V["server.shed"] = static_cast<double>(After.Shed - Before.Shed);
  V["server.queue_depth_max"] = static_cast<double>(Sampler.queueDepthMax());
  V["trace.ops"] = static_cast<double>(Reported);
  Rep.checkCoverage(L);
  Rep.into(Out);
  writeTrace(Cfg.TraceOut, R.spans(), Out);
  return Out;
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"suite", "tccd_hot"};
  return Names;
}

RunResult perfbench::runWorkload(const RunConfig &Cfg) {
  Ledger L;
  RunResult Out;
  CcOracle Oracle(".");
  std::string Error;
  if (!Oracle.prepare(Error)) {
    Out.Correct = false;
    Out.Problems.push_back(Error);
    return Out;
  }
  Out = Cfg.Workload == "suite" ? runSuite(Cfg, Oracle, L)
                                : runDaemonWorkload(Cfg, Oracle, L);
  Out.Attempted = L.Tally.Attempted;
  Out.Failed = L.Tally.failed();
  Out.Problems = L.Problems;
  Out.Correct = L.Problems.empty() && Out.Failed == 0 && Out.Attempted > 0;
  std::string Breakdown = L.Tally.breakdown();
  if (!Breakdown.empty())
    Out.Notes.push_back("failures: " + Breakdown);
  return Out;
}

int perfbench::probeColdCompile() {
  Job J = kernelJobs().front();
  const int64_t T0 = nowNs();
  driver::RunOutcome Out =
      driver::compileAndRun(J.Req.Source, J.Inv.Opts, J.Inv.Machine);
  const int64_t T1 = nowNs();
  if (!Out.Compile->ok() || !Out.Run.Ok)
    return 1;
  std::printf("%.9f\n", (T1 - T0) / 1e9);
  return 0;
}
