#include "CcOracle.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;

namespace {

/// Runs \p Argv (PATH lookup) with stdout sent to \p StdoutPath (or
/// inherited when empty) and stderr to \p StderrPath; true iff it exited 0.
bool runCommand(const std::vector<std::string> &Argv,
                const std::string &StdoutPath, const std::string &StderrPath) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  pid_t Pid = ::fork();
  if (Pid < 0)
    return false;
  if (Pid == 0) {
    // A runaway reference program must not outlive the run's deadline.
    rlimit Cpu{30, 30};
    ::setrlimit(RLIMIT_CPU, &Cpu);
    auto Redirect = [](const std::string &Path, int Fd) {
      if (Path.empty())
        return;
      int F = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (F < 0)
        ::_exit(126);
      ::dup2(F, Fd);
      ::close(F);
    };
    Redirect(StdoutPath, STDOUT_FILENO);
    Redirect(StderrPath, STDERR_FILENO);
    ::execvp(Args[0], Args.data());
    ::_exit(127);
  }
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0)
    if (errno != EINTR)
      return false;
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream OS(Path);
  OS << Text;
  return static_cast<bool>(OS);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

bool isIdentifier(const std::string &S) {
  if (S.empty() || std::isdigit(static_cast<unsigned char>(S[0])))
    return false;
  for (char C : S)
    if (!(std::isalnum(static_cast<unsigned char>(C)) || C == '_'))
      return false;
  return true;
}

/// The host harness: runs the renamed kernel main, then has the kernel's
/// translation unit hand every compared global to tcc_dump, which prints
/// "name size hexbytes" lines.
const char *HarnessSource = R"(#include <stdio.h>
void tcc_kernel_main(void);
void tcc_dump_globals(void);
void tcc_dump(const char *Name, const void *Addr, unsigned long Size) {
  const unsigned char *B = (const unsigned char *)Addr;
  unsigned long I;
  printf("%s %lu ", Name, Size);
  for (I = 0; I < Size; ++I)
    printf("%02x", B[I]);
  printf("\n");
}
int main(void) {
  tcc_kernel_main();
  tcc_dump_globals();
  return 0;
}
)";

const char *CcFlags[] = {"-O0", "-ffp-contract=off", "-std=gnu99", "-w"};

int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  return -1;
}

} // namespace

bool CcOracle::prepare(std::string &Error) {
  std::string Src = WorkDir + "/harness.c";
  HarnessObject = WorkDir + "/harness.o";
  if (!writeFile(Src, HarnessSource)) {
    Error = "cannot write " + Src;
    return false;
  }
  std::vector<std::string> Argv = {"cc"};
  Argv.insert(Argv.end(), std::begin(CcFlags), std::end(CcFlags));
  Argv.insert(Argv.end(), {"-c", Src, "-o", HarnessObject});
  if (!runCommand(Argv, "", WorkDir + "/harness.err")) {
    Error = "system cc failed on the host harness: " +
            readFile(WorkDir + "/harness.err");
    return false;
  }
  return true;
}

bool CcOracle::reference(const std::string &Source,
                         const std::vector<std::string> &Names,
                         const std::string &Tag, GlobalImage &Out,
                         std::string &Error) const {
  const std::string Base = WorkDir + "/ref-" + Tag;
  std::string Unit = Source;
  Unit += "\nvoid titan_tic(void) {}\nvoid titan_toc(void) {}\n"
          "void tcc_dump(const char *, const void *, unsigned long);\n"
          "void tcc_dump_globals(void) {\n";
  for (const std::string &N : Names)
    Unit += "  tcc_dump(\"" + N + "\", &" + N + ", sizeof(" + N + "));\n";
  Unit += "}\n";
  if (!writeFile(Base + ".c", Unit)) {
    Error = "cannot write " + Base + ".c";
    return false;
  }

  std::vector<std::string> Argv = {"cc"};
  Argv.insert(Argv.end(), std::begin(CcFlags), std::end(CcFlags));
  Argv.insert(Argv.end(), {"-Dmain=tcc_kernel_main", Base + ".c",
                           HarnessObject, "-o", Base + ".exe", "-lm"});
  if (!runCommand(Argv, "", Base + ".err")) {
    Error = "system cc rejected the program: " + readFile(Base + ".err");
    return false;
  }
  if (!runCommand({Base + ".exe"}, Base + ".dump", Base + ".err")) {
    Error = "host reference run failed: " + readFile(Base + ".err");
    return false;
  }

  Out.clear();
  std::istringstream Dump(readFile(Base + ".dump"));
  std::string Name, Hex;
  size_t Size = 0;
  while (Dump >> Name >> Size >> Hex) {
    if (Hex.size() != 2 * Size) {
      Error = "malformed host dump for '" + Name + "'";
      return false;
    }
    std::vector<uint8_t> Bytes(Size);
    for (size_t I = 0; I < Size; ++I) {
      int Hi = hexDigit(Hex[2 * I]), Lo = hexDigit(Hex[2 * I + 1]);
      if (Hi < 0 || Lo < 0) {
        Error = "malformed host dump for '" + Name + "'";
        return false;
      }
      Bytes[I] = static_cast<uint8_t>(Hi * 16 + Lo);
    }
    Out[Name] = std::move(Bytes);
  }
  if (Out.size() != Names.size()) {
    Error = "host dump holds " + std::to_string(Out.size()) + " of " +
            std::to_string(Names.size()) + " globals";
    return false;
  }
  for (const char *Ext : {".c", ".exe", ".dump", ".err"})
    std::remove((Base + Ext).c_str());
  return true;
}

std::vector<std::string>
perfbench::comparedGlobals(const tcc::titan::TitanProgram &P) {
  std::vector<std::string> Names;
  for (const auto &KV : P.GlobalAddresses)
    if (isIdentifier(KV.first))
      Names.push_back(KV.first);
  return Names;
}

GlobalImage perfbench::titanImage(const tcc::titan::TitanProgram &P,
                                  const tcc::titan::TitanMachine &M,
                                  const GlobalImage &Ref) {
  // Extents: a global runs to the next global's address (or the end of
  // global storage), the layout rule the fuzz oracle uses too.
  std::map<int64_t, std::string> ByAddr;
  for (const auto &KV : P.GlobalAddresses)
    ByAddr[KV.second] = KV.first;
  GlobalImage Out;
  for (const auto &[Name, RefBytes] : Ref) {
    std::vector<uint8_t> &Bytes = Out[Name];
    auto It = P.GlobalAddresses.find(Name);
    if (It == P.GlobalAddresses.end())
      continue;
    int64_t Addr = It->second;
    auto Next = ByAddr.upper_bound(Addr);
    int64_t End = Next == ByAddr.end() ? P.GlobalSize : Next->first;
    if (End - Addr < static_cast<int64_t>(RefBytes.size()))
      continue;
    Bytes.resize(RefBytes.size());
    for (size_t W = 0; W * 4 < Bytes.size(); ++W) {
      int32_t V = M.readInt(Addr + 4 * static_cast<int64_t>(W));
      size_t N = std::min<size_t>(4, Bytes.size() - 4 * W);
      std::memcpy(&Bytes[4 * W], &V, N);
    }
  }
  return Out;
}

namespace {

uint32_t wordAt(const std::vector<uint8_t> &B, size_t W) {
  uint32_t V = 0;
  std::memcpy(&V, &B[4 * W], std::min<size_t>(4, B.size() - 4 * W));
  return V;
}

constexpr uint32_t NegZero = 0x80000000u;

} // namespace

uint64_t perfbench::compareImages(const GlobalImage &Ref,
                                  const GlobalImage &Got,
                                  std::string &Detail) {
  uint64_t Bad = 0;
  for (const auto &[Name, RefBytes] : Ref) {
    size_t Words = (RefBytes.size() + 3) / 4;
    auto It = Got.find(Name);
    if (It == Got.end() || It->second.size() != RefBytes.size()) {
      if (!Bad)
        Detail = "global '" + Name + "' missing or short in the Titan run";
      Bad += Words;
      continue;
    }
    for (size_t W = 0; W < Words; ++W) {
      uint32_t R = wordAt(RefBytes, W), G = wordAt(It->second, W);
      if (R == G || (R == 0 && G == NegZero) || (R == NegZero && G == 0))
        continue;
      if (!Bad) {
        char Buf[160];
        std::snprintf(Buf, sizeof(Buf),
                      "global '%s' word %zu: cc=0x%08x titan=0x%08x",
                      Name.c_str(), W, R, G);
        Detail = Buf;
      }
      ++Bad;
    }
  }
  return Bad;
}

uint64_t perfbench::imageDigest(const GlobalImage &Image) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  for (const auto &[Name, Bytes] : Image) {
    for (char C : Name)
      Mix(static_cast<uint8_t>(C));
    Mix(Bytes.size());
    for (size_t W = 0; W * 4 < Bytes.size(); ++W) {
      uint32_t V = wordAt(Bytes, W);
      Mix(V == NegZero ? 0 : V);
    }
  }
  return H;
}
