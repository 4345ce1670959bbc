//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's independent output oracle.  The reference for a C
/// program's results is a host-native build of the same source with the
/// system C compiler at -O0 -ffp-contract=off, never the optimising
/// pipeline under test.  The host build stubs titan_tic/titan_toc,
/// renames main, and dumps the bytes of every named global the Titan
/// program lists in TitanProgram::GlobalAddresses; the Titan run's memory
/// must then match word for word.  The one exemption is the fuzz oracle's
/// own: a word may read +0.0f on one side and -0.0f on the other.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CCORACLE_H
#define PERFBENCH_CCORACLE_H

#include "titan/TitanISA.h"
#include "titan/TitanMachine.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Named global -> its bytes after the program ran.
using GlobalImage = std::map<std::string, std::vector<uint8_t>>;

/// Builds and runs host-native references.  Thread-safe: every reference
/// gets its own file names from its tag.
class CcOracle {
public:
  /// \p WorkDir holds sources, objects and dumps; it must exist.
  explicit CcOracle(std::string WorkDir) : WorkDir(std::move(WorkDir)) {}

  /// Compiles the shared host harness once.  False (with \p Error) when
  /// the system compiler is missing or fails.
  bool prepare(std::string &Error);

  /// Builds \p Source with the system `cc`, runs it, and fills \p Out
  /// with the final bytes of each global in \p Names.  \p Tag must be
  /// unique among concurrent calls.
  bool reference(const std::string &Source,
                 const std::vector<std::string> &Names, const std::string &Tag,
                 GlobalImage &Out, std::string &Error) const;

private:
  std::string WorkDir;
  std::string HarnessObject;
};

/// The globals of \p P the oracle compares: every name in
/// GlobalAddresses that is a plain C identifier.
std::vector<std::string> comparedGlobals(const tcc::titan::TitanProgram &P);

/// Reads \p Ref's globals (same names, same byte counts) out of a Titan
/// run's memory.  A global missing from \p P, or whose extent in \p P is
/// shorter than the reference's size, comes back empty.
GlobalImage titanImage(const tcc::titan::TitanProgram &P,
                       const tcc::titan::TitanMachine &M,
                       const GlobalImage &Ref);

/// Word-for-word comparison with the signed-zero exemption.  Returns the
/// number of mismatching 4-byte words (a missing or short global counts
/// all of its words) and describes the first in \p Detail.
uint64_t compareImages(const GlobalImage &Ref, const GlobalImage &Got,
                       std::string &Detail);

/// A 64-bit FNV-1a digest of \p Image with every 0x80000000 word read as
/// 0, so two images that compareImages() accepts digest equally.  Used to
/// check every timed operation cheaply against its reference.
uint64_t imageDigest(const GlobalImage &Image);

} // namespace perfbench

#endif // PERFBENCH_CCORACLE_H
