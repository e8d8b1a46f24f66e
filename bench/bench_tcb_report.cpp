//===- bench/bench_tcb_report.cpp ------------------------------*- C++ -*-===//
//
// Experiment E7 (paper sections 1, 3.1, 6.2): trusted-computing-base
// size. The paper contrasts Google's ~600-statement checker with
// RockSalt's ~80 lines of Coq / <100 lines of trusted C plus generated
// tables. This (static) report counts the analogous artifacts in this
// repository:
//
//   * the production trusted core: every definition the shipped verdict
//     paths (RockSalt::verify/check, mips::checkMips) run — the verify
//     driver and its lanes, the fused chain step and match, the byte
//     classes derived at fuse time, the final pass, and the ISA target
//     extractors. Everything else the verdict depends on is generated
//     DFA tables;
//   * the reference walk: the paper's literal Figures 5/6, which the
//     production core is certified against;
//   * the incremental path: what the service's patch frames and the
//     incremental verifier trust on top of the production core — the
//     shard scan and the join of the chunk scans, the splice, and the
//     read bound that decides which chunk scans a patch makes stale;
//   * the generator-side declarative policy: core/Policy.cpp;
//   * the hand-written comparison checker: core/BaselineChecker.cpp.
//
// Each counted definition is found by a marker on its first line and
// runs to its matching closing brace; a marker that no longer matches
// fails the report rather than silently shrinking a row. The ctest
// `tcb_report` runs it, and it also fails when the production row
// grows past MaxProductionCoreCode or the incremental row past
// MaxIncrementalPathCode.
//
//===----------------------------------------------------------------------===//

#include "core/Policy.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace rocksalt;

namespace {

struct Counts {
  int Total = 0;
  int Code = 0; // non-blank, non-comment
  bool Found = true;
};

bool isCodeLine(const std::string &Line) {
  size_t I = Line.find_first_not_of(" \t");
  return I != std::string::npos && Line.compare(I, 2, "//") != 0;
}

Counts countFile(const std::string &Path) {
  Counts C;
  std::ifstream In(Path);
  C.Found = bool(In);
  std::string Line;
  bool InBlock = false;
  while (std::getline(In, Line)) {
    ++C.Total;
    size_t I = Line.find_first_not_of(" \t");
    if (I == std::string::npos)
      continue;
    std::string T = Line.substr(I);
    if (InBlock) {
      if (T.find("*/") != std::string::npos)
        InBlock = false;
      continue;
    }
    if (T.rfind("//", 0) == 0)
      continue;
    if (T.rfind("/*", 0) == 0) {
      if (T.find("*/") == std::string::npos)
        InBlock = true;
      continue;
    }
    ++C.Code;
  }
  return C;
}

/// One counted definition: the function or struct whose first line
/// (after any `template <...>` line) contains Marker, or the whole file
/// when Marker is null.
struct Piece {
  const char *File;
  const char *Marker;
};

/// Counts the definition \p P names: its template line, if any, then
/// every line through the brace that closes it.
Counts countPiece(const std::string &Root, const Piece &P) {
  Counts C;
  C.Found = false;
  std::ifstream In(Root + "/" + P.File);
  std::string Line, Prev;
  int Depth = 0;
  bool Opened = false;
  while (std::getline(In, Line)) {
    if (!C.Found) {
      if (Line.find(P.Marker) == std::string::npos) {
        Prev = Line;
        continue;
      }
      C.Found = true;
      if (Prev.rfind("template", 0) == 0) {
        ++C.Total;
        ++C.Code;
      }
    }
    ++C.Total;
    C.Code += isCodeLine(Line);
    for (char Ch : Line) {
      Depth += Ch == '{';
      Depth -= Ch == '}';
      Opened |= Ch == '{';
    }
    if (Opened && Depth == 0)
      break;
  }
  return C;
}

/// Sums a row's pieces, printing each; returns Found=false when any
/// marker is missing.
Counts countRow(const std::string &Root, const char *Name,
                const std::vector<Piece> &Pieces) {
  Counts Row;
  std::printf("\n%s:\n", Name);
  for (const Piece &P : Pieces) {
    Counts C = P.Marker ? countPiece(Root, P)
                        : countFile(Root + "/" + P.File);
    const char *What = P.Marker ? P.Marker : "(whole file)";
    if (!C.Found) {
      std::printf("  %-28s %-46s MISSING\n", P.File, What);
      Row.Found = false;
      continue;
    }
    std::printf("  %-28s %-46s %4d %4d\n", P.File, What, C.Total, C.Code);
    Row.Total += C.Total;
    Row.Code += C.Code;
  }
  return Row;
}

// The shared pieces: both walks extract targets with the ISA traits and
// end in the same final pass.
const Piece X86Extract = {"core/ChainDriver.h", "struct X86Isa"};
const Piece MipsExtract = {"mips/MipsPolicy.cpp", "struct MipsIsa"};
const Piece Finalize = {"core/Verifier.cpp", "void core::finalizeCheck("};

const std::vector<Piece> ProductionCore = {
    {"core/ChainDriver.h", "bool driveChain("},
    {"core/ChainDriver.h", "StepKind chainStep("},
    {"core/ChainDriver.h", "struct ValidBitmapSink"},
    {"core/ChainDriver.h", "struct BitmapSink"},
    {"core/ChainDriver.h", "CheckResult checkImage("},
    {"core/Verifier.cpp", "struct VerdictSink"},
    {"core/Verifier.cpp", "bool core::verifyImage(const FusedPolicy"},
    {"core/NcfSweep.h", "SweepStop ncfSweep("},
    {"regex/FusedTables.h", "bool fusedMatch("},
    {"core/Policy.cpp", "FusedPolicy core::buildFusedPolicy("},
    Finalize,
    X86Extract,
    MipsExtract,
};

/// The production row's code-line budget. A change that grows the
/// trusted core raises this in the same diff, where review sees it.
constexpr int MaxProductionCoreCode = 284;

const std::vector<Piece> ReferenceWalk = {
    {"core/Verifier.cpp", "bool core::dfaMatch("},
    {"core/ChainDriver.h", "StepKind referenceStep("},
    {"core/ChainDriver.h", "CheckResult referenceCheck("},
    {"core/Verifier.cpp", "bool core::verifyImage(const PolicyTables"},
    Finalize,
    X86Extract,
    MipsExtract,
};

/// The incremental path, beyond the production core it shares (the
/// shard scan is driveChain with the shard sink, and the join falls
/// back to checkImage). `partitionShards` is left out: only the
/// differential legs call it, incr/ cuts its own chunks. A chunk is
/// rescanned only when a patch touches its scan window, so the dirty
/// rule in patchBytes and the read bound that sizes the windows are in
/// the row: a window that came out short would leave a stale scan among
/// the kept ones.
const std::vector<Piece> IncrementalPath = {
    {"core/Shard.h", "struct ShardScan {"},
    {"core/Shard.cpp", "struct ShardSink"},
    {"core/Shard.cpp", "void core::scanShard("},
    {"core/Shard.cpp", "CheckResult core::mergeShardScans("},
    {"incr/IncrementalVerifier.cpp", "void IncrementalVerifier::patchBytes("},
    {"incr/IncrementalVerifier.cpp", "IncrResult IncrementalVerifier::reverify("},
    {"incr/IncrementalVerifier.cpp", "bool IncrementalVerifier::spliceReverify("},
    {"incr/IncrementalVerifier.cpp", "uint32_t incr::maxScanReadBytes("},
    {"incr/IncrementalVerifier.cpp", "uint32_t maxReadFrom("},
};

/// The incremental row's code-line budget, held like the production
/// row's.
constexpr int MaxIncrementalPathCode = 199;

} // namespace

int main(int argc, char **argv) {
  std::string Root = SRC_DIR;
  (void)argc;
  (void)argv;

  std::printf("--- E7: trusted computing base (paper: ~600 statements vs "
              "<100 lines + tables) ---\n");
  std::printf("counted definitions (file, first-line marker, lines, code):");
  Counts Core = countRow(Root, "production trusted core", ProductionCore);
  Counts Ref = countRow(Root, "reference walk (Figures 5/6)", ReferenceWalk);
  Counts Incr = countRow(Root, "incremental path (patch frames, jit_patch)",
                         IncrementalPath);
  Counts Policy = countFile(Root + "/core/Policy.cpp");
  Counts Baseline = countFile(Root + "/core/BaselineChecker.cpp");

  const core::PolicyTables &T = core::policyTables();
  size_t States = T.NoControlFlow.numStates() + T.DirectJump.numStates() +
                  T.MaskedJump.numStates();

  std::printf("\n%-44s %8s %8s\n", "artifact", "lines", "code");
  std::printf("%-44s %8d %8d\n", "production trusted core (both ISAs)",
              Core.Total, Core.Code);
  std::printf("%-44s %8d %8d\n", "reference walk (both ISAs)", Ref.Total,
              Ref.Code);
  std::printf("%-44s %8d %8d\n", "incremental path (beyond the core)",
              Incr.Total, Incr.Code);
  std::printf("%-44s %8d %8d\n", "declarative policy (generator side)",
              Policy.Total, Policy.Code);
  std::printf("%-44s %8d %8d\n", "baseline checker (ncval-style)",
              Baseline.Total, Baseline.Code);
  std::printf("generated DFA tables: %zu states (~%.0f KiB)\n", States,
              States * 514.0 / 1024.0);
  std::printf("paper shape (TCB ~6x smaller than the hand checker): %s\n",
              Baseline.Code > 4 * Core.Code ? "met" : "NOT met");
  if (!Core.Found || !Ref.Found || !Incr.Found) {
    std::fprintf(stderr, "FAIL: a counted definition's marker no longer "
                         "matches its source\n");
    return 1;
  }
  if (Core.Code > MaxProductionCoreCode) {
    std::fprintf(stderr,
                 "FAIL: the production trusted core has %d code lines, "
                 "over its budget of %d (MaxProductionCoreCode)\n",
                 Core.Code, MaxProductionCoreCode);
    return 1;
  }
  if (Incr.Code > MaxIncrementalPathCode) {
    std::fprintf(stderr,
                 "FAIL: the incremental path has %d code lines, over its "
                 "budget of %d (MaxIncrementalPathCode)\n",
                 Incr.Code, MaxIncrementalPathCode);
    return 1;
  }
  return 0;
}
