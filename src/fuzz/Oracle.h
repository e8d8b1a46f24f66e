//===- fuzz/Oracle.h - Cross-verifier differential oracle ------*- C++ -*-===//
///
/// \file
/// The paper's soundness story rests on one function — the Figure-5
/// checker — but this repository has four independent implementations of
/// its decision: the fused-table checker (`core::RockSalt::check`, the
/// production fast path), the legacy three-table per-byte checker
/// (`core::checkLegacy`, the paper's C verbatim), the ncval-style hand
/// decoder (`core::baselineVerify`), and the derivative re-derivation
/// path (`core::slowVerify` / `core::SlowContext`). The oracle runs one
/// image through all of them and reports every way they diverge:
/// verdict, reject reason, or the Valid/Target/PairJmp bitmaps (for the
/// paths that produce them). Related ISA-model efforts (Goel et al.'s
/// x86isa books) get their confidence from exactly this kind of
/// systematic co-simulation rather than sampled spot checks.
///
/// `RockSalt::check` is the reference; a disagreement means at least one
/// path has a bug, and the fuzz driver shrinks the image to a minimal
/// reproducer (fuzz/Minimizer.h) and pins it in tests/corpus/.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_FUZZ_ORACLE_H
#define ROCKSALT_FUZZ_ORACLE_H

#include "core/SlowVerifier.h"
#include "core/Verifier.h"
#include "svc/Metrics.h"

#include <memory>
#include <string>
#include <vector>

namespace rocksalt {
namespace fuzz {

struct OracleOptions {
  /// Include the derivative-based slow path (decision-equivalent to
  /// core::slowVerify, amortized through a shared factory).
  bool RunSlow = true;
  /// Where OracleRuns/OracleDisagreements are counted; the oracle owns a
  /// private Metrics when null.
  svc::Metrics *M = nullptr;
};

/// One diverging verdict path.
struct Disagreement {
  std::string Path;   ///< "legacy", "baseline", "slow", ...
  std::string Detail; ///< first observed mismatch, human-readable
};

struct OracleReport {
  core::CheckResult Reference; ///< RockSalt::check — the spec
  std::vector<Disagreement> Disagreements;
  bool agree() const { return Disagreements.empty(); }
};

class DifferentialOracle {
public:
  explicit DifferentialOracle(OracleOptions O = {});

  /// Runs every verdict path on the image and reports all divergences.
  OracleReport run(const uint8_t *Code, uint32_t Size);
  OracleReport run(const std::vector<uint8_t> &Code) {
    return run(Code.data(), static_cast<uint32_t>(Code.size()));
  }

  /// Predicate form for the minimizer: true iff some path diverges.
  bool disagrees(const std::vector<uint8_t> &Code) {
    return !run(Code).agree();
  }

  svc::Metrics &metrics() { return *M; }

private:
  OracleOptions Opts;
  std::unique_ptr<svc::Metrics> OwnMetrics; ///< when Opts.M is null
  svc::Metrics *M;
  core::RockSalt Ref;
  core::SlowContext Slow;
};

} // namespace fuzz
} // namespace rocksalt

#endif // ROCKSALT_FUZZ_ORACLE_H
