//===- fuzz/Oracle.cpp - Cross-verifier differential oracle ---------------===//

#include "fuzz/Oracle.h"

#include "core/BaselineChecker.h"

#include <cstdio>

using namespace rocksalt;
using namespace rocksalt::fuzz;

namespace {

const char *verdictName(bool Ok) { return Ok ? "ACCEPT" : "REJECT"; }

std::string boolMismatch(bool Ref, bool Got) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "verdict: reference=%s, path=%s",
                verdictName(Ref), verdictName(Got));
  return Buf;
}

/// First index where two bitmaps differ, or -1.
int64_t firstDiff(const std::vector<uint8_t> &A, const std::vector<uint8_t> &B) {
  size_t N = A.size() < B.size() ? A.size() : B.size();
  for (size_t I = 0; I < N; ++I)
    if (A[I] != B[I])
      return int64_t(I);
  return A.size() == B.size() ? -1 : int64_t(N);
}

/// Full CheckResult comparison (for the paths that produce one).
std::string compareFull(const core::CheckResult &Ref,
                        const core::CheckResult &Got) {
  char Buf[128];
  if (Ref.Ok != Got.Ok)
    return boolMismatch(Ref.Ok, Got.Ok);
  if (Ref.Reason != Got.Reason) {
    std::snprintf(Buf, sizeof(Buf), "reject reason: reference=%s, path=%s",
                  core::rejectReasonName(Ref.Reason),
                  core::rejectReasonName(Got.Reason));
    return Buf;
  }
  struct {
    const char *Name;
    const std::vector<uint8_t> &A, &B;
  } Maps[] = {{"Valid", Ref.Valid, Got.Valid},
              {"Target", Ref.Target, Got.Target},
              {"PairJmp", Ref.PairJmp, Got.PairJmp}};
  for (const auto &Mp : Maps) {
    int64_t D = firstDiff(Mp.A, Mp.B);
    if (D >= 0) {
      std::snprintf(Buf, sizeof(Buf), "%s bitmap diverges at byte %lld",
                    Mp.Name, static_cast<long long>(D));
      return Buf;
    }
  }
  return {};
}

} // namespace

DifferentialOracle::DifferentialOracle(OracleOptions O) : Opts(O) {
  if (Opts.M) {
    M = Opts.M;
  } else {
    OwnMetrics = std::make_unique<svc::Metrics>();
    M = OwnMetrics.get();
  }
}

OracleReport DifferentialOracle::run(const uint8_t *Code, uint32_t Size) {
  OracleReport Rep;
  Rep.Reference = Ref.check(Code, Size);
  M->OracleRuns.add();

  auto Note = [&](const char *PathFmt, std::string Detail) {
    if (!Detail.empty())
      Rep.Disagreements.push_back({PathFmt, std::move(Detail)});
  };

  // The legacy per-byte engine (the paper's C, verbatim) against the
  // fused reference — the full instrumented result, not just the
  // verdict. This is the certification that the fused layout and its
  // lanes (the NoControlFlow sweep, the fused chain step) changed no
  // decision.
  Note("legacy", compareFull(Rep.Reference,
                             core::checkLegacy(core::policyTables(), Code,
                                               Size)));

  // Bare Figure-5 booleans must match the instrumented verdict, on
  // both engines.
  bool Bare = core::verifyImage(core::policyTables(), Code, Size);
  if (Bare != Rep.Reference.Ok)
    Note("verifyImage", boolMismatch(Rep.Reference.Ok, Bare));
  bool BareFused = core::verifyImage(core::fusedPolicyTables(), Code, Size);
  if (BareFused != Rep.Reference.Ok)
    Note("verifyImage[fused]", boolMismatch(Rep.Reference.Ok, BareFused));

  bool Base = core::baselineVerify(Code, Size);
  if (Base != Rep.Reference.Ok)
    Note("baseline", boolMismatch(Rep.Reference.Ok, Base));

  if (Opts.RunSlow) {
    bool SlowOk = Slow.verify(Code, Size);
    if (SlowOk != Rep.Reference.Ok)
      Note("slow", boolMismatch(Rep.Reference.Ok, SlowOk));
  }

  if (!Rep.agree())
    M->OracleDisagreements.add();
  return Rep;
}
