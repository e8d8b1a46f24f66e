//===- analysis/PolicyAudit.cpp - Meta-verification of the checker --------===//

#include "analysis/PolicyAudit.h"

#include "mips/MipsPolicy.h"
#include "x86/Grammars.h"

#include <chrono>
#include <cstdio>
#include <exception>

using namespace rocksalt;
using namespace rocksalt::analysis;

std::string analysis::hexBytes(const std::vector<uint8_t> &Bytes) {
  std::string Out;
  char Buf[4];
  for (size_t I = 0; I < Bytes.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%02x", Bytes[I]);
    if (I)
      Out += ' ';
    Out += Buf;
  }
  return Out;
}

DecoderDfas analysis::buildDecoderDfas() {
  re::Factory F;
  re::Regex One = x86::x86Grammars().Full.strip(F);
  DecoderDfas X;
  X.One = re::buildDfa(F, One);
  X.Pair = re::buildDfa(F, F.cat(One, One));
  return X;
}

DecoderDfas analysis::buildMipsDecoderDfas() {
  re::Factory F;
  re::Regex One = mips::mipsDecoderRegex(F);
  DecoderDfas X;
  X.One = re::buildDfa(F, One);
  X.Pair = re::buildDfa(F, F.cat(One, One));
  return X;
}

namespace {

/// The three tables with stable names, in match-chain order.
struct NamedDfa {
  const char *Name;
  const re::Dfa *D;
};

/// Attaches the counterexample family to a failed finding: the 3
/// shortest members of the offending product language (the violation
/// class, not just its least member), both as raw strings in F.Family
/// and as a rendered "family:" tail on F.Detail.
void attachFamily(AuditFinding &F, const re::Dfa &A, const re::Dfa &B,
                  re::SetOp Op) {
  F.Family = re::kShortestAccepted(re::productDfa(A, B, Op), 3);
  F.Detail += "; family:";
  for (size_t I = 0; I < F.Family.size(); ++I)
    F.Detail += (I ? " | " : " ") + hexBytes(F.Family[I]);
}

AuditFinding disjointCheck(const NamedDfa &A, const NamedDfa &B) {
  AuditFinding F;
  F.Check = std::string("disjoint(") + A.Name + "," + B.Name + ")";
  std::optional<std::vector<uint8_t>> W = re::intersectionWitness(*A.D, *B.D);
  if (!W) {
    F.Pass = true;
    F.Detail = "languages are disjoint";
  } else {
    F.Pass = false;
    F.Witness = std::move(*W);
    F.Detail = "both languages accept the " +
               std::to_string(F.Witness.size()) +
               "-byte string: " + hexBytes(F.Witness);
    attachFamily(F, *A.D, *B.D, re::SetOp::Intersect);
  }
  return F;
}

AuditFinding inclusionCheck(const NamedDfa &A, const re::Dfa &Decoder,
                            const char *DecoderName) {
  AuditFinding F;
  F.Check = std::string("decodes(") + A.Name + ")";
  std::optional<std::vector<uint8_t>> W = re::inclusionWitness(*A.D, Decoder);
  if (!W) {
    F.Pass = true;
    F.Detail = std::string("every accepted string is in the ") + DecoderName +
               " language";
  } else {
    F.Pass = false;
    F.Witness = std::move(*W);
    F.Detail = std::string("policy accepts a string outside the ") +
               DecoderName + " language: " + hexBytes(F.Witness);
    attachFamily(F, *A.D, Decoder, re::SetOp::Difference);
  }
  return F;
}

AuditFinding healthCheck(const NamedDfa &A, const re::DfaHealth &H) {
  AuditFinding F;
  F.Check = std::string("health(") + A.Name + ")";
  F.Pass = H.ok();
  if (F.Pass) {
    F.Detail = "all states reachable; accept/reject classification exact (" +
               std::to_string(H.NumDead) + " dead state(s), all flagged)";
  } else {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "unreachable=%u dead-unflagged=%u live-flagged-reject=%u "
                  "accept-reject-overlap=%u reject-escapes=%u",
                  H.Unreachable, H.DeadUnflagged, H.LiveFlaggedReject,
                  H.AcceptRejectOverlap, H.RejectEscapes);
    F.Detail = Buf;
  }
  return F;
}

AuditFinding minimizeCheck(const NamedDfa &A, const re::Dfa &Min) {
  AuditFinding F;
  F.Check = std::string("minimize-preserves(") + A.Name + ")";
  std::optional<std::vector<uint8_t>> W = re::equivalenceWitness(*A.D, Min);
  if (!W) {
    F.Pass = true;
    F.Detail = std::to_string(A.D->numStates()) + " -> " +
               std::to_string(Min.numStates()) + " states, same language";
  } else {
    F.Pass = false;
    F.Witness = std::move(*W);
    F.Detail = "minimized table disagrees on: " + hexBytes(F.Witness);
    attachFamily(F, *A.D, Min, re::SetOp::SymmetricDiff);
  }
  return F;
}

/// The verify lanes' byte classes (core::FusedPolicy), decided against
/// the source tables for every suffix. Each class licenses a shortcut:
/// the sweep takes a non-exceptional start as NoControlFlow-only, the
/// chain step skips MaskedJump on a byte that is not MaskedJump-alive,
/// the 0F escape keeps a start in the sweep when its second byte kills
/// DirectJump, and the sweep restarts through accepting rows. "Dead" is
/// read from re::liveMask, not from the Rejects flags the classes were
/// derived from, so tables whose flags lie fail here with the byte
/// string the shortcut would misjudge.
AuditFinding fusedClassesCheck(const core::PolicyTables &T) {
  AuditFinding F;
  F.Check = "fused-classes";
  core::FusedPolicy P;
  try {
    P = core::buildFusedPolicy(T);
  } catch (const std::exception &E) {
    F.Detail = std::string("tables do not fuse: ") + E.what();
    return F;
  }
  auto Fail = [&F](std::vector<uint8_t> W, const char *Why) {
    F.Witness = std::move(W);
    F.Detail = std::string(Why) + ": " + hexBytes(F.Witness);
    return F;
  };
  const re::Dfa &Mj = T.MaskedJump, &Ncf = T.NoControlFlow, &Dj = T.DirectJump;
  std::vector<uint8_t> MjLive = re::liveMask(Mj), DjLive = re::liveMask(Dj);
  for (uint32_t B = 0; B < 256; ++B) {
    uint8_t Byte = uint8_t(B);
    uint32_t N1 = Ncf.Table[Ncf.Start][B], D1 = Dj.Table[Dj.Start][B];
    if ((!P.MjAliveByte[B] || P.ExcByte[B] != 1) &&
        MjLive[Mj.Table[Mj.Start][B]])
      return Fail({Byte}, "MaskedJump is live on a byte the lanes skip it on");
    if (!P.ExcByte[B] && !P.SafeByte[B] && DjLive[D1])
      return Fail({Byte}, "DirectJump is live on a non-exceptional byte");
    if (P.SafeByte[B] && !(Ncf.Accepts[N1] && !Ncf.Rejects[N1]))
      return Fail({Byte}, "a safe byte is not a one-byte NoControlFlow");
    if (P.ExcByte[B] == 2)
      for (uint32_t B1 = 0; B1 < 256; ++B1)
        if (P.Exc2Dead[B1] && DjLive[Dj.Table[D1][B1]])
          return Fail({Byte, uint8_t(B1)},
                      "DirectJump is live past an escaping second byte");
  }
  // Restart rows: an accepting state's fused row is its sub-DFA's start
  // row, in the order of core::FusedSub.
  const re::Dfa *Subs[3] = {&Mj, &Ncf, &Dj};
  for (unsigned K = 0; K < 3; ++K) {
    const re::Dfa &D = *Subs[K];
    for (uint32_t S = 0; S < D.numStates(); ++S) {
      uint8_t Fid = P.F.id(K, S);
      if (!P.F.accepts(Fid))
        continue;
      for (uint32_t B = 0; B < 256; ++B) {
        if (P.F.step(Fid, uint8_t(B)) == P.F.id(K, D.Table[D.Start][B]))
          continue;
        re::Dfa To = D; // the shortest string reaching S, then B
        To.Accepts.assign(D.numStates(), 0);
        To.Accepts[S] = 1;
        std::vector<uint8_t> W = re::shortestAccepted(To).value_or(
            std::vector<uint8_t>{});
        W.push_back(uint8_t(B));
        return Fail(std::move(W), "an accepting row is not a restart row");
      }
    }
  }
  F.Pass = true;
  F.Detail = "sweep bytes, MaskedJump gate, second-byte escape and "
             "restart rows are exact for every suffix";
  return F;
}

} // namespace

const AuditFinding *AuditReport::find(std::string_view Check) const {
  for (const AuditFinding &F : Findings)
    if (F.Check == Check)
      return &F;
  return nullptr;
}

std::string AuditReport::render() const {
  std::string Out;
  char Buf[256];
  Out += "=== policy meta-audit ===\n";
  std::snprintf(Buf, sizeof(Buf), "%-16s %8s %8s %6s %6s %8s\n", "table",
                "states", "minimal", "accept", "dead", "health");
  Out += Buf;
  for (const TableStats &S : Tables) {
    std::snprintf(Buf, sizeof(Buf), "%-16s %8u %8u %6u %6u %8s\n",
                  S.Name.c_str(), S.RawStates, S.MinStates,
                  S.Health.NumAccepting, S.Health.NumDead,
                  S.Health.ok() ? "ok" : "BROKEN");
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "largest minimized policy DFA: %u states (paper claims <= %u)\n",
                LargestMinimized, PaperMaxPolicyStates);
  Out += Buf;
  for (const AuditFinding &F : Findings) {
    std::snprintf(Buf, sizeof(Buf), "%-44s %s  %s\n", F.Check.c_str(),
                  F.Pass ? "PASS" : "FAIL", F.Detail.c_str());
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf), "audit: %s (%.1f ms)\n",
                Pass ? "PASS" : "FAIL", WallMs);
  Out += Buf;
  return Out;
}

AuditReport analysis::auditPolicy(const core::PolicyTables &T,
                                  const DecoderDfas &X) {
  auto T0 = std::chrono::steady_clock::now();
  AuditReport R;

  const NamedDfa Tables[3] = {{"MaskedJump", &T.MaskedJump},
                              {"NoControlFlow", &T.NoControlFlow},
                              {"DirectJump", &T.DirectJump}};

  // Pairwise disjointness (the try-order side condition).
  for (int I = 0; I < 3; ++I)
    for (int J = I + 1; J < 3; ++J)
      R.Findings.push_back(disjointCheck(Tables[I], Tables[J]));

  // Decoder inclusion: single-instruction policies against the
  // one-instruction language, the two-instruction MaskedJump pair
  // against the two-instruction language.
  R.Findings.push_back(inclusionCheck(Tables[1], X.One, "one-instruction"));
  R.Findings.push_back(inclusionCheck(Tables[2], X.One, "one-instruction"));
  R.Findings.push_back(inclusionCheck(Tables[0], X.Pair, "two-instruction"));

  // Structural health + minimization per table.
  for (const NamedDfa &N : Tables) {
    TableStats S;
    S.Name = N.Name;
    S.RawStates = static_cast<uint32_t>(N.D->numStates());
    S.Health = re::auditDfa(*N.D);
    re::Dfa Min = re::minimizeDfa(*N.D);
    S.MinStates = static_cast<uint32_t>(Min.numStates());
    R.LargestMinimized = std::max(R.LargestMinimized, S.MinStates);
    R.Findings.push_back(healthCheck(N, S.Health));
    R.Findings.push_back(minimizeCheck(N, Min));
    R.Tables.push_back(std::move(S));
  }

  {
    AuditFinding F;
    F.Check = "state-bound";
    F.Pass = R.LargestMinimized <= PaperMaxPolicyStates;
    F.Detail = "largest minimized policy DFA has " +
               std::to_string(R.LargestMinimized) + " states (bound " +
               std::to_string(PaperMaxPolicyStates) + ")";
    R.Findings.push_back(std::move(F));
  }

  R.Findings.push_back(fusedClassesCheck(T));

  R.Pass = true;
  for (const AuditFinding &F : R.Findings)
    R.Pass = R.Pass && F.Pass;
  R.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
  return R;
}

AuditReport analysis::auditShippedPolicy() {
  return auditPolicy(core::policyTables(), buildDecoderDfas());
}

AuditReport analysis::auditMipsPolicy() {
  return auditPolicy(*mips::mipsTableEntry().Tables, buildMipsDecoderDfas());
}
