//===- core/Policy.cpp ----------------------------------------*- C++ -*-===//

#include "core/Policy.h"

#include "core/TableRegistry.h"
#include "regex/Algebra.h"
#include "regex/TableIO.h"

#include <stdexcept>

using namespace rocksalt;
using namespace rocksalt::core;
using re::Factory;
using re::Regex;

namespace {

/// 3-bit register encoding as a bit string.
std::string reg3(unsigned Enc) {
  std::string S(3, '0');
  for (int I = 0; I < 3; ++I)
    if ((Enc >> (2 - I)) & 1)
      S[I] = '1';
  return S;
}

/// nacl_MASK_p: AND r, $-32 — "1000 0011 11 100 reg" ++ safeMask
/// (paper section 3.2, verbatim transliteration).
Regex naclMaskP(Factory &F, unsigned R) {
  return F.cat(F.byteLit(0x83),
               F.cat(F.bits("11100"), F.cat(F.bits(reg3(R)),
                                            F.byteLit(SafeMaskByte))));
}

/// nacl_JMP_p: JMP *r — "1111 1111 11 100 reg".
Regex naclJmpP(Factory &F, unsigned R) {
  return F.cat(F.byteLit(0xFF), F.cat(F.bits("11100"), F.bits(reg3(R))));
}

/// nacl_CALL_p: CALL *r — "1111 1111 11 010 reg".
Regex naclCallP(Factory &F, unsigned R) {
  return F.cat(F.byteLit(0xFF), F.cat(F.bits("11010"), F.bits(reg3(R))));
}

/// nacljmp_p: mask followed by jump/call through the same register.
Regex nacljmpP(Factory &F, unsigned R) {
  return F.cat(naclMaskP(F, R), F.alt(naclJmpP(F, R), naclCallP(F, R)));
}

/// Every register except ESP (encoding 4), as in the paper.
Regex nacljmpMask(Factory &F) {
  std::vector<Regex> Alts;
  for (unsigned R = 0; R < 8; ++R)
    if (R != 4)
      Alts.push_back(nacljmpP(F, R));
  return F.altN(std::move(Alts));
}

/// String-instruction forms (rep-prefixable).
const std::vector<std::string> &stringFormNames() {
  static const std::vector<std::string> Names = {"movs", "cmps", "stos",
                                                 "lods", "scas"};
  return Names;
}

/// Forms that may carry the lock prefix (memory read-modify-writes; the
/// policy over-approximates by not inspecting the mod bits, which is
/// sound because lock is semantically inert in the model).
const std::vector<std::string> &lockableFormNames() {
  static const std::vector<std::string> Names = {
      "add.rm_r", "add.rm_i8", "add.rm_iW", "add.rm_i8sx",
      "or.rm_r",  "or.rm_i8",  "or.rm_iW",  "or.rm_i8sx",
      "adc.rm_r", "adc.rm_i8", "adc.rm_iW", "adc.rm_i8sx",
      "sbb.rm_r", "sbb.rm_i8", "sbb.rm_iW", "sbb.rm_i8sx",
      "and.rm_r", "and.rm_i8", "and.rm_iW", "and.rm_i8sx",
      "sub.rm_r", "sub.rm_i8", "sub.rm_iW", "sub.rm_i8sx",
      "xor.rm_r", "xor.rm_i8", "xor.rm_iW", "xor.rm_i8sx",
      "inc.rm",   "dec.rm",    "not.rm",    "neg.rm",
      "xchg.rm_r", "xadd",     "cmpxchg",
      "bts.rm_r", "bts.rm_i8", "btr.rm_r",  "btr.rm_i8",
      "btc.rm_r", "btc.rm_i8"};
  return Names;
}

} // namespace

const std::vector<std::string> &core::noControlFlowFormNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    // The eight-op ALU family, all forms.
    for (const char *Op : {"add", "or", "adc", "sbb", "and", "sub", "xor",
                           "cmp"})
      for (const char *Form : {".rm_r", ".r_rm", ".al_i", ".eax_i",
                               ".rm_i8", ".rm_iW", ".rm_i8sx"})
        N.push_back(std::string(Op) + Form);
    // Moves.
    for (const char *Form :
         {"mov.rm_r", "mov.r_rm", "mov.r_i8", "mov.r_iW", "mov.rm_i8",
          "mov.rm_iW", "mov.al_moffs", "mov.eax_moffs", "mov.moffs_al",
          "mov.moffs_eax", "lea"})
      N.push_back(Form);
    // Inc/dec/stack.
    for (const char *Form :
         {"inc.r", "dec.r", "inc.rm", "dec.rm", "push.r", "pop.r",
          "push.i8", "push.iW", "push.rm", "pop.rm", "pusha", "popa",
          "pushf", "popf", "leave"})
      N.push_back(Form);
    // Unary group + test + multiplies.
    for (const char *Form :
         {"not.rm", "neg.rm", "mul.rm", "imul1.rm", "div.rm", "idiv.rm",
          "test.rm8_i8", "test.rm_iW", "test.rm_r", "test.al_i8",
          "test.eax_iW", "imul.r_rm", "imul.r_rm_iW", "imul.r_rm_i8"})
      N.push_back(Form);
    // Exchanges.
    for (const char *Form : {"xchg.rm_r", "xchg.eax_r", "nop", "xadd",
                             "cmpxchg"})
      N.push_back(Form);
    // Shifts and rotates.
    for (const char *Op : {"rol", "ror", "rcl", "rcr", "shl", "shr", "sar"})
      for (const char *Form : {".rm_i8", ".rm_1", ".rm_cl"})
        N.push_back(std::string(Op) + Form);
    for (const char *Form : {"shld.i8", "shld.cl", "shrd.i8", "shrd.cl"})
      N.push_back(Form);
    // Conditional data ops and widening moves.
    for (const char *Form : {"setcc", "cmovcc", "movzx", "movsx"})
      N.push_back(Form);
    // Bit instructions.
    for (const char *Form :
         {"bsf", "bsr", "bswap", "bt.rm_r", "bt.rm_i8", "bts.rm_r",
          "bts.rm_i8", "btr.rm_r", "btr.rm_i8", "btc.rm_r", "btc.rm_i8"})
      N.push_back(Form);
    // String ops (unprefixed forms; rep variants are added separately).
    for (const std::string &S : stringFormNames())
      N.push_back(S);
    // Flags, BCD, conversions, misc. CLI/STI, IN/OUT, INT*, RET, and all
    // segment-register operations are deliberately absent.
    for (const char *Form :
         {"cmc", "clc", "stc", "cld", "std", "lahf", "sahf", "cwde", "cdq",
          "xlat", "hlt", "aaa", "aas", "daa", "das", "aam", "aad"})
      N.push_back(Form);
    return N;
  }();
  return Names;
}

PolicyGrammars core::buildPolicyGrammars(Factory &F) {
  // The policy unions are pure functions of fixed name lists, so they
  // are built once per process; per-factory work is then only the strip
  // (itself memoized per grammar node in F's strip cache).
  static const gram::Grammar<x86::Instr> NCF =
      x86::formsUnion(noControlFlowFormNames());
  static const gram::Grammar<x86::Instr> NCF16 =
      x86::formsUnion(noControlFlowFormNames(), /*Op16=*/true);
  static const gram::Grammar<x86::Instr> Strings =
      x86::formsUnion(stringFormNames());
  static const gram::Grammar<x86::Instr> Lockables =
      x86::formsUnion(lockableFormNames());
  static const gram::Grammar<x86::Instr> Jumps = x86::formsUnion(
      {"jmp.rel8", "jmp.rel32", "jcc.rel8", "jcc.rel32", "call.rel"});

  PolicyGrammars P;
  P.NoControlFlow = NCF;

  // The regex is layered with the allowed prefixes.
  Regex Plain = P.NoControlFlow.strip(F);
  Regex With66 = F.cat(F.byteLit(0x66), NCF16.strip(F));
  Regex Reps = F.cat(F.alt(F.byteLit(0xF3), F.byteLit(0xF2)),
                     Strings.strip(F));
  Regex Locked = F.cat(F.byteLit(0xF0), Lockables.strip(F));
  P.NoControlFlowRe = F.altN({Plain, With66, Reps, Locked});

  P.DirectJumpRe = Jumps.strip(F);

  P.MaskedJumpRe = nacljmpMask(F);
  return P;
}

PolicyTables core::buildPolicyTablesRaw() {
  Factory F;
  PolicyGrammars P = buildPolicyGrammars(F);
  PolicyTables T;
  T.NoControlFlow = re::buildDfa(F, P.NoControlFlowRe);
  T.DirectJump = re::buildDfa(F, P.DirectJumpRe);
  T.MaskedJump = re::buildDfa(F, P.MaskedJumpRe);
  return T;
}

PolicyTables core::buildPolicyTables() {
  PolicyTables T = buildPolicyTablesRaw();
  T.NoControlFlow = re::minimizeDfa(T.NoControlFlow);
  T.DirectJump = re::minimizeDfa(T.DirectJump);
  T.MaskedJump = re::minimizeDfa(T.MaskedJump);
  if (T.NoControlFlow.numStates() != NoControlFlowStates ||
      T.DirectJump.numStates() != DirectJumpStates ||
      T.MaskedJump.numStates() != MaskedJumpStates)
    throw std::logic_error(
        "policy table state counts diverged from the pinned constants in "
        "core/Policy.h — a grammar change altered the minimized tables");
  return T;
}

const PolicyTables &core::policyTables() {
  return *defaultTableEntry().Tables;
}

FusedPolicy core::buildFusedPolicy(const PolicyTables &T) {
  FusedPolicy P;
  P.F = re::fuseDfas({&T.MaskedJump, &T.NoControlFlow, &T.DirectJump});

  const uint8_t *MjRow =
      &P.F.Trans[size_t(P.F.Starts[FusedMaskedJump]) * 256];
  const uint8_t *NcfRow =
      &P.F.Trans[size_t(P.F.Starts[FusedNoControlFlow]) * 256];
  const uint8_t *DjRow =
      &P.F.Trans[size_t(P.F.Starts[FusedDirectJump]) * 256];
  for (uint32_t B = 0; B < 256; ++B) {
    uint8_t MjFl = P.F.Flags[MjRow[B]];
    uint8_t NcfFl = P.F.Flags[NcfRow[B]];
    bool MjDead = (MjFl & re::FusedReject) != 0;
    bool DjDead = P.F.rejects(DjRow[B]);
    // dfaMatch checks reject before accept, so a safe byte's
    // NoControlFlow landing must be a non-rejecting accept.
    bool NcfOneByte = !(NcfFl & re::FusedReject) && (NcfFl & re::FusedAccept);
    P.SafeByte[B] = MjDead && NcfOneByte ? 1 : 0;
    P.MjAliveByte[B] = MjDead ? 0 : 1;
    // Exceptional: the step could resolve as MaskedJump or DirectJump.
    // A safe byte is never exceptional even when DirectJump is alive on
    // it — the one-byte NoControlFlow accept outranks DirectJump in the
    // Figure-5 chain order.
    P.ExcByte[B] = (!MjDead || (!DjDead && !P.SafeByte[B])) ? 1 : 0;
  }

  // Second-byte resolution: among the DirectJump-only exceptional
  // bytes, those whose DirectJump landing state dies on at least one
  // second byte can be re-admitted to the sweep when the actual second
  // byte kills the jump (the two-byte opcode prefix 0F: only 0F 8x is
  // a jump). All such bytes must share one landing state to share the
  // one Exc2Dead table; pick the state reached from the most byte
  // values (ties to the smallest id) and leave the rest hard.
  {
    std::array<uint32_t, re::MaxFusedStates> Votes{};
    for (uint32_t B = 0; B < 256; ++B) {
      if (!P.ExcByte[B] || P.MjAliveByte[B])
        continue;
      uint8_t D1 = DjRow[B];
      if (P.F.rejects(D1))
        continue; // exceptional for other reasons; not a DJ-only byte
      // A one-byte DirectJump accept must stay hard: the chain could
      // resolve it as a jump when NoControlFlow fails, and its fused
      // row is a restart row (FusedTables pass 4), not a real one.
      if (P.F.accepts(D1))
        continue;
      bool AnyDead = false;
      for (uint32_t B1 = 0; B1 < 256 && !AnyDead; ++B1)
        AnyDead = P.F.rejects(P.F.step(D1, uint8_t(B1)));
      if (AnyDead)
        ++Votes[D1];
    }
    uint32_t Best = re::MaxFusedStates, BestVotes = 0;
    for (uint32_t S = 0; S < re::MaxFusedStates; ++S)
      if (Votes[S] > BestVotes) {
        Best = S;
        BestVotes = Votes[S];
      }
    if (Best != re::MaxFusedStates) {
      P.Exc2State = Best;
      for (uint32_t B1 = 0; B1 < 256; ++B1)
        P.Exc2Dead[B1] =
            P.F.rejects(P.F.step(uint8_t(Best), uint8_t(B1))) ? 1 : 0;
      for (uint32_t B = 0; B < 256; ++B)
        if (P.ExcByte[B] && !P.MjAliveByte[B] && DjRow[B] == Best)
          P.ExcByte[B] = 2;
    }
  }

  for (uint32_t B = 0; B < 256; ++B) {
    P.SafeCount += P.SafeByte[B];
    P.MjAliveCount += P.MjAliveByte[B];
    P.ExcCount += P.ExcByte[B] != 0;
    P.Exc2Count += P.ExcByte[B] == 2;
  }
  return P;
}

const FusedPolicy &core::fusedPolicyTables() {
  // The fused form lives on the registry entry, built at registration
  // time from the entry's own tables — there is no second cache that
  // could disagree with policyTables() after an adoption.
  return *defaultTableEntry().Fused;
}

bool core::adoptPolicyTables(PolicyTables T, std::string_view Isa,
                             std::string_view PolicySet) {
  TableRegistry::instance().adopt(
      TableKey{std::string(Isa), std::string(PolicySet),
               re::TableFormatVersion},
      std::move(T));
  return true;
}

PolicyTables core::loadPolicyTables(const std::vector<uint8_t> &Blob,
                                    std::string_view ExpectHashHex,
                                    std::string_view ExpectIsa,
                                    std::string_view ExpectPolicySet) {
  if (!ExpectHashHex.empty() && re::verifyBlobHashHex(Blob) != ExpectHashHex)
    throw std::runtime_error(
        "policy table blob hash does not match the expected content hash");
  return deserializePolicyTables(Blob, ExpectIsa, ExpectPolicySet);
}

std::vector<uint8_t> core::serializePolicyTables(const PolicyTables &T,
                                                 std::string_view Isa,
                                                 std::string_view PolicySet) {
  return re::serializeTables({{"NoControlFlow", &T.NoControlFlow},
                              {"DirectJump", &T.DirectJump},
                              {"MaskedJump", &T.MaskedJump}},
                             Isa, PolicySet);
}

std::vector<uint8_t> core::serializePolicyTables(const PolicyTables &T) {
  return serializePolicyTables(T, IsaX86, PolicySetNacl);
}

PolicyTables
core::deserializePolicyTables(const std::vector<uint8_t> &Blob,
                              std::string_view ExpectIsa,
                              std::string_view ExpectPolicySet) {
  re::TableBundle Bundle =
      re::deserializeTables(Blob, ExpectIsa, ExpectPolicySet);
  if (Bundle.Tables.size() != 3 ||
      Bundle.Tables[0].first != "NoControlFlow" ||
      Bundle.Tables[1].first != "DirectJump" ||
      Bundle.Tables[2].first != "MaskedJump")
    throw std::runtime_error("policy table blob has unexpected table set");
  PolicyTables T;
  T.NoControlFlow = std::move(Bundle.Tables[0].second);
  T.DirectJump = std::move(Bundle.Tables[1].second);
  T.MaskedJump = std::move(Bundle.Tables[2].second);
  return T;
}

std::string core::policyTableHashHex(const PolicyTables &T) {
  return re::blobHashHex(serializePolicyTables(T));
}

std::string core::policyTableHashHex(const PolicyTables &T,
                                     std::string_view Isa,
                                     std::string_view PolicySet) {
  return re::blobHashHex(serializePolicyTables(T, Isa, PolicySet));
}
