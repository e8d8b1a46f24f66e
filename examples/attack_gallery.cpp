//===- examples/attack_gallery.cpp -----------------------------*- C++ -*-===//
//
// A gallery of sandbox-escape attempts against the aligned NaCl policy
// (paper sections 1 and 3), each one a real exploit pattern:
//
//   * the overlapping-instruction attack that motivates requirement 2
//     (variable-length decoding lets bytes parse differently mid-stream);
//   * unmasked indirect jumps, stripped masks, wrong-register masks;
//   * RET (an indirect jump through memory the attacker controls);
//   * direct jumps over the mask of a masked pair;
//   * segment-register tampering and system-call insertion.
//
// For each exhibit the RockSalt checker must reject; for one of them we
// also *execute* the attack under the sandbox monitor (pretending the
// checker had accepted it) to show the policy violation actually happen.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "nacl/SandboxMonitor.h"
#include "x86/FastDecoder.h"
#include "x86/Printer.h"

#include <algorithm>
#include <cstdio>

using namespace rocksalt;

namespace {

struct Exhibit {
  const char *Name;
  const char *Story;
  std::vector<uint8_t> Code;
};

std::vector<uint8_t> pad32(std::vector<uint8_t> V) {
  while (V.size() % 32)
    V.push_back(0x90);
  return V;
}

void disassembleAround(const std::vector<uint8_t> &Code, uint32_t Pos,
                       int Count) {
  uint32_t P = Pos;
  for (int I = 0; I < Count && P < Code.size(); ++I) {
    auto D = x86::fastDecode(Code.data() + P, Code.size() - P);
    if (!D) {
      std::printf("    %04x: (undecodable)\n", P);
      return;
    }
    std::printf("    %04x: %s\n", P, x86::printInstr(D->I).c_str());
    P += D->Length;
  }
}

} // namespace

int main() {
  std::vector<Exhibit> Gallery;

  // 1. The classic hidden-instruction attack: an immediate that, parsed
  // from the middle, is an `int 0x80`. The initial parse is innocent; a
  // return-address overwrite into the middle would not be.
  Gallery.push_back(
      {"hidden syscall in an immediate",
       "mov eax, 0x80CD9090 contains 'int 0x80' at offset +3; jumping "
       "into the middle of the mov would execute it. The aligned policy "
       "kills this by construction: the direct jump below targets the "
       "interior, so the image is rejected.",
       pad32({
           0xE9, 0x03, 0x00, 0x00, 0x00, // jmp +3 => byte 8, inside the mov
           0xB8, 0x90, 0x90, 0xCD, 0x80, // mov eax, 0x80CD9090
       })});

  // 2. Bare indirect jump.
  Gallery.push_back({"unmasked computed jump",
                     "jmp *eax with no mask: the target is any address "
                     "the untrusted code chooses.",
                     pad32({0xB8, 0x0D, 0x00, 0x00, 0x00, 0xFF, 0xE0})});

  // 3. Mask of the wrong register.
  Gallery.push_back({"mask/jump register mismatch",
                     "and eax, -32 guards nothing when the jump goes "
                     "through ebx.",
                     pad32({0x83, 0xE0, 0xE0, 0xFF, 0xE3})});

  // 4. Jump over the mask.
  Gallery.push_back(
      {"skip the mask",
       "a direct jump targets the jmp half of a masked pair, bypassing "
       "the AND (policy requirement 5).",
       pad32({0xE9, 3, 0, 0, 0, 0x83, 0xE3, 0xE0, 0xFF, 0xE3})});

  // 5. RET.
  Gallery.push_back({"return-address hijack",
                     "ret is an indirect jump through attacker-writable "
                     "stack memory; NaCl code must pop+mask instead.",
                     pad32({0x58, 0xC3})}); // pop eax ; ret

  // 6. Segment tampering.
  Gallery.push_back({"segment reload",
                     "mov ds, ax retargets every subsequent data access; "
                     "the checker must never let a segment register "
                     "change.",
                     pad32({0x66, 0xB8, 0x18, 0x00, 0x8E, 0xD8})});

  // 7. Straddling pair.
  Gallery.push_back({"masked pair across a bundle boundary",
                     "if the pair straddles the 32-byte boundary, an "
                     "aligned indirect jump can land between the mask "
                     "and the jump.",
                     [] {
                       std::vector<uint8_t> C(34, 0x90);
                       const uint8_t Pair[] = {0x83, 0xE3, 0xE0, 0xFF, 0xE3};
                       std::copy(Pair, Pair + 5, C.begin() + 29);
                       return pad32(C);
                     }()});

  core::RockSalt Checker;
  int Rejected = 0;
  for (size_t I = 0; I < Gallery.size(); ++I) {
    const Exhibit &E = Gallery[I];
    bool Ok = Checker.verify(E.Code);
    std::printf("[%zu] %s — %s\n", I + 1, E.Name,
                Ok ? "ACCEPTED (!!)" : "rejected");
    std::printf("    %s\n", E.Story);
    disassembleAround(E.Code, 0, 3);
    if (!Ok)
      ++Rejected;
    std::printf("\n");
  }
  std::printf("%d/%zu attacks rejected by the checker\n\n", Rejected,
              Gallery.size());

  // Now show what exhibit 2 would *do* if a (buggy) checker accepted it:
  // the monitor catches the unaligned transfer the instant it happens.
  const Exhibit &Attack = Gallery[1];
  core::CheckResult Fake;
  Fake.Ok = true;
  Fake.Valid.assign(Attack.Code.size(), 0);
  Fake.Valid[0] = Fake.Valid[5] = 1;
  for (size_t I = 7; I < Attack.Code.size(); I += 1)
    Fake.Valid[I] = (I % 32) == 0; // only bundle starts
  Fake.Target.assign(Attack.Code.size(), 0);
  Fake.PairJmp.assign(Attack.Code.size(), 0);

  sem::Cpu C;
  C.configureSandbox(0x10000, static_cast<uint32_t>(Attack.Code.size()),
                     0x400000, 0x10000, Attack.Code);
  nacl::SandboxMonitor Mon(C, Fake, 0x10000,
                           static_cast<uint32_t>(Attack.Code.size()));
  auto V = Mon.runMonitored(100);
  if (V)
    std::printf("monitor (simulating a buggy checker that accepted #2): "
                "violation at step %llu: %s\n",
                static_cast<unsigned long long>(V->Step), V->What.c_str());
  else
    std::printf("monitor: no violation (unexpected)\n");

  return Rejected == int(Gallery.size()) && V ? 0 : 1;
}
