//===- e2ebench/Workloads.cpp - Dispatch and shared generators ----------===//

#include "Workloads.h"

#include "core/Policy.h"
#include "core/Verifier.h"
#include "nacl/Mutator.h"
#include "nacl/WorkloadGen.h"
#include "x86/Encoder.h"

#include <set>
#include <stdexcept>

using namespace rocksalt;

namespace e2e {

const char *const WorkloadNames[3] = {"module_load", "jit_patch",
                                      "service_mix"};

std::vector<uint8_t> generateInputs(const std::string &Workload,
                                    uint64_t Seed) {
  if (Workload == "module_load")
    return generateModuleLoad(Seed);
  if (Workload == "jit_patch")
    return generateJitPatch(Seed);
  if (Workload == "service_mix")
    return generateServiceMix(Seed);
  throw std::runtime_error("unknown workload '" + Workload + "'");
}

std::unique_ptr<Workload> loadWorkload(const std::string &Name,
                                       const std::string &Path,
                                       const std::string &WorkDir) {
  Reader R(Path);
  readHeader(R, Name);
  std::unique_ptr<Workload> W;
  if (Name == "module_load")
    W = loadModuleLoad(R);
  else if (Name == "jit_patch")
    W = loadJitPatch(R);
  else if (Name == "service_mix")
    W = loadServiceMix(R, WorkDir);
  else
    throw std::runtime_error("unknown workload '" + Name + "'");
  if (!R.done())
    throw std::runtime_error("trailing bytes in the " + Name + " input file");
  return W;
}

std::vector<uint8_t> accurateImage(uint64_t Seed, uint32_t Bytes,
                                   uint32_t DirectJumpRate, uint32_t CallRate,
                                   uint32_t MaskedJumpRate) {
  if (Bytes % core::BundleSize)
    throw std::logic_error("image size must be whole bundles");
  nacl::WorkloadOptions WO;
  WO.Seed = Seed;
  WO.DirectJumpRate = DirectJumpRate;
  WO.CallRate = CallRate;
  WO.MaskedJumpRate = MaskedJumpRate;
  // Undershoot, then nop-pad up to the exact size: truncating would cut
  // an instruction and reject the image.
  uint32_t Slack = Bytes / 16 + 256;
  for (;;) {
    WO.TargetBytes = Bytes > Slack ? Bytes - Slack : Bytes / 2;
    std::vector<uint8_t> Img = nacl::generateWorkload(WO);
    if (Img.size() <= Bytes) {
      Img.resize(Bytes, 0x90);
      core::CheckResult R =
          core::checkLegacy(core::policyTables(), Img.data(), Bytes);
      if (!R.Ok)
        throw std::logic_error("generated x86 image was not accepted");
      return Img;
    }
    Slack *= 2;
  }
}

std::vector<uint32_t> rewritableBundles(const std::vector<uint8_t> &Img) {
  const core::PolicyTables &T = core::policyTables();
  const uint32_t Size = uint32_t(Img.size());
  core::CheckResult R = core::checkLegacy(T, Img.data(), Size);
  if (!R.Ok)
    throw std::logic_error("rewritableBundles needs an accepted image");
  const uint32_t B = core::BundleSize;
  std::vector<uint8_t> Plain(Size / B, 1);
  uint32_t Pos = 0;
  while (Pos < Size) {
    uint32_t Start = Pos, Dest = 0;
    core::StepKind K = core::verifyStep(T, Img.data(), &Pos, Size, &Dest);
    if (K == core::StepKind::Fail)
      throw std::logic_error("accepted image failed its chain walk");
    if (K != core::StepKind::NoControlFlow)
      Plain[Start / B] = 0;
  }
  for (uint32_t P = 0; P < Size; ++P)
    if (R.Target[P] && P % B)
      Plain[P / B] = 0;
  std::vector<uint32_t> Out;
  for (uint32_t I = 0; I < Plain.size(); ++I)
    if (Plain[I])
      Out.push_back(I * B);
  return Out;
}

std::vector<std::vector<uint8_t>> straightLineBundles(uint64_t Seed,
                                                      uint32_t N) {
  const core::PolicyTables &T = core::policyTables();
  Rng R(Seed);
  std::set<std::vector<uint8_t>> Seen;
  std::vector<std::vector<uint8_t>> Out;
  while (Out.size() < N) {
    std::vector<uint8_t> B;
    for (;;) {
      std::optional<std::vector<uint8_t>> E =
          x86::encode(nacl::randomSafeInstr(R));
      if (!E)
        continue;
      if (B.size() + E->size() > core::BundleSize)
        break;
      B.insert(B.end(), E->begin(), E->end());
    }
    B.resize(core::BundleSize, 0x90);
    if (!core::checkLegacy(T, B.data(), uint32_t(B.size())).Ok)
      continue;
    if (Seen.insert(B).second)
      Out.push_back(std::move(B));
  }
  return Out;
}

std::vector<uint8_t> attacked(const std::vector<uint8_t> &Img,
                              unsigned FirstKind, uint64_t Seed,
                              uint8_t &Reason) {
  Rng R(Seed ^ 0xA77AC4);
  for (unsigned Try = 0; Try < 256; ++Try) {
    std::optional<std::vector<uint8_t>> Bad =
        nacl::applyAttack(Img, nacl::Attack((FirstKind + Try) % 8), R);
    if (!Bad)
      continue;
    core::CheckResult C = core::checkLegacy(core::policyTables(), Bad->data(),
                                            uint32_t(Bad->size()));
    if (!C.Ok) {
      Reason = uint8_t(C.Reason);
      return std::move(*Bad);
    }
  }
  throw std::logic_error("no attack produced a reject");
}

void StartShares::add(const std::vector<uint8_t> &Img) {
  const core::FusedPolicy &P = core::fusedPolicyTables();
  core::CheckResult R = core::checkLegacy(core::policyTables(), Img.data(),
                                          uint32_t(Img.size()));
  for (size_t I = 0; I < Img.size(); ++I) {
    if (!R.Valid[I])
      continue;
    ++Total;
    Safe += P.SafeByte[Img[I]];
    Exc += P.ExcByte[Img[I]] != 0;
  }
}

} // namespace e2e
