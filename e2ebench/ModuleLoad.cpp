//===- e2ebench/ModuleLoad.cpp - Whole-module checks in fixed order -----===//
///
/// \file
/// One loader thread checks whole modules, taken in a fixed seeded order
/// from a corpus whose sizes are log-spread from 4 KiB to 256 KiB. Sizes
/// are stratified (the i-th of N modules sits at quantile (i + 0.5) / N
/// of the log range) so every seed sees the same size distribution and
/// only content, rates and order vary. Every eighth module is an
/// nacl::applyAttack reject and every eighth a MIPS module, spread over
/// the whole size range.
///
//===----------------------------------------------------------------------===//

#include "MipsGen.h"
#include "Workloads.h"

#include "core/TableRegistry.h"
#include "core/Verifier.h"
#include "mips/MipsPolicy.h"
#include "support/Oracle.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

using namespace rocksalt;

namespace e2e {

namespace {

constexpr uint32_t NumModules = 192;
constexpr double MinKiB = 4, MaxKiB = 256;
enum Isa : uint8_t { X86 = 0, Mips = 1 };

struct Module {
  uint8_t Isa = X86;
  bool Ok = true;
  core::RejectReason Reason = core::RejectReason::None;
  std::vector<uint8_t> Bytes;
};

class ModuleLoad : public Workload {
public:
  explicit ModuleLoad(Reader &R) {
    Charac = R.str();
    SafeShare = R.f64();
    ExcShare = R.f64();
    RejectShare = R.f64();
    uint32_t N = R.u32();
    for (uint32_t I = 0; I < N; ++I) {
      Module M;
      M.Isa = R.u8();
      M.Ok = R.u8() != 0;
      M.Reason = core::RejectReason(R.u8());
      M.Bytes = R.bytes();
      Corpus.push_back(std::move(M));
    }
    if (Corpus.empty())
      throw std::runtime_error("empty module_load corpus");
  }

  std::string characterisation() const override { return Charac; }

  void setup(Tracer &T) override {
    {
      ScopedSpan S(T, "core.tables_build");
      X86Entry = &core::defaultTableEntry();
    }
    {
      ScopedSpan S(T, "mips.tables_build");
      mips::mipsTableEntry();
    }
    Checker = std::make_unique<core::RockSalt>(*X86Entry->Fused);
  }

  Window run(double Seconds, Tracer &T) override {
    Window W;
    W.LatNs.reserve(size_t(Seconds * 20000) + 1024);
    const int64_t Start = nowNs();
    W.begin(Start, Seconds);
    const int64_t Deadline = W.deadline();
    int64_t Now = Start;
    while (Now < Deadline) {
      const Module &M = Corpus[Next];
      Next = (Next + 1) % Corpus.size();
      const uint32_t Size = uint32_t(M.Bytes.size());
      const char *Name = M.Isa == Mips ? "mips.check"
                         : M.Ok        ? "core.check"
                                       : "core.check_reject";
      core::CheckResult R;
      bool Threw = false;
      int32_t Op = T.open("load.op");
      const int64_t T0 = nowNs();
      try {
        ScopedSpan S(T, Name, Op);
        R = M.Isa == Mips ? mips::checkMips(M.Bytes.data(), Size)
                          : Checker->check(M.Bytes.data(), Size);
      } catch (const std::exception &) {
        Threw = true;
      }
      const int64_t T1 = nowNs();
      T.close(Op);
      ++W.Attempted;
      if (Threw) {
        ++W.Failed;
        W.tick(T1);
      } else {
        W.add(T1 - T0, T1);
        if (R.Ok != M.Ok || R.Reason != M.Reason)
          wrongAnswer(std::string("module_load: ") +
                      (M.Isa == Mips ? "mips" : "x86") + " module of " +
                      std::to_string(Size) + " bytes: got " +
                      core::rejectReasonName(R.Reason) + ", expected " +
                      core::rejectReasonName(M.Reason));
      }
      if (T.On && M.Ok)
        (M.Isa == Mips ? MipsBytes : X86OkBytes) += Size;
      Now = T1;
    }
    W.end(Now);
    return W;
  }

  void finish() override {}

  void layerMetrics(Tracer &T, std::vector<Metric> &Out) override {
    for (int I = 0; I < 5; ++I) {
      ScopedSpan S(T, "regex.fuse");
      core::FusedPolicy P = core::buildFusedPolicy(*X86Entry->Tables);
      if (P.SafeCount != X86Entry->Fused->SafeCount)
        wrongAnswer("module_load: a re-fuse disagrees with the registry");
    }
    auto A = T.selfTimes();
    auto First = [&](const char *N) {
      auto It = A.find(N);
      return It == A.end() ? 0.0 : It->second.front();
    };
    auto Sum = [&](const char *N) {
      auto It = A.find(N);
      return It == A.end() ? 0.0 : sum(It->second);
    };
    auto PerKiB = [](double Ns, uint64_t Bytes) {
      return Bytes ? (Ns / 1e3) / (double(Bytes) / 1024.0) : 0.0;
    };
    Out.push_back({"core.tables_build_ms", First("core.tables_build") / 1e6,
                   "ms"});
    Out.push_back({"regex.fuse_ms", median(A["regex.fuse"]) / 1e6, "ms"});
    Out.push_back({"mips.tables_build_ms", First("mips.tables_build") / 1e6,
                   "ms"});
    Out.push_back({"mips.check_us_per_kib", PerKiB(Sum("mips.check"), MipsBytes),
                   "us/KiB"});
    Out.push_back({"core.check_us_per_kib",
                   PerKiB(Sum("core.check"), X86OkBytes), "us/KiB"});
    Out.push_back({"core.reject_us",
                   median(A["core.check_reject"]) / 1e3, "us"});
    Out.push_back({"core.safe_start_share", SafeShare, "ratio"});
    Out.push_back({"core.exc_start_share", ExcShare, "ratio"});
    Out.push_back({"core.reject_share", RejectShare, "ratio"});
  }

  void corruptOneAnswer() override {
    Module &M = Corpus[Next];
    M.Ok = !M.Ok;
    M.Reason = M.Ok ? core::RejectReason::None : core::RejectReason::NoParse;
  }

private:
  std::string Charac;
  double SafeShare = 0, ExcShare = 0, RejectShare = 0;
  std::vector<Module> Corpus;
  size_t Next = 0; ///< corpus position; continues across windows
  const core::TableEntry *X86Entry = nullptr;
  std::unique_ptr<core::RockSalt> Checker;
  uint64_t X86OkBytes = 0, MipsBytes = 0; ///< accepted bytes checked, traced
};

} // namespace

std::vector<uint8_t> generateModuleLoad(uint64_t Seed) {
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 0x51);
  // Rates are stratified too: each rate takes N evenly spaced values,
  // dealt to the modules in a seeded order, so every seed has the same
  // rate mix and only its pairing with sizes and content varies.
  auto Spread = [&](uint32_t Lo, uint32_t Hi) {
    std::vector<uint32_t> V(NumModules);
    for (uint32_t I = 0; I < NumModules; ++I)
      V[I] = Lo + uint32_t((Hi - Lo) * (I + 0.5) / NumModules);
    for (uint32_t I = NumModules - 1; I > 0; --I)
      std::swap(V[I], V[R.below(I + 1)]);
    return V;
  };
  const std::vector<uint32_t> DjRate = Spread(20, 60), CallRate = Spread(10, 30),
                              MjRate = Spread(5, 25), BranchRate = Spread(30, 90),
                              PairRate = Spread(50, 250);
  std::vector<Module> Corpus;
  StartShares Shares;
  std::vector<double> SizesKiB;
  uint32_t Reasons[4] = {0, 0, 0, 0};
  uint64_t X86Bytes = 0, MipsBytesTotal = 0;
  for (uint32_t I = 0; I < NumModules; ++I) {
    double Kib = MinKiB * std::pow(MaxKiB / MinKiB, (I + 0.5) / NumModules);
    uint32_t Bytes = uint32_t(Kib * 1024.0) / 32 * 32;
    uint64_t ModSeed = R.next();
    Module M;
    if (I % 8 == 6) {
      MipsModuleOptions O;
      O.TargetBytes = Bytes;
      O.BranchRate = BranchRate[I];
      O.PairRate = PairRate[I];
      Rng MR(ModSeed);
      M.Isa = Mips;
      M.Bytes = generateMipsModule(O, MR);
      MipsBytesTotal += M.Bytes.size();
    } else {
      M.Bytes = accurateImage(ModSeed, Bytes, DjRate[I], CallRate[I], MjRate[I]);
      if (I % 8 == 3) {
        // A reject whose reason is whatever the legacy reference engine
        // says, drawn from the attack gallery in turn.
        uint8_t Why = 0;
        M.Bytes = attacked(M.Bytes, (I / 8) % 8, ModSeed, Why);
        M.Ok = false;
        M.Reason = core::RejectReason(Why);
        ++Reasons[Why];
      } else {
        Shares.add(M.Bytes);
      }
      X86Bytes += M.Bytes.size();
    }
    SizesKiB.push_back(double(M.Bytes.size()) / 1024.0);
    Corpus.push_back(std::move(M));
  }
  for (uint32_t I = NumModules - 1; I > 0; --I)
    std::swap(Corpus[I], Corpus[R.below(I + 1)]);

  uint32_t Rejects = Reasons[1] + Reasons[2] + Reasons[3];
  double SafeShare = double(Shares.Safe) / double(Shares.Total);
  double ExcShare = double(Shares.Exc) / double(Shares.Total);
  double RejectShare = double(Rejects) / NumModules;
  std::ostringstream C;
  C << "{\"modules\": " << NumModules
    << ", \"size_p50_kib\": " << num(quantile(SizesKiB, 0.5))
    << ", \"size_p90_kib\": " << num(quantile(SizesKiB, 0.9))
    << ", \"x86_mib\": " << num(double(X86Bytes) / 1048576.0)
    << ", \"mips_mib\": " << num(double(MipsBytesTotal) / 1048576.0)
    << ", \"mips_share\": " << num(double(NumModules / 8) / NumModules)
    << ", \"reject_share\": " << num(RejectShare)
    << ", \"rejects\": {\"no-parse\": " << Reasons[1]
    << ", \"bad-target\": " << Reasons[2]
    << ", \"unaligned-bundle\": " << Reasons[3] << "}"
    << ", \"start_share\": {\"safe\": " << num(SafeShare)
    << ", \"exceptional\": " << num(ExcShare)
    << ", \"sweep\": " << num(1 - SafeShare - ExcShare) << "}}";

  Writer W;
  writeHeader(W, "module_load", Seed);
  W.str(C.str());
  W.f64(SafeShare);
  W.f64(ExcShare);
  W.f64(RejectShare);
  W.u32(uint32_t(Corpus.size()));
  for (const Module &M : Corpus) {
    W.u8(M.Isa);
    W.u8(M.Ok);
    W.u8(uint8_t(M.Reason));
    W.bytes(M.Bytes);
  }
  return W.data();
}

std::unique_ptr<Workload> loadModuleLoad(Reader &R) {
  return std::make_unique<ModuleLoad>(R);
}

} // namespace e2e
