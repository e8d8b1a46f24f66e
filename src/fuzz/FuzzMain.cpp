//===- fuzz/FuzzMain.cpp - Differential fuzzing driver --------------------===//
///
/// \file
/// `fuzz_differential`: generate compliant workloads, mutate them with
/// the grammar-directed mutator, and push every image through the
/// differential oracle (fused DFA checker, legacy three-table walk,
/// baseline decoder, and derivative slow path). Any
/// disagreement is minimized to a reproducer and written into the
/// regression corpus. The run is fully determined by --base-seed: a
/// failure report names the seed and iteration, and the printed repro
/// command replays exactly that image.
///
/// --patches switches to the incremental-vs-full verifier differential
/// (long-lived images mutated in place); --lint to the three-engine
/// lint differential, holding the sequential, shard-derived, and
/// incrementally maintained lint of every mutated image to
/// byte-identical rendered reports; --fused to the fused-vs-reference
/// lockstep that certifies the production verify driver (fused
/// transition array, NoControlFlow sweep, chain step) bit-identical
/// to the paper's three-table per-byte walk on every mutated image —
/// x86 sequentially and through the shard scan/merge under rotating
/// shard counts, MIPS through checkMips.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dataflow.h"
#include "core/Shard.h"
#include "core/Verifier.h"
#include "fuzz/Corpus.h"
#include "fuzz/Minimizer.h"
#include "fuzz/MipsGen.h"
#include "fuzz/Oracle.h"
#include "fuzz/StructuredMutator.h"
#include "incr/IncrementalVerifier.h"
#include "mips/MipsPolicy.h"
#include "nacl/WorkloadGen.h"
#include "svc/Metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace rocksalt;

namespace {

struct CliOptions {
  uint64_t Seeds = 8;      ///< number of base workloads
  uint64_t Iters = 100;    ///< mutations per base workload
  uint32_t Size = 512;     ///< workload target bytes
  uint64_t BaseSeed = 1;   ///< first workload seed; seed i = BaseSeed + i
  bool Minimize = false;   ///< shrink disagreeing images
  std::string CorpusDir;   ///< where reproducers land ("" = don't write)
  bool Stats = false;      ///< dump the Prometheus metrics text at exit
  bool RunSlow = true;
  bool Patches = false;    ///< incremental-vs-full patch differential mode
  bool LintDiff = false;   ///< three-engine lint differential mode
  bool FusedDiff = false;  ///< fused-vs-reference lockstep mode
  uint64_t Images = 500;   ///< --patches/--lint: number of base images
  uint64_t Steps = 20;     ///< --patches/--lint: patch steps per image
};

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--smoke] [--seeds N] [--iters N] [--size N]\n"
      "          [--base-seed N] [--minimize] [--corpus DIR] [--stats]\n"
      "          [--no-slow]\n"
      "          [--patches | --lint | --fused] [--images N] [--steps N]\n"
      "  --smoke   preset: --seeds 25 --iters 400 --size 384 --minimize\n"
      "            (10025 images through every verdict path)\n"
      "  --patches incremental-vs-full differential mode: open --images\n"
      "            base images, apply --steps structured patches each,\n"
      "            cross-check every incremental verdict (and its\n"
      "            Valid/Target/PairJmp bitmaps) against a full re-check;\n"
      "            fails when no step takes the splice\n"
      "  --lint    three-engine lint differential: sequential lintImage,\n"
      "            the shard-derived lint (rotating shard counts), and\n"
      "            the incremental linter must render byte-identical\n"
      "            reports for every mutated image\n"
      "  --fused   fused-vs-reference lockstep: the fused verify driver\n"
      "            (RockSalt::check, bare verifyImage, and the fused\n"
      "            shard scan+merge under rotating shard counts; for\n"
      "            MIPS images from the same seeds, checkMips) must\n"
      "            reproduce the reference three-table walk's full\n"
      "            instrumented result on every mutated image\n",
      Argv0);
}

bool parseArgs(int Argc, char **Argv, CliOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NextVal = [&](uint64_t &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = std::strtoull(Argv[++I], nullptr, 0);
      return true;
    };
    uint64_t V = 0;
    if (A == "--smoke") {
      O.Seeds = 25;
      O.Iters = 400;
      O.Size = 384;
      O.Minimize = true;
    } else if (A == "--seeds" && NextVal(V)) {
      O.Seeds = V;
    } else if (A == "--iters" && NextVal(V)) {
      O.Iters = V;
    } else if (A == "--size" && NextVal(V)) {
      O.Size = static_cast<uint32_t>(V);
    } else if (A == "--base-seed" && NextVal(V)) {
      O.BaseSeed = V;
    } else if (A == "--minimize") {
      O.Minimize = true;
    } else if (A == "--corpus" && I + 1 < Argc) {
      O.CorpusDir = Argv[++I];
    } else if (A == "--stats") {
      O.Stats = true;
    } else if (A == "--no-slow") {
      O.RunSlow = false;
    } else if (A == "--patches") {
      O.Patches = true;
    } else if (A == "--lint") {
      O.LintDiff = true;
    } else if (A == "--fused") {
      O.FusedDiff = true;
    } else if (A == "--images" && NextVal(V)) {
      O.Images = V;
    } else if (A == "--steps" && NextVal(V)) {
      O.Steps = V;
    } else {
      usage(Argv[0]);
      return false;
    }
  }
  return true;
}

/// Mixes (seed, iteration) into the per-iteration mutation Rng seed, so
/// any image in the run is reachable from the command line alone.
uint64_t mutationSeed(uint64_t WorkloadSeed, uint64_t Iter) {
  uint64_t H = WorkloadSeed * 0x9E3779B97F4A7C15ull + Iter;
  H ^= H >> 32;
  return H ? H : 1;
}

void hexDump(const std::vector<uint8_t> &Code) {
  for (size_t I = 0; I < Code.size(); ++I)
    std::printf("%02x%s", Code[I],
                (I + 1) % 16 == 0 || I + 1 == Code.size() ? "\n" : " ");
}

void reportDisagreement(const fuzz::OracleReport &Rep, uint64_t WorkloadSeed,
                        uint64_t Iter) {
  std::printf("DISAGREEMENT at seed=%llu iter=%llu (reference=%s)\n",
              static_cast<unsigned long long>(WorkloadSeed),
              static_cast<unsigned long long>(Iter),
              Rep.Reference.Ok ? "ACCEPT" : "REJECT");
  for (const auto &D : Rep.Disagreements)
    std::printf("  path %-28s %s\n", D.Path.c_str(), D.Detail.c_str());
}

/// Compares an engine's instrumented result against the reference
/// result for the same bytes: verdict, reject reason, and the three
/// instrumented bitmaps must all match bit-for-bit. Returns a
/// description of the first divergence, or "" on agreement. Shared by
/// the --patches mode (incremental vs full) and the --fused mode
/// (fused vs legacy).
std::string comparePatchVerdicts(const core::CheckResult &Got,
                                 const core::CheckResult &Ref) {
  if (Got.Ok != Ref.Ok)
    return "verdict differs (got " +
           std::string(Got.Ok ? "ACCEPT" : "REJECT") + ", reference " +
           std::string(Ref.Ok ? "ACCEPT" : "REJECT") + ")";
  if (Got.Reason != Ref.Reason)
    return std::string("reject reason differs (got ") +
           core::rejectReasonName(Got.Reason) + ", reference " +
           core::rejectReasonName(Ref.Reason) + ")";
  if (Got.Valid != Ref.Valid)
    return "Valid bitmap differs";
  if (Got.Target != Ref.Target)
    return "Target bitmap differs";
  if (Got.PairJmp != Ref.PairJmp)
    return "PairJmp bitmap differs";
  return "";
}

/// The dirty rule's promise, checked directly: every chunk scan the
/// incremental verifier keeps for \p E equals a fresh scan of the
/// current bytes. Verdicts do not show a stale scan: the join checks
/// the whole image when the scans are out of sync, and a scan an
/// overhang write leaves in sync meets a successor whose fresh scan
/// fails (DESIGN.md §12.1). Returns the first stale chunk, or -1.
int64_t staleChunk(const core::FusedPolicy &P, const incr::ImageEntry &E) {
  core::ShardScan Fresh;
  std::vector<uint32_t> KeptStarts, FreshStarts;
  for (uint32_t C = 0; C < E.numChunks(); ++C) {
    const core::ShardScan &Kept = E.Chunks[C];
    Fresh.reset(Kept.Begin, Kept.End);
    core::scanShard(P, E.Bytes.data(), E.size(), Fresh);
    KeptStarts.clear();
    FreshStarts.clear();
    Kept.forEachStart([&](uint32_t Q) { KeptStarts.push_back(Q); });
    Fresh.forEachStart([&](uint32_t Q) { FreshStarts.push_back(Q); });
    if (Kept.Failed != Fresh.Failed ||
        (!Fresh.Failed && Kept.StopPos != Fresh.StopPos) ||
        KeptStarts != FreshStarts || Kept.TargetPos != Fresh.TargetPos ||
        Kept.PairJmpPos != Fresh.PairJmpPos)
      return C;
  }
  return -1;
}

/// A patch that keeps an accepted image accepted: one whole bundle
/// rewritten with nops (the last, partial bundle up to the image end).
/// In an accepted image every bundle starts and ends on an instruction
/// boundary, so the chain stays in sync, every byte of the bundle
/// becomes a valid target, and only the bundle's own jumps go.
fuzz::PatchOp nopBundle(const std::vector<uint8_t> &Code, Rng &R) {
  const uint32_t Size = uint32_t(Code.size());
  const uint32_t Bundles = (Size + core::BundleSize - 1) / core::BundleSize;
  fuzz::PatchOp P;
  P.Offset = uint32_t(R.below(Bundles)) * core::BundleSize;
  P.Bytes.assign(std::min(core::BundleSize, Size - P.Offset), 0x90);
  return P;
}

/// A patch that completes, from the successor chunk's side alone, an
/// instruction the predecessor chunk's scan ended on. When the chain of
/// the accepted image (\p Ref) ends a mask `and r, -32` (83 E0+r E0)
/// exactly on a chunk base, it writes the matching `jmp *r` (FF E0+r)
/// at the base and nowhere else: the masked pair now straddles the
/// base, and only the predecessor's read-window overhang sees the
/// write. Without such a mask it plants one as the last three bytes of
/// a nop bundle ending on a random chunk base (the image stays
/// accepted) for a later step to complete. An image with no chunk base
/// gets a plain nop bundle.
fuzz::PatchOp baseCompletion(const std::vector<uint8_t> &Code,
                             const core::CheckResult &Ref, uint32_t ChunkBytes,
                             Rng &R) {
  const uint32_t Size = uint32_t(Code.size());
  // Chunk bases with room after them for the jump half.
  const uint32_t Bases = Size >= 2 ? (Size - 2) / ChunkBytes : 0;
  if (Bases == 0)
    return nopBundle(Code, R);
  fuzz::PatchOp P;
  for (uint32_t K = 1; K <= Bases; ++K) {
    const uint32_t B = K * ChunkBytes;
    const uint8_t Reg = Code[B - 2] & 7;
    if (Ref.Valid[B - 3] && Code[B - 3] == 0x83 &&
        (Code[B - 2] & 0xF8) == 0xE0 && Code[B - 1] == 0xE0 && Reg != 4) {
      P.Offset = B;
      P.Bytes = {0xFF, uint8_t(0xE0 | Reg)};
      return P;
    }
  }
  static const uint8_t Regs[] = {0, 1, 2, 3, 5, 6, 7}; // no esp pairs
  const uint8_t Reg = Regs[R.below(std::size(Regs))];
  P.Offset = uint32_t(R.range(1, Bases)) * ChunkBytes - core::BundleSize;
  P.Bytes.assign(core::BundleSize, 0x90);
  P.Bytes[core::BundleSize - 3] = 0x83;
  P.Bytes[core::BundleSize - 2] = uint8_t(0xE0 | Reg);
  P.Bytes[core::BundleSize - 1] = 0xE0;
  return P;
}

/// The incremental-vs-full differential: a long-lived image mutated in
/// place, re-verified incrementally after every step and cross-checked
/// against a full sequential check of the same bytes. Chunk geometry
/// rotates per image (including the minimum, one bundle per chunk, the
/// seam-heaviest case) and a quarter of the images are tail-truncated
/// to a non-bundle-multiple size so final-partial-chunk handling is in
/// the loop. A third of the steps, chosen by the step seed, apply a
/// batch of 2-4 patches before one reverify, so the dirty list's
/// deduplication and the multi-range splice are in the loop too.
///
/// Structured patches mostly reject, and only a step that starts from
/// an accepted image can take the splice, so two more step shapes keep
/// the splice in the loop: three quarters of the steps that start from
/// a reject put back the image's last accepted bytes, and half the
/// steps that start from an accept nop whole bundles instead of drawing
/// structured patches. Half of those nop-bundle steps take the
/// base-completion shape instead (`baseCompletion`), which puts the
/// dirty rule's read-window overhang in the loop. After every step the
/// verifier's kept chunk scans are also held to fresh scans
/// (`staleChunk`), since a stale scan need not change a verdict. The
/// summary counts the steps that started from an accepted image and
/// the steps that spliced, and the mode fails when none spliced.
int runPatchDifferential(const CliOptions &O, svc::Metrics &M) {
  const core::PolicyTables &T = core::policyTables();
  core::RockSalt Full(T);
  static const uint32_t ChunkRotation[] = {512, 32, 256, 1024};
  const uint64_t BatchStream = 0xBA7Cull;
  const uint64_t RevertStream = 0x5EB7ull;
  const uint64_t NopStream = 0x90B0ull;

  uint64_t Disagreements = 0;
  uint64_t StepsRun = 0, BatchedSteps = 0, FromAccepted = 0, Spliced = 0;

  for (uint64_t I = 0; I < O.Images; ++I) {
    uint64_t Seed = O.BaseSeed + I;
    // The per-image rotations index by the seed alone (equal to I at the
    // default base seed), so the one-image repro line rebuilds the same
    // image, truncation and chunk geometry.
    const uint64_t Rot = Seed - 1;
    nacl::WorkloadOptions WO;
    WO.TargetBytes = O.Size + uint32_t(Rot % 5) * 128;
    WO.Seed = Seed;
    std::vector<uint8_t> Bytes = nacl::generateWorkload(WO);
    Rng ImgRng(mutationSeed(Seed, 0));
    if (Rot % 4 == 3 && Bytes.size() > core::BundleSize)
      Bytes.resize(Bytes.size() - 1 - ImgRng.below(core::BundleSize - 1));
    if (Bytes.empty())
      continue;

    incr::IncrementalOptions IO;
    IO.ChunkBytes = ChunkRotation[Rot % std::size(ChunkRotation)];
    incr::IncrementalVerifier Incr(T, IO, &M);

    incr::ImageId Id = Incr.open(Bytes);
    core::CheckResult Ref = Full.check(Bytes);
    std::string Diff = comparePatchVerdicts(Incr.lastCheck(Id), Ref);
    if (!Diff.empty()) {
      ++Disagreements;
      std::printf("PATCH DISAGREEMENT at image-seed=%llu step=open: %s\n",
                  static_cast<unsigned long long>(Seed), Diff.c_str());
    }
    // The bytes of the image's last accepted state, if it had one.
    std::vector<uint8_t> LastAccepted;
    if (Ref.Ok)
      LastAccepted = Bytes;

    std::vector<fuzz::PatchOp> Batch;
    for (uint64_t Step = 1; Step <= O.Steps; ++Step) {
      Rng StepRng(mutationSeed(Seed, Step));
      // The batch size and the two splice-reaching shapes each have a
      // stream of their own: a structured step draws exactly the
      // patches it would draw without them.
      Rng BatchRng(mutationSeed(Seed, Step) ^ BatchStream);
      Rng RevertRng(mutationSeed(Seed, Step) ^ RevertStream);
      Rng NopRng(mutationSeed(Seed, Step) ^ NopStream);
      uint64_t Count = BatchRng.below(3) == 0 ? BatchRng.range(2, 4) : 1;
      const bool Revert =
          !Ref.Ok && !LastAccepted.empty() && RevertRng.chance(3, 4);
      const bool Nop = Ref.Ok && NopRng.flip();
      // A second draw from the same stream: xorshift64*'s low output
      // bit is linear in the seed, so a fresh stream seeded like the
      // ones above would flip in lockstep with NopRng's first draw.
      const bool Completion = Nop && NopRng.flip();
      const char *Shape = Revert       ? "revert"
                          : Completion ? "base-completion"
                          : Nop        ? "nop-bundle"
                                       : nullptr;
      FromAccepted += Ref.Ok;
      Batch.clear();
      auto Apply = [&](fuzz::PatchOp P) {
        for (size_t B = 0; B < P.Bytes.size(); ++B)
          Bytes[P.Offset + B] = P.Bytes[B];
        Incr.patchBytes(Id, P.Offset, P.Bytes.data(),
                        uint32_t(P.Bytes.size()));
        Batch.push_back(std::move(P));
      };
      if (Revert) {
        // One patch over the span where the bytes left the accepted
        // state (a reject's bytes differ from every accepted state's).
        uint32_t Lo = 0, Hi = uint32_t(Bytes.size());
        while (Lo < Hi && Bytes[Lo] == LastAccepted[Lo])
          ++Lo;
        while (Hi > Lo && Bytes[Hi - 1] == LastAccepted[Hi - 1])
          --Hi;
        fuzz::PatchOp P;
        P.Offset = Lo;
        P.Bytes.assign(LastAccepted.begin() + Lo, LastAccepted.begin() + Hi);
        if (Lo < Hi)
          Apply(std::move(P));
      } else if (Completion) {
        Apply(baseCompletion(Bytes, Ref, IO.ChunkBytes, NopRng));
      } else {
        // Each patch is drawn against the bytes the previous one left.
        for (uint64_t K = 0; K < Count; ++K)
          Apply(Nop ? nopBundle(Bytes, NopRng)
                    : fuzz::nextStructuredPatch(Bytes, StepRng));
        BatchedSteps += Count > 1;
      }
      Spliced += Incr.reverify(Id).Spliced;
      ++StepsRun;
      Ref = Full.check(Bytes);
      if (Ref.Ok)
        LastAccepted = Bytes;
      Diff = comparePatchVerdicts(Incr.lastCheck(Id), Ref);
      const int64_t Stale =
          Diff.empty() ? staleChunk(Full.fused(), *Incr.store().get(Id)) : -1;
      if (Stale >= 0)
        Diff = "chunk " + std::to_string(Stale) +
               "'s kept scan differs from a fresh scan";
      if (!Diff.empty()) {
        ++Disagreements;
        std::printf("PATCH DISAGREEMENT at image-seed=%llu step=%llu "
                    "(chunk=%u): %s\n",
                    static_cast<unsigned long long>(Seed),
                    static_cast<unsigned long long>(Step), IO.ChunkBytes,
                    Diff.c_str());
        for (const fuzz::PatchOp &P : Batch)
          std::printf("  patch: %s at %u, %zu bytes\n",
                      Shape ? Shape : fuzz::patchKindName(P.Kind), P.Offset,
                      P.Bytes.size());
        std::printf("  repro: --patches --images 1 --base-seed %llu "
                    "--steps %llu --size %u\n",
                    static_cast<unsigned long long>(Seed),
                    static_cast<unsigned long long>(Step), O.Size);
        std::printf("  image (%zu bytes):\n", Bytes.size());
        hexDump(Bytes);
      }
    }
    Incr.close(Id);
  }

  std::printf("fuzz_differential --patches: %llu images, %llu patch steps "
              "(%llu batched, %llu from an accepted image, %llu spliced), "
              "%llu disagreements (%llu chunks rescanned)\n",
              static_cast<unsigned long long>(O.Images),
              static_cast<unsigned long long>(StepsRun),
              static_cast<unsigned long long>(BatchedSteps),
              static_cast<unsigned long long>(FromAccepted),
              static_cast<unsigned long long>(Spliced),
              static_cast<unsigned long long>(Disagreements),
              static_cast<unsigned long long>(M.ShardsScanned.get()));
  if (O.Stats)
    std::fputs(M.dump().c_str(), stdout);
  // Structured patches alone mostly leave the image rejected, where
  // every step is a full merge: a run that never spliced checked the
  // splice on nothing.
  if (StepsRun && !Spliced) {
    std::printf("PATCH FAILURE: no step took the splice\n");
    return 1;
  }
  return Disagreements ? 1 : 0;
}

/// The three-engine lint differential: long-lived images mutated in
/// place, and after every patch the sequential lint, the shard-derived
/// lint (rotating shard counts), and the incrementally maintained lint
/// must all render byte-identical reports. Chunk geometry rotates like
/// the patch differential's; a quarter of the images are tail-truncated
/// so incomplete-parse lint states stay in the loop. Also counts, per
/// structured-patch kind, how many steps actually flipped the
/// diagnostic counts — the coverage signal for the lint-directed kinds.
int runLintDifferential(const CliOptions &O, svc::Metrics &M) {
  const core::PolicyTables &T = core::policyTables();
  const core::FusedPolicy &FP = core::fusedPolicyTables();
  static const uint32_t ChunkRotation[] = {512, 32, 256, 1024};
  static const uint32_t ShardRotation[] = {1, 2, 3, 5, 8};
  static const fuzz::PatchKind AllKinds[] = {
      fuzz::PatchKind::BundleLocalEdit,  fuzz::PatchKind::SeamStraddle,
      fuzz::PatchKind::MaskedPairSplit,  fuzz::PatchKind::RandomBytes,
      fuzz::PatchKind::DeadPairRevive,   fuzz::PatchKind::CallSeamMisalign,
      fuzz::PatchKind::BranchIntoPair};

  uint64_t Disagreements = 0;
  uint64_t Compared = 0;
  uint64_t Flipped[std::size(AllKinds)] = {};
  uint64_t Drawn[std::size(AllKinds)] = {};

  auto ReportLintDiff = [&](uint64_t Seed, uint64_t Step, const char *Engine,
                            const std::vector<uint8_t> &Bytes) {
    ++Disagreements;
    std::printf("LINT DISAGREEMENT at image-seed=%llu step=%llu: %s render "
                "differs from sequential lintImage\n",
                static_cast<unsigned long long>(Seed),
                static_cast<unsigned long long>(Step), Engine);
    std::printf("  repro: --lint --images 1 --base-seed %llu --steps %llu "
                "--size %u\n",
                static_cast<unsigned long long>(Seed),
                static_cast<unsigned long long>(Step), O.Size);
    std::printf("  image (%zu bytes):\n", Bytes.size());
    hexDump(Bytes);
  };

  for (uint64_t I = 0; I < O.Images; ++I) {
    uint64_t Seed = O.BaseSeed + I;
    // Geometry indexes by the seed alone, as in the patch differential,
    // so the one-image repro line rebuilds the same image, truncation,
    // chunk size and shard counts.
    const uint64_t Rot = Seed - 1;
    nacl::WorkloadOptions WO;
    WO.TargetBytes = O.Size + uint32_t(Rot % 5) * 128;
    WO.Seed = Seed;
    std::vector<uint8_t> Bytes = nacl::generateWorkload(WO);
    Rng ImgRng(mutationSeed(Seed, 0));
    if (Rot % 4 == 3 && Bytes.size() > core::BundleSize)
      Bytes.resize(Bytes.size() - 1 - ImgRng.below(core::BundleSize - 1));
    if (Bytes.empty())
      continue;

    incr::IncrementalOptions IO;
    IO.ChunkBytes = ChunkRotation[Rot % std::size(ChunkRotation)];
    incr::IncrementalVerifier Incr(T, IO, &M);
    analysis::IncrementalLinter Lint(T, &M);

    incr::ImageId Id = Incr.open(Bytes);
    Lint.open(Id, Bytes.data(), uint32_t(Bytes.size()), IO.ChunkBytes);

    analysis::CfgLintResult Seq = analysis::lintImage(T, Bytes);
    std::string SeqRender = Seq.render();
    uint32_t PrevE = Seq.Errors, PrevW = Seq.Warnings, PrevN = Seq.Notes;

    for (uint64_t Step = 0; Step <= O.Steps; ++Step) {
      if (Step) {
        Rng StepRng(mutationSeed(Seed, Step));
        fuzz::PatchOp P = fuzz::nextStructuredPatch(Bytes, StepRng);
        for (size_t B = 0; B < P.Bytes.size(); ++B)
          Bytes[P.Offset + B] = P.Bytes[B];
        incr::IncrResult R =
            Incr.patch(Id, P.Offset, P.Bytes.data(), uint32_t(P.Bytes.size()));
        Lint.relint(Id, Bytes.data(), uint32_t(Bytes.size()), R);
        Seq = analysis::lintImage(T, Bytes);
        SeqRender = Seq.render();
        ++Drawn[size_t(P.Kind)];
        if (Seq.Errors != PrevE || Seq.Warnings != PrevW || Seq.Notes != PrevN)
          ++Flipped[size_t(P.Kind)];
        PrevE = Seq.Errors;
        PrevW = Seq.Warnings;
        PrevN = Seq.Notes;
      }

      uint32_t Shards =
          ShardRotation[(Rot + Step) % std::size(ShardRotation)];
      analysis::CfgLintResult Shd = analysis::lintImageFromShards(
          FP, Bytes.data(), uint32_t(Bytes.size()), Shards, &M);
      ++Compared;
      if (Shd.render() != SeqRender || Shd.Errors != Seq.Errors ||
          Shd.Warnings != Seq.Warnings || Shd.Notes != Seq.Notes)
        ReportLintDiff(Seed, Step, "shard-derived lint", Bytes);
      if (Lint.render(Id) != SeqRender)
        ReportLintDiff(Seed, Step, "incremental lint", Bytes);
    }
    Lint.close(Id);
    Incr.close(Id);
  }

  std::printf("fuzz_differential --lint: %llu images, %llu lint comparisons "
              "x3 engines, %llu disagreements (incr relints %llu, fast "
              "paths %llu)\n",
              static_cast<unsigned long long>(O.Images),
              static_cast<unsigned long long>(Compared),
              static_cast<unsigned long long>(Disagreements),
              static_cast<unsigned long long>(M.LintIncrRelints.get()),
              static_cast<unsigned long long>(M.LintIncrFastPath.get()));
  std::printf("  diag flips by patch kind:");
  for (size_t K = 0; K < std::size(AllKinds); ++K)
    std::printf(" %s %llu/%llu%s", fuzz::patchKindName(AllKinds[K]),
                static_cast<unsigned long long>(Flipped[K]),
                static_cast<unsigned long long>(Drawn[K]),
                K + 1 < std::size(AllKinds) ? "," : "\n");
  if (O.Stats)
    std::fputs(M.dump().c_str(), stdout);
  return Disagreements ? 1 : 0;
}

/// Truncates a copy of \p Img by 1..Bundle-1 bytes when it is longer
/// than one bundle, so the image ends mid-bundle and usually
/// mid-instruction.
std::vector<uint8_t> truncateTail(std::vector<uint8_t> Img, uint32_t Bundle,
                                  Rng &R) {
  if (Img.size() > Bundle)
    Img.resize(Img.size() - 1 - R.below(Bundle - 1));
  return Img;
}

/// The fused-vs-reference lockstep for both ISAs. Every mutated x86
/// image runs through the reference walk (`checkLegacy`) and through
/// the production driver three ways — the sequential instrumented
/// check, the bare Figure-5 boolean, and the fused shard scan +
/// seam-aware merge under rotating shard counts (so the sweep's stop
/// at a shard limit is exercised, not just image ends). Every MIPS
/// image (fuzz/MipsGen.h, same seed and iteration) runs through
/// `checkMipsReference` and the fused `checkMips`. All fused results
/// must be bit-identical to the reference: verdict, reject reason, and
/// the Valid/Target/PairJmp bitmaps. A quarter of the iterations
/// tail-truncate the image to a non-bundle-multiple size so the sweep's
/// image-end exit and truncated-instruction rejects stay in the loop.
/// The byte classes the lanes branch on are decided over all inputs by
/// the policy audit's `fused-classes` obligation; this loop samples the
/// engines that use them.
int runFusedDifferential(const CliOptions &O, svc::Metrics &M) {
  const core::PolicyTables &T = core::policyTables();
  const core::FusedPolicy &FP = core::fusedPolicyTables();
  const core::PolicyTables &MipsT = *mips::mipsTableEntry().Tables;
  core::RockSalt Fused(FP);
  static const uint32_t ShardRotation[] = {1, 2, 3, 5, 8};
  // Separates the MIPS Rng streams from the x86 ones of the same
  // (seed, iteration).
  const uint64_t MipsStream = 0x3195ull;

  uint64_t Disagreements = 0;
  uint64_t ImagesRun = 0;
  uint64_t MipsAccepted = 0; // one MIPS image per x86 image
  std::vector<core::ShardScan> Shards; // reused scratch

  auto ReportFusedDiff = [&](uint64_t Seed, uint64_t Iter, const char *Path,
                             const std::string &Detail,
                             const std::vector<uint8_t> &Img) {
    ++Disagreements;
    std::printf("FUSED DISAGREEMENT at seed=%llu iter=%llu: %s: %s\n",
                static_cast<unsigned long long>(Seed),
                static_cast<unsigned long long>(Iter), Path, Detail.c_str());
    std::printf("  repro: --fused --seeds 1 --base-seed %llu --iters %llu "
                "--size %u\n",
                static_cast<unsigned long long>(Seed),
                static_cast<unsigned long long>(Iter), O.Size);
    std::printf("  image (%zu bytes):\n", Img.size());
    hexDump(Img);
  };

  for (uint64_t S = 0; S < O.Seeds; ++S) {
    uint64_t WorkloadSeed = O.BaseSeed + S;
    nacl::WorkloadOptions WO;
    WO.TargetBytes = O.Size;
    WO.Seed = WorkloadSeed;
    std::vector<uint8_t> Base = nacl::generateWorkload(WO);
    std::vector<uint8_t> Cur = Base;
    Rng MipsGenRng(mutationSeed(WorkloadSeed, 0) ^ MipsStream);
    std::vector<uint8_t> MipsBase = fuzz::generateMipsImage(O.Size, MipsGenRng);
    std::vector<uint8_t> MipsCur = MipsBase;

    for (uint64_t Iter = 0; Iter <= O.Iters; ++Iter) {
      if (Iter) {
        if (Iter % 8 == 1) {
          Cur = Base;
          MipsCur = MipsBase;
        }
        Rng MutRng(mutationSeed(WorkloadSeed, Iter));
        Cur = fuzz::mutateStructured(Cur, MutRng);
        Rng MipsRng(mutationSeed(WorkloadSeed, Iter) ^ MipsStream);
        MipsCur = fuzz::mutateMipsImage(MipsCur, MipsRng);
      }
      Rng JitRng(mutationSeed(WorkloadSeed, Iter) ^ 0xF05EDull);
      bool Truncate = Iter % 4 == 3;
      std::vector<uint8_t> Img =
          Truncate ? truncateTail(Cur, core::BundleSize, JitRng) : Cur;
      uint32_t Size = uint32_t(Img.size());
      ++ImagesRun;

      std::vector<uint8_t> MipsImg =
          Truncate ? truncateTail(MipsCur, mips::MipsBundleSize, JitRng)
                   : MipsCur;
      core::CheckResult MipsRef = mips::checkMipsReference(
          MipsT, MipsImg.data(), uint32_t(MipsImg.size()));
      MipsAccepted += MipsRef.Ok;
      std::string MipsDiff = comparePatchVerdicts(
          mips::checkMips(MipsImg.data(), uint32_t(MipsImg.size())), MipsRef);
      if (!MipsDiff.empty())
        ReportFusedDiff(WorkloadSeed, Iter, "mips fused check", MipsDiff,
                        MipsImg);

      core::CheckResult Ref = core::checkLegacy(T, Img.data(), Size);

      std::string Diff = comparePatchVerdicts(Fused.check(Img), Ref);
      if (!Diff.empty())
        ReportFusedDiff(WorkloadSeed, Iter, "fused check", Diff, Img);

      if (core::verifyImage(FP, Img.data(), Size) != Ref.Ok)
        ReportFusedDiff(WorkloadSeed, Iter, "fused verifyImage",
                        Ref.Ok ? "verdict REJECT (reference ACCEPT)"
                               : "verdict ACCEPT (reference REJECT)",
                        Img);

      // Indexed by the seed, not the loop index, so the one-seed repro
      // line rebuilds the same shard count.
      uint32_t NumShards =
          ShardRotation[(WorkloadSeed - 1 + Iter) % std::size(ShardRotation)];
      core::partitionShards(Size, NumShards, Shards);
      for (core::ShardScan &Sh : Shards)
        core::scanShard(FP, Img.data(), Size, Sh);
      Diff = comparePatchVerdicts(
          core::mergeShardScans(FP, Img.data(), Size, Shards), Ref);
      if (!Diff.empty()) {
        char Path[48];
        std::snprintf(Path, sizeof(Path), "fused shard merge [shards=%u]",
                      NumShards);
        ReportFusedDiff(WorkloadSeed, Iter, Path, Diff, Img);
      }
    }
  }

  std::printf("fuzz_differential --fused: %llu x86 images x3 fused paths, "
              "%llu mips images (%.1f%% accepted), %llu disagreements "
              "(seeds %llu..%llu, %llu iters each, %u bytes)\n",
              static_cast<unsigned long long>(ImagesRun),
              static_cast<unsigned long long>(ImagesRun),
              ImagesRun ? 100.0 * double(MipsAccepted) / double(ImagesRun)
                        : 0.0,
              static_cast<unsigned long long>(Disagreements),
              static_cast<unsigned long long>(O.BaseSeed),
              static_cast<unsigned long long>(O.BaseSeed + O.Seeds - 1),
              static_cast<unsigned long long>(O.Iters), O.Size);
  if (O.Stats)
    std::fputs(M.dump().c_str(), stdout);
  // A generator whose images are all rejected would make the MIPS leg
  // vacuous: every walk would stop at the first bad word.
  if (ImagesRun && !MipsAccepted) {
    std::printf("FUSED FAILURE: no MIPS image was accepted\n");
    return 1;
  }
  return Disagreements ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions O;
  if (!parseArgs(Argc, Argv, O))
    return 2;

  if (O.LintDiff) {
    svc::Metrics M;
    return runLintDifferential(O, M);
  }

  if (O.Patches) {
    svc::Metrics M;
    return runPatchDifferential(O, M);
  }

  if (O.FusedDiff) {
    svc::Metrics M;
    return runFusedDifferential(O, M);
  }

  svc::Metrics M;
  fuzz::OracleOptions OO;
  OO.RunSlow = O.RunSlow;
  OO.M = &M;
  fuzz::DifferentialOracle Oracle(OO);

  uint64_t Disagreements = 0;

  for (uint64_t S = 0; S < O.Seeds; ++S) {
    uint64_t WorkloadSeed = O.BaseSeed + S;
    nacl::WorkloadOptions WO;
    WO.TargetBytes = O.Size;
    WO.Seed = WorkloadSeed;
    std::vector<uint8_t> Base = nacl::generateWorkload(WO);
    std::vector<uint8_t> Cur = Base;

    // Iteration 0 is the unmutated workload; it must be accepted by all
    // paths, so a disagreement here is as reportable as any other.
    for (uint64_t Iter = 0; Iter <= O.Iters; ++Iter) {
      if (Iter) {
        // Restart from the base image every 8 iterations so mutations
        // compound a little but never drift into pure noise.
        if (Iter % 8 == 1)
          Cur = Base;
        Rng MutRng(mutationSeed(WorkloadSeed, Iter));
        Cur = fuzz::mutateStructured(Cur, MutRng);
      }

      fuzz::OracleReport Rep = Oracle.run(Cur);
      if (Rep.agree())
        continue;

      ++Disagreements;
      reportDisagreement(Rep, WorkloadSeed, Iter);
      std::printf("  repro: %s --seeds 1 --base-seed %llu --iters %llu "
                  "--size %u%s\n",
                  Argv[0], static_cast<unsigned long long>(WorkloadSeed),
                  static_cast<unsigned long long>(Iter), O.Size,
                  O.RunSlow ? "" : " --no-slow");

      std::vector<uint8_t> Repro = Cur;
      if (O.Minimize) {
        fuzz::MinimizeOptions MO;
        MO.M = &M;
        fuzz::MinimizeResult MR = fuzz::minimizeImage(
            Repro, [&](const std::vector<uint8_t> &C) {
              return Oracle.disagrees(C);
            },
            MO);
        std::printf("  minimized %zu -> %zu bytes in %llu evals\n",
                    Repro.size(), MR.Image.size(),
                    static_cast<unsigned long long>(MR.Evals));
        Repro = std::move(MR.Image);
      }
      std::printf("  image (%zu bytes):\n", Repro.size());
      hexDump(Repro);
      if (!O.CorpusDir.empty()) {
        std::string Path =
            fuzz::writeReproducer(O.CorpusDir, "disagree", Repro);
        if (!Path.empty())
          std::printf("  reproducer written: %s\n", Path.c_str());
        else
          std::fprintf(stderr, "  error: could not write reproducer to %s\n",
                       O.CorpusDir.c_str());
      }
    }
  }

  std::printf("fuzz_differential: %llu images, %llu disagreements "
              "(seeds %llu..%llu, %llu iters each, %u bytes)\n",
              static_cast<unsigned long long>(M.OracleRuns.get()),
              static_cast<unsigned long long>(Disagreements),
              static_cast<unsigned long long>(O.BaseSeed),
              static_cast<unsigned long long>(O.BaseSeed + O.Seeds - 1),
              static_cast<unsigned long long>(O.Iters),
              O.Size);
  if (Disagreements) {
    // Every seed involved, for one-line triage in CI logs.
    std::printf("seeds used:");
    for (uint64_t S = 0; S < O.Seeds; ++S)
      std::printf(" %llu", static_cast<unsigned long long>(O.BaseSeed + S));
    std::printf("\n");
  }
  if (O.Stats)
    std::fputs(M.dump().c_str(), stdout);

  return Disagreements ? 1 : 0;
}
