//===- e2ebench/Workloads.h - The three closed-loop workloads --*- C++ -*-===//
///
/// \file
/// module_load, jit_patch and service_mix. Each is generated from a seed
/// by a separate `gen` process (inputs plus known answers), loaded from
/// that file without touching the library, set up in a fresh process,
/// run closed-loop for a timed window, and checked against its known
/// answers. Any disagreement ends the process through wrongAnswer().
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include "Common.h"

#include <memory>
#include <string>
#include <vector>

namespace e2e {

extern const char *const WorkloadNames[3];

/// Generates the inputs and known answers of \p Workload for \p Seed.
std::vector<uint8_t> generateInputs(const std::string &Workload, uint64_t Seed);

class Workload {
public:
  virtual ~Workload() = default;

  /// Input properties, deterministic for a seed (one JSON object).
  virtual std::string characterisation() const = 0;
  /// Everything from a fresh process to the first timed op.
  virtual void setup(Tracer &T) = 0;
  /// The closed loop for \p Seconds; checks every verdict.
  virtual Window run(double Seconds, Tracer &T) = 0;
  /// End-of-run checks (state that only exists after the loop).
  virtual void finish() = 0;
  /// Traced runs only: extra layer probes plus the per-layer metrics
  /// derived from \p T's spans.
  virtual void layerMetrics(Tracer &T, std::vector<Metric> &Out) = 0;
  /// Self-test hook: falsifies one known answer the next run will meet.
  virtual void corruptOneAnswer() = 0;
};

/// Loads \p Name's input file. \p WorkDir holds run-time files (the
/// service's socket).
std::unique_ptr<Workload> loadWorkload(const std::string &Name,
                                       const std::string &Path,
                                       const std::string &WorkDir);

// Per-workload factories (one source file each).
std::vector<uint8_t> generateModuleLoad(uint64_t Seed);
std::vector<uint8_t> generateJitPatch(uint64_t Seed);
std::vector<uint8_t> generateServiceMix(uint64_t Seed);
std::unique_ptr<Workload> loadModuleLoad(Reader &R);
std::unique_ptr<Workload> loadJitPatch(Reader &R);
std::unique_ptr<Workload> loadServiceMix(Reader &R,
                                         const std::string &WorkDir);

//===----------------------------------------------------------------------===//
// Generator helpers shared by the x86 workloads
//===----------------------------------------------------------------------===//

/// A compliant x86 image of exactly \p Bytes bytes (generated short,
/// then nop-padded), checked against the legacy reference engine.
std::vector<uint8_t> accurateImage(uint64_t Seed, uint32_t Bytes,
                                   uint32_t DirectJumpRate, uint32_t CallRate,
                                   uint32_t MaskedJumpRate);

/// Bundles an image may be rewritten in place without changing its
/// verdict: every chain step inside is NoControlFlow and no direct jump
/// lands strictly inside. Returned as bundle start offsets.
std::vector<uint32_t> rewritableBundles(const std::vector<uint8_t> &Img);

/// A pool of \p N distinct 32-byte straight-line bundles (random legal
/// instructions, nop-padded), each checked alone by the legacy engine.
std::vector<std::vector<uint8_t>> straightLineBundles(uint64_t Seed,
                                                      uint32_t N);

/// A reject made from the accepted \p Img by nacl::applyAttack, trying
/// the attack kinds in turn from \p FirstKind until the legacy reference
/// engine rejects; \p Reason receives its reject reason.
std::vector<uint8_t> attacked(const std::vector<uint8_t> &Img,
                              unsigned FirstKind, uint64_t Seed,
                              uint8_t &Reason);

/// Instruction-start shares by fused byte class over accepted images:
/// {safe (run-skip lane), exceptional (full chain), total starts}.
struct StartShares {
  uint64_t Safe = 0, Exc = 0, Total = 0;
  void add(const std::vector<uint8_t> &Img);
};

} // namespace e2e

#endif // E2EBENCH_WORKLOADS_H
