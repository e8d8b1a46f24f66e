//===- examples/validator_cli.cpp ------------------------------*- C++ -*-===//
//
// An ncval-style command-line validator — the form RockSalt ships in
// for the NaCl runtime (paper section 3.3 modified the ncval tool to
// call RockSalt's verifier). Reads raw code images and reports the
// verdicts of the verifiers in this repository, with optional
// disassembly of the checker's parse.
//
// With --jobs N the verification routes through the service layer: a
// VerifierPool of N workers batch-verifies multiple images (a single
// image is always one sequential RockSalt::check), and --serve sizes its
// pool from it. --stats dumps the service metrics (counters and
// histograms) after the run.
//
// --explain shrinks a rejected image to the minimal byte sequence that
// is still rejected for the same reason (the fuzz harness's
// delta-debugging minimizer) and prints it — the offending construct on
// a nop sled instead of a needle in a 4 KB image — followed by the
// violation families: the k shortest strings each policy table *does*
// accept (regex kShortestAccepted), so the rejection sits next to the
// nearest constructs the policy would have allowed.
//
// --lint recovers the control-flow graph the policy implies for each
// image and prints severity-graded diagnostics (see analysis/CfgLint.h);
// --lint-json prints the same diagnostics machine-readably, one JSON
// object per line (kind, severity, offset, containing CFG node span and
// reaching guard), for editor and CI integration.
// --audit runs the policy meta-verifier over the shipped DFA tables
// (disjointness, decoder inclusion, health, minimization) and exits
// nonzero if any obligation fails.
//
// --isa x86|mips selects which registry entry (core/TableRegistry.h)
// the table-facing modes operate on: --isa mips checks images with the
// MIPS policy checker (mips/MipsPolicy.h), audits the MIPS tables under
// the same 14 obligations, and dumps/loads MIPS-tagged RSTB blobs.
// x86-only diagnostics (--disassemble, --explain, --lint) are rejected
// under --isa mips.
//
// --dump-tables serializes the selected ISA's tables into the versioned
// "RSTB" format (regex/TableIO.h), verifies the in-process round-trip
// is bit-identical, and prints per-table stats plus the content hash.
// --tables-out FILE also writes the blob; --expect-hash HEX exits
// nonzero unless the content hash matches — the CI drift gate. --raw
// dumps the unminimized tables instead (a distinct content hash, used
// by the late-adoption regression gate).
//
// --serve turns the process into the long-running verification service
// (svc/Service.h): framed verify/lint/audit/tables requests over
// stdin/stdout, or over a Unix-domain socket with --socket PATH, where
// the event loop (svc/EventLoop.h) serves every connected client
// concurrently until one sends Shutdown. --connect PATH is the matching
// client: it routes verification (or --lint, --audit, --metrics,
// --shutdown) of the given images through a running server. --tables-from PATH fetches
// the server's policy tables by content hash — with --tables-cache FILE
// a hash match skips the transfer entirely — and adopts them in-process,
// skipping the per-process table rebuild for the rest of the run. When
// PATH is a regular file instead of a socket, the RSTB blob is loaded
// straight from disk (same tag/hash discipline, no server needed); with
// --isa mips either source resolves the MIPS registry entry. Adoption
// happens through the table registry: adopting a table set that differs
// from one already in use is a hard error, never a silent no-op.
// --serve-smoke forks a server child on a private socket, drives a
// mixed verify/lint/audit/tables/malformed-frame session against it,
// cross-checks every response against the in-process one-shot paths,
// and shuts it down cleanly — the CI service gate.
//
// --patch OFF:HEX (repeatable) switches an image into the incremental
// path (src/incr): the image is opened as a mutable handle, each patch
// overwrites bytes in place and re-verifies only the invalidated
// chunks. Locally every incremental verdict is cross-checked against a
// full re-check with both timings printed; with --connect the patches
// are driven through a running server's image-open/patch/image-close
// requests instead. Adding --lint maintains the incremental linter
// beside the verifier: each patch re-lints in O(patch window), locally
// cross-checked against a fresh full lint (both timings printed), and
// over the wire via the patch request's want-lint flag.
//
// Usage:
//   validator_cli <image.bin>... [--disassemble] [--explain] [--lint]
//                                [--lint-json] [--jobs N] [--stats]
//   validator_cli <image.bin>... --patch OFF:HEX [--patch OFF:HEX...]
//                                [--lint] [--stats]
//   validator_cli --selftest [--lint] [--jobs N] [--stats]
//   validator_cli --audit [--isa x86|mips]
//   validator_cli --dump-tables [--isa x86|mips] [--raw]
//                                [--tables-out FILE] [--expect-hash HEX]
//   validator_cli --serve [--socket PATH] [--jobs N] [--stats]
//   validator_cli --connect PATH [<image.bin>...] [--lint] [--audit]
//                                [--patch OFF:HEX...] [--metrics]
//                                [--shutdown]
//   validator_cli --tables-from PATH|FILE [--isa x86|mips]
//                                [--tables-cache FILE] [--expect-hash HEX]
//                                [<image.bin>...]
//   validator_cli --serve-smoke
//
//===----------------------------------------------------------------------===//

#include "analysis/CfgLint.h"
#include "analysis/Dataflow.h"
#include "analysis/PolicyAudit.h"
#include "core/BaselineChecker.h"
#include "core/TableRegistry.h"
#include "core/Verifier.h"
#include "incr/IncrementalVerifier.h"
#include "mips/MipsPolicy.h"
#include "regex/Algebra.h"
#include "regex/TableIO.h"
#include "fuzz/Minimizer.h"
#include "nacl/Mutator.h"
#include "nacl/WorkloadGen.h"
#include "svc/EventLoop.h"
#include "svc/Protocol.h"
#include "svc/Service.h"
#include "svc/VerifierPool.h"
#include "x86/FastDecoder.h"
#include "x86/Printer.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace rocksalt;

namespace {

struct CliOptions {
  std::vector<std::string> Files;
  unsigned Jobs = 0; ///< 0: sequential; >= 1: route through VerifierPool
  bool Stats = false;
  bool Disasm = false;
  bool Explain = false; ///< minimize rejected images to their core
  bool Lint = false;    ///< recover + lint the implied CFG per image
  bool LintJson = false; ///< same diagnostics, one JSON object per line
  bool Audit = false;   ///< meta-verify the shipped policy tables
  std::string Isa = "x86"; ///< registry entry the table modes act on
  bool DumpTables = false; ///< serialize + round-trip the shipped tables
  bool RawTables = false;  ///< with --dump-tables: the unminimized tables
  std::string TablesOut;   ///< optional output path for the blob
  std::string ExpectHash;  ///< optional pinned content hash (CI gate)
  bool Selftest = false;
  bool Serve = false;       ///< run the framed verification service
  std::string SocketPath;   ///< with --serve: listen here instead of stdio
  std::string ConnectPath;  ///< client mode: a running server's socket
  bool MetricsReq = false;  ///< with --connect: scrape the server's metrics
  bool ShutdownServer = false; ///< with --connect: stop the server after
  std::string TablesFrom;   ///< fetch + adopt policy tables from a server
  std::string TablesCache;  ///< local blob cache for the hash negotiation
  bool ServeSmoke = false;  ///< fork a server and drive a mixed session
  std::vector<std::string> PatchSpecs; ///< OFF:HEX overwrites, in order
};

/// One parsed --patch OFF:HEX operand.
struct PatchSpec {
  uint32_t Offset = 0;
  std::vector<uint8_t> Bytes;
};

bool parsePatchSpec(const std::string &S, PatchSpec &Out) {
  size_t Colon = S.find(':');
  if (Colon == std::string::npos || Colon == 0 || Colon + 1 == S.size())
    return false;
  char *End = nullptr;
  unsigned long long Off = std::strtoull(S.c_str(), &End, 0);
  if (End != S.c_str() + Colon || Off > UINT32_MAX)
    return false;
  Out.Offset = uint32_t(Off);
  std::string Hex = S.substr(Colon + 1);
  if (Hex.empty() || Hex.size() % 2)
    return false;
  auto Nibble = [](char C) -> int {
    if (C >= '0' && C <= '9')
      return C - '0';
    if (C >= 'a' && C <= 'f')
      return C - 'a' + 10;
    if (C >= 'A' && C <= 'F')
      return C - 'A' + 10;
    return -1;
  };
  Out.Bytes.clear();
  for (size_t I = 0; I < Hex.size(); I += 2) {
    int Hi = Nibble(Hex[I]), Lo = Nibble(Hex[I + 1]);
    if (Hi < 0 || Lo < 0)
      return false;
    Out.Bytes.push_back(uint8_t(Hi << 4 | Lo));
  }
  return true;
}

// --- Service transport helpers (Unix-domain sockets + framing) ----------

int connectUnix(const std::string &Path) {
  try {
    return svc::connectUnixSocket(Path);
  } catch (const std::exception &) {
    return -1;
  }
}

void writeAllFd(int Fd, const std::vector<uint8_t> &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throw std::runtime_error("write error on service socket");
    }
    Off += size_t(N);
  }
}

void sendFrame(int Fd, svc::proto::MsgKind Kind,
               const std::vector<uint8_t> &Body) {
  std::vector<uint8_t> Out;
  svc::proto::appendFrame(Out, Kind, Body);
  writeAllFd(Fd, Out);
}

/// Client-side frame reassembly over a blocking fd.
class FrameReader {
public:
  explicit FrameReader(int Fd) : Fd(Fd) {}

  svc::proto::Frame next() {
    svc::proto::Frame F;
    while (!svc::proto::parseFrame(Buf.data(), Buf.size(), &Pos, &F)) {
      if (Pos) {
        Buf.erase(Buf.begin(), Buf.begin() + long(Pos));
        Pos = 0;
      }
      uint8_t Tmp[64 * 1024];
      ssize_t N = ::read(Fd, Tmp, sizeof(Tmp));
      if (N < 0) {
        if (errno == EINTR)
          continue;
        throw std::runtime_error("read error on service socket");
      }
      if (N == 0)
        throw std::runtime_error("server closed the connection");
      Buf.insert(Buf.end(), Tmp, Tmp + N);
    }
    return F;
  }

private:
  int Fd;
  std::vector<uint8_t> Buf;
  size_t Pos = 0;
};

/// Receives one frame and insists on \p Want, surfacing server-side
/// ErrorResponse text in the exception.
svc::proto::Frame expectFrame(FrameReader &In, svc::proto::MsgKind Want) {
  svc::proto::Frame F = In.next();
  if (F.Kind == svc::proto::MsgKind::ErrorResponse &&
      Want != svc::proto::MsgKind::ErrorResponse)
    throw std::runtime_error("server error: " +
                             svc::proto::decodeErrorResponse(F.Body));
  if (F.Kind != Want)
    throw std::runtime_error(std::string("expected ") +
                             svc::proto::msgKindName(Want) + ", got " +
                             svc::proto::msgKindName(F.Kind));
  return F;
}

bool readFile(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign((std::istreambuf_iterator<char>(In)),
             std::istreambuf_iterator<char>());
  return true;
}

/// Serializes the selected ISA's tables, proves the round-trip is
/// bit-identical in-process, prints stats + content hash, optionally
/// writes the blob and enforces a pinned hash. Returns a process exit
/// code. With --raw the unminimized tables are dumped instead — a
/// distinct content hash from the registry entry's, which the
/// late-adoption regression gate relies on.
int dumpTables(const CliOptions &Opts) {
  const bool Mips = Opts.Isa == core::IsaMips;
  core::PolicyTables Raw;
  const core::PolicyTables *T;
  std::vector<uint8_t> Blob;
  std::string RegistryHash;
  if (Opts.RawTables) {
    Raw = Mips ? mips::buildMipsPolicyTablesRaw() : core::buildPolicyTablesRaw();
    T = &Raw;
    Blob = core::serializePolicyTables(Raw, Opts.Isa, core::PolicySetNacl);
  } else {
    const core::TableEntry &E =
        Mips ? mips::mipsTableEntry() : core::defaultTableEntry();
    T = E.Tables;
    Blob = E.Blob;
    RegistryHash = E.HashHex;
  }

  core::PolicyTables Back =
      core::deserializePolicyTables(Blob, Opts.Isa, core::PolicySetNacl);
  std::vector<uint8_t> Blob2 =
      core::serializePolicyTables(Back, Opts.Isa, core::PolicySetNacl);
  if (Blob != Blob2) {
    std::fprintf(stderr,
                 "error: serialize/deserialize round-trip is not "
                 "bit-identical (%zu vs %zu bytes)\n",
                 Blob.size(), Blob2.size());
    return 1;
  }

  std::string Hash = re::blobHashHex(Blob);
  if (!RegistryHash.empty() && Hash != RegistryHash) {
    std::fprintf(stderr,
                 "error: registry entry hash %s disagrees with the "
                 "recomputed blob hash %s\n",
                 RegistryHash.c_str(), Hash.c_str());
    return 1;
  }
  std::printf("format:  RSTB v%u, %zu bytes (%s/%s%s)\n",
              re::TableFormatVersion, Blob.size(), Opts.Isa.c_str(),
              core::PolicySetNacl, Opts.RawTables ? ", raw" : "");
  std::printf("tables:  NoControlFlow %zu states, DirectJump %zu states, "
              "MaskedJump %zu states\n",
              T->NoControlFlow.numStates(), T->DirectJump.numStates(),
              T->MaskedJump.numStates());
  std::printf("hash:    %s\n", Hash.c_str());
  std::printf("roundtrip: bit-identical\n");

  if (!Opts.TablesOut.empty()) {
    std::ofstream Out(Opts.TablesOut, std::ios::binary);
    if (!Out ||
        !Out.write(reinterpret_cast<const char *>(Blob.data()), Blob.size())) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.TablesOut.c_str());
      return 1;
    }
    std::printf("wrote:   %s\n", Opts.TablesOut.c_str());
  }

  if (!Opts.ExpectHash.empty() && Opts.ExpectHash != Hash) {
    std::fprintf(stderr,
                 "error: content hash drift\n  expected %s\n  actual   %s\n"
                 "(intentional grammar/format change? refresh the pinned "
                 "hash in tests/CMakeLists.txt and "
                 "tests/policy_table_format_test.cpp)\n",
                 Opts.ExpectHash.c_str(), Hash.c_str());
    return 1;
  }
  return 0;
}

void disassemble(const std::vector<uint8_t> &Code,
                 const core::CheckResult &R) {
  uint32_t Pos = 0;
  while (Pos < Code.size()) {
    if (R.PairJmp.size() > Pos && R.PairJmp[Pos])
      std::printf("        %04x:   (jump half of the masked pair)\n", Pos);
    auto D = x86::fastDecode(Code.data() + Pos, Code.size() - Pos);
    const char *Mark = (Pos % core::BundleSize == 0) ? "|" : " ";
    if (!D) {
      std::printf("      %s %04x:   .byte 0x%02x   <- not decodable\n",
                  Mark, Pos, Code[Pos]);
      Pos += 1;
      continue;
    }
    std::printf("      %s %04x:   %s\n", Mark, Pos,
                x86::printInstr(D->I).c_str());
    Pos += D->Length;
  }
}

/// Escapes \p S into a JSON string literal body.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

/// The machine-readable twin of CfgLintResult::render(): one JSON
/// object per diagnostic per line — kind, severity, byte offset, the
/// containing CFG node's span with its reaching-mask guard (null when
/// the offset falls outside every recovered node), and the detail text.
std::string lintJsonLines(const analysis::CfgLintResult &L) {
  std::string Out;
  char Buf[96];
  for (const analysis::LintDiag &D : L.Diags) {
    Out += "{\"kind\":\"";
    Out += analysis::lintKindName(D.Kind);
    Out += "\",\"severity\":\"";
    Out += analysis::lintSeverityName(D.Sev);
    std::snprintf(Buf, sizeof(Buf), "\",\"offset\":%u,", D.Offset);
    Out += Buf;
    const analysis::CfgNode *N = nullptr;
    for (const analysis::CfgNode &C : L.Nodes)
      if (C.Begin <= D.Offset && D.Offset < C.End) {
        N = &C;
        break;
      }
    if (N) {
      std::snprintf(Buf, sizeof(Buf), "\"node\":{\"begin\":%u,\"end\":%u",
                    N->Begin, N->End);
      Out += Buf;
      size_t Idx = size_t(N - L.Nodes.data());
      uint32_t G =
          Idx < L.Guard.size() ? L.Guard[Idx] : analysis::kGuardUnknown;
      Out += ",\"guard\":";
      if (G == analysis::kGuardUnknown)
        Out += "null";
      else if (G == analysis::kGuardNone)
        Out += "\"none\"";
      else if (G == analysis::kGuardMany)
        Out += "\"many\"";
      else {
        std::snprintf(Buf, sizeof(Buf), "%u", G);
        Out += Buf;
      }
      Out += "},";
    } else {
      Out += "\"node\":null,";
    }
    Out += "\"detail\":\"" + jsonEscape(D.Detail) + "\"}\n";
  }
  return Out;
}

/// The violation families: per policy table, the k shortest strings the
/// table *accepts* in length-then-lex order — shown next to a minimized
/// rejection so the offending bytes sit beside the nearest constructs
/// the policy would have allowed.
void printAcceptedFamilies(unsigned K) {
  const core::PolicyTables &T = core::policyTables();
  const struct {
    const char *Name;
    const re::Dfa *D;
  } Tables[] = {{"NoControlFlow", &T.NoControlFlow},
                {"DirectJump", &T.DirectJump},
                {"MaskedJump", &T.MaskedJump}};
  std::printf("  accepted families (%u shortest per policy table):\n", K);
  for (const auto &N : Tables) {
    std::vector<std::vector<uint8_t>> W = re::kShortestAccepted(*N.D, K);
    std::printf("    %-14s", N.Name);
    for (size_t I = 0; I < W.size(); ++I) {
      std::printf("%s", I ? "  |" : " ");
      for (uint8_t B : W[I])
        std::printf(" %02x", B);
    }
    std::printf("\n");
  }
}

/// Shrinks a rejected image to the smallest byte sequence RockSalt still
/// rejects for the same reason, and shows it.
void explainRejection(const std::vector<uint8_t> &Code,
                      const core::CheckResult &Full) {
  core::RockSalt V;
  fuzz::MinimizeResult MR = fuzz::minimizeImage(
      Code, [&](const std::vector<uint8_t> &C) {
        core::CheckResult R = V.check(C);
        return !R.Ok && R.Reason == Full.Reason;
      });
  std::printf("  minimal %s reproducer (%zu bytes, from %zu; %llu checks):\n",
              core::rejectReasonName(Full.Reason), MR.Image.size(),
              Code.size(), static_cast<unsigned long long>(MR.Evals));
  std::printf("   ");
  for (uint8_t B : MR.Image)
    std::printf(" %02x", B);
  std::printf("\n");
  disassemble(MR.Image, V.check(MR.Image));
  printAcceptedFamilies(3);
}

/// One image through RockSalt plus the ncval-style baseline, with
/// timings.
int validate(const std::vector<uint8_t> &Code, const CliOptions &Opts,
             svc::Metrics *M) {
  auto T0 = std::chrono::steady_clock::now();
  core::RockSalt V;
  core::CheckResult R = V.check(Code);
  auto T1 = std::chrono::steady_clock::now();
  svc::recordOutcome(
      *M, R, Code.size(),
      uint64_t(std::chrono::nanoseconds(T1 - T0).count()));
  bool Baseline = core::baselineVerify(Code);
  auto T2 = std::chrono::steady_clock::now();

  double RockMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
  double BaseMs = std::chrono::duration<double, std::milli>(T2 - T1).count();

  std::printf("image: %zu bytes (%zu bundles)\n", Code.size(),
              Code.size() / core::BundleSize);
  std::printf("  rocksalt:  %s  (%.3f ms)%s%s\n",
              R.Ok ? "ACCEPT" : "REJECT", RockMs,
              R.Ok ? "" : "  reason: ",
              R.Ok ? "" : core::rejectReasonName(R.Reason));
  std::printf("  baseline:  %s  (%.3f ms)\n",
              Baseline ? "ACCEPT" : "REJECT", BaseMs);
  if (R.Ok != Baseline)
    std::printf("  *** CHECKER DISAGREEMENT — please report ***\n");
  if (Opts.Disasm && !Code.empty())
    disassemble(Code, R);
  if (Opts.Explain && !R.Ok && !Code.empty())
    explainRejection(Code, R);
  if ((Opts.Lint || Opts.LintJson) && !Code.empty()) {
    analysis::CfgLintResult L =
        analysis::lintImage(core::policyTables(), Code, M);
    if (Opts.Lint)
      std::printf("%s", L.render().c_str());
    if (Opts.LintJson)
      std::printf("%s", lintJsonLines(L).c_str());
  }
  return R.Ok ? 0 : 1;
}

/// One image through the MIPS policy checker (mips/MipsPolicy.h): the
/// same Figure-5 walk as validate(), against the registry's MIPS entry
/// with the 16-byte bundle finalize. The x86-only diagnostics
/// (disassembly, explain, lint) do not apply here.
int validateMips(const std::vector<uint8_t> &Code) {
  auto T0 = std::chrono::steady_clock::now();
  core::CheckResult R = mips::checkMips(Code.data(), uint32_t(Code.size()));
  auto T1 = std::chrono::steady_clock::now();
  double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
  std::printf("image: %zu bytes (%zu bundles, mips)\n", Code.size(),
              Code.size() / mips::MipsBundleSize);
  std::printf("  rocksalt (mips):  %s  (%.3f ms)%s%s\n",
              R.Ok ? "ACCEPT" : "REJECT", Ms, R.Ok ? "" : "  reason: ",
              R.Ok ? "" : core::rejectReasonName(R.Reason));
  return R.Ok ? 0 : 1;
}

/// --patch without --connect: open the image with the in-process
/// incremental verifier, apply each patch with an O(patch) re-verify,
/// cross-check every verdict (and its bitmaps) against a full
/// sequential re-check, and print both timings side by side. With
/// \p Lint the incremental linter rides along: every patch re-lints in
/// O(patch window) and the report is cross-checked byte-for-byte
/// against a fresh full lint of the patched image.
int runPatchesLocal(const std::string &Path, std::vector<uint8_t> Code,
                    const std::vector<PatchSpec> &Specs, bool Lint,
                    svc::Metrics *M) {
  core::RockSalt Full;
  incr::IncrementalVerifier Incr(incr::IncrementalOptions{}, M);
  analysis::IncrementalLinter Linter(core::policyTables(), M);

  auto MsBetween = [](std::chrono::steady_clock::time_point A,
                      std::chrono::steady_clock::time_point B) {
    return std::chrono::duration<double, std::milli>(B - A).count();
  };

  incr::IncrResult Open;
  auto T0 = std::chrono::steady_clock::now();
  incr::ImageId Id = Incr.open(Code, &Open);
  auto T1 = std::chrono::steady_clock::now();
  std::printf("%s: opened %zu bytes as image #%u: %s%s%s  (%.3f ms, %u "
              "chunks scanned)\n",
              Path.c_str(), Code.size(), Id, Open.Ok ? "ACCEPT" : "REJECT",
              Open.Ok ? "" : "  reason: ",
              Open.Ok ? "" : core::rejectReasonName(Open.Reason),
              MsBetween(T0, T1), Open.ChunksRescanned);
  if (Lint) {
    Linter.open(Id, Code.data(), uint32_t(Code.size()),
                incr::IncrementalOptions{}.ChunkBytes);
    std::printf("%s", Linter.render(Id).c_str());
  }

  int Rc = Open.Ok ? 0 : 1;
  for (size_t I = 0; I < Specs.size(); ++I) {
    const PatchSpec &P = Specs[I];
    T0 = std::chrono::steady_clock::now();
    incr::IncrResult R;
    try {
      R = Incr.patch(Id, P.Offset, P.Bytes.data(), uint32_t(P.Bytes.size()));
    } catch (const std::invalid_argument &E) {
      std::fprintf(stderr, "  patch %zu at %u: error: %s\n", I + 1, P.Offset,
                   E.what());
      return 2;
    }
    T1 = std::chrono::steady_clock::now();
    for (size_t B = 0; B < P.Bytes.size(); ++B)
      Code[P.Offset + B] = P.Bytes[B];
    auto T2 = std::chrono::steady_clock::now();
    core::CheckResult FullR = Full.check(Code);
    auto T3 = std::chrono::steady_clock::now();

    const core::CheckResult &IR = Incr.lastCheck(Id);
    bool Agree = IR.Ok == FullR.Ok && IR.Reason == FullR.Reason &&
                 IR.Valid == FullR.Valid && IR.Target == FullR.Target &&
                 IR.PairJmp == FullR.PairJmp;
    std::printf("  patch %zu at %u (%zu bytes): %s%s%s  (incremental %.3f ms "
                "/ full %.3f ms; %u rescanned)%s\n",
                I + 1, P.Offset, P.Bytes.size(),
                R.Ok ? "ACCEPT" : "REJECT", R.Ok ? "" : "  reason: ",
                R.Ok ? "" : core::rejectReasonName(R.Reason),
                MsBetween(T0, T1), MsBetween(T2, T3), R.ChunksRescanned,
                Agree ? "" : "  *** DIVERGED FROM FULL CHECK ***");
    if (!Agree)
      return 1;
    if (Lint) {
      T0 = std::chrono::steady_clock::now();
      analysis::IncrementalLinter::Summary LS =
          Linter.relint(Id, Code.data(), uint32_t(Code.size()), R);
      T1 = std::chrono::steady_clock::now();
      T2 = std::chrono::steady_clock::now();
      analysis::CfgLintResult FullL =
          analysis::lintImage(core::policyTables(), Code);
      T3 = std::chrono::steady_clock::now();
      bool LintAgree = Linter.render(Id) == FullL.render();
      std::printf("    lint: %u errors, %u warnings, %u notes  (incremental "
                  "%.3f ms%s / full %.3f ms)%s\n",
                  LS.Errors, LS.Warnings, LS.Notes, MsBetween(T0, T1),
                  LS.FastPath ? ", fast path" : "", MsBetween(T2, T3),
                  LintAgree ? "" : "  *** LINT DIVERGED FROM FULL LINT ***");
      if (!LintAgree)
        return 1;
    }
    Rc = R.Ok ? 0 : 1;
  }
  if (Lint)
    Linter.close(Id);
  Incr.close(Id);
  return Rc;
}

int selftest(const CliOptions &Opts, svc::VerifierPool *Pool,
             svc::Metrics *M) {
  nacl::WorkloadOptions WOpts;
  WOpts.TargetBytes = 512;
  WOpts.Seed = 42;
  std::vector<uint8_t> Code = nacl::generateWorkload(WOpts);
  std::printf("== generated compliant workload ==\n");
  CliOptions Inner = Opts;
  Inner.Disasm = true;
  int Rc = validate(Code, Inner, M);

  Rng R(7);
  auto Bad = nacl::applyAttack(Code, nacl::Attack::InsertRet, R);
  if (Bad) {
    std::printf("\n== after inserting a RET ==\n");
    Inner.Disasm = false;
    validate(*Bad, Inner, M);
  }

  if (Pool) {
    // Exercise the batch path too: a mixed accept/reject batch.
    std::printf("\n== pool batch: 16 generated + mutated images ==\n");
    std::vector<std::vector<uint8_t>> Batch;
    for (uint32_t I = 0; I < 16; ++I) {
      WOpts.Seed = 100 + I;
      Batch.push_back(nacl::generateWorkload(WOpts));
      if (I & 1)
        Batch.back() = nacl::mutateRandom(Batch.back(), R);
    }
    auto Futures = Pool->submit(Batch);
    uint32_t Accepted = 0;
    for (auto &F : Futures)
      Accepted += F.get().Ok ? 1 : 0;
    std::printf("accepted %u / 16\n", Accepted);
  }
  return Rc;
}

/// --serve: the long-running verification service. Without --socket the
/// single session runs over stdin/stdout (all diagnostics go to stderr);
/// with --socket PATH the event loop (svc/EventLoop.h) multiplexes every
/// connected client concurrently until one sends Shutdown.
int runServer(const CliOptions &Opts) {
  // The stdio transport writes with plain write(); without this a client
  // that exits mid-reply would kill the server with SIGPIPE instead of
  // an EPIPE the serve loop can survive. The socket path additionally
  // sends with MSG_NOSIGNAL (belt and braces for any fd it misses).
  std::signal(SIGPIPE, SIG_IGN);
  // Register the second ISA before serving: the tables endpoint serves
  // any registry entry, so a multi-ISA server must populate the
  // registry up front (clients asking for an unregistered ISA get an
  // ErrorResponse, not a lazily built table set).
  mips::mipsTableEntry();
  svc::Metrics M;
  svc::Service Server(svc::ServiceOptions{Opts.Jobs, &M});
  int Rc = 0;
  if (Opts.SocketPath.empty()) {
    try {
      Server.serveFd(STDIN_FILENO, STDOUT_FILENO);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "session error: %s\n", E.what());
      Rc = 1;
    }
  } else {
    try {
      int Listen = svc::listenUnixSocket(Opts.SocketPath,
                                         Server.options().Backlog);
      std::fprintf(stderr, "serving on %s (%u workers, tables %s)\n",
                   Opts.SocketPath.c_str(), Server.pool().threadCount(),
                   Server.tablesHashHex().c_str());
      svc::EventLoop Loop(Server, Listen);
      Loop.run();
    } catch (const std::exception &E) {
      std::fprintf(stderr, "error: %s\n", E.what());
      Rc = 2;
    }
    ::unlink(Opts.SocketPath.c_str());
  }
  if (Opts.Stats)
    std::fprintf(stderr, "--- service metrics ---\n%s", M.dump().c_str());
  return Rc;
}

/// --connect: route verify/lint/audit of the given images through a
/// running server, printing the same shapes as the local one-shot paths.
int runClient(const CliOptions &Opts) {
  using svc::proto::MsgKind;
  int Fd = connectUnix(Opts.ConnectPath);
  if (Fd < 0) {
    std::fprintf(stderr, "error: cannot connect to %s\n",
                 Opts.ConnectPath.c_str());
    return 2;
  }
  FrameReader In(Fd);
  int Rc = 0;
  try {
    if (Opts.Audit) {
      sendFrame(Fd, MsgKind::AuditRequest, {});
      svc::proto::AuditVerdict V = svc::proto::decodeAuditResponse(
          expectFrame(In, MsgKind::AuditResponse).Body);
      std::printf("%s", V.Render.c_str());
      Rc = V.Pass ? 0 : 1;
    }
    if (!Opts.Files.empty()) {
      std::vector<std::vector<uint8_t>> Images;
      for (const std::string &Path : Opts.Files) {
        Images.emplace_back();
        if (!readFile(Path, Images.back())) {
          std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
          ::close(Fd);
          return 2;
        }
      }
      std::vector<uint8_t> Batch = svc::proto::encodeImageBatch(Images);
      if (!Opts.PatchSpecs.empty()) {
        // Incremental mode: image-open / patch… / image-close per file.
        std::vector<PatchSpec> Specs(Opts.PatchSpecs.size());
        for (size_t I = 0; I < Opts.PatchSpecs.size(); ++I)
          if (!parsePatchSpec(Opts.PatchSpecs[I], Specs[I])) {
            std::fprintf(stderr, "error: bad --patch spec %s\n",
                         Opts.PatchSpecs[I].c_str());
            ::close(Fd);
            return 2;
          }
        for (size_t F = 0; F < Images.size(); ++F) {
          sendFrame(Fd, MsgKind::ImageOpenRequest,
                    svc::proto::encodeImageOpenRequest(Images[F]));
          svc::proto::ImageOpenReply Open = svc::proto::decodeImageOpenResponse(
              expectFrame(In, MsgKind::ImageOpenResponse).Body);
          std::printf("%s: opened %zu bytes as image #%u: %s%s%s\n",
                      Opts.Files[F].c_str(), Images[F].size(), Open.Image,
                      Open.V.Ok ? "ACCEPT" : "REJECT",
                      Open.V.Ok ? "" : "  reason: ",
                      Open.V.Ok ? ""
                                : core::rejectReasonName(Open.V.Reason));
          Rc |= Open.V.Ok ? 0 : 1;
          for (size_t I = 0; I < Specs.size(); ++I) {
            svc::proto::PatchRequestBody B;
            B.Image = Open.Image;
            B.Offset = Specs[I].Offset;
            B.Bytes = Specs[I].Bytes;
            B.WantLint = Opts.Lint;
            sendFrame(Fd, MsgKind::PatchRequest,
                      svc::proto::encodePatchRequest(B));
            svc::proto::PatchReply R = svc::proto::decodePatchResponse(
                expectFrame(In, MsgKind::PatchResponse).Body);
            std::printf("  patch %zu at %u (%zu bytes): %s%s%s  "
                        "(%u rescanned)\n",
                        I + 1, B.Offset, B.Bytes.size(),
                        R.V.Ok ? "ACCEPT" : "REJECT",
                        R.V.Ok ? "" : "  reason: ",
                        R.V.Ok ? "" : core::rejectReasonName(R.V.Reason),
                        R.ChunksRescanned);
            if (R.HasLint)
              std::printf("%s", R.Lint.Render.c_str());
            Rc |= R.V.Ok ? 0 : 1;
          }
          sendFrame(Fd, MsgKind::ImageCloseRequest,
                    svc::proto::encodeImageCloseRequest(Open.Image));
          expectFrame(In, MsgKind::ImageCloseResponse);
        }
      } else if (Opts.Lint) {
        sendFrame(Fd, MsgKind::LintRequest, Batch);
        std::vector<svc::proto::LintReport> Reports =
            svc::proto::decodeLintResponse(
                expectFrame(In, MsgKind::LintResponse).Body);
        for (size_t I = 0; I < Reports.size(); ++I) {
          std::printf("%s:\n%s", Opts.Files[I].c_str(),
                      Reports[I].Render.c_str());
          Rc |= Reports[I].Errors ? 1 : 0;
        }
      } else {
        sendFrame(Fd, MsgKind::VerifyRequest, Batch);
        std::vector<svc::proto::VerifyVerdict> Verdicts =
            svc::proto::decodeVerifyResponse(
                expectFrame(In, MsgKind::VerifyResponse).Body);
        for (size_t I = 0; I < Verdicts.size(); ++I) {
          std::printf("%-40s %s%s%s  (%zu bytes)\n", Opts.Files[I].c_str(),
                      Verdicts[I].Ok ? "ACCEPT" : "REJECT",
                      Verdicts[I].Ok ? "" : "  reason: ",
                      Verdicts[I].Ok
                          ? ""
                          : core::rejectReasonName(Verdicts[I].Reason),
                      Images[I].size());
          Rc |= Verdicts[I].Ok ? 0 : 1;
        }
      }
    }
    if (Opts.MetricsReq) {
      sendFrame(Fd, MsgKind::MetricsRequest, {});
      std::printf("%s", svc::proto::decodeMetricsResponse(
                            expectFrame(In, MsgKind::MetricsResponse).Body)
                            .c_str());
    }
    if (Opts.ShutdownServer) {
      sendFrame(Fd, MsgKind::ShutdownRequest, {});
      expectFrame(In, MsgKind::ShutdownResponse);
      std::printf("server shut down\n");
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    Rc = 2;
  }
  ::close(Fd);
  return Rc;
}

/// Loads + adopts a table blob into the registry under Opts.Isa and
/// prints what happened. The load enforces the blob's ISA/policy-set
/// tag (an x86 run rejects a mips-tagged blob at the header) and the
/// adoption either takes effect or throws — an adopted set can never
/// silently lose to a table set already in use. Returns <0 on success,
/// else an exit code.
int adoptBlob(const CliOptions &Opts, const std::vector<uint8_t> &Blob,
              const std::string &ExpectHash, const char *Source) {
  try {
    auto T0 = std::chrono::steady_clock::now();
    core::PolicyTables T =
        core::loadPolicyTables(Blob, ExpectHash, Opts.Isa,
                               core::PolicySetNacl);
    auto T1 = std::chrono::steady_clock::now();
    core::adoptPolicyTables(std::move(T), Opts.Isa, core::PolicySetNacl);
    const core::TableEntry *E =
        core::TableRegistry::instance().byKey(Opts.Isa, core::PolicySetNacl);
    std::string FileHash = re::blobHashHex(Blob);
    std::printf("tables: loaded %s blob in %.3f ms, adopted as %s/%s "
                "(registry hash %s%s)\n",
                Source,
                std::chrono::duration<double, std::milli>(T1 - T0).count(),
                Opts.Isa.c_str(), core::PolicySetNacl,
                E ? E->HashHex.c_str() : "?",
                E && E->HashHex == FileHash
                    ? ", bit-identical round-trip"
                    : "");
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  return -1;
}

/// --tables-from: fetch the server's policy tables by content hash and
/// adopt them process-wide, skipping the local grammar rebuild. With
/// --tables-cache FILE the cached blob's hash is offered first, so a
/// match costs a 74-byte negotiation instead of a ~34 KiB transfer.
/// When the operand is a regular file rather than a socket, the blob is
/// read straight from disk — the offline half of the distribution path,
/// same tag and hash discipline. Returns <0 on success (the caller
/// continues into normal validation), else a process exit code.
int fetchTables(const CliOptions &Opts) {
  using svc::proto::MsgKind;

  struct stat St;
  if (::stat(Opts.TablesFrom.c_str(), &St) == 0 && S_ISREG(St.st_mode)) {
    std::vector<uint8_t> Blob;
    if (!readFile(Opts.TablesFrom, Blob)) {
      std::fprintf(stderr, "error: cannot read %s\n", Opts.TablesFrom.c_str());
      return 2;
    }
    return adoptBlob(Opts, Blob, Opts.ExpectHash, Opts.TablesFrom.c_str());
  }

  std::vector<uint8_t> CachedBlob;
  std::string CachedHash;
  if (!Opts.TablesCache.empty() && readFile(Opts.TablesCache, CachedBlob)) {
    try {
      CachedHash = re::verifyBlobHashHex(CachedBlob);
    } catch (const std::exception &E) {
      std::fprintf(stderr, "note: ignoring corrupt tables cache %s (%s)\n",
                   Opts.TablesCache.c_str(), E.what());
      CachedBlob.clear();
    }
  }

  int Fd = connectUnix(Opts.TablesFrom);
  if (Fd < 0) {
    std::fprintf(stderr, "error: cannot connect to %s\n",
                 Opts.TablesFrom.c_str());
    return 2;
  }
  int Rc = -1;
  try {
    FrameReader In(Fd);
    // The default ISA keeps the original wire shape (no selector field)
    // so this client stays byte-compatible with pre-registry servers.
    sendFrame(Fd, MsgKind::TablesRequest,
              svc::proto::encodeTablesRequest(
                  CachedHash, Opts.Isa == core::IsaX86 ? "" : Opts.Isa));
    svc::proto::TablesReply Reply = svc::proto::decodeTablesResponse(
        expectFrame(In, MsgKind::TablesResponse).Body);

    const std::vector<uint8_t> *Blob;
    if (Reply.HashMatched) {
      std::printf("tables: hash %s matched — cache hit, no transfer\n",
                  Reply.HashHex.c_str());
      Blob = &CachedBlob;
    } else {
      std::printf("tables: fetched %zu bytes, hash %s\n", Reply.Blob.size(),
                  Reply.HashHex.c_str());
      Blob = &Reply.Blob;
      if (!Opts.TablesCache.empty()) {
        std::ofstream Out(Opts.TablesCache, std::ios::binary);
        if (Out.write(reinterpret_cast<const char *>(Reply.Blob.data()),
                      long(Reply.Blob.size())))
          std::printf("tables: cached to %s\n", Opts.TablesCache.c_str());
      }
    }
    if (!Opts.ExpectHash.empty() && Reply.HashHex != Opts.ExpectHash) {
      std::fprintf(stderr,
                   "error: served tables hash drift\n  expected %s\n"
                   "  actual   %s\n",
                   Opts.ExpectHash.c_str(), Reply.HashHex.c_str());
      ::close(Fd);
      return 1;
    }

    Rc = adoptBlob(Opts, *Blob, Reply.HashHex, "served");
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    Rc = 2;
  }
  ::close(Fd);
  return Rc;
}

/// --serve-smoke: fork a server child on a private socket and drive a
/// mixed verify/lint/audit/tables/patch-lint/malformed session against
/// it, cross-checking every response against the in-process one-shot
/// paths.
/// The CI service gate: exits 0 only if everything agreed and the
/// server shut down cleanly.
int serveSmoke() {
  using svc::proto::MsgKind;
  char Dir[] = "/tmp/rocksalt_smoke_XXXXXX";
  if (!::mkdtemp(Dir)) {
    std::fprintf(stderr, "error: mkdtemp failed\n");
    return 2;
  }
  std::string Sock = std::string(Dir) + "/svc.sock";

  pid_t Child = ::fork(); // before any threads exist in this process
  if (Child < 0) {
    std::fprintf(stderr, "error: fork failed\n");
    return 2;
  }
  if (Child == 0) {
    CliOptions ServerOpts;
    ServerOpts.SocketPath = Sock;
    ServerOpts.Jobs = 2;
    ::_exit(runServer(ServerOpts));
  }

  auto Fail = [&](const char *What) {
    std::fprintf(stderr, "serve-smoke FAILED: %s\n", What);
    ::kill(Child, SIGKILL);
    ::waitpid(Child, nullptr, 0);
    ::unlink(Sock.c_str());
    ::rmdir(Dir);
    return 1;
  };

  // The child creates the socket; retry the connect until it is up.
  int Fd = -1;
  for (int I = 0; I < 200 && Fd < 0; ++I) {
    Fd = connectUnix(Sock);
    if (Fd < 0)
      ::usleep(25 * 1000);
  }
  if (Fd < 0)
    return Fail("server socket never came up");

  int Rc = 0;
  try {
    FrameReader In(Fd);

    // A mixed batch: compliant, mutated, and attacked images.
    Rng R(7);
    std::vector<std::vector<uint8_t>> Images;
    for (uint32_t I = 0; I < 12; ++I) {
      nacl::WorkloadOptions WO;
      WO.TargetBytes = 512 + 96 * (I % 4);
      WO.Seed = 4200 + I;
      std::vector<uint8_t> Img = nacl::generateWorkload(WO);
      if (I % 3 == 1)
        Img = nacl::mutateRandom(Img, R);
      if (I % 3 == 2)
        if (auto Bad = nacl::applyAttack(Img, nacl::Attack::InsertRet, R))
          Img = *Bad;
      Images.push_back(std::move(Img));
    }

    // 1. verify — every verdict must equal the local sequential checker.
    sendFrame(Fd, MsgKind::VerifyRequest,
              svc::proto::encodeImageBatch(Images));
    std::vector<svc::proto::VerifyVerdict> Verdicts =
        svc::proto::decodeVerifyResponse(
            expectFrame(In, MsgKind::VerifyResponse).Body);
    core::RockSalt Local;
    if (Verdicts.size() != Images.size())
      return Fail("verify verdict count mismatch");
    for (size_t I = 0; I < Images.size(); ++I) {
      core::CheckResult CR = Local.check(Images[I]);
      if (Verdicts[I].Ok != CR.Ok || Verdicts[I].Reason != CR.Reason)
        return Fail("served verify verdict diverged from one-shot check");
    }
    std::printf("smoke: verify ok (%zu images)\n", Images.size());

    // 2. lint — rendered diagnostics must be bit-identical to the local
    // lint of the same images.
    std::vector<std::vector<uint8_t>> LintBatch(Images.begin(),
                                                Images.begin() + 4);
    sendFrame(Fd, MsgKind::LintRequest,
              svc::proto::encodeImageBatch(LintBatch));
    std::vector<svc::proto::LintReport> Lints = svc::proto::decodeLintResponse(
        expectFrame(In, MsgKind::LintResponse).Body);
    if (Lints.size() != LintBatch.size())
      return Fail("lint report count mismatch");
    for (size_t I = 0; I < LintBatch.size(); ++I) {
      analysis::CfgLintResult L =
          analysis::lintImage(core::policyTables(), LintBatch[I]);
      if (Lints[I].Render != L.render() || Lints[I].Errors != L.Errors)
        return Fail("served lint diverged from one-shot lint");
    }
    std::printf("smoke: lint ok (%zu images)\n", LintBatch.size());

    // 3. audit — the live tables must pass the meta-verifier.
    sendFrame(Fd, MsgKind::AuditRequest, {});
    svc::proto::AuditVerdict Audit = svc::proto::decodeAuditResponse(
        expectFrame(In, MsgKind::AuditResponse).Body);
    if (!Audit.Pass)
      return Fail("server-side policy audit failed");
    std::printf("smoke: audit ok\n");

    // 4. tables — cold fetch must load bit-identical to the local build;
    // a warm fetch with the hash must short-circuit the transfer.
    sendFrame(Fd, MsgKind::TablesRequest, svc::proto::encodeTablesRequest(""));
    svc::proto::TablesReply Cold = svc::proto::decodeTablesResponse(
        expectFrame(In, MsgKind::TablesResponse).Body);
    if (Cold.HashMatched || Cold.Blob.empty())
      return Fail("cold tables fetch did not return a blob");
    core::PolicyTables Served = core::loadPolicyTables(Cold.Blob, Cold.HashHex);
    if (core::serializePolicyTables(Served) !=
        core::serializePolicyTables(core::policyTables()))
      return Fail("served tables are not bit-identical to the local build");
    sendFrame(Fd, MsgKind::TablesRequest,
              svc::proto::encodeTablesRequest(Cold.HashHex));
    svc::proto::TablesReply Warm = svc::proto::decodeTablesResponse(
        expectFrame(In, MsgKind::TablesResponse).Body);
    if (!Warm.HashMatched || !Warm.Blob.empty())
      return Fail("hash negotiation did not short-circuit the transfer");
    std::printf("smoke: tables ok (%zu-byte blob, hash %.16s…)\n",
                Cold.Blob.size(), Cold.HashHex.c_str());

    // 4b. multi-ISA table negotiation — the server registered its MIPS
    // entry at startup, so the selector must serve a mips-tagged blob
    // (distinct hash), a warm selector fetch must short-circuit, the
    // *old* wire shape carrying the mips hash must still be confirmed
    // by hash, and an ISA nobody registered must be an error.
    sendFrame(Fd, MsgKind::TablesRequest,
              svc::proto::encodeTablesRequest("", "mips"));
    svc::proto::TablesReply MipsCold = svc::proto::decodeTablesResponse(
        expectFrame(In, MsgKind::TablesResponse).Body);
    if (MipsCold.HashMatched || MipsCold.Blob.empty())
      return Fail("cold mips tables fetch did not return a blob");
    if (MipsCold.HashHex == Cold.HashHex)
      return Fail("mips tables hash collides with the x86 hash");
    core::PolicyTables MipsServed = core::loadPolicyTables(
        MipsCold.Blob, MipsCold.HashHex, core::IsaMips, core::PolicySetNacl);
    (void)MipsServed;
    bool X86LoadRejected = false;
    try {
      core::loadPolicyTables(MipsCold.Blob, MipsCold.HashHex);
    } catch (const std::exception &) {
      X86LoadRejected = true;
    }
    if (!X86LoadRejected)
      return Fail("an x86 load accepted the mips-tagged blob");
    sendFrame(Fd, MsgKind::TablesRequest,
              svc::proto::encodeTablesRequest(MipsCold.HashHex, "mips"));
    svc::proto::TablesReply MipsWarm = svc::proto::decodeTablesResponse(
        expectFrame(In, MsgKind::TablesResponse).Body);
    if (!MipsWarm.HashMatched || !MipsWarm.Blob.empty())
      return Fail("mips hash negotiation did not short-circuit");
    sendFrame(Fd, MsgKind::TablesRequest,
              svc::proto::encodeTablesRequest(MipsCold.HashHex));
    svc::proto::TablesReply OldWire = svc::proto::decodeTablesResponse(
        expectFrame(In, MsgKind::TablesResponse).Body);
    if (!OldWire.HashMatched || OldWire.HashHex != MipsCold.HashHex)
      return Fail("old wire shape did not resolve the mips hash by content");
    sendFrame(Fd, MsgKind::TablesRequest,
              svc::proto::encodeTablesRequest("", "sparc"));
    if (In.next().Kind != MsgKind::ErrorResponse)
      return Fail("an unregistered ISA was not answered with an error");
    sendFrame(Fd, MsgKind::AuditRequest, {});
    expectFrame(In, MsgKind::AuditResponse);
    std::printf("smoke: multi-isa tables ok (mips hash %.16s…)\n",
                MipsCold.HashHex.c_str());

    // 5. incremental patch with want-lint — open a compliant image,
    // patch it twice asking for the lint report, and require each
    // served report to be byte-identical to a fresh local lint of the
    // patched bytes (the first request seeds the session's lint state,
    // the second takes the incremental relint path).
    {
      std::vector<uint8_t> Mut = Images[0];
      sendFrame(Fd, MsgKind::ImageOpenRequest,
                svc::proto::encodeImageOpenRequest(Mut));
      svc::proto::ImageOpenReply Open = svc::proto::decodeImageOpenResponse(
          expectFrame(In, MsgKind::ImageOpenResponse).Body);
      if (!Open.V.Ok)
        return Fail("compliant image was rejected at image-open");
      for (uint32_t Step = 0; Step < 2; ++Step) {
        svc::proto::PatchRequestBody B;
        B.Image = Open.Image;
        B.Offset = 32 + 16 * Step;
        B.Bytes = {0x90, 0x90, 0x90, 0x90};
        B.WantLint = true;
        for (size_t K = 0; K < B.Bytes.size(); ++K)
          Mut[B.Offset + K] = B.Bytes[K];
        sendFrame(Fd, MsgKind::PatchRequest,
                  svc::proto::encodePatchRequest(B));
        svc::proto::PatchReply PR = svc::proto::decodePatchResponse(
            expectFrame(In, MsgKind::PatchResponse).Body);
        analysis::CfgLintResult L =
            analysis::lintImage(core::policyTables(), Mut);
        if (!PR.HasLint || PR.Lint.Render != L.render() ||
            PR.Lint.Errors != L.Errors || PR.Lint.Warnings != L.Warnings ||
            PR.Lint.Notes != L.Notes)
          return Fail("served patch lint diverged from a fresh local lint");
        // The machine-readable rendering must stay one line per diag.
        std::string Json = lintJsonLines(L);
        if (size_t(std::count(Json.begin(), Json.end(), '\n')) !=
            L.Diags.size())
          return Fail("lint-json line count diverged from the diagnostics");
      }
      sendFrame(Fd, MsgKind::ImageCloseRequest,
                svc::proto::encodeImageCloseRequest(Open.Image));
      expectFrame(In, MsgKind::ImageCloseResponse);
      std::printf("smoke: patch lint ok (2 patches, reports identical)\n");
    }

    // 6. malformed body — answered with an error, session survives.
    sendFrame(Fd, MsgKind::VerifyRequest, {0xFF, 0xFF});
    if (In.next().Kind != MsgKind::ErrorResponse)
      return Fail("malformed body was not answered with ErrorResponse");
    sendFrame(Fd, MsgKind::AuditRequest, {});
    expectFrame(In, MsgKind::AuditResponse);
    std::printf("smoke: malformed-body error path ok\n");

    // 7. a second concurrent session — must be answered while the first
    // session is still open (the sequential accept loop would park it
    // until this session closed, and this phase would hang).
    int Fd2 = connectUnix(Sock);
    if (Fd2 < 0)
      return Fail("second concurrent connection refused");
    {
      FrameReader In2(Fd2);
      sendFrame(Fd2, MsgKind::VerifyRequest,
                svc::proto::encodeImageBatch({Images[0]}));
      std::vector<svc::proto::VerifyVerdict> V2 =
          svc::proto::decodeVerifyResponse(
              expectFrame(In2, MsgKind::VerifyResponse).Body);
      core::CheckResult CR = Local.check(Images[0]);
      if (V2.size() != 1 || V2[0].Ok != CR.Ok)
        return Fail("second session's verdict diverged");
    }
    ::close(Fd2);
    std::printf("smoke: concurrent second session ok\n");

    // 8. a client that dies between request and reply — the old server
    // took a SIGPIPE writing the reply and the whole process died; now
    // only that session drops and everyone else keeps being served.
    int Fd3 = connectUnix(Sock);
    if (Fd3 < 0)
      return Fail("third connection refused");
    sendFrame(Fd3, MsgKind::VerifyRequest,
              svc::proto::encodeImageBatch(Images));
    ::close(Fd3); // gone before the reply: the server's send sees EPIPE
    sendFrame(Fd, MsgKind::AuditRequest, {});
    expectFrame(In, MsgKind::AuditResponse);
    std::printf("smoke: client-killed-mid-reply survived\n");

    // 9. metrics scrape — the counters this very session bumped must be
    // visible in the exposition.
    sendFrame(Fd, MsgKind::MetricsRequest, {});
    std::string Expo = svc::proto::decodeMetricsResponse(
        expectFrame(In, MsgKind::MetricsResponse).Body);
    for (const char *Want :
         {"svc_verify_requests", "svc_sessions_active", "svc_bytes_in"})
      if (Expo.find(Want) == std::string::npos)
        return Fail("metrics exposition is missing an expected metric");
    if (Expo.find("svc_verify_requests 0\n") != std::string::npos)
      return Fail("metrics exposition did not count this session's verifies");
    std::printf("smoke: metrics scrape ok (%zu bytes)\n", Expo.size());

    // 10. clean shutdown.
    sendFrame(Fd, MsgKind::ShutdownRequest, {});
    expectFrame(In, MsgKind::ShutdownResponse);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "serve-smoke exception: %s\n", E.what());
    Rc = 1;
  }
  ::close(Fd);

  int Status = 0;
  if (::waitpid(Child, &Status, 0) != Child ||
      !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    std::fprintf(stderr, "serve-smoke FAILED: server exit status %d\n",
                 Status);
    Rc = 1;
  }
  ::unlink(Sock.c_str());
  ::rmdir(Dir);
  if (Rc == 0)
    std::printf("smoke: clean shutdown — all service paths agree\n");
  return Rc;
}

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s <image.bin>... [--disassemble] [--explain] "
               "[--lint] [--lint-json] [--jobs N] [--stats]"
               "\n       %s <image.bin>... --patch OFF:HEX "
               "[--patch OFF:HEX...] [--lint] [--stats]"
               "\n       %s --selftest [--lint] [--jobs N] [--stats]"
               "\n       %s --audit [--isa x86|mips]"
               "\n       %s --dump-tables [--isa x86|mips] [--raw] "
               "[--tables-out FILE] [--expect-hash HEX]"
               "\n       %s --serve [--socket PATH] [--jobs N] [--stats]"
               "\n       %s --connect PATH [<image.bin>...] [--lint] "
               "[--audit] [--metrics] [--shutdown]"
               "\n       %s --tables-from PATH|FILE [--isa x86|mips] "
               "[--tables-cache FILE] [--expect-hash HEX] [<image.bin>...]"
               "\n       %s --serve-smoke\n",
               Prog, Prog, Prog, Prog, Prog, Prog, Prog, Prog, Prog);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  CliOptions Opts;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--selftest") == 0) {
      Opts.Selftest = true;
    } else if (std::strcmp(argv[I], "--disassemble") == 0) {
      Opts.Disasm = true;
    } else if (std::strcmp(argv[I], "--explain") == 0) {
      Opts.Explain = true;
    } else if (std::strcmp(argv[I], "--lint") == 0) {
      Opts.Lint = true;
    } else if (std::strcmp(argv[I], "--lint-json") == 0) {
      Opts.LintJson = true;
    } else if (std::strcmp(argv[I], "--audit") == 0) {
      Opts.Audit = true;
    } else if (std::strcmp(argv[I], "--isa") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      Opts.Isa = argv[++I];
      if (Opts.Isa != core::IsaX86 && Opts.Isa != core::IsaMips) {
        std::fprintf(stderr, "error: unknown --isa %s (want x86 or mips)\n",
                     Opts.Isa.c_str());
        return 2;
      }
    } else if (std::strcmp(argv[I], "--dump-tables") == 0) {
      Opts.DumpTables = true;
    } else if (std::strcmp(argv[I], "--raw") == 0) {
      Opts.RawTables = true;
    } else if (std::strcmp(argv[I], "--tables-out") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      Opts.TablesOut = argv[++I];
    } else if (std::strcmp(argv[I], "--expect-hash") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      Opts.ExpectHash = argv[++I];
    } else if (std::strcmp(argv[I], "--stats") == 0) {
      Opts.Stats = true;
    } else if (std::strcmp(argv[I], "--jobs") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      // Whole string, decimal, and within unsigned: "2x" and 2^32 + 1
      // are usage errors, not 2 and 1 workers.
      const char *S = argv[++I];
      char *End = nullptr;
      unsigned long long N = std::strtoull(S, &End, 10);
      if (*S < '0' || *S > '9' || *End || N < 1 || N > UINT_MAX)
        return usage(argv[0]);
      Opts.Jobs = unsigned(N);
    } else if (std::strcmp(argv[I], "--serve") == 0) {
      Opts.Serve = true;
    } else if (std::strcmp(argv[I], "--socket") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      Opts.SocketPath = argv[++I];
    } else if (std::strcmp(argv[I], "--connect") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      Opts.ConnectPath = argv[++I];
    } else if (std::strcmp(argv[I], "--metrics") == 0) {
      Opts.MetricsReq = true;
    } else if (std::strcmp(argv[I], "--shutdown") == 0) {
      Opts.ShutdownServer = true;
    } else if (std::strcmp(argv[I], "--tables-from") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      Opts.TablesFrom = argv[++I];
    } else if (std::strcmp(argv[I], "--tables-cache") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      Opts.TablesCache = argv[++I];
    } else if (std::strcmp(argv[I], "--serve-smoke") == 0) {
      Opts.ServeSmoke = true;
    } else if (std::strcmp(argv[I], "--patch") == 0) {
      if (I + 1 >= argc)
        return usage(argv[0]);
      Opts.PatchSpecs.push_back(argv[++I]);
    } else if (argv[I][0] == '-') {
      return usage(argv[0]);
    } else {
      Opts.Files.push_back(argv[I]);
    }
  }
  // Test hook for the late-adoption regression gate: force the default
  // tables into use before any --tables-from adoption runs, so adopting
  // a different table set must hard-fail (registry conflict) instead of
  // silently losing the race the old singleton allowed.
  if (const char *Env = std::getenv("ROCKSALT_EARLY_TABLES"))
    if (Env[0] == '1')
      (void)core::policyTables();
  if (Opts.ServeSmoke)
    return serveSmoke();
  if (Opts.Serve)
    return runServer(Opts);
  if (!Opts.ConnectPath.empty())
    return runClient(Opts);
  if (!Opts.TablesFrom.empty()) {
    // Fetch + adopt, then fall through to the normal validation modes
    // (which now reuse the adopted tables instead of rebuilding).
    int Rc = fetchTables(Opts);
    if (Rc >= 0)
      return Rc;
    Opts.ExpectHash.clear(); // consumed by the fetch, not dump-tables
    if (Opts.Files.empty() && !Opts.Selftest && !Opts.Audit &&
        !Opts.DumpTables)
      return 0;
  }
  if (Opts.Audit) {
    analysis::AuditReport R = Opts.Isa == core::IsaMips
                                  ? analysis::auditMipsPolicy()
                                  : analysis::auditShippedPolicy();
    std::printf("%s", R.render().c_str());
    return R.Pass ? 0 : 1;
  }
  if (Opts.DumpTables)
    return dumpTables(Opts);
  if (!Opts.Selftest && Opts.Files.empty())
    return usage(argv[0]);

  if (Opts.Isa == core::IsaMips) {
    if (Opts.Disasm || Opts.Explain || Opts.Lint || Opts.LintJson ||
        Opts.Selftest || !Opts.PatchSpecs.empty() || Opts.Jobs) {
      std::fprintf(stderr,
                   "error: --isa mips supports plain image checks only "
                   "(the requested mode is x86-specific)\n");
      return 2;
    }
    int Rc = 0;
    for (const std::string &Path : Opts.Files) {
      std::vector<uint8_t> Code;
      if (!readFile(Path, Code)) {
        std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
        return 2;
      }
      Rc |= validateMips(Code);
    }
    return Rc;
  }

  if (!Opts.PatchSpecs.empty()) {
    // Local incremental mode: every verdict is cross-checked against a
    // full re-check inside runPatchesLocal.
    std::vector<PatchSpec> Specs(Opts.PatchSpecs.size());
    for (size_t I = 0; I < Opts.PatchSpecs.size(); ++I)
      if (!parsePatchSpec(Opts.PatchSpecs[I], Specs[I])) {
        std::fprintf(stderr, "error: bad --patch spec %s (want OFF:HEX)\n",
                     Opts.PatchSpecs[I].c_str());
        return 2;
      }
    svc::Metrics M;
    int Rc = 0;
    for (const std::string &Path : Opts.Files) {
      std::vector<uint8_t> Code;
      if (!readFile(Path, Code)) {
        std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
        return 2;
      }
      Rc |= runPatchesLocal(Path, std::move(Code), Specs, Opts.Lint, &M);
    }
    if (Opts.Stats)
      std::printf("\n--- service metrics ---\n%s", M.dump().c_str());
    return Rc;
  }

  svc::Metrics Metrics;
  std::unique_ptr<svc::VerifierPool> Pool;
  if (Opts.Jobs)
    Pool = std::make_unique<svc::VerifierPool>(
        svc::VerifierPool::Options{Opts.Jobs}, &Metrics);

  int Rc;
  if (Opts.Selftest) {
    Rc = selftest(Opts, Pool.get(), &Metrics);
  } else if (Pool && Opts.Files.size() > 1 && !Opts.Disasm && !Opts.Lint) {
    // Whole-batch mode: all images in flight at once.
    std::vector<std::vector<uint8_t>> Images;
    for (const std::string &Path : Opts.Files) {
      std::ifstream In(Path, std::ios::binary);
      if (!In) {
        std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
        return 2;
      }
      Images.emplace_back((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
    }
    auto Futures = Pool->submit(Images);
    Rc = 0;
    for (size_t I = 0; I < Futures.size(); ++I) {
      core::CheckResult R = Futures[I].get();
      std::printf("%-40s %s%s%s  (%zu bytes)\n", Opts.Files[I].c_str(),
                  R.Ok ? "ACCEPT" : "REJECT",
                  R.Ok ? "" : "  reason: ",
                  R.Ok ? "" : core::rejectReasonName(R.Reason),
                  Images[I].size());
      Rc |= R.Ok ? 0 : 1;
    }
  } else {
    Rc = 0;
    for (const std::string &Path : Opts.Files) {
      std::ifstream In(Path, std::ios::binary);
      if (!In) {
        std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
        return 2;
      }
      std::vector<uint8_t> Code((std::istreambuf_iterator<char>(In)),
                                std::istreambuf_iterator<char>());
      Rc |= validate(Code, Opts, &Metrics);
    }
  }

  if (Opts.Stats) {
    std::printf("\n--- service metrics ---\n%s", Metrics.dump().c_str());
    if (!Opts.Jobs)
      std::printf("(sequential run: pass --jobs N to exercise the service "
                  "layer)\n");
  }
  return Rc;
}
