//===- e2ebench/ServiceMix.cpp - RSVC sessions against the event loop ---===//
///
/// \file
/// One generator thread drives three RSVC sessions over a unix socket to
/// an in-process svc::Service behind svc::EventLoop. Each session keeps
/// exactly one frame in flight (closed loop) and replays the same seeded
/// frame script, starting a third of the script apart. Most frames are
/// verify batches of small modules; the rest are WantLint patch frames on
/// the session image, fresh lint frames, and warm tables / metrics
/// frames. Busy threads: generator + event loop + a 2-worker pool = 4.
///
/// Patch frames come in rewrite/revert pairs on one bundle of the
/// session image, so the image is back to its opened bytes after every
/// pair and each patch frame's lint report is known in advance wherever
/// a session starts in the script.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/CfgLint.h"
#include "analysis/Dataflow.h"
#include "core/Policy.h"
#include "core/TableRegistry.h"
#include "svc/EventLoop.h"
#include "svc/Protocol.h"
#include "svc/Service.h"
#include "support/Oracle.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace rocksalt;
namespace proto = rocksalt::svc::proto;

namespace e2e {

namespace {

constexpr uint32_t NumSessions = 3;
constexpr unsigned PoolThreads = 2;
constexpr uint32_t PoolModules = 256;
constexpr double MinKiB = 2, MaxKiB = 16;
/// Small enough that a patch reply's full lint render (one note per
/// direct-flow-unreachable bundle) stays a few tens of KiB.
constexpr uint32_t SessionImageBytes = 16 * 1024;
constexpr uint32_t ArenaBytes = 4 * 1024; ///< straight-line tail
constexpr uint32_t PatchPairs = 64;
constexpr uint32_t MiddlePathEvery = 8; ///< one pair in 8 outside the arena
constexpr uint32_t ScriptFrames = 4096;
/// Exact frame counts per script (shuffled): verify dominates so that
/// both p50 and p90 fall inside the verify-frame mode.
constexpr uint32_t NumPatch = 160, NumLint = 120, NumTables = 120,
                   NumMetrics = 120,
                   NumVerify =
                       ScriptFrames - NumPatch - NumLint - NumTables - NumMetrics;
constexpr int64_t StallNs = 10'000'000'000; ///< no reply this long = failure

enum FrameKind : uint8_t { Verify, Patch, Lint, Tables, MetricsScrape };
/// Latency classes of the per-layer split (tables + metrics = control).
const char *const RttSpan[5] = {"svc.rtt.verify", "svc.rtt.patch",
                                "svc.rtt.lint", "svc.rtt.control",
                                "svc.rtt.control"};
const char *const HandleSpan[5] = {"svc.handle.verify", "svc.handle.patch",
                                   "svc.handle.lint", "svc.handle.control",
                                   "svc.handle.control"};

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

/// A lint report reduced to what the benchmark compares: the counts and
/// a hash of the rendered text.
struct LintExpect {
  bool ParseComplete = false;
  uint32_t Errors = 0, Warnings = 0, Notes = 0;
  uint64_t RenderHash = 0;

  bool operator==(const LintExpect &O) const {
    return ParseComplete == O.ParseComplete && Errors == O.Errors &&
           Warnings == O.Warnings && Notes == O.Notes &&
           RenderHash == O.RenderHash;
  }
  void write(Writer &W) const {
    W.u8(ParseComplete);
    W.u32(Errors);
    W.u32(Warnings);
    W.u32(Notes);
    W.u64(RenderHash);
  }
  static LintExpect read(Reader &R) {
    LintExpect L;
    L.ParseComplete = R.u8() != 0;
    L.Errors = R.u32();
    L.Warnings = R.u32();
    L.Notes = R.u32();
    L.RenderHash = R.u64();
    return L;
  }
  std::string str() const {
    char B[160];
    std::snprintf(B, sizeof B, "parse=%d e=%u w=%u n=%u render=%016llx",
                  int(ParseComplete), Errors, Warnings, Notes,
                  static_cast<unsigned long long>(RenderHash));
    return B;
  }
};

struct ScriptFrame {
  uint8_t Kind = Verify;
  std::vector<uint32_t> Modules; ///< verify batch, or the one lint module
  uint32_t Pair = 0;             ///< patch frames
  bool Revert = false;           ///< patch frames: second of the pair
};

struct PatchPair {
  uint32_t Offset = 0;
  std::vector<uint8_t> Rewrite, Original;
  LintExpect AfterRewrite;
};

struct Expect {
  bool Ok = true;
  core::RejectReason Reason = core::RejectReason::None;
};

class ServiceMix : public Workload {
public:
  ServiceMix(Reader &R, const std::string &WorkDir) : SockPath(WorkDir) {
    Charac = R.str();
    uint32_t NM = R.u32();
    for (uint32_t I = 0; I < NM; ++I) {
      Modules.push_back(R.bytes());
      Expect E;
      E.Ok = R.u8() != 0;
      E.Reason = core::RejectReason(R.u8());
      Verdicts.push_back(E);
      Lints.push_back(LintExpect::read(R));
    }
    Image = R.bytes();
    ImageLint = LintExpect::read(R);
    SeedOffset = R.u32();
    uint32_t NP = R.u32();
    for (uint32_t I = 0; I < NP; ++I) {
      PatchPair P;
      P.Offset = R.u32();
      P.Rewrite = R.bytes();
      P.Original = R.bytes();
      P.AfterRewrite = LintExpect::read(R);
      if (P.Offset > Image.size() - P.Rewrite.size() ||
          P.Rewrite.size() != P.Original.size())
        throw std::runtime_error("malformed service_mix patch pair");
      Pairs.push_back(std::move(P));
    }
    TablesHash = R.str();
    uint32_t NF = R.u32();
    for (uint32_t I = 0; I < NF; ++I) {
      ScriptFrame F;
      F.Kind = R.u8();
      uint32_t N = R.u32();
      for (uint32_t J = 0; J < N; ++J) {
        F.Modules.push_back(R.u32());
        if (F.Modules.back() >= Modules.size())
          throw std::runtime_error("service_mix frame names a bad module");
      }
      F.Pair = R.u32();
      F.Revert = R.u8() != 0;
      if (F.Kind > MetricsScrape || (F.Kind == Patch && F.Pair >= Pairs.size()))
        throw std::runtime_error("malformed service_mix frame");
      Script.push_back(std::move(F));
    }
    if (Script.empty() || Image.size() < 64)
      throw std::runtime_error("empty service_mix script");
    SockPath += "/svc-" + std::to_string(::getpid()) + ".sock";
    for (uint32_t S = 0; S < NumSessions; ++S)
      Sessions[S].Pos = S * Script.size() / NumSessions;
  }

  ~ServiceMix() override { stop(); }

  std::string characterisation() const override { return Charac; }

  void setup(Tracer &T) override {
    {
      ScopedSpan S(T, "svc.start");
      Svc = std::make_unique<svc::Service>(svc::ServiceOptions{PoolThreads, &Met});
      Loop = std::make_unique<svc::EventLoop>(*Svc, svc::listenUnixSocket(SockPath));
      Runner = std::thread([this] { Loop->run(); });
    }
    for (Session &S : Sessions) {
      ScopedSpan Sp(T, "svc.connect");
      S.Fd = svc::connectUnixSocket(SockPath);
    }
    for (Session &S : Sessions) {
      ScopedSpan Sp(T, "svc.image_open");
      proto::Frame F = roundTrip(S, proto::MsgKind::ImageOpenRequest,
                                 proto::encodeImageOpenRequest(Image));
      if (F.Kind != proto::MsgKind::ImageOpenResponse)
        wrongAnswer("service_mix: image-open got " +
                    std::string(proto::msgKindName(F.Kind)));
      proto::ImageOpenReply R = proto::decodeImageOpenResponse(F.Body);
      if (!R.V.Ok)
        wrongAnswer("service_mix: session image rejected at open");
      S.Handle = R.Image;
    }
    // Seed each session's incremental linter with a patch that rewrites
    // one bundle with its own bytes.
    for (Session &S : Sessions) {
      ScopedSpan Sp(T, "svc.lint_seed");
      proto::PatchRequestBody B;
      B.Image = S.Handle;
      B.Offset = SeedOffset;
      B.Bytes.assign(Image.begin() + SeedOffset,
                     Image.begin() + SeedOffset + core::BundleSize);
      B.WantLint = true;
      proto::Frame F = roundTrip(S, proto::MsgKind::PatchRequest,
                                 proto::encodePatchRequest(B));
      checkPatchReply(F, ImageLint, "lint seed", T);
    }
  }

  Window run(double Seconds, Tracer &T) override {
    Window W;
    W.LatNs.reserve(size_t(Seconds * 20000) + 1024);
    const int64_t Start = nowNs();
    W.begin(Start, Seconds);
    const int64_t Deadline = W.deadline();
    for (Session &S : Sessions)
      issue(S, W, T);
    int64_t LastDone = Start, LastProgress = Start;
    uint8_t Buf[64 * 1024];
    for (;;) {
      pollfd P[NumSessions];
      Session *Of[NumSessions];
      nfds_t N = 0;
      for (Session &S : Sessions)
        if (S.Busy) {
          P[N] = {S.Fd, POLLIN, 0};
          Of[N++] = &S;
        }
      if (N == 0)
        break;
      int Ready = ::poll(P, N, 1000);
      if (Ready < 0 && errno != EINTR)
        throw std::runtime_error("poll failed");
      int64_t Now = nowNs();
      if (Ready <= 0) {
        if (Now - LastProgress > StallNs)
          for (nfds_t I = 0; I < N; ++I)
            dropSession(*Of[I], W, T); // a server that stopped answering
        continue;
      }
      for (nfds_t I = 0; I < N; ++I) {
        if (!P[I].revents)
          continue;
        Session &S = *Of[I];
        ssize_t Got = ::read(S.Fd, Buf, sizeof Buf);
        if (Got <= 0) {
          dropSession(S, W, T);
          continue;
        }
        S.In.insert(S.In.end(), Buf, Buf + Got);
        size_t Pos = 0;
        proto::Frame F;
        if (!proto::parseFrame(S.In.data(), S.In.size(), &Pos, &F))
          continue;
        S.In.erase(S.In.begin(), S.In.begin() + long(Pos));
        LastProgress = LastDone = complete(S, F, W, T);
        if (LastDone < Deadline)
          issue(S, W, T);
        else
          S.Busy = false;
      }
    }
    W.end(LastDone);
    return W;
  }

  void finish() override { stop(); }

  void layerMetrics(Tracer &T, std::vector<Metric> &Out) override {
    replayHandles(T);
    probeAnalysis(T);
    auto A = T.selfTimes();
    auto MedMs = [&](const char *N) { return median(A[N]) / 1e6; };
    Out.push_back({"svc.start_ms", MedMs("svc.start"), "ms"});
    static const char *const Cls[4] = {"verify", "patch", "lint", "control"};
    for (int K = 0; K < 4; ++K)
      Out.push_back({std::string("svc.rtt_ms.") + Cls[K],
                     MedMs(RttSpan[K]), "ms"});
    for (int K = 0; K < 4; ++K)
      Out.push_back({std::string("svc.handle_ms.") + Cls[K],
                     MedMs(HandleSpan[K]), "ms"});
    Out.push_back({"svc.overhead_ms",
                   MedMs("svc.rtt.verify") - MedMs("svc.handle.verify"), "ms"});
    double Frames = TracedFrames ? double(TracedFrames) : 1.0;
    Out.push_back({"svc.codec_us", sum(A["svc.codec"]) / 1e3 / Frames,
                   "us"});
    uint64_t Run = Met.TasksRun.get();
    Out.push_back({"svc.tasks_stolen_ratio",
                   Run ? double(Met.TasksStolen.get()) / double(Run) : 0.0,
                   "ratio"});
    Out.push_back({"svc.backpressure_pauses",
                   double(Met.SvcBackpressurePauses.get()), "count"});
    Out.push_back({"svc.bytes_per_frame",
                   double(Met.SvcBytesIn.get() + Met.SvcBytesOut.get()) /
                       double(SocketFrames ? SocketFrames : 1),
                   "bytes"});
    Out.push_back({"analysis.lint_ms", MedMs("analysis.lint"), "ms"});
    Out.push_back({"analysis.relint_us", median(A["analysis.relint"]) / 1e3,
                   "us"});
    Out.push_back({"analysis.lint_seed_ms", MedMs("analysis.lint_seed"), "ms"});
    Out.push_back({"analysis.relint_fastpath_ratio",
                   Relints ? double(FastRelints) / double(Relints) : 0.0,
                   "ratio"});
  }

  void corruptOneAnswer() override {
    const Session &S = Sessions[0];
    for (size_t I = 0; I < Script.size(); ++I) {
      const ScriptFrame &F = Script[(S.Pos + I) % Script.size()];
      if (F.Kind == Verify) {
        Expect &E = Verdicts[F.Modules.front()];
        E.Ok = !E.Ok;
        E.Reason = E.Ok ? core::RejectReason::None : core::RejectReason::NoParse;
        return;
      }
    }
  }

private:
  struct Session {
    int Fd = -1;
    uint32_t Handle = 0;
    size_t Pos = 0;   ///< next script frame
    size_t Frame = 0; ///< the frame in flight
    bool Busy = false;
    int64_t IssueNs = 0;
    int32_t Span = -1;
    std::vector<uint8_t> In;
  };

  proto::MsgKind encodeRequest(const ScriptFrame &F, uint32_t Handle,
                               std::vector<uint8_t> &Body) const {
    switch (F.Kind) {
    case Verify: {
      std::vector<std::vector<uint8_t>> Batch;
      for (uint32_t M : F.Modules)
        Batch.push_back(Modules[M]);
      Body = proto::encodeImageBatch(Batch);
      return proto::MsgKind::VerifyRequest;
    }
    case Lint:
      Body = proto::encodeImageBatch({Modules[F.Modules.front()]});
      return proto::MsgKind::LintRequest;
    case Patch: {
      const PatchPair &P = Pairs[F.Pair];
      proto::PatchRequestBody B;
      B.Image = Handle;
      B.Offset = P.Offset;
      B.Bytes = F.Revert ? P.Original : P.Rewrite;
      B.WantLint = true;
      Body = proto::encodePatchRequest(B);
      return proto::MsgKind::PatchRequest;
    }
    case Tables:
      Body = proto::encodeTablesRequest(TablesHash);
      return proto::MsgKind::TablesRequest;
    default:
      Body.clear();
      return proto::MsgKind::MetricsRequest;
    }
  }

  static void sendAll(int Fd, const std::vector<uint8_t> &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        throw std::runtime_error("send failed");
      Off += size_t(N);
    }
  }

  /// Blocking request/reply (setup only).
  proto::Frame roundTrip(Session &S, proto::MsgKind K,
                         const std::vector<uint8_t> &Body) {
    std::vector<uint8_t> Req;
    proto::appendFrame(Req, K, Body);
    sendAll(S.Fd, Req);
    ++SocketFrames;
    proto::Frame F;
    uint8_t Buf[64 * 1024];
    for (;;) {
      size_t Pos = 0;
      if (proto::parseFrame(S.In.data(), S.In.size(), &Pos, &F)) {
        S.In.erase(S.In.begin(), S.In.begin() + long(Pos));
        return F;
      }
      ssize_t N = ::read(S.Fd, Buf, sizeof Buf);
      if (N <= 0)
        throw std::runtime_error("service closed the session during setup");
      S.In.insert(S.In.end(), Buf, Buf + N);
    }
  }

  void issue(Session &S, Window &W, Tracer &T) {
    S.Frame = S.Pos;
    S.Pos = (S.Pos + 1) % Script.size();
    const ScriptFrame &F = Script[S.Frame];
    S.IssueNs = nowNs();
    S.Span = T.open(RttSpan[F.Kind]);
    std::vector<uint8_t> Req;
    {
      ScopedSpan C(T, "svc.codec", S.Span);
      std::vector<uint8_t> Body;
      proto::MsgKind K = encodeRequest(F, S.Handle, Body);
      proto::appendFrame(Req, K, Body);
    }
    ++W.Attempted;
    ++SocketFrames;
    S.Busy = true;
    try {
      sendAll(S.Fd, Req);
    } catch (const std::exception &) {
      dropSession(S, W, T);
    }
  }

  void dropSession(Session &S, Window &W, Tracer &T) {
    if (S.Busy)
      ++W.Failed; // the frame in flight never got its verdict
    T.close(S.Span);
    S.Span = -1;
    S.Busy = false;
    if (S.Fd >= 0)
      ::close(S.Fd);
    S.Fd = -1;
  }

  /// Times a reply on arrival, then decodes and checks it; returns the
  /// arrival time.
  int64_t complete(Session &S, const proto::Frame &Resp, Window &W,
                   Tracer &T) {
    const int64_t Done = nowNs();
    T.close(S.Span);
    S.Span = -1;
    if (!checkReply(Script[S.Frame], Resp, T)) {
      ++W.Failed;
      W.tick(Done);
    } else {
      W.add(Done - S.IssueNs, Done);
    }
    if (T.On)
      ++TracedFrames;
    return Done;
  }

  /// Decodes a reply body (a client codec span) with \p Decode.
  template <typename Fn> static auto decoded(Tracer &T, Fn Decode) {
    ScopedSpan C(T, "svc.codec");
    return Decode();
  }

  /// Compares a reply with the frame's known answer; false when the
  /// service answered with an ErrorResponse (a failed op).
  bool checkReply(const ScriptFrame &F, const proto::Frame &Resp, Tracer &T) {
    using proto::MsgKind;
    if (Resp.Kind == MsgKind::ErrorResponse)
      return false;
    switch (F.Kind) {
    case Verify: {
      if (Resp.Kind != MsgKind::VerifyResponse)
        wrongAnswer("service_mix: verify got " +
                    std::string(proto::msgKindName(Resp.Kind)));
      std::vector<proto::VerifyVerdict> V =
          decoded(T, [&] { return proto::decodeVerifyResponse(Resp.Body); });
      if (V.size() != F.Modules.size())
        wrongAnswer("service_mix: verify batch size mismatch");
      for (size_t I = 0; I < V.size(); ++I) {
        const Expect &E = Verdicts[F.Modules[I]];
        if (V[I].Ok != E.Ok || V[I].Reason != E.Reason)
          wrongAnswer("service_mix: module " + std::to_string(F.Modules[I]) +
                      " got " + core::rejectReasonName(V[I].Reason) +
                      ", expected " + core::rejectReasonName(E.Reason));
      }
      return true;
    }
    case Lint: {
      if (Resp.Kind != MsgKind::LintResponse)
        wrongAnswer("service_mix: lint got " +
                    std::string(proto::msgKindName(Resp.Kind)));
      std::vector<proto::LintReport> L =
          decoded(T, [&] { return proto::decodeLintResponse(Resp.Body); });
      LintExpect Got = L.size() == 1 ? reduce(L[0]) : LintExpect{};
      if (!(Got == Lints[F.Modules.front()]))
        wrongAnswer("service_mix: lint of module " +
                    std::to_string(F.Modules.front()) + " got " + Got.str() +
                    ", expected " + Lints[F.Modules.front()].str());
      return true;
    }
    case Patch:
      checkPatchReply(Resp, F.Revert ? ImageLint : Pairs[F.Pair].AfterRewrite,
                      "patch pair " + std::to_string(F.Pair), T);
      return true;
    case Tables: {
      if (Resp.Kind != MsgKind::TablesResponse)
        wrongAnswer("service_mix: tables got " +
                    std::string(proto::msgKindName(Resp.Kind)));
      proto::TablesReply R =
          decoded(T, [&] { return proto::decodeTablesResponse(Resp.Body); });
      if (!R.HashMatched || R.HashHex != TablesHash || !R.Blob.empty())
        wrongAnswer("service_mix: warm tables request was not a hash hit");
      return true;
    }
    default: {
      if (Resp.Kind != MsgKind::MetricsResponse)
        wrongAnswer("service_mix: metrics got " +
                    std::string(proto::msgKindName(Resp.Kind)));
      std::string Text =
          decoded(T, [&] { return proto::decodeMetricsResponse(Resp.Body); });
      if (Text.find("svc_verify_requests ") == std::string::npos)
        wrongAnswer("service_mix: metrics scrape lacks svc_verify_requests");
      return true;
    }
    }
  }

  static LintExpect reduce(const proto::LintReport &R) {
    return {R.ParseComplete, R.Errors, R.Warnings, R.Notes, fnv1a(R.Render)};
  }

  void checkPatchReply(const proto::Frame &Resp, const LintExpect &Want,
                       const std::string &What, Tracer &T) {
    if (Resp.Kind != proto::MsgKind::PatchResponse)
      wrongAnswer("service_mix: " + What + " got " +
                  proto::msgKindName(Resp.Kind));
    proto::PatchReply R =
        decoded(T, [&] { return proto::decodePatchResponse(Resp.Body); });
    if (!R.V.Ok || !R.HasLint)
      wrongAnswer("service_mix: " + What + " was rejected or carried no lint");
    LintExpect Got = reduce(R.Lint);
    if (!(Got == Want))
      wrongAnswer("service_mix: " + What + " lint got " + Got.str() +
                  ", expected " + Want.str());
  }

  void stop() {
    for (Session &S : Sessions)
      if (S.Fd >= 0) {
        ::close(S.Fd);
        S.Fd = -1;
      }
    if (Loop) {
      Loop->requestStop();
      if (Runner.joinable())
        Runner.join();
      Loop.reset();
    }
    ::unlink(SockPath.c_str());
  }

  /// The same frames, replayed in-process through Service::handleFrame
  /// on a fresh session: the service's own share of each round trip.
  void replayHandles(Tracer &T) {
    svc::Service::Session Sess(*Svc);
    proto::ImageOpenReply O = Svc->imageOpen(Sess, Image);
    Svc->patch(Sess, O.Image, SeedOffset,
               std::vector<uint8_t>(Image.begin() + SeedOffset,
                                    Image.begin() + SeedOffset +
                                        core::BundleSize),
               true);
    const size_t N = std::min<size_t>(Script.size(), 1200);
    for (size_t I = 0; I < N; ++I) {
      const ScriptFrame &F = Script[I];
      std::vector<uint8_t> Body;
      proto::Frame Req;
      Req.Kind = encodeRequest(F, O.Image, Body);
      Req.Body = std::move(Body);
      std::vector<uint8_t> Out;
      {
        ScopedSpan S(T, HandleSpan[F.Kind]);
        Out = Svc->handleFrame(Req, &Sess, nullptr);
      }
      size_t Pos = 0;
      proto::Frame Resp;
      Tracer Untimed; // client codec spans belong to the socket run
      if (!proto::parseFrame(Out.data(), Out.size(), &Pos, &Resp) ||
          !checkReply(F, Resp, Untimed))
        wrongAnswer("service_mix: in-process replay of frame " +
                    std::to_string(I) + " failed");
    }
  }

  /// The analysis layer on its own: fresh lint of the lint-frame
  /// modules, the incremental linter's seed, and its re-lints over every
  /// patch pair.
  void probeAnalysis(Tracer &T) {
    const core::PolicyTables &Tab = core::policyTables();
    for (const ScriptFrame &F : Script) {
      if (F.Kind != Lint)
        continue;
      uint32_t M = F.Modules.front();
      analysis::CfgLintResult L;
      {
        ScopedSpan S(T, "analysis.lint");
        L = analysis::lintImage(Tab, Modules[M]);
      }
      LintExpect Got{L.ParseComplete, L.Errors, L.Warnings, L.Notes,
                     fnv1a(L.render())};
      if (!(Got == Lints[M]))
        wrongAnswer("service_mix: lintImage disagrees on module " +
                    std::to_string(M));
    }
    incr::IncrementalVerifier IV(Tab);
    analysis::IncrementalLinter IL(Tab);
    incr::ImageId Id = IV.open(Image);
    const incr::ImageEntry *E = IV.store().get(Id);
    {
      ScopedSpan S(T, "analysis.lint_seed");
      IL.open(Id, E->Bytes.data(), E->size(), E->ChunkBytes);
    }
    for (int Round = 0; Round < 4; ++Round)
      for (const PatchPair &P : Pairs)
        for (int Half = 0; Half < 2; ++Half) {
          const std::vector<uint8_t> &B = Half ? P.Original : P.Rewrite;
          incr::IncrResult R = IV.patch(Id, P.Offset, B);
          analysis::IncrementalLinter::Summary Sum;
          {
            ScopedSpan S(T, "analysis.relint");
            Sum = IL.relint(Id, E->Bytes.data(), E->size(), R);
          }
          ++Relints;
          FastRelints += Sum.FastPath;
          const LintExpect &Want = Half ? ImageLint : P.AfterRewrite;
          if (Sum.Errors != Want.Errors || Sum.Warnings != Want.Warnings ||
              Sum.Notes != Want.Notes)
            wrongAnswer("service_mix: incremental re-lint counts disagree");
        }
  }

  std::string Charac;
  std::vector<std::vector<uint8_t>> Modules;
  std::vector<Expect> Verdicts;
  std::vector<LintExpect> Lints;
  std::vector<uint8_t> Image;
  LintExpect ImageLint;
  uint32_t SeedOffset = 0;
  std::vector<PatchPair> Pairs;
  std::string TablesHash;
  std::vector<ScriptFrame> Script;

  std::string SockPath;
  svc::Metrics Met;
  std::unique_ptr<svc::Service> Svc;
  std::unique_ptr<svc::EventLoop> Loop;
  std::thread Runner;
  Session Sessions[NumSessions];
  uint64_t SocketFrames = 0, TracedFrames = 0, Relints = 0, FastRelints = 0;
};

LintExpect lintExpect(const std::vector<uint8_t> &Img) {
  analysis::CfgLintResult L = analysis::lintImage(core::policyTables(), Img);
  return {L.ParseComplete, L.Errors, L.Warnings, L.Notes, fnv1a(L.render())};
}

} // namespace

std::vector<uint8_t> generateServiceMix(uint64_t Seed) {
  Rng R(Seed * 0x9E3779B97F4A7C15ull + 0x5E);

  std::vector<std::vector<uint8_t>> Modules;
  std::vector<Expect> Verdicts;
  std::vector<double> SizesKiB;
  uint32_t Rejects = 0;
  for (uint32_t I = 0; I < PoolModules; ++I) {
    double Kib = MinKiB * std::pow(MaxKiB / MinKiB, (I + 0.5) / PoolModules);
    uint32_t Bytes = uint32_t(Kib * 1024.0) / 32 * 32;
    uint64_t ModSeed = R.next();
    std::vector<uint8_t> M =
        accurateImage(ModSeed, Bytes, uint32_t(10 + R.below(71)),
                      uint32_t(5 + R.below(36)), uint32_t(5 + R.below(26)));
    Expect E;
    if (I % 10 == 7) {
      uint8_t Why = 0;
      M = attacked(M, I / 10, ModSeed, Why);
      E.Ok = false;
      E.Reason = core::RejectReason(Why);
      ++Rejects;
    }
    SizesKiB.push_back(double(M.size()) / 1024.0);
    Modules.push_back(std::move(M));
    Verdicts.push_back(E);
  }
  // Pool order is by size; scripts draw modules uniformly.

  // The session image: ordinary generated code followed by a
  // straight-line arena. Most patch pairs rewrite arena bundles, whose
  // chunks hold no control flow, so their re-lint takes the O(window)
  // fast path; the rest rewrite bundles among branches and take the
  // O(image) middle path.
  std::vector<uint8_t> Image = accurateImage(
      R.next(), SessionImageBytes - ArenaBytes, 40, 20, 15);
  std::vector<uint8_t> Arena = accurateImage(R.next(), ArenaBytes, 0, 0, 0);
  Image.insert(Image.end(), Arena.begin(), Arena.end());
  std::vector<uint32_t> InArena, Ordinary;
  for (uint32_t Off : rewritableBundles(Image))
    (Off >= SessionImageBytes - ArenaBytes ? InArena : Ordinary).push_back(Off);
  if (InArena.size() < PatchPairs || Ordinary.size() < PatchPairs)
    throw std::logic_error("session image has too few rewritable bundles");
  for (auto *V : {&InArena, &Ordinary})
    for (uint32_t I = uint32_t(V->size()) - 1; I > 0; --I)
      std::swap((*V)[I], (*V)[R.below(I + 1)]);
  const uint32_t SeedOffset = Ordinary.back();
  std::vector<std::vector<uint8_t>> Contents =
      straightLineBundles(R.next(), PatchPairs);
  std::vector<PatchPair> Pairs;
  for (uint32_t I = 0; I < PatchPairs; ++I) {
    PatchPair P;
    P.Offset = I % MiddlePathEvery == 0 ? Ordinary[I] : InArena[I];
    P.Original.assign(Image.begin() + P.Offset,
                      Image.begin() + P.Offset + core::BundleSize);
    P.Rewrite = Contents[I];
    std::vector<uint8_t> After = Image;
    std::copy(P.Rewrite.begin(), P.Rewrite.end(), After.begin() + P.Offset);
    P.AfterRewrite = lintExpect(After);
    Pairs.push_back(std::move(P));
  }

  std::vector<uint8_t> Kinds;
  Kinds.insert(Kinds.end(), NumVerify, Verify);
  Kinds.insert(Kinds.end(), NumPatch, Patch);
  Kinds.insert(Kinds.end(), NumLint, Lint);
  Kinds.insert(Kinds.end(), NumTables, Tables);
  Kinds.insert(Kinds.end(), NumMetrics, MetricsScrape);
  for (uint32_t I = uint32_t(Kinds.size()) - 1; I > 0; --I)
    std::swap(Kinds[I], Kinds[R.below(I + 1)]);
  std::vector<ScriptFrame> Script;
  uint32_t PatchSeq = 0;
  uint64_t ReqBytes = 0, BatchModules = 0;
  for (uint8_t K : Kinds) {
    ScriptFrame F;
    F.Kind = K;
    if (K == Verify) {
      uint32_t N = uint32_t(1 + R.below(4));
      for (uint32_t J = 0; J < N; ++J)
        F.Modules.push_back(uint32_t(R.below(PoolModules)));
      BatchModules += N;
    } else if (K == Lint) {
      F.Modules.push_back(uint32_t(R.below(PoolModules)));
    } else if (K == Patch) {
      F.Pair = (PatchSeq / 2) % PatchPairs;
      F.Revert = PatchSeq % 2;
      ++PatchSeq;
    }
    // Request frame size, for the characterisation line.
    ReqBytes += proto::FrameHeaderSize;
    if (K == Verify || K == Lint) {
      ReqBytes += 4;
      for (uint32_t M : F.Modules)
        ReqBytes += 4 + Modules[M].size();
    } else if (K == Patch) {
      ReqBytes += 13 + core::BundleSize;
    } else if (K == Tables) {
      ReqBytes += 4 + 64;
    }
    Script.push_back(std::move(F));
  }

  std::ostringstream C;
  C << "{\"sessions\": " << NumSessions << ", \"pool_threads\": " << PoolThreads
    << ", \"script_frames\": " << ScriptFrames
    << ", \"kind_share\": {\"verify\": " << num(double(NumVerify) / ScriptFrames)
    << ", \"patch\": " << num(double(NumPatch) / ScriptFrames)
    << ", \"lint\": " << num(double(NumLint) / ScriptFrames)
    << ", \"tables\": " << num(double(NumTables) / ScriptFrames)
    << ", \"metrics\": " << num(double(NumMetrics) / ScriptFrames) << "}"
    << ", \"verify_batch_mean\": " << num(double(BatchModules) / NumVerify)
    << ", \"module_size_p50_kib\": " << num(quantile(SizesKiB, 0.5))
    << ", \"module_size_p90_kib\": " << num(quantile(SizesKiB, 0.9))
    << ", \"module_reject_share\": " << num(double(Rejects) / PoolModules)
    << ", \"request_bytes_per_frame\": "
    << num(double(ReqBytes) / ScriptFrames)
    << ", \"session_image_kib\": " << SessionImageBytes / 1024
    << ", \"patch_pairs_in_arena\": "
    << num(1.0 - 1.0 / MiddlePathEvery) << "}";

  Writer W;
  writeHeader(W, "service_mix", Seed);
  W.str(C.str());
  W.u32(uint32_t(Modules.size()));
  for (uint32_t I = 0; I < Modules.size(); ++I) {
    W.bytes(Modules[I]);
    W.u8(Verdicts[I].Ok);
    W.u8(uint8_t(Verdicts[I].Reason));
    lintExpect(Modules[I]).write(W);
  }
  W.bytes(Image);
  lintExpect(Image).write(W);
  W.u32(SeedOffset); // the lint-seeding patch rewrites it with itself
  W.u32(uint32_t(Pairs.size()));
  for (const PatchPair &P : Pairs) {
    W.u32(P.Offset);
    W.bytes(P.Rewrite);
    W.bytes(P.Original);
    P.AfterRewrite.write(W);
  }
  W.str(core::defaultTableEntry().HashHex);
  W.u32(uint32_t(Script.size()));
  for (const ScriptFrame &F : Script) {
    W.u8(F.Kind);
    W.u32(uint32_t(F.Modules.size()));
    for (uint32_t M : F.Modules)
      W.u32(M);
    W.u32(F.Pair);
    W.u8(F.Revert);
  }
  return W.data();
}

std::unique_ptr<Workload> loadServiceMix(Reader &R,
                                         const std::string &WorkDir) {
  return std::make_unique<ServiceMix>(R, WorkDir);
}

} // namespace e2e
