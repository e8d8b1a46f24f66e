//===- svc/Service.cpp - Long-running verification service ----------------===//

#include "svc/Service.h"

#include "analysis/CfgLint.h"
#include "analysis/PolicyAudit.h"
#include "core/TableRegistry.h"
#include "regex/TableIO.h"

#include <cerrno>
#include <chrono>
#include <sys/socket.h>
#include <unistd.h>

using namespace rocksalt;
using namespace rocksalt::svc;

namespace {

uint64_t nowNanos() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

void writeAll(int Fd, const std::vector<uint8_t> &Data) {
  // send(MSG_NOSIGNAL) so a client that closed its socket mid-reply
  // yields EPIPE here instead of a process-killing SIGPIPE. Non-socket
  // fds (the stdio transport) report ENOTSOCK and fall back to write();
  // that path relies on the caller ignoring SIGPIPE (runServer does).
  bool Socket = true;
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N =
        Socket ? ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL)
               : ::write(Fd, Data.data() + Off, Data.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Socket && errno == ENOTSOCK) {
        Socket = false;
        continue;
      }
      if (errno == EPIPE || errno == ECONNRESET)
        throw proto::ProtocolError("peer closed the stream mid-reply");
      throw proto::ProtocolError("write error on session stream");
    }
    Off += size_t(N);
  }
}

} // namespace

Service::Service(ServiceOptions O)
    : Opts(O), OwnedMet(O.Met ? nullptr : std::make_unique<Metrics>()),
      Met(O.Met ? O.Met : OwnedMet.get()),
      Pool(VerifierPool::Options{O.Threads}, Met),
      Tables(core::policyTables()), Fused(core::fusedPolicyTables()),
      Blob(core::serializePolicyTables(Tables)),
      BlobHashHex(re::verifyBlobHashHex(Blob)) {}

Service::~Service() = default;

std::vector<proto::VerifyVerdict>
Service::verify(std::vector<std::vector<uint8_t>> Images) {
  // TaskGroup + wait() instead of futures: wait() *helps* (the waiter
  // drains queued tasks), so a pool worker that is itself executing a
  // session's handleFrame — the event loop dispatches whole frames onto
  // the pool — makes progress on its own fan-out instead of blocking a
  // worker slot. With future::get() here, N sessions' verify frames on
  // an N-thread pool would deadlock: every worker parked on a future
  // whose task sits behind it in a queue. The images live on this
  // frame's stack until wait() returns, so borrowing is safe.
  Met->BatchImages.record(Images.size());
  std::vector<core::CheckResult> Results(Images.size());
  VerifierPool::TaskGroup G;
  for (size_t I = 0; I < Images.size(); ++I) {
    Met->ImagesSubmitted.add();
    Pool.run(G, [this, &Images, &Results, I] {
      uint64_t T0 = nowNanos();
      core::RockSalt V(Fused);
      Results[I] = V.check(Images[I].data(), uint32_t(Images[I].size()));
      recordOutcome(*Met, Results[I], Images[I].size(), nowNanos() - T0);
    });
  }
  Pool.wait(G);
  std::vector<proto::VerifyVerdict> Verdicts;
  Verdicts.reserve(Results.size());
  for (const core::CheckResult &R : Results)
    Verdicts.push_back({R.Ok, R.Reason});
  return Verdicts;
}

std::vector<proto::LintReport>
Service::lint(const std::vector<std::vector<uint8_t>> &Images) {
  std::vector<analysis::CfgLintResult> Results(Images.size());
  VerifierPool::TaskGroup G;
  for (size_t I = 0; I < Images.size(); ++I)
    Pool.run(G, [this, &Images, &Results, I] {
      Results[I] = analysis::lintImage(Tables, Images[I], Met);
    });
  Pool.wait(G);

  std::vector<proto::LintReport> Reports;
  Reports.reserve(Results.size());
  for (const analysis::CfgLintResult &L : Results) {
    proto::LintReport R;
    R.ParseComplete = L.ParseComplete;
    R.Errors = L.Errors;
    R.Warnings = L.Warnings;
    R.Notes = L.Notes;
    R.Render = L.render();
    Reports.push_back(std::move(R));
  }
  return Reports;
}

proto::AuditVerdict Service::audit() {
  {
    std::lock_guard<std::mutex> L(AuditM);
    if (!AuditRefs)
      AuditRefs =
          std::make_unique<analysis::DecoderDfas>(analysis::buildDecoderDfas());
  }
  analysis::AuditReport R = analysis::auditPolicy(Tables, *AuditRefs);
  return {R.Pass, R.render()};
}

proto::TablesReply Service::tables(const std::string &ExpectHashHex,
                                   const std::string &Isa) {
  proto::TablesReply R;
  if (!Isa.empty()) {
    // Explicit selector: serve that ISA's registry entry or fail loudly
    // (a ProtocolError becomes an ErrorResponse; the session survives).
    const core::TableEntry *E =
        core::TableRegistry::instance().byKey(Isa, core::PolicySetNacl);
    if (!E)
      throw proto::ProtocolError("no policy tables registered for ISA '" +
                                 Isa + "'");
    R.HashHex = E->HashHex;
    if (!ExpectHashHex.empty() && ExpectHashHex == E->HashHex) {
      R.HashMatched = true;
      Met->SvcTablesHashHits.add();
    } else {
      R.Blob = E->Blob;
    }
    return R;
  }
  R.HashHex = BlobHashHex;
  if (!ExpectHashHex.empty() && ExpectHashHex == BlobHashHex) {
    R.HashMatched = true; // negotiation short-circuit: no blob on the wire
    Met->SvcTablesHashHits.add();
  } else if (const core::TableEntry *E =
                 ExpectHashHex.empty()
                     ? nullptr
                     : core::TableRegistry::instance().byHash(ExpectHashHex)) {
    // Old wire shape, but the client's cached hash names *some* other
    // registered entry — confirm it by hash instead of force-feeding the
    // x86 blob (multi-ISA clients pre-dating the selector field).
    R.HashHex = E->HashHex;
    R.HashMatched = true;
    Met->SvcTablesHashHits.add();
  } else {
    R.Blob = Blob;
  }
  return R;
}

Service::Session::Session(Service &S)
    : Incr(S.policyTables(), incr::IncrementalOptions{}, &S.metrics()),
      Lint(S.policyTables(), &S.metrics()) {}

proto::ImageOpenReply Service::imageOpen(Session &Sess,
                                         std::vector<uint8_t> Image) {
  incr::IncrResult R;
  incr::ImageId Id = Sess.incremental().open(std::move(Image), &R);
  return {Id, {R.Ok, R.Reason}};
}

proto::PatchReply Service::patch(Session &Sess, uint32_t Image,
                                 uint32_t Offset,
                                 const std::vector<uint8_t> &Bytes,
                                 bool WantLint) {
  incr::IncrResult R = Sess.incremental().patch(Image, Offset, Bytes.data(),
                                                uint32_t(Bytes.size()));
  proto::PatchReply P;
  P.V = {R.Ok, R.Reason};
  P.ChunksRescanned = R.ChunksRescanned;
  if (WantLint) {
    const incr::ImageEntry *E = Sess.incremental().store().get(Image);
    analysis::IncrementalLinter &L = Sess.linter();
    analysis::IncrementalLinter::Summary S =
        L.tracks(Image)
            ? L.relint(Image, E->Bytes.data(), E->size(), R)
            : L.open(Image, E->Bytes.data(), E->size(), E->ChunkBytes);
    P.HasLint = true;
    P.Lint.ParseComplete = S.ParseComplete;
    P.Lint.Errors = S.Errors;
    P.Lint.Warnings = S.Warnings;
    P.Lint.Notes = S.Notes;
    P.Lint.Render = L.render(Image);
  }
  return P;
}

void Service::imageClose(Session &Sess, uint32_t Image) {
  Sess.incremental().close(Image);
  Sess.linter().close(Image); // no-op when lint was never requested
}

std::vector<uint8_t> Service::handleFrame(const proto::Frame &F,
                                          bool *ShutdownOut) {
  return handleFrame(F, nullptr, ShutdownOut);
}

std::vector<uint8_t> Service::handleFrame(const proto::Frame &F, Session *Sess,
                                          bool *ShutdownOut) {
  using proto::MsgKind;
  if (ShutdownOut)
    *ShutdownOut = false;
  uint64_t T0 = nowNanos();
  std::vector<uint8_t> Out;
  try {
    switch (F.Kind) {
    case MsgKind::VerifyRequest: {
      Met->SvcVerifyRequests.add();
      std::vector<proto::VerifyVerdict> V =
          verify(proto::decodeImageBatch(F.Body));
      proto::appendFrame(Out, MsgKind::VerifyResponse,
                         proto::encodeVerifyResponse(V));
      break;
    }
    case MsgKind::LintRequest: {
      Met->SvcLintRequests.add();
      std::vector<std::vector<uint8_t>> Images =
          proto::decodeImageBatch(F.Body);
      proto::appendFrame(Out, MsgKind::LintResponse,
                         proto::encodeLintResponse(lint(Images)));
      break;
    }
    case MsgKind::AuditRequest: {
      Met->SvcAuditRequests.add();
      if (!F.Body.empty())
        throw proto::ProtocolError("audit request body must be empty");
      proto::appendFrame(Out, MsgKind::AuditResponse,
                         proto::encodeAuditResponse(audit()));
      break;
    }
    case MsgKind::TablesRequest: {
      Met->SvcTablesRequests.add();
      proto::TablesRequestBody TR = proto::decodeTablesRequest(F.Body);
      proto::TablesReply R = tables(TR.ExpectHashHex, TR.Isa);
      proto::appendFrame(Out, MsgKind::TablesResponse,
                         proto::encodeTablesResponse(R));
      break;
    }
    case MsgKind::MetricsRequest: {
      Met->SvcMetricsRequests.add();
      if (!F.Body.empty())
        throw proto::ProtocolError("metrics request body must be empty");
      proto::appendFrame(Out, MsgKind::MetricsResponse,
                         proto::encodeMetricsResponse(metricsText()));
      break;
    }
    case MsgKind::ShutdownRequest: {
      if (!F.Body.empty())
        throw proto::ProtocolError("shutdown request body must be empty");
      if (ShutdownOut)
        *ShutdownOut = true;
      proto::appendFrame(Out, MsgKind::ShutdownResponse, {});
      break;
    }
    case MsgKind::ImageOpenRequest: {
      Met->SvcImageOpenRequests.add();
      if (!Sess)
        throw proto::ProtocolError(
            "image-handle requests require a stateful session");
      proto::ImageOpenReply R =
          imageOpen(*Sess, proto::decodeImageOpenRequest(F.Body));
      proto::appendFrame(Out, MsgKind::ImageOpenResponse,
                         proto::encodeImageOpenResponse(R));
      break;
    }
    case MsgKind::PatchRequest: {
      Met->SvcPatchRequests.add();
      if (!Sess)
        throw proto::ProtocolError(
            "image-handle requests require a stateful session");
      proto::PatchRequestBody B = proto::decodePatchRequest(F.Body);
      proto::PatchReply R =
          patch(*Sess, B.Image, B.Offset, B.Bytes, B.WantLint);
      proto::appendFrame(Out, MsgKind::PatchResponse,
                         proto::encodePatchResponse(R));
      Met->SvcPatchNanos.record(nowNanos() - T0);
      break;
    }
    case MsgKind::ImageCloseRequest: {
      Met->SvcImageCloseRequests.add();
      if (!Sess)
        throw proto::ProtocolError(
            "image-handle requests require a stateful session");
      imageClose(*Sess, proto::decodeImageCloseRequest(F.Body));
      proto::appendFrame(Out, MsgKind::ImageCloseResponse, {});
      break;
    }
    default:
      throw proto::ProtocolError(std::string("frame kind ") +
                                 proto::msgKindName(F.Kind) +
                                 " is not a request");
    }
  } catch (const proto::ProtocolError &E) {
    // A decodable frame with a malformed body: answer and keep the
    // session; only transport-level garbage (parseFrame throws) kills it.
    Met->SvcErrors.add();
    Out.clear();
    proto::appendFrame(Out, MsgKind::ErrorResponse,
                       proto::encodeErrorResponse(E.what()));
  } catch (const std::invalid_argument &E) {
    // Well-formed request naming a bad image handle or patch range:
    // same recovery — the session's other handles stay live.
    Met->SvcErrors.add();
    Out.clear();
    proto::appendFrame(Out, MsgKind::ErrorResponse,
                       proto::encodeErrorResponse(E.what()));
  }
  Met->SvcRequestNanos.record(nowNanos() - T0);
  return Out;
}

Service::ServeStatus Service::serveFd(int InFd, int OutFd) {
  std::vector<uint8_t> In;
  size_t Pos = 0;
  uint8_t Buf[64 * 1024];
  proto::Frame F;
  bool Shutdown = false;
  Session Sess(*this); // image handles live and die with this session
  while (true) {
    while (proto::parseFrame(In.data(), In.size(), &Pos, &F)) {
      writeAll(OutFd, handleFrame(F, &Sess, &Shutdown));
      if (Shutdown) {
        Met->SvcSessions.add();
        return ServeStatus::Shutdown;
      }
    }
    if (Pos) { // drop consumed frames before the next read grows the buffer
      In.erase(In.begin(), In.begin() + long(Pos));
      Pos = 0;
    }
    ssize_t N = ::read(InFd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      throw proto::ProtocolError("read error on session stream");
    }
    if (N == 0) {
      if (!In.empty())
        throw proto::ProtocolError("EOF inside a frame");
      Met->SvcSessions.add();
      return ServeStatus::PeerClosed;
    }
    In.insert(In.end(), Buf, Buf + N);
  }
}
