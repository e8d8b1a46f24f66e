//===- svc/Service.h - Long-running verification service -------*- C++ -*-===//
///
/// \file
/// The production shape of the checker: a long-lived, multi-session
/// verification server in the style of NaCl's validator-in-the-runtime
/// deployment (Yee et al., Oakland 2009) — the tables are built once,
/// the pool's workers stay warm, and clients submit request batches over
/// the framed protocol (svc/Protocol.h) instead of paying per-process
/// startup. Seven request kinds:
///
///  * verify — batch verification fanned out on the VerifierPool; the
///    tasks borrow the decoded request's image buffers, and the frame
///    joins them with `wait` before it replies, so the buffers outlive
///    every task;
///  * lint   — per-image CFG recovery + diagnostics (analysis/CfgLint),
///    fanned out on the pool, counted in the Metrics lint_* family;
///  * audit  — the policy meta-verifier (analysis/PolicyAudit) run
///    against the server's *live* tables on demand (a bit-rotted table
///    fails with a witness while the server is still up);
///  * tables — the serialized RSTB blob, content-addressed: a client
///    sends the hash it already has and a match short-circuits the
///    transfer (hash-only response), so remote checkers skip both the
///    transfer and the per-process table rebuild;
///  * image-open / patch / image-close — the incremental path for
///    mutating images (src/incr): open registers an image and returns a
///    handle plus its initial verdict, each patch overwrites bytes in
///    place and re-verifies only the chunks the patch invalidated
///    (verdict bit-identical to a full re-check), close drops the
///    handle. Handles are *session-scoped*: each serveFd session owns
///    its own incremental verifier, so a handle can never leak into
///    another client's session, and the stateful kinds are rejected
///    with an ErrorResponse when no session state exists (the 2-arg
///    handleFrame overload used by stateless harnesses);
///  * metrics — the live counter/histogram exposition
///    (Metrics::exposition()), one metric per line, for scrapers and
///    `validator_cli --connect --metrics`.
///
/// The in-process API (verify/lint/audit/tables/imageOpen/patch/
/// imageClose/metricsText) is the source of truth; handleFrame and the
/// serveFd loop are a thin codec shell over it, so transports (socket,
/// pipe, test harness) share one behavior. handleFrame is safe to call
/// concurrently for *different* sessions (the event-driven serve layer,
/// svc/EventLoop.h, dispatches many sessions onto the pool at once);
/// frames of one session must stay serialized by the caller.
/// Malformed request *bodies* are answered with an ErrorResponse frame
/// and the session continues; malformed *framing* (bad magic, hostile
/// length) aborts the session — the stream can no longer be trusted.
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_SVC_SERVICE_H
#define ROCKSALT_SVC_SERVICE_H

#include "analysis/Dataflow.h"
#include "incr/IncrementalVerifier.h"
#include "svc/Protocol.h"
#include "svc/VerifierPool.h"

#include <memory>
#include <string>

namespace rocksalt {

namespace analysis {
struct DecoderDfas;
}

namespace svc {

struct ServiceOptions {
  unsigned Threads = 0;   ///< pool size; 0 → hardware_concurrency()
  Metrics *Met = nullptr; ///< external sink; null → service-owned instance
  /// listen(2) backlog for socket transports; 0 → SOMAXCONN. The old
  /// hardcoded backlog of 8 refused connections the moment a handful of
  /// clients arrived together.
  int Backlog = 0;
};

class Service {
public:
  explicit Service(ServiceOptions O = {});
  ~Service();

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  // --- In-process request API ------------------------------------------

  /// Batch verification. Takes the images by value: ownership moves into
  /// the pool tasks, so the caller's buffers (e.g. a session's receive
  /// buffer) carry no lifetime obligation past this call.
  std::vector<proto::VerifyVerdict>
  verify(std::vector<std::vector<uint8_t>> Images);

  /// Batch lint. Borrows the images only until return (the fan-out is
  /// joined inside).
  std::vector<proto::LintReport>
  lint(const std::vector<std::vector<uint8_t>> &Images);

  /// Runs the policy meta-verifier against the live tables.
  proto::AuditVerdict audit();

  /// Content-addressed table distribution over the whole table registry
  /// (core/TableRegistry.h). With an empty \p Isa the behavior is the
  /// original wire contract: the reply names the default x86 entry, and
  /// a matching \p ExpectHashHex — against the x86 hash *or* any other
  /// registered entry's hash — short-circuits to a hash-only reply (no
  /// blob). A non-empty \p Isa selects that ISA's nacl-policy entry
  /// explicitly; an ISA nobody registered with the server yields a
  /// ProtocolError (an ErrorResponse on the wire, session survives).
  proto::TablesReply tables(const std::string &ExpectHashHex,
                            const std::string &Isa = {});

  /// The scrapeable metrics exposition (one metric per line).
  std::string metricsText() const { return Met->exposition(); }

  /// Per-session state for the stateful image-handle requests. One per
  /// serveFd session (stack-allocated there); harnesses exercising the
  /// in-process API construct their own.
  class Session {
  public:
    explicit Session(Service &S);
    incr::IncrementalVerifier &incremental() { return Incr; }
    analysis::IncrementalLinter &linter() { return Lint; }

  private:
    incr::IncrementalVerifier Incr;
    /// Lint state maintained beside the verifier, populated lazily per
    /// image on the first patch that asks for a lint report.
    analysis::IncrementalLinter Lint;
  };

  /// Registers \p Image with the session's incremental verifier and
  /// returns the handle plus the initial verdict.
  proto::ImageOpenReply imageOpen(Session &Sess, std::vector<uint8_t> Image);

  /// Overwrites [Offset, Offset+Bytes.size()) of the session image and
  /// re-verifies incrementally. With \p WantLint the session's
  /// incremental linter re-lints in O(patch window) (first request per
  /// image pays a full lint to seed the state) and the reply carries
  /// the report. Throws std::invalid_argument on an unknown handle or
  /// an out-of-range patch (the frame shell answers those with an
  /// ErrorResponse and keeps the session).
  proto::PatchReply patch(Session &Sess, uint32_t Image, uint32_t Offset,
                          const std::vector<uint8_t> &Bytes,
                          bool WantLint = false);

  /// Drops the session image. Throws std::invalid_argument on an
  /// unknown handle.
  void imageClose(Session &Sess, uint32_t Image);

  // --- Framed transport shell ------------------------------------------

  /// Dispatches one decoded request frame and returns the encoded
  /// response frame. A malformed body, a non-request kind, or a bad
  /// image handle yields an ErrorResponse frame (counted in svc_errors)
  /// and the session survives. Sets \p *ShutdownOut when the frame was
  /// a ShutdownRequest. \p Sess may be null: the stateful kinds then
  /// answer with an ErrorResponse.
  std::vector<uint8_t> handleFrame(const proto::Frame &F, Session *Sess,
                                   bool *ShutdownOut);

  /// Stateless shell (pre-incremental shape, kept for harnesses that
  /// never open images): identical, with no session state.
  std::vector<uint8_t> handleFrame(const proto::Frame &F, bool *ShutdownOut);

  /// Why a serve loop returned.
  enum class ServeStatus {
    PeerClosed, ///< EOF at a frame boundary: session over, server lives
    Shutdown,   ///< peer sent ShutdownRequest: stop the server
  };

  /// Serves one session over a byte-stream fd pair (a connected socket:
  /// pass the same fd twice; stdin/stdout framing: pass 0 and 1).
  /// Returns on clean EOF or shutdown; throws proto::ProtocolError on
  /// malformed framing or mid-frame EOF.
  ServeStatus serveFd(int InFd, int OutFd);

  // --- Introspection ----------------------------------------------------

  Metrics &metrics() { return *Met; }
  VerifierPool &pool() { return Pool; }
  const ServiceOptions &options() const { return Opts; }
  const core::PolicyTables &policyTables() const { return Tables; }
  /// The serialized live tables (built once at construction).
  const std::vector<uint8_t> &tablesBlob() const { return Blob; }
  /// Their content address (lowercase hex SHA-256).
  const std::string &tablesHashHex() const { return BlobHashHex; }

private:
  ServiceOptions Opts;
  std::unique_ptr<Metrics> OwnedMet; ///< when no external sink was given
  Metrics *Met;
  VerifierPool Pool;
  const core::PolicyTables &Tables;
  /// The fused verify fast path the verify endpoint drives (the legacy
  /// Tables stay for blob serving, lint, and audit, which consume the
  /// per-table form).
  const core::FusedPolicy &Fused;
  std::vector<uint8_t> Blob;
  std::string BlobHashHex;
  /// Decoder reference DFAs for audit, built on first audit request
  /// (they are an order of magnitude more expensive than the policy
  /// tables and most sessions never audit).
  std::unique_ptr<analysis::DecoderDfas> AuditRefs;
  std::mutex AuditM; ///< guards AuditRefs construction
};

} // namespace svc
} // namespace rocksalt

#endif // ROCKSALT_SVC_SERVICE_H
