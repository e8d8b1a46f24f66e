//===- svc/Protocol.h - Framed verification service protocol ---*- C++ -*-===//
///
/// \file
/// The wire format of the long-running verification service
/// (svc/Service.h): length-prefixed frames carrying one request or
/// response each, over any byte stream (a Unix-domain socket, a pipe
/// pair, or stdin/stdout). The framing is deliberately dumb — no
/// pipelining, no compression — so the trusted surface stays a few
/// dozen lines of bounds-checked parsing.
///
/// Frame layout (all integers little-endian):
///
///   offset  size  field
///   0       4     magic "RSVC"
///   4       1     protocol version (currently 1)
///   5       1     message kind (MsgKind)
///   6       4     body length N (<= MaxFrameBody)
///   10      N     body, encoding per kind (see the codec functions)
///
/// Request bodies:
///   Verify/Lint — u32 image count; per image u32 size + bytes
///   Audit       — empty
///   Tables      — u32 hash length + lowercase-hex hash chars (empty
///                 hash: unconditionally send the blob)
///   Shutdown    — empty
///   ImageOpen   — u32 image size + bytes (registers a mutable image
///                 with the session's incremental verifier)
///   Patch       — u32 image handle, u32 offset, u32 length + bytes
///                 (overwrite-in-place; zero-length and u32-overflowing
///                 ranges are rejected at the decoder)
///   ImageClose  — u32 image handle
///   Metrics     — empty (scrape the server's live counters)
///
/// Response bodies:
///   Verify     — u32 count; per image u8 ok + u8 reject reason
///   Lint       — u32 count; per image u8 parse-complete, u32 errors,
///                u32 warnings, u32 notes, u32 render length + text
///   Audit      — u8 pass, u32 render length + text
///   Tables     — u8 hash-matched, u32 hash length + hex chars,
///                u32 blob length + RSTB blob (length 0 when the hash
///                matched: the negotiation short-circuit)
///   Shutdown   — empty
///   ImageOpen  — u32 image handle (nonzero), u8 ok + u8 reject reason
///   Patch      — u8 ok + u8 reject reason, u32 chunks re-scanned,
///                u32 chunk-cache hits (always 0) (the re-verified
///                verdict after the patch, bit-identical to a full
///                re-check)
///   ImageClose — empty
///   Metrics    — u32 text length + the one-metric-per-line exposition
///                (svc/Metrics.h, Metrics::exposition())
///   Error      — u32 message length + text
///
/// Every decoder is strict: truncation, trailing bytes, out-of-range
/// lengths, and non-boolean flags all throw ProtocolError — a malformed
/// frame never silently yields a request (mirroring regex/TableIO's
/// corruption discipline).
///
//===----------------------------------------------------------------------===//

#ifndef ROCKSALT_SVC_PROTOCOL_H
#define ROCKSALT_SVC_PROTOCOL_H

#include "core/Verifier.h"

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace rocksalt {
namespace svc {
namespace proto {

/// The current protocol version. Readers reject frames carrying any
/// other value.
constexpr uint8_t ProtocolVersion = 1;

/// Frames larger than this are rejected at the transport layer before
/// any allocation (a hostile length field cannot balloon the server).
constexpr uint32_t MaxFrameBody = 256u * 1024 * 1024;

/// Size of the fixed frame header preceding every body.
constexpr size_t FrameHeaderSize = 10;

enum class MsgKind : uint8_t {
  // Requests.
  VerifyRequest = 1,
  LintRequest = 2,
  AuditRequest = 3,
  TablesRequest = 4,
  ShutdownRequest = 5,
  ImageOpenRequest = 6,
  PatchRequest = 7,
  ImageCloseRequest = 8,
  MetricsRequest = 9,
  // Responses (request kind | 0x40).
  VerifyResponse = 65,
  LintResponse = 66,
  AuditResponse = 67,
  TablesResponse = 68,
  ShutdownResponse = 69,
  ImageOpenResponse = 70,
  PatchResponse = 71,
  ImageCloseResponse = 72,
  MetricsResponse = 73,
  ErrorResponse = 127,
};

const char *msgKindName(MsgKind K);

/// Thrown on any malformed frame or body.
class ProtocolError : public std::runtime_error {
public:
  explicit ProtocolError(const std::string &What)
      : std::runtime_error(What) {}
};

/// One decoded frame: the kind plus its raw body.
struct Frame {
  MsgKind Kind = MsgKind::ErrorResponse;
  std::vector<uint8_t> Body;
};

/// Appends the framed encoding of (\p Kind, \p Body) to \p Out.
void appendFrame(std::vector<uint8_t> &Out, MsgKind Kind,
                 const std::vector<uint8_t> &Body);

/// Attempts to parse one frame starting at \p *Pos. On success advances
/// \p *Pos past the frame and returns true. Returns false when the
/// bytes from *Pos form a valid but incomplete prefix (read more and
/// retry). Throws ProtocolError on bad magic, wrong version, unknown
/// kind, or an oversized body length — byte streams that can never
/// become a frame.
bool parseFrame(const uint8_t *Data, size_t Size, size_t *Pos, Frame *Out);

// --- Body codecs --------------------------------------------------------

/// Per-image verify verdict (the instrumented arrays stay server-side;
/// the wire carries the decision the sandbox loader needs).
struct VerifyVerdict {
  bool Ok = false;
  core::RejectReason Reason = core::RejectReason::None;
};

/// Per-image lint report: the diagnostic counts plus the rendered text,
/// bit-identical to analysis::CfgLintResult::render().
struct LintReport {
  bool ParseComplete = false;
  uint32_t Errors = 0, Warnings = 0, Notes = 0;
  std::string Render;
};

/// Audit outcome: overall verdict plus the rendered report.
struct AuditVerdict {
  bool Pass = false;
  std::string Render;
};

/// Tables response: the server's content hash always; the RSTB blob
/// only when the client's expected hash did not match (HashMatched
/// false) or was absent.
struct TablesReply {
  bool HashMatched = false;
  std::string HashHex;
  std::vector<uint8_t> Blob;
};

/// Tables request: the client's cached content hash (empty when it has
/// none) plus an optional ISA selector naming which registry entry it
/// wants. The selector is an appended extension field — a request
/// without one is the original v1 wire shape and resolves to the
/// default x86 entry (or, when the hash names any registered entry, to
/// that entry), so old clients keep working unchanged against a
/// multi-ISA server and old servers reject ISA-bearing requests
/// loudly (trailing bytes) rather than mis-serving them.
struct TablesRequestBody {
  std::string ExpectHashHex;
  std::string Isa;
};

std::vector<uint8_t>
encodeImageBatch(const std::vector<std::vector<uint8_t>> &Images);
std::vector<std::vector<uint8_t>>
decodeImageBatch(const std::vector<uint8_t> &Body);

std::vector<uint8_t>
encodeVerifyResponse(const std::vector<VerifyVerdict> &Verdicts);
std::vector<VerifyVerdict>
decodeVerifyResponse(const std::vector<uint8_t> &Body);

std::vector<uint8_t>
encodeLintResponse(const std::vector<LintReport> &Reports);
std::vector<LintReport> decodeLintResponse(const std::vector<uint8_t> &Body);

std::vector<uint8_t> encodeAuditResponse(const AuditVerdict &V);
AuditVerdict decodeAuditResponse(const std::vector<uint8_t> &Body);

std::vector<uint8_t> encodeTablesRequest(const std::string &ExpectHashHex,
                                         const std::string &Isa = {});
TablesRequestBody decodeTablesRequest(const std::vector<uint8_t> &Body);

std::vector<uint8_t> encodeTablesResponse(const TablesReply &R);
TablesReply decodeTablesResponse(const std::vector<uint8_t> &Body);

std::vector<uint8_t> encodeErrorResponse(const std::string &Message);
std::string decodeErrorResponse(const std::vector<uint8_t> &Body);

// --- Incremental (image-handle) codecs ---------------------------------

/// Image-open outcome: the session-scoped handle plus the initial
/// verdict on the image as opened.
struct ImageOpenReply {
  uint32_t Image = 0; ///< server-assigned handle, never 0
  VerifyVerdict V;
};

/// A decoded patch request: overwrite [Offset, Offset+Bytes.size()) of
/// the session image \p Image. The decoder rejects a zero handle, a
/// zero-length patch, and an offset+length that overflows u32 — those
/// can never name a valid range, so they die before touching state.
struct PatchRequestBody {
  uint32_t Image = 0;
  uint32_t Offset = 0;
  std::vector<uint8_t> Bytes;
  /// Ask the server to re-lint the patched image incrementally and
  /// attach the report to the reply (a trailing flag byte on the wire).
  bool WantLint = false;
};

/// Patch outcome: the re-verified verdict plus what the incremental
/// pass did (the client-visible half of the incr_* metrics). When the
/// request set WantLint, HasLint is true and Lint carries the
/// incrementally maintained report — bit-identical to a fresh
/// `lintImage` of the image's current bytes.
struct PatchReply {
  VerifyVerdict V;
  uint32_t ChunksRescanned = 0;
  /// Always 0: every dirty chunk is rescanned. The u32 slot stays on
  /// the wire so version-1 clients decode the reply unchanged.
  uint32_t ChunkCacheHits = 0;
  bool HasLint = false;
  LintReport Lint;
};

std::vector<uint8_t> encodeImageOpenRequest(const std::vector<uint8_t> &Image);
std::vector<uint8_t> decodeImageOpenRequest(const std::vector<uint8_t> &Body);

std::vector<uint8_t> encodeImageOpenResponse(const ImageOpenReply &R);
ImageOpenReply decodeImageOpenResponse(const std::vector<uint8_t> &Body);

std::vector<uint8_t> encodePatchRequest(const PatchRequestBody &P);
PatchRequestBody decodePatchRequest(const std::vector<uint8_t> &Body);

std::vector<uint8_t> encodePatchResponse(const PatchReply &R);
PatchReply decodePatchResponse(const std::vector<uint8_t> &Body);

std::vector<uint8_t> encodeImageCloseRequest(uint32_t Image);
uint32_t decodeImageCloseRequest(const std::vector<uint8_t> &Body);

/// Metrics scrape: the response body is the plain-text exposition, one
/// metric per line (the request body is empty).
std::vector<uint8_t> encodeMetricsResponse(const std::string &Exposition);
std::string decodeMetricsResponse(const std::vector<uint8_t> &Body);

} // namespace proto
} // namespace svc
} // namespace rocksalt

#endif // ROCKSALT_SVC_PROTOCOL_H
