// The ftuned wire protocol: typed frames over service/framing. Every
// frame, the handshake included, uses one compact binary codec
// (service/binary.cpp has the byte layout): fixed-width tags and raw
// little-endian doubles, so bit-exactness is structural and
// encode/decode runs at memcpy speed. The only negotiated choice is
// whether each payload also carries a CRC-32 trailer (binary-crc32).
//
// hello and welcome always travel as plain binary - they carry the
// negotiation, so they must be readable before its outcome is known.
// Every frame after welcome uses the negotiated framing, both
// directions.
//
// EvalRequest / EvalResponse from core/evaluator.hpp are serialized
// field-for-field: the in-process evaluation currency IS the wire
// payload, so remote evaluation cannot drift from local semantics.
//
// Frame inventory (client -> server / server -> client):
//   hello       -> welcome | error      session setup + negotiation
//   eval        -> result | error       one raw evaluation
//   eval_batch  -> result_batch | error coalesced batch
//   ping        -> pong                 liveness probe
//   bye         -> (close)              orderly shutdown
//
// An error frame carries a stable code, the offending seq (0 for
// session-level errors), and retryable/fatal bits. After a fatal
// error the server closes the connection.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.hpp"
#include "core/funcy_tuner.hpp"
#include "service/framing.hpp"
#include "support/crc32.hpp"

namespace ft::service {

/// Bumped on any incompatible frame change; a hello with a different
/// version is refused with a structured "unsupported_version" error.
/// The version leads the hello payload, so that refusal holds however
/// the rest of a skewed peer's hello is laid out. Version 1 (JSON
/// frames) is gone: its hellos start with '{' and are refused the
/// same way.
inline constexpr int kProtocolVersion = 2;

/// Payload encodings a session can speak. binary is mandatory on every
/// implementation (it carries the handshake); binary-crc32 is binary
/// with a 4-byte little-endian CRC32 trailer over the payload - a
/// corrupted frame is rejected as `bad_frame` instead of being decoded
/// into garbage. Peers skip framing codes they do not know, so a new
/// framing can be offered without breaking older peers.
enum class Framing : std::uint8_t {
  kBinary = 1,
  kBinaryCrc = 2,
};

/// CRC-32 (IEEE 802.3, the zlib polynomial) over `bytes`; used by the
/// binary-crc32 framing and its tests. The implementation lives in
/// support/crc32 so the persistent eval-cache's on-disk entries share
/// the exact codec without depending on the service layer.
[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes) noexcept {
  return support::crc32(bytes);
}

[[nodiscard]] const char* framing_name(Framing framing);
/// A command line's comma-separated framing list ("binary-crc32,binary")
/// in order; empty fields are skipped, so "" gives an empty list.
/// Throws std::invalid_argument naming the first unknown framing, so it
/// doubles as the flag's validator (support::accepted_by).
[[nodiscard]] std::vector<Framing> parse_framings(std::string_view list);

/// Versioned capability set exchanged in hello (what the client can
/// speak, preference-ordered) and welcome (what the server serves).
/// Unknown framing codes are skipped on decode, so adding a framing
/// never breaks older peers; an offer naming no known framing decodes
/// as the binary baseline.
struct Capabilities {
  int protocol = kProtocolVersion;
  /// In a hello: client preference order. In a welcome: the server's
  /// supported set. binary is always implicitly present.
  std::vector<Framing> framings = {Framing::kBinary};
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Architecture names this daemon serves, in canonical table order;
  /// empty in a hello. Heterogeneous fleets pin campaign cells to
  /// daemons advertising the cell's arch.
  std::vector<std::string> archs;
};

/// First client-preferred framing the server also supports. binary is
/// implicitly in both sets, so negotiation cannot fail - it only
/// decides whether the CRC trailer is on.
[[nodiscard]] Framing negotiate_framing(
    const std::vector<Framing>& client_order,
    const std::vector<Framing>& server_supported);

/// The evaluation context a session greets for. Only the measurement
/// subset of `options` (core::measurement_options) travels in the
/// hello; retry, cache and journal policy stay client-side.
struct WorkspaceSpec {
  std::string program;  ///< benchmark name (programs::by_name)
  std::string arch;     ///< machine::architecture_by_name key
  compiler::Personality personality = compiler::Personality::kIcc;
  core::FuncyTunerOptions options;
};

/// The one identity of a workspace: hash of program, canonical arch
/// name, personality and core::measurement_fingerprint(options). It
/// keys ftuned's workspaces, salts their raw-result caches and picks a
/// fleet's home. Throws for unknown arch names.
[[nodiscard]] std::uint64_t workspace_fingerprint(const WorkspaceSpec& spec);

/// The raw-measurement engine for `spec` (measurement options only,
/// Evaluator cache off). ftuned's workspaces and the local fallback
/// are both built here, so their answers are byte-identical. Throws
/// for unknown program or arch names.
[[nodiscard]] std::unique_ptr<core::FuncyTuner> make_workspace_tuner(
    const WorkspaceSpec& spec);

/// Session opener: names the workspace the client wants to evaluate
/// in. The wire carries the personality as "icc" | "gcc".
struct HelloFrame {
  WorkspaceSpec workspace;
  Capabilities caps;  ///< caps.protocol doubles as the version
};

struct WelcomeFrame {
  std::string server = "ftuned";
  std::uint64_t session = 0;
  std::size_t max_batch = 0;  ///< requests the server accepts per frame
  /// The framing the server picked for every frame after this one.
  Framing framing = Framing::kBinary;
  Capabilities caps;          ///< caps.archs = served architectures
};

struct ErrorFrame {
  std::string code;    ///< bad_frame, bad_request, unknown_program,
                       ///< unknown_architecture, overloaded,
                       ///< oversized_frame, not_ready,
                       ///< unsupported_version,
                       ///< unsupported_architecture
  std::string detail;
  std::uint64_t seq = 0;
  bool retryable = false;  ///< resend later (backpressure)
  bool fatal = false;      ///< server closes the connection after this
};

// --- unified decode --------------------------------------------------------

enum class FrameKind : std::uint8_t {
  kHello = 1,
  kWelcome = 2,
  kError = 3,
  kEval = 4,
  kEvalBatch = 5,
  kResult = 6,
  kResultBatch = 7,
  kPing = 8,
  kPong = 9,
  kBye = 10,
};

/// One decoded frame of any kind. Reused across frames: reset() keeps
/// vector/string capacity, so a session's steady-state decode path
/// allocates nothing.
struct AnyFrame {
  FrameKind kind = FrameKind::kBye;
  std::uint64_t seq = 0;
  HelloFrame hello;
  WelcomeFrame welcome;
  ErrorFrame error;
  std::vector<core::EvalRequest> requests;    ///< eval / eval_batch
  std::vector<core::EvalResponse> responses;  ///< result / result_batch
  void reset();
};

enum class DecodeStatus {
  kOk,
  kUnparseable,   ///< empty, or a binary-crc32 checksum failure
  kUnknownType,   ///< a frame tag this build does not know
  kMalformed,     ///< known tag, invalid or truncated contents
};

/// Decodes one payload under the given framing into *out (reset
/// first). On any failure, *error holds a human-readable reason.
[[nodiscard]] DecodeStatus decode_frame(Framing framing,
                                        std::string_view payload,
                                        AnyFrame* out, std::string* error);

// --- encoders --------------------------------------------------------------
// All append to *out after clearing it, so callers thread one
// FrameBuffer through their whole write path and reach steady-state
// zero allocation. Framing::kBinaryCrc appends the CRC-32 trailer.

void encode_hello_frame(Framing framing, const HelloFrame& hello,
                        std::string* out);
void encode_welcome_frame(Framing framing, const WelcomeFrame& welcome,
                          std::string* out);
void encode_error_frame(Framing framing, const ErrorFrame& error,
                        std::string* out);
void encode_eval_frame(Framing framing, std::uint64_t seq,
                       const core::EvalRequest& request, std::string* out);
void encode_eval_batch_frame(Framing framing, std::uint64_t seq,
                             std::span<const core::EvalRequest> requests,
                             std::string* out);
void encode_result_frame(Framing framing, std::uint64_t seq,
                         const core::EvalResponse& response,
                         std::string* out);
void encode_result_batch_frame(
    Framing framing, std::uint64_t seq,
    std::span<const core::EvalResponse> responses, std::string* out);
void encode_ping_frame(Framing framing, std::uint64_t seq,
                       std::string* out);
void encode_pong_frame(Framing framing, std::uint64_t seq,
                       std::string* out);
void encode_bye_frame(Framing framing, std::string* out);

}  // namespace ft::service
