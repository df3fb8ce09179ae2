// The wire codec of the ftuned protocol (service/protocol.hpp): every
// frame, handshake included, is encoded and decoded here. Under
// Framing::kBinaryCrc the payload also carries a 4-byte little-endian
// CRC-32 trailer over everything before it.
//
// Layout: every payload is `u8 tag, u64le seq, fields...`. All
// integers are little-endian fixed width; doubles are their IEEE-754
// bit pattern as u64le (bit-exactness is structural - no %.17g
// round-trip argument needed); strings are u32le length + raw bytes;
// compilation vectors are u32le count + raw choice bytes.
//
//   tag  frame         fields after the (tag, seq) header
//   ---  ------------  ------------------------------------------------
//    1   hello         caps, str program, str arch, str personality,
//                      u64 seed, f64 noise_sigma, f64 attribution_sigma,
//                      f64 fault_rate, u64 fault_seed, f64 compile_share,
//                      f64 crash_share, f64 timeout_share,
//                      f64 outlier_rate, f64 outlier_min_scale,
//                      f64 outlier_max_scale
//    2   welcome       str server, u64 session, u64 max_batch,
//                      u8 framing, caps
//    3   error         str code, str detail, u8 retryable, u8 fatal
//    4   eval          request
//    5   eval_batch    u32 count, request*
//    6   result        response
//    7   result_batch  u32 count, response*
//    8   ping          -
//    9   pong          -
//   10   bye           -
//
//   caps     = u32 protocol, u8 framing_count, u8 framing*
//              (1 binary, 2 binary-crc32; unknown codes are skipped),
//              u64 max_frame_bytes, u32 arch_count, str*
//   request  = u32 loop_count, cv* loops, cv nonloop, u64 rep_base,
//              u32 repetitions, u8 instrumented, u8 noise,
//              u8 aggregate (0 mean, 1 median, 2 trimmed)
//   response = u8 served (0 run, 1 cache, 2 journal), u32 attempts,
//              u64 modules_compiled, u8 ok;
//              ok:  f64 end_to_end, f64 stddev, u32 loop_count, f64*
//              !ok: str fault_kind, str detail
//
// hello leads with caps, so the protocol version is the first field
// after the header: a peer speaking another version is identified
// before anything version-specific is parsed. Bytes after the last
// field are ignored, which lets a later version append fields.
//
// The decoder is fuzz-safe by construction: a bounds-checked cursor
// rejects any truncated field, and element counts are validated
// against the bytes actually remaining before any allocation, so a
// forged count cannot force a huge reserve.
#include "service/protocol.hpp"

#include <string>

#include "support/byte_codec.hpp"

namespace ft::service {

namespace {

using support::put_f64, support::put_string, support::put_u32,
    support::put_u64, support::put_u8;

void put_cv(std::string* out, const flags::CompilationVector& cv) {
  put_u32(out, static_cast<std::uint32_t>(cv.size()));
  for (std::size_t i = 0; i < cv.size(); ++i) {
    put_u8(out, cv[i]);
  }
}

void put_caps(std::string* out, const Capabilities& caps) {
  put_u32(out, static_cast<std::uint32_t>(caps.protocol));
  put_u8(out, static_cast<std::uint8_t>(caps.framings.size()));
  for (const Framing framing : caps.framings) {
    put_u8(out, static_cast<std::uint8_t>(framing));
  }
  put_u64(out, caps.max_frame_bytes);
  put_u32(out, static_cast<std::uint32_t>(caps.archs.size()));
  for (const std::string& arch : caps.archs) {
    put_string(out, arch);
  }
}

/// Starts a payload in *out (cleared, capacity kept): tag and seq.
void begin_frame(std::string* out, FrameKind kind, std::uint64_t seq) {
  out->clear();
  put_u8(out, static_cast<std::uint8_t>(kind));
  put_u64(out, seq);
}

/// Appends the little-endian CRC32 trailer for binary-crc32 frames.
void seal(Framing framing, std::string* out) {
  if (framing != Framing::kBinaryCrc) return;
  put_u32(out, crc32(*out));
}

void put_request(std::string* out, const core::EvalRequest& request) {
  put_u32(out,
          static_cast<std::uint32_t>(request.assignment.loop_cvs.size()));
  for (const flags::CompilationVector& cv : request.assignment.loop_cvs) {
    put_cv(out, cv);
  }
  put_cv(out, request.assignment.nonloop_cv);
  put_u64(out, request.rep_base);
  put_u32(out, static_cast<std::uint32_t>(request.repetitions));
  put_u8(out, request.instrumented ? 1 : 0);
  put_u8(out, request.noise ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(request.aggregate));
}

void put_response(std::string* out, const core::EvalResponse& response) {
  put_u8(out, static_cast<std::uint8_t>(response.served_by));
  put_u32(out, static_cast<std::uint32_t>(response.outcome.attempts));
  put_u64(out, response.modules_compiled);
  put_u8(out, response.ok() ? 1 : 0);
  if (response.ok()) {
    // derived_nonloop_seconds is not sent: the decoder recomputes it
    // exactly as the engine derives it.
    const machine::RunResult& result = response.outcome.result;
    put_f64(out, result.end_to_end);
    put_f64(out, result.stddev);
    put_u32(out, static_cast<std::uint32_t>(result.loop_seconds.size()));
    for (const double seconds : result.loop_seconds) {
      put_f64(out, seconds);
    }
  } else {
    put_string(out, core::to_string(response.outcome.error.kind));
    put_string(out, response.outcome.error.detail);
  }
}

// --- bounds-checked reader -------------------------------------------------

/// The shared little-endian reader plus the wire's compilation vectors.
struct Cursor : support::ByteReader {
  bool cv(flags::CompilationVector* out) {
    std::uint32_t count = 0;
    std::string_view choices;
    if (!u32(&count) || !span(count, &choices)) return false;
    const auto* first = reinterpret_cast<const std::uint8_t*>(choices.data());
    *out = flags::CompilationVector(
        std::vector<std::uint8_t>(first, first + count));
    return true;
  }
};

bool known_framing(std::uint8_t code) {
  return code == static_cast<std::uint8_t>(Framing::kBinary) ||
         code == static_cast<std::uint8_t>(Framing::kBinaryCrc);
}

bool read_caps(Cursor* cursor, Capabilities* out, std::string* error) {
  std::uint32_t protocol = 0;
  std::uint8_t framing_count = 0;
  if (!cursor->u32(&protocol)) {
    *error = "truncated capabilities";
    return false;
  }
  out->protocol = static_cast<int>(protocol);
  if (!cursor->u8(&framing_count)) {
    *error = "truncated capabilities";
    return false;
  }
  out->framings.clear();
  for (std::uint8_t i = 0; i < framing_count; ++i) {
    std::uint8_t framing = 0;
    if (!cursor->u8(&framing)) {
      *error = "truncated capability framings";
      return false;
    }
    // Unknown framing bytes are future framings: skip, don't fail.
    if (known_framing(framing)) {
      out->framings.push_back(static_cast<Framing>(framing));
    }
  }
  if (out->framings.empty()) out->framings.push_back(Framing::kBinary);
  std::uint32_t arch_count = 0;
  if (!cursor->u64(&out->max_frame_bytes) || !cursor->u32(&arch_count)) {
    *error = "truncated capabilities";
    return false;
  }
  // 4 bytes minimum per serialized arch name: a forged count cannot
  // reserve past what the payload could possibly hold.
  if (arch_count > cursor->remaining() / 4 + 1) {
    *error = "capability arch count exceeds payload";
    return false;
  }
  out->archs.clear();
  out->archs.resize(arch_count);
  for (std::uint32_t i = 0; i < arch_count; ++i) {
    if (!cursor->string(&out->archs[i])) {
      *error = "truncated capability arch name";
      return false;
    }
  }
  return true;
}

bool read_request(Cursor* cursor, core::EvalRequest* out,
                  std::string* error) {
  std::uint32_t loop_count = 0;
  if (!cursor->u32(&loop_count)) {
    *error = "truncated request";
    return false;
  }
  if (loop_count > cursor->remaining() / 4 + 1) {
    *error = "request loop count exceeds payload";
    return false;
  }
  out->assignment.loop_cvs.clear();
  out->assignment.loop_cvs.resize(loop_count);
  for (std::uint32_t i = 0; i < loop_count; ++i) {
    if (!cursor->cv(&out->assignment.loop_cvs[i])) {
      *error = "truncated request loop CV";
      return false;
    }
  }
  std::uint32_t repetitions = 0;
  std::uint8_t instrumented = 0;
  std::uint8_t noise = 0;
  std::uint8_t aggregate = 0;
  if (!cursor->cv(&out->assignment.nonloop_cv) ||
      !cursor->u64(&out->rep_base) || !cursor->u32(&repetitions) ||
      !cursor->u8(&instrumented) || !cursor->u8(&noise) ||
      !cursor->u8(&aggregate)) {
    *error = "truncated request fields";
    return false;
  }
  if (repetitions < 1 || repetitions > 1000000) {
    *error = "request reps field is malformed";
    return false;
  }
  if (aggregate > static_cast<std::uint8_t>(
                      machine::Aggregation::kTrimmedMean)) {
    *error = "request agg field is malformed";
    return false;
  }
  out->repetitions = static_cast<int>(repetitions);
  out->instrumented = instrumented != 0;
  out->noise = noise != 0;
  out->aggregate = static_cast<machine::Aggregation>(aggregate);
  return true;
}

bool read_response(Cursor* cursor, core::EvalResponse* out,
                   std::string* error) {
  std::uint8_t served = 0;
  std::uint32_t attempts = 0;
  std::uint64_t compiled = 0;
  std::uint8_t ok = 0;
  if (!cursor->u8(&served) || !cursor->u32(&attempts) ||
      !cursor->u64(&compiled) || !cursor->u8(&ok)) {
    *error = "truncated response";
    return false;
  }
  if (served > static_cast<std::uint8_t>(core::EvalServedBy::kCacheHit)) {
    *error = "response served field is malformed";
    return false;
  }
  out->served_by = static_cast<core::EvalServedBy>(served);
  out->outcome.attempts = static_cast<int>(attempts);
  out->modules_compiled = static_cast<std::size_t>(compiled);
  if (ok == 0) {
    std::string fault;
    if (!cursor->string(&fault) ||
        !cursor->string(&out->outcome.error.detail)) {
      *error = "truncated response fault";
      return false;
    }
    out->outcome.error.kind = core::eval_fault_from_string(fault);
    if (out->outcome.error.kind == core::EvalFault::kNone) {
      *error = "failed response has an unknown fault kind";
      return false;
    }
    out->outcome.result = machine::RunResult{};
    return true;
  }
  out->outcome.error = core::EvalError{};
  machine::RunResult& result = out->outcome.result;
  std::uint32_t loop_count = 0;
  if (!cursor->f64(&result.end_to_end) || !cursor->f64(&result.stddev) ||
      !cursor->u32(&loop_count)) {
    *error = "truncated response measurements";
    return false;
  }
  if (loop_count > cursor->remaining() / 8) {
    *error = "response loop count exceeds payload";
    return false;
  }
  result.loop_seconds.clear();
  result.loop_seconds.resize(loop_count);
  double loop_sum = 0.0;
  for (std::uint32_t i = 0; i < loop_count; ++i) {
    if (!cursor->f64(&result.loop_seconds[i])) {
      *error = "truncated response loop seconds";
      return false;
    }
    loop_sum += result.loop_seconds[i];
  }
  // Not transmitted; recompute exactly as the engine derives it.
  result.derived_nonloop_seconds = result.end_to_end - loop_sum;
  return true;
}

}  // namespace

void encode_hello_frame(Framing framing, const HelloFrame& hello,
                        std::string* out) {
  begin_frame(out, FrameKind::kHello, 0);
  put_caps(out, hello.caps);  // leads with the protocol version
  put_string(out, hello.program);
  put_string(out, hello.arch);
  put_string(out, hello.personality);
  put_u64(out, hello.options.seed);
  put_f64(out, hello.options.noise_sigma_rel);
  put_f64(out, hello.options.attribution_sigma);
  const machine::FaultConfig& faults = hello.options.faults;
  put_f64(out, faults.rate);
  put_u64(out, faults.seed);
  put_f64(out, faults.compile_share);
  put_f64(out, faults.crash_share);
  put_f64(out, faults.timeout_share);
  put_f64(out, faults.outlier_rate);
  put_f64(out, faults.outlier_min_scale);
  put_f64(out, faults.outlier_max_scale);
  seal(framing, out);
}

void encode_welcome_frame(Framing framing, const WelcomeFrame& welcome,
                          std::string* out) {
  begin_frame(out, FrameKind::kWelcome, 0);
  put_string(out, welcome.server);
  put_u64(out, welcome.session);
  put_u64(out, static_cast<std::uint64_t>(welcome.max_batch));
  put_u8(out, static_cast<std::uint8_t>(welcome.framing));
  put_caps(out, welcome.caps);
  seal(framing, out);
}

void encode_error_frame(Framing framing, const ErrorFrame& error,
                        std::string* out) {
  begin_frame(out, FrameKind::kError, error.seq);
  put_string(out, error.code);
  put_string(out, error.detail);
  put_u8(out, error.retryable ? 1 : 0);
  put_u8(out, error.fatal ? 1 : 0);
  seal(framing, out);
}

void encode_eval_frame(Framing framing, std::uint64_t seq,
                       const core::EvalRequest& request, std::string* out) {
  begin_frame(out, FrameKind::kEval, seq);
  put_request(out, request);
  seal(framing, out);
}

void encode_eval_batch_frame(Framing framing, std::uint64_t seq,
                             std::span<const core::EvalRequest> requests,
                             std::string* out) {
  begin_frame(out, FrameKind::kEvalBatch, seq);
  put_u32(out, static_cast<std::uint32_t>(requests.size()));
  for (const core::EvalRequest& request : requests) {
    put_request(out, request);
  }
  seal(framing, out);
}

void encode_result_frame(Framing framing, std::uint64_t seq,
                         const core::EvalResponse& response,
                         std::string* out) {
  begin_frame(out, FrameKind::kResult, seq);
  put_response(out, response);
  seal(framing, out);
}

void encode_result_batch_frame(
    Framing framing, std::uint64_t seq,
    std::span<const core::EvalResponse> responses, std::string* out) {
  begin_frame(out, FrameKind::kResultBatch, seq);
  put_u32(out, static_cast<std::uint32_t>(responses.size()));
  for (const core::EvalResponse& response : responses) {
    put_response(out, response);
  }
  seal(framing, out);
}

void encode_ping_frame(Framing framing, std::uint64_t seq,
                       std::string* out) {
  begin_frame(out, FrameKind::kPing, seq);
  seal(framing, out);
}

void encode_pong_frame(Framing framing, std::uint64_t seq,
                       std::string* out) {
  begin_frame(out, FrameKind::kPong, seq);
  seal(framing, out);
}

void encode_bye_frame(Framing framing, std::string* out) {
  begin_frame(out, FrameKind::kBye, 0);
  seal(framing, out);
}

DecodeStatus decode_frame(Framing framing, std::string_view payload,
                          AnyFrame* out, std::string* error) {
  out->reset();
  error->clear();
  if (framing == Framing::kBinaryCrc) {
    // Verify-then-strip: the trailer covers the whole payload, so a
    // flipped byte ANYWHERE (tag, length, double bits) fails here and
    // never reaches the field decoder. Length framing stays
    // synchronized, so the caller refuses just this frame (bad_frame)
    // and the session survives.
    if (payload.size() < 4) {
      *error = "binary-crc32 frame shorter than its checksum";
      return DecodeStatus::kUnparseable;
    }
    std::uint32_t declared = 0;
    (void)support::ByteReader{payload, payload.size() - 4}.u32(&declared);
    payload.remove_suffix(4);
    if (crc32(payload) != declared) {
      *error = "crc32 mismatch: frame corrupted in flight";
      return DecodeStatus::kUnparseable;
    }
  }
  Cursor cursor{{payload}};
  std::uint8_t tag = 0;
  if (!cursor.u8(&tag)) {
    *error = "empty frame";
    return DecodeStatus::kUnparseable;
  }
  if (tag < static_cast<std::uint8_t>(FrameKind::kHello) ||
      tag > static_cast<std::uint8_t>(FrameKind::kBye)) {
    *error = "unknown frame tag " + std::to_string(tag);
    return DecodeStatus::kUnknownType;
  }
  if (!cursor.u64(&out->seq)) {
    *error = "truncated frame header";
    return DecodeStatus::kMalformed;
  }
  out->kind = static_cast<FrameKind>(tag);
  const auto malformed = [error](const char* reason) {
    if (error->empty()) *error = reason;
    return DecodeStatus::kMalformed;
  };
  switch (out->kind) {
    case FrameKind::kHello: {
      HelloFrame& hello = out->hello;
      // The version comes first: a skewed peer's hello is refused as
      // unsupported_version even when the rest of it does not parse.
      if (!read_caps(&cursor, &hello.caps, error)) {
        return DecodeStatus::kMalformed;
      }
      if (!cursor.string(&hello.program) || !cursor.string(&hello.arch) ||
          !cursor.string(&hello.personality) ||
          !cursor.u64(&hello.options.seed) ||
          !cursor.f64(&hello.options.noise_sigma_rel) ||
          !cursor.f64(&hello.options.attribution_sigma) ||
          !cursor.f64(&hello.options.faults.rate) ||
          !cursor.u64(&hello.options.faults.seed) ||
          !cursor.f64(&hello.options.faults.compile_share) ||
          !cursor.f64(&hello.options.faults.crash_share) ||
          !cursor.f64(&hello.options.faults.timeout_share) ||
          !cursor.f64(&hello.options.faults.outlier_rate) ||
          !cursor.f64(&hello.options.faults.outlier_min_scale) ||
          !cursor.f64(&hello.options.faults.outlier_max_scale)) {
        return malformed("truncated hello");
      }
      if (hello.program.empty()) {
        return malformed("hello lacks a program name");
      }
      if (hello.arch.empty()) {
        return malformed("hello lacks an architecture name");
      }
      if (hello.personality != "icc" && hello.personality != "gcc") {
        return malformed("hello personality must be icc or gcc");
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kWelcome: {
      WelcomeFrame& welcome = out->welcome;
      std::uint64_t max_batch = 0;
      std::uint8_t framing = 0;
      if (!cursor.string(&welcome.server) ||
          !cursor.u64(&welcome.session) || !cursor.u64(&max_batch) ||
          !cursor.u8(&framing)) {
        return malformed("truncated welcome");
      }
      if (max_batch == 0) {
        return malformed("welcome frame is incomplete");
      }
      if (!known_framing(framing)) {
        return malformed("welcome names an unknown framing");
      }
      welcome.max_batch = static_cast<std::size_t>(max_batch);
      welcome.framing = static_cast<Framing>(framing);
      if (!read_caps(&cursor, &welcome.caps, error)) {
        return DecodeStatus::kMalformed;
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kError: {
      std::uint8_t retryable = 0;
      std::uint8_t fatal = 0;
      if (!cursor.string(&out->error.code) ||
          !cursor.string(&out->error.detail) || !cursor.u8(&retryable) ||
          !cursor.u8(&fatal)) {
        return malformed("truncated error frame");
      }
      out->error.seq = out->seq;
      out->error.retryable = retryable != 0;
      out->error.fatal = fatal != 0;
      return DecodeStatus::kOk;
    }
    case FrameKind::kEval: {
      out->requests.resize(1);
      if (!read_request(&cursor, &out->requests[0], error)) {
        return DecodeStatus::kMalformed;
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kEvalBatch: {
      std::uint32_t count = 0;
      if (!cursor.u32(&count)) return malformed("truncated eval_batch");
      // >= 19 bytes per serialized request.
      if (count > cursor.remaining() / 19 + 1) {
        return malformed("eval_batch count exceeds payload");
      }
      out->requests.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (!read_request(&cursor, &out->requests[i], error)) {
          return DecodeStatus::kMalformed;
        }
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kResult: {
      out->responses.resize(1);
      if (!read_response(&cursor, &out->responses[0], error)) {
        return DecodeStatus::kMalformed;
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kResultBatch: {
      std::uint32_t count = 0;
      if (!cursor.u32(&count)) return malformed("truncated result_batch");
      // >= 14 bytes per serialized response.
      if (count > cursor.remaining() / 14 + 1) {
        return malformed("result_batch count exceeds payload");
      }
      out->responses.resize(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (!read_response(&cursor, &out->responses[i], error)) {
          return DecodeStatus::kMalformed;
        }
      }
      return DecodeStatus::kOk;
    }
    case FrameKind::kPing:
    case FrameKind::kPong:
    case FrameKind::kBye:
      return DecodeStatus::kOk;
  }
  return DecodeStatus::kUnknownType;
}

}  // namespace ft::service
