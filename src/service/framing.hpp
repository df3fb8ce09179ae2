// Wire framing for the ftuned evaluation service: every message is one
// length-prefixed payload. The prefix is a 4-byte big-endian payload
// length, so frames are self-delimiting regardless of payload content
// (binary, with or without the CRC trailer) and a reader can reject an
// oversized frame before allocating for it. Framing is transport-agnostic (any
// stream socket fd).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ft::service {

namespace chaos {
class ChaosEngine;
}

/// Upper bound on one frame's payload. 16 MiB comfortably holds a
/// maximal eval_batch (1000+ requests with hundreds of loop CVs each)
/// while bounding what a malicious or corrupted peer can make the
/// server allocate.
inline constexpr std::size_t kDefaultMaxFrameBytes = 16u << 20;

enum class FrameStatus {
  kOk,        ///< one complete frame read
  kClosed,    ///< orderly EOF on a frame boundary
  kTooLarge,  ///< declared length exceeds the cap (stream unusable)
  kTorn,      ///< EOF or I/O error mid-frame (stream unusable)
  kTimeout,   ///< deadline expired mid-frame (stream unusable)
};

/// Reusable frame storage. A session that threads ONE FrameBuffer
/// through its encode -> write -> read -> decode cycle reaches a
/// steady state with zero per-frame allocations: `payload` keeps its
/// high-water capacity across read_frame calls and encoders append
/// into it after clear(). (A fresh std::string per frame - the PR 6
/// pattern - paid an allocation plus a copy on every single frame.)
struct FrameBuffer {
  std::string payload;

  /// clear() preserving capacity; encoders call this before appending.
  void reset() noexcept { payload.clear(); }
};

/// Reads exactly one frame. On kOk, `*payload` holds the payload
/// bytes. kTooLarge, kTorn and kTimeout leave the stream
/// unsynchronized: the caller must close the connection (after an
/// error frame, if it can). `timeout_ms < 0` blocks forever;
/// otherwise the WHOLE frame must arrive within the deadline - a peer
/// that accepts and then goes silent (or trickles bytes) yields
/// kTimeout instead of a hang. Pass a long-lived string (or a
/// FrameBuffer's payload) to amortize the allocation away. A non-null
/// `chaos` engine may inject read delays, stalls and EINTR storms -
/// the deadline is absolute, so injected faults consume budget, never
/// extend it.
[[nodiscard]] FrameStatus read_frame(
    int fd, std::string* payload,
    std::size_t max_bytes = kDefaultMaxFrameBytes, int timeout_ms = -1,
    chaos::ChaosEngine* chaos = nullptr);

[[nodiscard]] inline FrameStatus read_frame(
    int fd, FrameBuffer& buffer,
    std::size_t max_bytes = kDefaultMaxFrameBytes, int timeout_ms = -1,
    chaos::ChaosEngine* chaos = nullptr) {
  return read_frame(fd, &buffer.payload, max_bytes, timeout_ms, chaos);
}

/// Writes one frame (prefix + payload) as a single vectored send
/// (sendmsg with a two-entry iovec), so neither a prefix+payload copy
/// nor a separate 4-byte segment - which would trip TCP's
/// Nagle/delayed-ACK interaction - ever happens. False on any I/O
/// error or on deadline expiry with an unwritable peer (timeout_ms <
/// 0 = block forever); short writes are retried internally. Never
/// raises SIGPIPE. A non-null `chaos` engine may tear the write into
/// tiny chunks, storm it with EINTR, or reset the connection mid-frame
/// (in which case the call reports failure like any dead peer).
[[nodiscard]] bool write_frame(int fd, std::string_view payload,
                               int timeout_ms = -1,
                               chaos::ChaosEngine* chaos = nullptr);

}  // namespace ft::service
