// Little-endian fixed-width byte codec shared by every binary format
// in the repo: the ftuned wire frames (service/binary), the disk
// tier's FTC1 entries (core/persistent_cache) and the checkpoint
// journal (core/checkpoint).
//
// Integers are little-endian fixed width; doubles are their IEEE-754
// bit pattern as u64le, so every value round-trips bit-exactly;
// strings are u32le length + raw bytes. Writers append to a
// std::string (each multi-byte value as one append of a stack array);
// the reader is bounds-checked, so a truncated or forged field fails
// the read instead of running past the buffer.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace ft::support {

inline void put_u8(std::string* out, std::uint8_t value) {
  out->push_back(static_cast<char>(value));
}

inline void put_u32(std::string* out, std::uint32_t value) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<char>(value >> (8 * i));
  }
  out->append(bytes, sizeof(bytes));
}

inline void put_u64(std::string* out, std::uint64_t value) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<char>(value >> (8 * i));
  }
  out->append(bytes, sizeof(bytes));
}

inline void put_f64(std::string* out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

inline void put_string(std::string* out, std::string_view text) {
  put_u32(out, static_cast<std::uint32_t>(text.size()));
  out->append(text.data(), text.size());
}

/// Bounds-checked little-endian reader over `data`, starting at `at`.
/// Every read returns false (consuming nothing) when the field does
/// not fit in the bytes that remain.
struct ByteReader {
  std::string_view data;
  std::size_t at = 0;

  [[nodiscard]] std::size_t remaining() const { return data.size() - at; }

  [[nodiscard]] bool u8(std::uint8_t* out) {
    if (remaining() < 1) return false;
    *out = static_cast<std::uint8_t>(data[at++]);
    return true;
  }

  [[nodiscard]] bool u32(std::uint32_t* out) {
    if (remaining() < 4) return false;
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(data[at + i]))
               << (8 * i);
    }
    at += 4;
    *out = value;
    return true;
  }

  [[nodiscard]] bool u64(std::uint64_t* out) {
    if (remaining() < 8) return false;
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(data[at + i]))
               << (8 * i);
    }
    at += 8;
    *out = value;
    return true;
  }

  [[nodiscard]] bool f64(double* out) {
    std::uint64_t bits = 0;
    if (!u64(&bits)) return false;
    *out = std::bit_cast<double>(bits);
    return true;
  }

  /// The next `size` raw bytes, as a view into `data`.
  [[nodiscard]] bool span(std::size_t size, std::string_view* out) {
    if (remaining() < size) return false;
    *out = data.substr(at, size);
    at += size;
    return true;
  }

  /// A u32le-length-prefixed string.
  [[nodiscard]] bool string(std::string* out) {
    const std::size_t start = at;
    std::uint32_t length = 0;
    std::string_view text;
    if (!u32(&length) || !span(length, &text)) {
      at = start;
      return false;
    }
    out->assign(text);
    return true;
  }
};

}  // namespace ft::support
