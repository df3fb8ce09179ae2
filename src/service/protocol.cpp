#include "service/protocol.hpp"

#include <algorithm>

namespace ft::service {

const char* framing_name(Framing framing) {
  switch (framing) {
    case Framing::kBinary:
      return "binary";
    case Framing::kBinaryCrc:
      return "binary-crc32";
  }
  return "binary";
}

bool framing_from_name(std::string_view name, Framing* out) {
  if (name == "binary") {
    *out = Framing::kBinary;
    return true;
  }
  if (name == "binary-crc32") {
    *out = Framing::kBinaryCrc;
    return true;
  }
  return false;
}

Framing negotiate_framing(const std::vector<Framing>& client_order,
                          const std::vector<Framing>& server_supported) {
  for (const Framing preference : client_order) {
    if (preference == Framing::kBinary) return Framing::kBinary;
    if (std::find(server_supported.begin(), server_supported.end(),
                  preference) != server_supported.end()) {
      return preference;
    }
  }
  return Framing::kBinary;
}

namespace {

/// Restores default-constructed Capabilities without the temporary a
/// `caps = Capabilities{}` would build (whose {kBinary} initializer
/// allocates a fresh vector - the enemy of reset()'s zero-allocation
/// promise).
void reset_caps(Capabilities* caps) {
  caps->protocol = kProtocolVersion;
  caps->framings.clear();
  caps->framings.push_back(Framing::kBinary);
  caps->max_frame_bytes = kDefaultMaxFrameBytes;
  caps->archs.clear();
}

}  // namespace

void AnyFrame::reset() {
  // Member-wise clears (not `member = Member{}`) so every string and
  // vector keeps its high-water capacity: a session's steady-state
  // decode path must not allocate.
  kind = FrameKind::kBye;
  seq = 0;
  hello.program.clear();
  hello.arch.clear();
  hello.personality = "icc";
  hello.options = core::FuncyTunerOptions{};  // scalars only
  reset_caps(&hello.caps);
  welcome.server = "ftuned";
  welcome.session = 0;
  welcome.max_batch = 0;
  welcome.framing = Framing::kBinary;
  reset_caps(&welcome.caps);
  error.code.clear();
  error.detail.clear();
  error.seq = 0;
  error.retryable = false;
  error.fatal = false;
  requests.clear();
  responses.clear();
}

}  // namespace ft::service
