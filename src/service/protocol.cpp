#include "service/protocol.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/checkpoint.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/rng.hpp"
#include "support/string_utils.hpp"

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

std::vector<Framing> parse_framings(std::string_view list) {
  std::vector<Framing> framings;
  for (const std::string& field : support::split(list, ',')) {
    const std::string name = support::trim(field);
    if (name == "binary") {
      framings.push_back(Framing::kBinary);
    } else if (name == "binary-crc32") {
      framings.push_back(Framing::kBinaryCrc);
    } else if (!name.empty()) {
      throw std::invalid_argument("unknown framing '" + name +
                                  "' (expected binary or binary-crc32)");
    }
  }
  return framings;
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

std::uint64_t workspace_fingerprint(const WorkspaceSpec& spec) {
  std::string key = spec.program;
  key += '|';
  // Canonical display name: "broadwell" and "Intel Broadwell" name one
  // testbed, so they must name one workspace.
  key += machine::architecture_by_name(spec.arch).name;
  key += '|';
  key += spec.personality == compiler::Personality::kGcc ? "gcc" : "icc";
  key += '|';
  key += std::to_string(core::measurement_fingerprint(spec.options));
  return support::fnv1a64(key);
}

std::unique_ptr<core::FuncyTuner> make_workspace_tuner(
    const WorkspaceSpec& spec) {
  return std::make_unique<core::FuncyTuner>(
      programs::by_name(spec.program),
      machine::architecture_by_name(spec.arch),
      core::measurement_options(spec.options), spec.personality);
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
  hello.workspace.program.clear();
  hello.workspace.arch.clear();
  hello.workspace.personality = compiler::Personality::kIcc;
  hello.workspace.options = core::FuncyTunerOptions{};
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
