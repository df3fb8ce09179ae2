// Artifact schema versioning. Every JSON artifact the repo emits
// (TuningResult json, telemetry JSONL traces, metrics snapshots)
// carries a "schema_version" field written and validated through this
// one helper, so readers can reject artifacts from a future format
// instead of silently misparsing them. Artifacts written before
// versioning existed have no field and read back as version 1. The
// binary checkpoint journal stores kSchemaVersion in its header.
#pragma once

#include <string>
#include <string_view>

namespace ft::support {

/// Current artifact schema. History:
///   1 - implicit; everything written before the field existed.
///   2 - the field itself (tuning json, journal header, telemetry
///       meta line, metrics snapshot, and the service hello/welcome
///       until the service went all-binary; its frames now version
///       through service::kProtocolVersion instead).
///   3 - tuning json carries an "extras" object (typed key/value
///       algorithm extras replacing the bespoke independent_* pair).
///       v2 artifacts (no block) still read back: readers treat a
///       missing block as empty.
inline constexpr int kSchemaVersion = 3;

/// The literal member to splice into a JSON object:
/// `"schema_version":2`.
[[nodiscard]] std::string schema_version_field();

/// Schema version declared by a JSON artifact; 1 when the field is
/// absent (pre-versioning artifact), 0 when the field is present but
/// malformed.
[[nodiscard]] int read_schema_version(std::string_view text);

/// Throws std::runtime_error naming `what` when `text` declares a
/// schema newer than this binary understands (older versions are
/// accepted - readers stay backward compatible).
void require_schema_version(std::string_view text, const std::string& what);

}  // namespace ft::support
