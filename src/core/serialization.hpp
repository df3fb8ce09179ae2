// Serialization of tuning artifacts for offline analysis: the
// collection matrix (Fig 4's T[j][k]) as CSV, tuning results as JSON
// (algorithm, speedup, rendered per-module command lines, convergence
// history). These are the files a tuning campaign archives next to the
// produced executables.
#pragma once

#include <iosfwd>
#include <string>

#include "core/campaign.hpp"
#include "core/collector.hpp"
#include "core/outline.hpp"
#include "core/search.hpp"
#include "flags/flag_space.hpp"

namespace ft::core {

/// CSV with one row per sampled CV: index, CV hash, end-to-end time,
/// derived rest time, then one column per outlined hot loop.
void write_collection_csv(std::ostream& os, const Outline& outline,
                          const Collection& collection);

/// CSV of a search's best-so-far convergence curve.
void write_history_csv(std::ostream& os, const TuningResult& result);

/// JSON object describing a tuning result, including the rendered
/// command line of every module of the winning assignment and the
/// algorithm's typed extras block (schema v3).
[[nodiscard]] std::string tuning_result_json(
    const TuningResult& result, const flags::FlagSpace& space,
    const ir::Program& program);

/// Reads the "extras" block back from a tuning-result JSON artifact
/// (empty when the artifact has none). Throws std::runtime_error on
/// malformed JSON or a schema newer than this binary.
[[nodiscard]] ResultExtras read_tuning_result_extras(
    const std::string& json);

/// JSON object describing a finished campaign's whole result grid, in
/// deterministic grid order. This is the artifact the fleet-smoke CI
/// byte-compares between local, single-daemon and fleet runs, so the
/// text must depend only on the tuning inputs - never on where or in
/// what order cells executed.
[[nodiscard]] std::string campaign_json(const Campaign& campaign);

}  // namespace ft::core
