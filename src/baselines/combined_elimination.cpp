#include "baselines/combined_elimination.hpp"

#include <algorithm>

namespace ft::baselines {

namespace {

/// Maps a binarized-space CV back into the full space so the evaluator
/// (which decodes with the original FlagSpace) sees the right options.
/// Option index k in the binary space is option index k in the full
/// space by construction (binarized() keeps options[0..1]).
flags::CompilationVector widen(const flags::CompilationVector& cv) {
  return cv;  // indices coincide; sizes match (one entry per flag)
}

}  // namespace

CeResult combined_elimination(core::Evaluator& evaluator,
                              const flags::FlagSpace& space) {
  const flags::FlagSpace binary = space.binarized();
  const std::size_t flag_count = binary.flag_count();
  const std::size_t loop_count =
      evaluator.engine().program().loops().size();

  // One phase-wide noise stream (content-addressed per CV), so CE's
  // many re-measurements of the same configuration memoize.
  auto measure = [&](const flags::CompilationVector& cv) {
    core::EvalRequest request;
    request.assignment =
        compiler::ModuleAssignment::uniform(widen(cv), loop_count);
    request.rep_base = core::rep_streams::kCombinedElimination;
    return evaluator.evaluate(request).seconds();
  };

  CeResult result;
  result.tuning.algorithm = "CE";

  // B = all binary flags at their non-default ("on") option.
  flags::CompilationVector current(
      std::vector<std::uint8_t>(flag_count, 1));
  // Flags whose spec only has one option stay at 0.
  for (std::size_t i = 0; i < flag_count; ++i) {
    if (binary.specs()[i].options.size() < 2) current.set(i, 0);
  }
  double current_seconds = measure(current);
  std::size_t evaluations = 1;

  std::vector<bool> eliminated(flag_count, false);
  for (;;) {
    // Measure the RIP of turning each remaining flag off.
    std::vector<std::pair<double, std::size_t>> improving;  // (rip, flag)
    for (std::size_t i = 0; i < flag_count; ++i) {
      if (eliminated[i] || current[i] == 0) continue;
      flags::CompilationVector candidate = current;
      candidate.set(i, 0);
      const double seconds = measure(candidate);
      ++evaluations;
      const double rip = (seconds - current_seconds) / current_seconds;
      if (rip < 0.0) improving.emplace_back(rip, i);
    }
    if (improving.empty()) break;

    // Remove the most harmful flag unconditionally, then consider the
    // others in RIP order, keeping each removal only if it still helps
    // in combination (the "combined" part of CE).
    std::sort(improving.begin(), improving.end());
    bool first = true;
    for (const auto& [rip, flag] : improving) {
      flags::CompilationVector candidate = current;
      candidate.set(flag, 0);
      if (first) {
        const double seconds = measure(candidate);
        ++evaluations;
        current = candidate;
        current_seconds = seconds;
        eliminated[flag] = true;
        first = false;
        continue;
      }
      const double seconds = measure(candidate);
      ++evaluations;
      if (seconds < current_seconds) {
        current = candidate;
        current_seconds = seconds;
        eliminated[flag] = true;
      }
    }
  }

  result.best_cv = current;
  result.tuning.best_assignment =
      compiler::ModuleAssignment::uniform(widen(current), loop_count);
  result.tuning.search_best_seconds = current_seconds;
  result.tuning.evaluations = evaluations;
  evaluator.finish(result.tuning);
  for (std::size_t i = 0; i < flag_count; ++i) {
    if (current[i] != 0) {
      result.enabled_flags.push_back(binary.specs()[i].name);
    }
  }
  return result;
}

}  // namespace ft::baselines
