// Intel-compiler-style profile-guided optimization (PGO) baseline
// (paper §4.2.1): an instrumented -prof-gen build runs the tuning
// input to collect trip counts / call targets, then the program is
// recompiled -prof-use at O3 with the profile feeding the heuristics.
// The paper observes the instrumentation run FAILS for LULESH and
// Optewe; the corresponding workload models carry that property.
#pragma once

#include "core/evaluator.hpp"
#include "core/search.hpp"

namespace ft::baselines {

struct PgoResult {
  bool instrumentation_failed = false;
  core::TuningResult tuning;  ///< speedup == 1 when instrumentation fails
};

/// The profiled build's final run goes straight to the engine (the
/// profile is not part of an EvalRequest) under the evaluator's
/// final_run_options().
[[nodiscard]] PgoResult pgo_tune(core::Evaluator& evaluator);

}  // namespace ft::baselines
