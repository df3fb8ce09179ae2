#include "baselines/pgo_driver.hpp"

namespace ft::baselines {

PgoResult pgo_tune(core::Evaluator& evaluator) {
  PgoResult result;
  machine::ExecutionEngine& engine = evaluator.engine();
  const ir::Program& program = engine.program();
  result.tuning.algorithm = "PGO";

  if (program.pgo_instrumentation_fails()) {
    // -prof-gen build crashes (as the paper observed for LULESH and
    // Optewe): fall back to the O3 binary.
    result.instrumentation_failed = true;
    evaluator.finish(result.tuning, evaluator.baseline_seconds());
    return result;
  }

  // Instrumented run on the tuning input (counts as one evaluation of
  // tuning overhead)...
  compiler::Compiler& compiler = engine.compiler();
  const flags::CompilationVector o3 = compiler.space().default_cv();
  const compiler::Executable instrumented =
      compiler.build_uniform(program, o3);
  machine::RunOptions profile_run;
  profile_run.instrumented = true;
  (void)engine.run(instrumented, evaluator.input(), profile_run);

  // ...then recompile with the profile feeding the heuristics.
  compiler::PgoProfile profile;
  profile.valid = true;
  const compiler::Executable optimized =
      compiler.build_uniform(program, o3, &profile);
  const double tuned_seconds =
      engine.run(optimized, evaluator.input(), evaluator.final_run_options())
          .end_to_end;
  result.tuning.evaluations = 1;
  evaluator.finish(result.tuning, tuned_seconds);
  return result;
}

}  // namespace ft::baselines
