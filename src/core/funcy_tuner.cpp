#include "core/funcy_tuner.hpp"

#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/persistent_cache.hpp"
#include "support/rng.hpp"

namespace ft::core {

FuncyTuner::FuncyTuner(ir::Program program, machine::Architecture arch,
                       FuncyTunerOptions options,
                       compiler::Personality personality)
    : options_(options),
      program_(std::move(program)),
      space_(personality == compiler::Personality::kIcc
                 ? flags::icc_space()
                 : flags::gcc_space()),
      compiler_(space_, std::move(arch), personality),
      engine_(std::make_unique<machine::ExecutionEngine>(
          program_, compiler_,
          machine::NoiseModel(options.seed, options.noise_sigma_rel),
          /*caliper_overhead_per_event=*/2e-4,
          options.attribution_sigma)),
      tuning_input_(program_.tuning_input()),
      evaluator_(std::make_unique<Evaluator>(*engine_, tuning_input_)) {
  if (options_.faults.rate > 0 || options_.faults.outlier_rate > 0) {
    engine_->set_fault_model(machine::FaultModel(options_.faults));
  }
  evaluator_->set_retry_policy(options_.retry);
  evaluator_->set_final_reps(options_.final_reps);
  if (options_.eval_cache || !options_.eval_cache_dir.empty()) {
    auto cache = std::make_shared<EvalCache>(
        options_.eval_cache_entries != 0 ? options_.eval_cache_entries
                                         : EvalCache::kDefaultMaxEntries);
    if (!options_.eval_cache_dir.empty()) {
      cache->attach_disk(std::make_shared<PersistentCache>(
          PersistentCache::Options{.dir = options_.eval_cache_dir,
                                   .max_bytes =
                                       options_.eval_cache_disk_bytes}));
    }
    set_eval_cache(std::move(cache));
  }
}

void FuncyTuner::set_eval_cache(std::shared_ptr<EvalCache> cache) {
  evaluator_->set_eval_cache(std::move(cache),
                             options_fingerprint(options_));
}

const std::shared_ptr<EvalCache>& FuncyTuner::eval_cache() const noexcept {
  return evaluator_->eval_cache();
}

const std::vector<flags::CompilationVector>& FuncyTuner::presampled() {
  if (presampled_.empty()) {
    support::Rng rng = support::Rng(options_.seed).fork("presample");
    presampled_ = space_.sample_many(rng, options_.samples);
  }
  return presampled_;
}

const Outline& FuncyTuner::outline() {
  if (!outline_) {
    outline_ = profile_and_outline(*engine_, tuning_input_,
                                   options_.hot_threshold);
  }
  return *outline_;
}

const Collection& FuncyTuner::collection() {
  if (!collection_) {
    collection_ =
        collect_per_loop_runtimes(*evaluator_, outline(), presampled());
  }
  return *collection_;
}

SearchContext FuncyTuner::search_context() {
  SearchContext context;
  context.provide_evaluator(evaluator_.get());
  context.provide_options(&options_);
  context.provide_presampled(
      [this]() -> decltype(auto) { return presampled(); });
  context.provide_outline([this]() -> decltype(auto) { return outline(); });
  context.provide_collection(
      [this]() -> decltype(auto) { return collection(); });
  return context;
}

TuningResult FuncyTuner::run(const std::string& algorithm) {
  const std::unique_ptr<SearchAlgorithm> search =
      SearchRegistry::global().create(algorithm);
  SearchContext context = search_context();
  // The baseline is the first phase of every run (before the outline
  // and the collection): span, journal and quarantine order depend on
  // it.
  (void)baseline_seconds();
  return search->run(context);
}

std::vector<double> FuncyTuner::per_loop_speedups(
    const compiler::ModuleAssignment& assignment) {
  const compiler::Executable tuned = compiler_.build(program_, assignment);
  const std::vector<double> tuned_truth =
      engine_->true_module_seconds(tuned, tuning_input_);
  const std::vector<double> base_truth =
      engine_->true_module_seconds(engine_->baseline(), tuning_input_);
  std::vector<double> speedups(program_.loops().size());
  for (std::size_t j = 0; j < speedups.size(); ++j) {
    speedups[j] = base_truth[j] / tuned_truth[j];
  }
  return speedups;
}

std::vector<std::string> FuncyTuner::per_loop_decisions(
    const compiler::ModuleAssignment& assignment) {
  const compiler::Executable tuned = compiler_.build(program_, assignment);
  std::vector<std::string> summaries;
  summaries.reserve(tuned.loops.size());
  for (const compiler::LinkedLoop& loop : tuned.loops) {
    summaries.push_back(loop.codegen.summary());
  }
  return summaries;
}

double FuncyTuner::seconds_on(const ir::InputSpec& input,
                              const compiler::ModuleAssignment& assignment) {
  const compiler::Executable exe = compiler_.build(program_, assignment);
  machine::RunOptions options;
  options.repetitions = options_.final_reps;
  options.rep_base = rep_streams::kCrossInput;
  return engine_->run(exe, input, options).end_to_end;
}

double FuncyTuner::baseline_seconds_on(const ir::InputSpec& input) {
  machine::RunOptions options;
  options.repetitions = options_.final_reps;
  options.rep_base = rep_streams::kCrossInput;
  return engine_->run(engine_->baseline(), input, options).end_to_end;
}

}  // namespace ft::core
