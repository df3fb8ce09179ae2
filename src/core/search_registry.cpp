#include "core/search_registry.hpp"

#include <stdexcept>
#include <utility>

#include "core/funcy_tuner.hpp"
#include "support/rng.hpp"

namespace ft::core {

// ---------------------------------------------------------------------------
// SearchContext checked accessors.

namespace {

[[noreturn]] void missing(const char* what) {
  throw std::logic_error(std::string("SearchContext: ") + what +
                         " was not provided by the harness (wire it with "
                         "provide_" +
                         what + " before running the algorithm)");
}

}  // namespace

Evaluator& SearchContext::evaluator() const {
  if (evaluator_ == nullptr) missing("evaluator");
  return *evaluator_;
}

const FuncyTunerOptions& SearchContext::options() const {
  if (options_ == nullptr) missing("options");
  return *options_;
}

const std::vector<flags::CompilationVector>& SearchContext::presampled()
    const {
  if (!presampled_) missing("presampled");
  return presampled_();
}

const Outline& SearchContext::outline() const {
  if (!outline_) missing("outline");
  return outline_();
}

const Collection& SearchContext::collection() const {
  if (!collection_) missing("collection");
  return collection_();
}

double SearchContext::baseline_seconds() const {
  if (!baseline_seconds_) missing("baseline_seconds");
  return baseline_seconds_();
}

const compiler::ModuleAssignment& SearchContext::seed_assignment() const {
  if (seed_assignment_ == nullptr) missing("seed_assignment");
  return *seed_assignment_;
}

std::vector<std::string> SearchContext::algorithm_tokens(
    const std::string& algorithm) const {
  // Deliberately tolerant of a missing options block: programmatic
  // harnesses that never touch namespaced knobs just get defaults.
  if (options_ == nullptr) return {};
  const auto it = options_->algorithm_options.find(algorithm);
  if (it == options_->algorithm_options.end()) return {};
  return it->second;
}

// ---------------------------------------------------------------------------
// The registered algorithms.

namespace {

/// Deprecated-alias resolution: the namespaced knob wins when the user
/// gave it; otherwise the old flat FuncyTunerOptions field applies.
std::size_t knob_or(const support::OptionSet::Parsed& parsed,
                    const std::string& knob, std::size_t flat) {
  return parsed.given(knob) ? static_cast<std::size_t>(parsed.integer(knob))
                            : flat;
}

class RandomAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "random"; }
  std::string display_name() const override { return "Random"; }
  TuningResult run(SearchContext& context) const override {
    return random_search(context.evaluator(), context.presampled(),
                         context.baseline_seconds());
  }
};

class FrAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "fr"; }
  std::string display_name() const override { return "FR"; }
  support::OptionSet options() const override {
    support::OptionSet set;
    set.integer("samples", 1000,
                "evaluation budget (deprecated alias: flat --samples)");
    return set;
  }
  TuningResult run(SearchContext& context) const override {
    const support::OptionSet::Parsed parsed = parsed_options(context);
    const FuncyTunerOptions& options = context.options();
    return function_random_search(
        context.evaluator(), context.outline(), context.presampled(),
        knob_or(parsed, "samples", options.samples),
        support::Rng(options.seed).fork("fr").next(),
        context.baseline_seconds());
  }
};

class GreedyAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "greedy"; }
  std::string display_name() const override { return "G.realized"; }
  TuningResult run(SearchContext& context) const override {
    // The §3.4 independence bound rides along in TuningResult::extras
    // (kExtraIndependentSeconds / kExtraIndependentSpeedup).
    return greedy_combination(context.evaluator(), context.outline(),
                              context.collection(),
                              context.baseline_seconds())
        .realized;
  }
};

class CfrAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "cfr"; }
  std::string display_name() const override { return "CFR"; }
  support::OptionSet options() const override {
    support::OptionSet set;
    set.integer("top-x", 10,
                "pruned space size per module (deprecated alias: flat "
                "--top-x)")
        .integer("samples", 1000,
                 "evaluation budget K of Algorithm 1 (deprecated alias: "
                 "flat --samples)")
        .integer("patience", 0,
                 "early-stop patience; 0 = fixed budget (deprecated "
                 "alias: flat --patience)");
    return set;
  }
  TuningResult run(SearchContext& context) const override {
    const support::OptionSet::Parsed parsed = parsed_options(context);
    const FuncyTunerOptions& options = context.options();
    CfrOptions cfr_options;
    cfr_options.top_x = knob_or(parsed, "top-x", options.top_x);
    cfr_options.iterations = knob_or(parsed, "samples", options.samples);
    cfr_options.seed = support::Rng(options.seed).fork("cfr").next();
    cfr_options.patience = knob_or(parsed, "patience", options.patience);
    return cfr_search(context.evaluator(), context.outline(),
                      context.collection(), cfr_options,
                      context.baseline_seconds());
  }
};

class RetuneAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "retune"; }
  std::string display_name() const override { return "Retune"; }
  support::OptionSet options() const override {
    support::OptionSet set;
    set.integer("iterations", 60,
                "evaluation budget, the seed costs one (deprecated "
                "alias: flat --samples)")
        .integer("top-x", 10,
                 "pruned candidate space per module (deprecated alias: "
                 "flat --top-x)")
        .integer("patience", 0,
                 "early-stop patience; 0 = fixed budget (deprecated "
                 "alias: flat --patience)");
    return set;
  }
  TuningResult run(SearchContext& context) const override {
    const support::OptionSet::Parsed parsed = parsed_options(context);
    const FuncyTunerOptions& options = context.options();
    RetuneOptions retune_options;
    retune_options.top_x = knob_or(parsed, "top-x", options.top_x);
    retune_options.iterations =
        knob_or(parsed, "iterations", options.samples);
    retune_options.seed = support::Rng(options.seed).fork("retune").next();
    retune_options.patience = knob_or(parsed, "patience", options.patience);
    // Without an incumbent the retune degenerates to hill-climbing
    // from the O3 default - still valid, just slower to converge.
    const compiler::ModuleAssignment seed =
        context.has_seed_assignment()
            ? context.seed_assignment()
            : compiler::ModuleAssignment::uniform(
                  context.evaluator().engine().compiler().space()
                      .default_cv(),
                  context.evaluator().engine().program().loops().size());
    return retune_search(context.evaluator(), context.outline(),
                         context.collection(), seed, retune_options,
                         context.baseline_seconds());
  }
};

}  // namespace

void SearchRegistry::add(const std::string& name, Factory factory,
                         bool listed) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.factory = std::move(factory);
      entry.listed = listed;
      return;
    }
  }
  entries_.push_back({name, std::move(factory), listed});
}

bool SearchRegistry::contains(const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return true;
  }
  return false;
}

std::unique_ptr<SearchAlgorithm> SearchRegistry::create(
    const std::string& name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.factory();
  }
  // List only the listed keys: harness-only algorithms (retune) must
  // not leak into `--algorithm` help and error text.
  std::string known;
  for (const Entry& entry : entries_) {
    if (!entry.listed) continue;
    if (!known.empty()) known += ", ";
    known += entry.name;
  }
  throw std::invalid_argument("unknown search algorithm '" + name +
                              "' (registered: " + known + ")");
}

std::vector<std::string> SearchRegistry::names() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    if (entry.listed) keys.push_back(entry.name);
  }
  return keys;
}

SearchRegistry& SearchRegistry::global() {
  static SearchRegistry registry = [] {
    SearchRegistry r;
    r.add("random", [] { return std::make_unique<RandomAlgorithm>(); });
    r.add("fr", [] { return std::make_unique<FrAlgorithm>(); });
    r.add("greedy", [] { return std::make_unique<GreedyAlgorithm>(); });
    r.add("cfr", [] { return std::make_unique<CfrAlgorithm>(); });
    r.add("retune", [] { return std::make_unique<RetuneAlgorithm>(); },
          /*listed=*/false);
    return r;
  }();
  return registry;
}

}  // namespace ft::core
