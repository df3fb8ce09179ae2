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

/// Evaluation budgets (`fr:samples`, `cfr:samples`,
/// `retune:iterations`) default to FuncyTunerOptions::samples: K of
/// Algorithm 1 is both the presample size and the search budget unless
/// the namespaced knob overrides it.
std::size_t budget(const support::OptionSet::Parsed& parsed,
                   const std::string& knob,
                   const FuncyTunerOptions& options) {
  return parsed.given(knob) ? static_cast<std::size_t>(parsed.integer(knob))
                            : options.samples;
}

class RandomAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "random"; }
  std::string display_name() const override { return "Random"; }
  TuningResult run(SearchContext& context) const override {
    return random_search(context.evaluator(), context.presampled());
  }
};

class FrAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "fr"; }
  std::string display_name() const override { return "FR"; }
  support::OptionSet options() const override {
    support::OptionSet set;
    set.integer("samples", 0, "evaluation budget", support::at_least(1))
        .default_from("samples");
    return set;
  }
  TuningResult run(SearchContext& context) const override {
    const support::OptionSet::Parsed parsed = parsed_options(context);
    const FuncyTunerOptions& options = context.options();
    return function_random_search(
        context.evaluator(), context.outline(), context.presampled(),
        budget(parsed, "samples", options),
        support::Rng(options.seed).fork("fr").next());
  }
};

class GreedyAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "greedy"; }
  std::string display_name() const override { return "G.realized"; }
  TuningResult run(SearchContext& context) const override {
    return greedy_combination(context.evaluator(), context.outline(),
                              context.collection());
  }
};

class CfrAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "cfr"; }
  std::string display_name() const override { return "CFR"; }
  support::OptionSet options() const override {
    support::OptionSet set;
    set.integer("top-x", 10, "pruned space size X per module",
                support::at_least(1))
        .integer("samples", 0, "evaluation budget K of Algorithm 1",
                 support::at_least(1))
        .default_from("samples")
        .integer("patience", 0, "early-stop patience; 0 = fixed budget");
    return set;
  }
  TuningResult run(SearchContext& context) const override {
    const support::OptionSet::Parsed parsed = parsed_options(context);
    const FuncyTunerOptions& options = context.options();
    CfrOptions cfr_options;
    cfr_options.top_x = static_cast<std::size_t>(parsed.integer("top-x"));
    cfr_options.iterations = budget(parsed, "samples", options);
    cfr_options.seed = support::Rng(options.seed).fork("cfr").next();
    cfr_options.patience =
        static_cast<std::size_t>(parsed.integer("patience"));
    return cfr_search(context.evaluator(), context.outline(),
                      context.collection(), cfr_options);
  }
};

class RetuneAlgorithm final : public SearchAlgorithm {
 public:
  std::string name() const override { return "retune"; }
  std::string display_name() const override { return "Retune"; }
  support::OptionSet options() const override {
    support::OptionSet set;
    set.integer("iterations", 0, "evaluation budget, the seed costs one")
        .default_from("samples")
        .integer("top-x", 10, "pruned candidate space per module",
                 support::at_least(1))
        .integer("patience", 0, "early-stop patience; 0 = fixed budget");
    return set;
  }
  TuningResult run(SearchContext& context) const override {
    const support::OptionSet::Parsed parsed = parsed_options(context);
    const FuncyTunerOptions& options = context.options();
    RetuneOptions retune_options;
    retune_options.top_x =
        static_cast<std::size_t>(parsed.integer("top-x"));
    retune_options.iterations = budget(parsed, "iterations", options);
    retune_options.seed = support::Rng(options.seed).fork("retune").next();
    retune_options.patience =
        static_cast<std::size_t>(parsed.integer("patience"));
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
                         context.collection(), seed, retune_options);
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

void SearchRegistry::declare_knobs(support::OptionSet& set) const {
  for (const Entry& entry : entries_) {
    set.knob_namespace(entry.name, entry.factory()->options());
  }
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
