// SearchAlgorithm registry: a uniform name → factory API over the
// paper's four search algorithms and any experimental ones a caller
// registers. ftune, Campaign, the figure benches and the tests resolve
// algorithms by key (FuncyTuner::run) and iterate `names()` instead of
// hard-coding a string switch.
//
// A SearchAlgorithm consumes a SearchContext - lazy accessors over one
// FuncyTuner's phases - so cheap algorithms (Random) never force the
// expensive collection sweep just by being constructed. Each
// algorithm additionally owns a declarative options() schema
// (support::OptionSet) of its private knobs. declare_knobs() makes
// every schema one option namespace of a command line, so ftune
// parses, refuses and lists them as `--cfr:top-x`, `--fr:samples`,
// ...: the only place those knobs can be set.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/search.hpp"
#include "support/options.hpp"

namespace ft::core {

struct FuncyTunerOptions;

/// Everything a search algorithm may need, behind lazy checked
/// accessors: each phase accessor runs (and memoizes, via FuncyTuner)
/// the corresponding phase on first call, so an algorithm only pays
/// for the phases it actually touches. Accessing a phase the harness
/// never provided throws std::logic_error naming the missing piece
/// (previously these were raw pointers and a null deref).
class SearchContext {
 public:
  using PresampledFn =
      std::function<const std::vector<flags::CompilationVector>&()>;
  using OutlineFn = std::function<const Outline&()>;
  using CollectionFn = std::function<const Collection&()>;

  // --- harness side: wiring ----------------------------------------------
  void provide_evaluator(Evaluator* evaluator) { evaluator_ = evaluator; }
  void provide_options(const FuncyTunerOptions* options) {
    options_ = options;
  }
  void provide_presampled(PresampledFn fn) { presampled_ = std::move(fn); }
  void provide_outline(OutlineFn fn) { outline_ = std::move(fn); }
  void provide_collection(CollectionFn fn) { collection_ = std::move(fn); }
  void provide_seed_assignment(const compiler::ModuleAssignment* seed) {
    seed_assignment_ = seed;
  }

  // --- algorithm side: checked accessors ---------------------------------
  [[nodiscard]] Evaluator& evaluator() const;
  [[nodiscard]] const FuncyTunerOptions& options() const;
  [[nodiscard]] const std::vector<flags::CompilationVector>& presampled()
      const;
  [[nodiscard]] const Outline& outline() const;
  [[nodiscard]] const Collection& collection() const;
  /// Incumbent assignment an incremental search starts from (the
  /// "retune" algorithm re-tunes around it instead of searching from
  /// scratch). Optional: check has_seed_assignment() first.
  [[nodiscard]] bool has_seed_assignment() const noexcept {
    return seed_assignment_ != nullptr;
  }
  [[nodiscard]] const compiler::ModuleAssignment& seed_assignment() const;

  /// Namespaced option tokens for one algorithm key (what the user
  /// passed as `--<algorithm>:<knob>[=value]`), normalized to
  /// `--knob=value` form by OptionSet; empty when none were given.
  [[nodiscard]] std::vector<std::string> algorithm_tokens(
      const std::string& algorithm) const;

 private:
  Evaluator* evaluator_ = nullptr;
  const FuncyTunerOptions* options_ = nullptr;
  PresampledFn presampled_;
  OutlineFn outline_;
  CollectionFn collection_;
  const compiler::ModuleAssignment* seed_assignment_ = nullptr;
};

/// One search algorithm, resolvable by registry key.
class SearchAlgorithm {
 public:
  virtual ~SearchAlgorithm() = default;
  /// Registry key (stable, lowercase: "random", "fr", "greedy", "cfr").
  [[nodiscard]] virtual std::string name() const = 0;
  /// Human label as the paper prints it ("Random", "FR", "G.realized",
  /// "CFR"); also what TuningResult::algorithm is set to.
  [[nodiscard]] virtual std::string display_name() const = 0;
  /// Declarative schema of this algorithm's private knobs, with
  /// UNprefixed names ("top-x", "patience"); a command line surfaces
  /// each as `--<name()>:<knob>` (SearchRegistry::declare_knobs).
  /// Default: no knobs.
  [[nodiscard]] virtual support::OptionSet options() const { return {}; }
  [[nodiscard]] virtual TuningResult run(SearchContext& context) const = 0;

 protected:
  /// The context's namespaced tokens for this algorithm, resolved
  /// against options() - strict, so an unknown or malformed knob set
  /// programmatically throws support::CliError at run time (a command
  /// line refuses it at parse time, before any tuning starts).
  [[nodiscard]] support::OptionSet::Parsed parsed_options(
      const SearchContext& context) const {
    return options().parse(context.algorithm_tokens(name()));
  }
};

/// Name → factory map. Registration order is iteration order, so
/// `--algorithm all` reproduces the paper's Random, FR, G, CFR column
/// order.
/// Thread-compatible: register at startup, read from anywhere.
class SearchRegistry {
 public:
  using Factory = std::function<std::unique_ptr<SearchAlgorithm>()>;

  /// Registers (or replaces, keeping its position and visibility) an
  /// algorithm. `listed = false` registers a key create() resolves but
  /// names() omits - for algorithms that only make sense in a special
  /// harness (the online "retune" needs a seed assignment, so
  /// `--algorithm all` and campaign grids must not iterate into it).
  void add(const std::string& name, Factory factory, bool listed = true);
  [[nodiscard]] bool contains(const std::string& name) const;
  /// Instantiates by key (listed or not); throws std::invalid_argument
  /// for unknown names. The message lists only the *listed* keys -
  /// harness-only algorithms must not leak into `--algorithm`
  /// help/errors.
  [[nodiscard]] std::unique_ptr<SearchAlgorithm> create(
      const std::string& name) const;
  /// Listed keys in registration order (what `--algorithm all` runs).
  [[nodiscard]] std::vector<std::string> names() const;
  /// Declares every registered algorithm, listed or not, as an option
  /// namespace of `set` with its options() schema as the knobs.
  void declare_knobs(support::OptionSet& set) const;

  /// The process-wide registry, pre-populated with the paper's four
  /// algorithms (random, fr, greedy, cfr) and the unlisted online
  /// "retune".
  [[nodiscard]] static SearchRegistry& global();

 private:
  struct Entry {
    std::string name;
    Factory factory;
    bool listed = true;
  };
  std::vector<Entry> entries_;
};

}  // namespace ft::core
