// COBAYN baseline (Ashouri et al., TACO'16): a Bayesian-network
// predictor that infers good compiler flags for an unseen program from
// its program features.
//
// Following the paper's §4.2.1 protocol:
//  * trained on a cBench-like corpus of small serial kernels,
//  * for each corpus program the top-100 of 1000 random *binary* CVs
//    define the evidence (COBAYN can only infer binary flags, so each
//    multi-valued ICC flag is binarized),
//  * three feature sets: static (Milepost-GCC-like), dynamic
//    (MICA-like) and hybrid. MICA instruments *serial* executions, so
//    dynamic features of OpenMP programs reflect a serialized view -
//    the reason the paper's dynamic/hybrid models underperform.
//
// The learned model is a clustered naive Bayes network: programs are
// clustered in feature space (k-means); each cluster carries per-flag
// Bernoulli posteriors from which inference samples candidate CVs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/evaluator.hpp"
#include "core/search.hpp"
#include "flags/flag_space.hpp"
#include "ir/program.hpp"
#include "machine/architecture.hpp"

namespace ft::baselines {

enum class CobaynModel { kStatic, kDynamic, kHybrid };

[[nodiscard]] inline const char* cobayn_model_name(CobaynModel m) noexcept {
  switch (m) {
    case CobaynModel::kStatic: return "static COBAYN";
    case CobaynModel::kDynamic: return "dynamic COBAYN";
    case CobaynModel::kHybrid: return "hybrid COBAYN";
  }
  return "?";
}

struct CobaynOptions {
  std::size_t corpus_size = 24;
  std::size_t corpus_samples = 300;  ///< random CVs per corpus program
  std::size_t top_k = 100;           ///< evidence per program (paper: 100)
  std::size_t inference_samples = 1000;
  std::uint64_t seed = 42;
};

class Cobayn {
 public:
  /// Borrows the full flag space (binarized internally) and copies the
  /// architecture the corpus is measured on.
  Cobayn(const flags::FlagSpace& space, machine::Architecture arch,
         CobaynOptions options = {});

  /// Generates the corpus, measures it, and learns the three models.
  void train();
  [[nodiscard]] bool trained() const noexcept { return trained_; }

  /// Infers flags for the evaluator's program: samples
  /// `inference_samples` CVs from the matched cluster's posterior,
  /// evaluates them, reports the best (paper protocol).
  [[nodiscard]] core::TuningResult infer(core::Evaluator& evaluator,
                                         CobaynModel model,
                                         double baseline_seconds);

  /// Milepost-like static features (weighted by O3 runtime shares).
  [[nodiscard]] static std::vector<double> static_features(
      const ir::Program& program);
  /// MICA-like dynamic features from a SERIAL execution view:
  /// unweighted module statistics (a serial run does not reproduce the
  /// OpenMP-weighted time distribution).
  [[nodiscard]] static std::vector<double> dynamic_features(
      const ir::Program& program);

  /// Per-flag P(non-default) of a cluster (exposed for tests).
  [[nodiscard]] const std::vector<std::vector<double>>& cluster_probs(
      CobaynModel model) const;

 private:
  struct ModelData {
    std::vector<std::vector<double>> centroids;
    std::vector<std::vector<double>> flag_probs;  ///< per cluster
  };

  [[nodiscard]] std::vector<double> features_for(const ir::Program& program,
                                                 CobaynModel model) const;
  void learn_model(CobaynModel model,
                   const std::vector<std::vector<double>>& features,
                   const std::vector<std::vector<double>>& program_probs);
  [[nodiscard]] const ModelData& data(CobaynModel model) const;

  const flags::FlagSpace* space_;
  flags::FlagSpace binary_space_;
  machine::Architecture arch_;
  CobaynOptions options_;
  bool trained_ = false;
  ModelData static_model_;
  ModelData dynamic_model_;
  ModelData hybrid_model_;
};

}  // namespace ft::baselines
