#include "baselines/cobayn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "machine/execution_engine.hpp"
#include "programs/corpus.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace ft::baselines {

namespace {

/// k of the k-means clustering over program features.
constexpr std::size_t kClusters = 5;

double euclidean(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

/// Deterministic Lloyd k-means (k-means++-style greedy seeding).
std::pair<std::vector<std::vector<double>>, std::vector<std::size_t>> kmeans(
    const std::vector<std::vector<double>>& points, std::size_t k,
    support::Rng& rng) {
  k = std::min(k, points.size());
  std::vector<std::vector<double>> centroids;
  centroids.push_back(points[rng.next_below(points.size())]);
  while (centroids.size() < k) {
    // Greedy farthest-point seeding.
    std::size_t farthest = 0;
    double best_distance = -1.0;
    for (std::size_t p = 0; p < points.size(); ++p) {
      double nearest = std::numeric_limits<double>::infinity();
      for (const auto& c : centroids) {
        nearest = std::min(nearest, euclidean(points[p], c));
      }
      if (nearest > best_distance) {
        best_distance = nearest;
        farthest = p;
      }
    }
    centroids.push_back(points[farthest]);
  }

  std::vector<std::size_t> assignment(points.size(), 0);
  for (int iteration = 0; iteration < 25; ++iteration) {
    bool moved = false;
    for (std::size_t p = 0; p < points.size(); ++p) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < centroids.size(); ++c) {
        const double d = euclidean(points[p], centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (assignment[p] != best) {
        assignment[p] = best;
        moved = true;
      }
    }
    for (std::size_t c = 0; c < centroids.size(); ++c) {
      std::vector<double> mean(centroids[c].size(), 0.0);
      std::size_t count = 0;
      for (std::size_t p = 0; p < points.size(); ++p) {
        if (assignment[p] != c) continue;
        for (std::size_t i = 0; i < mean.size(); ++i) mean[i] += points[p][i];
        ++count;
      }
      if (count > 0) {
        for (double& v : mean) v /= static_cast<double>(count);
        centroids[c] = std::move(mean);
      }
    }
    if (!moved) break;
  }
  return {std::move(centroids), std::move(assignment)};
}

}  // namespace

Cobayn::Cobayn(const flags::FlagSpace& space, machine::Architecture arch,
               CobaynOptions options)
    : space_(&space),
      binary_space_(space.binarized()),
      arch_(std::move(arch)),
      options_(options) {}

std::vector<double> Cobayn::static_features(const ir::Program& program) {
  // Milepost-like counts, aggregated over modules weighted by their O3
  // runtime share (a static analyzer sees the whole program; weighting
  // approximates per-function instruction counts).
  std::vector<double> f(10, 0.0);
  double total = 0.0;
  auto add = [&](const ir::LoopModule& m) {
    const double w = m.o3_ratio;
    const ir::LoopFeatures& x = m.features;
    f[0] += w * x.body_size / 100.0;
    f[1] += w * x.memops_per_iter /
            std::max(x.flops_per_iter + x.memops_per_iter, 1.0);
    f[2] += w * x.static_branchiness;
    f[3] += w * std::min(x.trip_count / 10000.0, 2.0);
    f[4] += w * x.call_density;
    f[5] += w * x.fp_intensity;
    f[6] += w * 10.0 / x.body_size;  // unroll-friendliness
    f[7] += w * x.alias_uncertainty;
    f[8] += w * x.store_frac;
    total += w;
  };
  for (const auto& loop : program.loops()) add(loop);
  add(program.nonloop());
  for (double& v : f) v /= std::max(total, 1e-9);
  f[9] = static_cast<double>(program.loops().size()) / 20.0;
  return f;
}

std::vector<double> Cobayn::dynamic_features(const ir::Program& program) {
  // MICA instruments a serial run: module statistics are unweighted (a
  // serial execution does not reproduce the OpenMP time distribution),
  // which is what degrades the dynamic model on parallel targets.
  std::vector<double> f(8, 0.0);
  double count = 0.0;
  auto add = [&](const ir::LoopModule& m) {
    const ir::LoopFeatures& x = m.features;
    f[0] += x.divergence;
    f[1] += x.branch_mispredict;
    f[2] += x.unit_stride_frac;
    f[3] += std::min(x.working_set_mb / 100.0, 3.0);
    f[4] += x.dependence;
    f[5] += x.memops_per_iter /
            std::max(x.flops_per_iter + x.memops_per_iter, 1.0);
    f[6] += std::min(x.flops_per_iter / 60.0, 2.0);
    f[7] += x.register_pressure;
    count += 1.0;
  };
  for (const auto& loop : program.loops()) add(loop);
  add(program.nonloop());
  for (double& v : f) v /= std::max(count, 1.0);
  return f;
}

std::vector<double> Cobayn::features_for(const ir::Program& program,
                                         CobaynModel model) const {
  switch (model) {
    case CobaynModel::kStatic:
      return static_features(program);
    case CobaynModel::kDynamic:
      return dynamic_features(program);
    case CobaynModel::kHybrid: {
      std::vector<double> f = static_features(program);
      const std::vector<double> d = dynamic_features(program);
      f.insert(f.end(), d.begin(), d.end());
      return f;
    }
  }
  return {};
}

void Cobayn::learn_model(CobaynModel model,
                         const std::vector<std::vector<double>>& features,
                         const std::vector<std::vector<double>>& probs) {
  support::Rng rng(options_.seed ^ static_cast<std::uint64_t>(model));
  auto [centroids, assignment] = kmeans(features, kClusters, rng);

  const std::size_t flag_count = binary_space_.flag_count();
  std::vector<std::vector<double>> cluster_probs(
      centroids.size(), std::vector<double>(flag_count, 0.0));
  std::vector<double> cluster_counts(centroids.size(), 0.0);
  for (std::size_t p = 0; p < probs.size(); ++p) {
    const std::size_t c = assignment[p];
    for (std::size_t i = 0; i < flag_count; ++i) {
      cluster_probs[c][i] += probs[p][i];
    }
    cluster_counts[c] += 1.0;
  }
  for (std::size_t c = 0; c < centroids.size(); ++c) {
    for (double& v : cluster_probs[c]) {
      // Laplace smoothing toward 0.5 for sparse clusters.
      v = (v + 0.5) / (cluster_counts[c] + 1.0);
    }
  }

  ModelData& target = model == CobaynModel::kStatic    ? static_model_
                      : model == CobaynModel::kDynamic ? dynamic_model_
                                                       : hybrid_model_;
  target.centroids = std::move(centroids);
  target.flag_probs = std::move(cluster_probs);
}

void Cobayn::train() {
  support::Rng corpus_rng = support::Rng(options_.seed).fork("corpus");
  const std::vector<ir::Program> corpus =
      programs::generate_corpus(corpus_rng, options_.corpus_size);

  std::vector<std::vector<double>> static_f, dynamic_f, hybrid_f;
  std::vector<std::vector<double>> program_flag_probs;

  for (const ir::Program& program : corpus) {
    // Measure 1000 (default 300) binary CVs on this corpus program.
    compiler::Compiler compiler(*space_, arch_);
    machine::ExecutionEngine engine(program, compiler,
                                    machine::NoiseModel(options_.seed));
    const ir::InputSpec& input = program.tuning_input();
    support::Rng sample_rng =
        corpus_rng.fork("samples|" + program.name());
    const std::vector<flags::CompilationVector> cvs =
        binary_space_.sample_many(sample_rng, options_.corpus_samples);

    // Training measurements are content-addressed (noise keyed by the
    // CV's executable fingerprint under one phase rep_base), so they
    // fan out on the shared pool like every other sweep.
    std::vector<double> seconds(cvs.size());
    support::parallel_for(cvs.size(), [&](std::size_t k) {
      const compiler::Executable exe =
          compiler.build_uniform(program, cvs[k]);
      machine::RunOptions run_options;
      run_options.rep_base = core::rep_streams::kCobaynTraining;
      seconds[k] = engine.run(exe, input, run_options).end_to_end;
    });

    // Evidence: per-flag non-default frequency among the top-K CVs.
    const std::vector<std::size_t> top = support::smallest_k(
        seconds, std::min(options_.top_k, cvs.size()));
    std::vector<double> flag_prob(binary_space_.flag_count(), 0.0);
    for (const std::size_t k : top) {
      for (std::size_t i = 0; i < binary_space_.flag_count(); ++i) {
        if (cvs[k][i] != 0) flag_prob[i] += 1.0;
      }
    }
    for (double& v : flag_prob) v /= static_cast<double>(top.size());

    static_f.push_back(features_for(program, CobaynModel::kStatic));
    dynamic_f.push_back(features_for(program, CobaynModel::kDynamic));
    hybrid_f.push_back(features_for(program, CobaynModel::kHybrid));
    program_flag_probs.push_back(std::move(flag_prob));
  }

  learn_model(CobaynModel::kStatic, static_f, program_flag_probs);
  learn_model(CobaynModel::kDynamic, dynamic_f, program_flag_probs);
  learn_model(CobaynModel::kHybrid, hybrid_f, program_flag_probs);
  trained_ = true;
}

const Cobayn::ModelData& Cobayn::data(CobaynModel model) const {
  switch (model) {
    case CobaynModel::kStatic: return static_model_;
    case CobaynModel::kDynamic: return dynamic_model_;
    case CobaynModel::kHybrid: return hybrid_model_;
  }
  return static_model_;
}

const std::vector<std::vector<double>>& Cobayn::cluster_probs(
    CobaynModel model) const {
  return data(model).flag_probs;
}

core::TuningResult Cobayn::infer(core::Evaluator& evaluator,
                                 CobaynModel model,
                                 double baseline_seconds) {
  const ir::Program& program = evaluator.engine().program();
  const std::vector<double> features = features_for(program, model);
  const ModelData& m = data(model);

  std::size_t cluster = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < m.centroids.size(); ++c) {
    const double d = euclidean(features, m.centroids[c]);
    if (d < best_d) {
      best_d = d;
      cluster = c;
    }
  }
  const std::vector<double>& probs = m.flag_probs[cluster];

  // Sample candidate CVs from the per-flag posterior and evaluate.
  support::Rng rng =
      support::Rng(options_.seed).fork("infer|" + program.name());
  std::vector<flags::CompilationVector> candidates;
  candidates.reserve(options_.inference_samples);
  for (std::size_t s = 0; s < options_.inference_samples; ++s) {
    flags::CompilationVector cv = binary_space_.default_cv();
    for (std::size_t i = 0; i < binary_space_.flag_count(); ++i) {
      if (binary_space_.specs()[i].options.size() > 1 &&
          rng.bernoulli(probs[i])) {
        cv.set(i, 1);
      }
    }
    candidates.push_back(std::move(cv));
  }

  const std::size_t loop_count = program.loops().size();
  std::vector<core::EvalRequest> requests(candidates.size());
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    requests[k].assignment =
        compiler::ModuleAssignment::uniform(candidates[k], loop_count);
    requests[k].rep_base = core::rep_streams::kCobayn;
  }
  const std::vector<core::EvalResponse> responses = evaluator.evaluate_batch(
      requests, core::EvalTrace{.label = "cobayn/batch"});
  std::vector<double> seconds;
  seconds.reserve(responses.size());
  for (const core::EvalResponse& response : responses) {
    seconds.push_back(response.seconds());
  }

  core::TuningResult result;
  result.algorithm = cobayn_model_name(model);
  double best = std::numeric_limits<double>::infinity();
  for (const double s : seconds) {
    best = std::min(best, s);
    result.history.push_back(best);
  }
  result.evaluations = seconds.size();
  result.search_best_seconds = best;
  result.best_assignment = compiler::ModuleAssignment::uniform(
      candidates[support::argmin(seconds)], loop_count);
  result.tuned_seconds = evaluator.final_seconds(result.best_assignment);
  result.baseline_seconds = baseline_seconds;
  result.speedup = baseline_seconds / result.tuned_seconds;
  return result;
}

}  // namespace ft::baselines
