// Bring-your-own-application example: a downstream user models THEIR
// code as a ft::ir::Program and runs the whole FuncyTuner pipeline on
// it - the workflow a scientist follows before committing cluster time
// to per-loop tuning of a real application.
//
// The example models a small 2D reaction-diffusion mini-app with four
// hot loops of deliberately different character:
//   diffuse  - clean unit-stride stencil (vectorizes well),
//   react    - divergent chemistry kernel (vectorization backfires),
//   reduce   - residual norm (dependence-limited reduction),
//   exchange - halo exchange (latency-bound, prefetch-sensitive).
//
// Usage: custom_program [--samples 500] [--seed 7]

#include <iostream>

#include "core/funcy_tuner.hpp"
#include "machine/architecture.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

namespace {

ft::ir::Program reaction_diffusion() {
  using ft::ir::InputSpec;
  using ft::ir::LoopModule;

  auto loop = [](const std::string& name, double share) {
    LoopModule m;
    m.name = name;
    m.o3_ratio = share;
    return m;
  };

  LoopModule diffuse = loop("diffuse", 0.22);
  diffuse.features.flops_per_iter = 34;
  diffuse.features.memops_per_iter = 10;
  diffuse.features.body_size = 44;
  diffuse.features.trip_count = 8000;
  diffuse.features.unit_stride_frac = 0.95;
  diffuse.features.working_set_mb = 300;
  diffuse.features.store_frac = 0.4;
  diffuse.features.shared_data = 0.5;
  diffuse.features.alias_uncertainty = 0.7;  // raw pointers, no restrict
  diffuse.features.static_branchiness = 0.65;
  diffuse.features.register_pressure = 0.5;
  diffuse.features.fp_intensity = 0.9;

  LoopModule react = loop("react", 0.18);
  react.features.flops_per_iter = 40;
  react.features.memops_per_iter = 5;
  react.features.body_size = 60;
  react.features.trip_count = 8000;
  react.features.divergence = 0.55;       // per-cell chemistry branches
  react.features.static_branchiness = 0.45;
  react.features.branch_mispredict = 0.2;
  react.features.unit_stride_frac = 0.8;
  react.features.working_set_mb = 120;
  react.features.register_pressure = 0.6;
  react.features.fp_intensity = 0.95;

  LoopModule reduce = loop("reduce", 0.08);
  reduce.features.flops_per_iter = 8;
  reduce.features.memops_per_iter = 8;
  reduce.features.body_size = 20;
  reduce.features.trip_count = 9000;
  reduce.features.dependence = 0.65;  // scalar reduction chain
  reduce.features.unit_stride_frac = 1.0;
  reduce.features.working_set_mb = 150;
  reduce.features.store_frac = 0.02;
  reduce.features.fp_intensity = 0.9;

  LoopModule exchange = loop("exchange", 0.07);
  exchange.features.flops_per_iter = 3;
  exchange.features.memops_per_iter = 9;
  exchange.features.body_size = 30;
  exchange.features.trip_count = 1500;
  exchange.features.unit_stride_frac = 0.3;  // strided halo faces
  exchange.features.working_set_mb = 8;
  exchange.features.store_frac = 0.45;
  exchange.features.shared_data = 0.6;
  exchange.features.parallel_frac = 0.7;

  LoopModule rest = loop("nonloop", 0.45);
  rest.is_loop = false;
  rest.features.body_size = 300;
  rest.features.unit_stride_frac = 0.7;
  rest.features.working_set_mb = 4;
  rest.features.divergence = 0.4;
  rest.features.static_branchiness = 0.5;
  rest.features.dependence = 0.6;
  rest.features.parallel_frac = 0.3;
  rest.features.call_density = 0.4;

  InputSpec tuning;
  tuning.name = "tuning";
  tuning.timesteps = 40;
  tuning.o3_seconds = 20.0;
  InputSpec production = tuning;
  production.name = "production";
  production.timesteps = 400;
  production.o3_seconds = 195.0;  // ~10x more steps, same work set
  production.work_scale = 1.0;

  return ft::ir::Program("reaction-diffusion", "C++", 3.1,
                         {diffuse, react, reduce, exchange}, rest,
                         {tuning, production});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ft;
  const support::CliArgs args(argc, argv);

  core::FuncyTunerOptions options;
  options.samples = static_cast<std::size_t>(args.get_int("samples", 500));
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

  core::FuncyTuner tuner(reaction_diffusion(), machine::broadwell(),
                         options);
  std::cout << "Tuning a custom reaction-diffusion mini-app ("
            << tuner.outline().hot.size() << " hot loops outlined)\n\n";

  const auto cfr = tuner.run("cfr");
  const auto random = tuner.run("random");

  support::Table table("Results");
  table.set_header({"Algorithm", "Speedup vs O3"});
  table.add_row({"Random (single CV)", support::Table::num(random.speedup)});
  table.add_row({"FuncyTuner CFR", support::Table::num(cfr.speedup)});
  table.print(std::cout);

  support::Table loops("CFR per-loop outcome");
  loops.set_header({"Loop", "O3 codegen", "CFR codegen", "Speedup"});
  const auto speedups = tuner.per_loop_speedups(cfr.best_assignment);
  const auto tuned = tuner.per_loop_decisions(cfr.best_assignment);
  const auto baseline = tuner.per_loop_decisions(
      compiler::ModuleAssignment::uniform(tuner.space().default_cv(), 4));
  for (std::size_t j = 0; j < 4; ++j) {
    loops.add_row({tuner.program().loops()[j].name, baseline[j], tuned[j],
                   support::Table::num(speedups[j])});
  }
  loops.print(std::cout);

  // The payoff that justifies tuning: amortization over production runs.
  const auto production = tuner.program().input("production");
  const double prod_base = tuner.baseline_seconds_on(*production);
  const double prod_tuned =
      tuner.seconds_on(*production, cfr.best_assignment);
  std::cout << "\nProduction run (400 steps): "
            << support::Table::num(prod_base, 1) << " s -> "
            << support::Table::num(prod_tuned, 1) << " s ("
            << support::Table::num(prod_base / prod_tuned) << "x); saves "
            << support::Table::num(prod_base - prod_tuned, 1)
            << " s per production run.\n";
  return 0;
}
