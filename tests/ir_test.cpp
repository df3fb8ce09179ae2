// Tests for the program IR: feature sanitization/validation, Program
// invariants and input handling.
#include <gtest/gtest.h>

#include "ir/loop_features.hpp"
#include "ir/program.hpp"

namespace ft::ir {
namespace {

LoopModule loop(const std::string& name, double ratio) {
  LoopModule m;
  m.name = name;
  m.o3_ratio = ratio;
  return m;
}

LoopModule nonloop(double ratio) {
  LoopModule m = loop("nonloop", ratio);
  m.is_loop = false;
  return m;
}

std::vector<InputSpec> tuning_only() {
  InputSpec spec;
  spec.name = "tuning";
  spec.o3_seconds = 10.0;
  return {spec};
}

// ------------------------------------------------------------ features ----

TEST(LoopFeatures, DefaultsAreValid) {
  LoopFeatures f;
  EXPECT_TRUE(features_valid(f));
}

TEST(LoopFeatures, SanitizeClampsUnitRanges) {
  LoopFeatures f;
  f.divergence = 1.7;
  f.store_frac = -0.2;
  f.register_pressure = 3.0;
  f.sanitize();
  EXPECT_DOUBLE_EQ(f.divergence, 1.0);
  EXPECT_DOUBLE_EQ(f.store_frac, 0.0);
  EXPECT_DOUBLE_EQ(f.register_pressure, 1.0);
  EXPECT_TRUE(features_valid(f));
}

TEST(LoopFeatures, SanitizeEnforcesPositiveWork) {
  LoopFeatures f;
  f.trip_count = -5;
  f.body_size = 0;
  f.working_set_mb = 0;
  f.sanitize();
  EXPECT_GE(f.trip_count, 1.0);
  EXPECT_GE(f.body_size, 1.0);
  EXPECT_GT(f.working_set_mb, 0.0);
}

TEST(LoopFeatures, ScaledMultipliesWorkAndWs) {
  LoopFeatures f;
  f.trip_count = 1000;
  f.working_set_mb = 8;
  const LoopFeatures scaled = f.scaled(2.0, 4.0);
  EXPECT_DOUBLE_EQ(scaled.trip_count, 2000);
  EXPECT_DOUBLE_EQ(scaled.working_set_mb, 32);
  // Unit-range features untouched.
  EXPECT_DOUBLE_EQ(scaled.divergence, f.divergence);
}

TEST(LoopFeatures, ScaledIdentity) {
  LoopFeatures f;
  f.trip_count = 123;
  const LoopFeatures scaled = f.scaled(1.0, 1.0);
  EXPECT_DOUBLE_EQ(scaled.trip_count, 123);
}

TEST(LoopFeatures, InvalidWhenOutOfRange) {
  LoopFeatures f;
  f.dependence = 1.5;
  EXPECT_FALSE(features_valid(f));
}

// ------------------------------------------------------------- program ----

TEST(Program, SharesMustSumToOne) {
  EXPECT_THROW(Program("p", "C", 1, {loop("a", 0.5)}, nonloop(0.2),
                       tuning_only()),
               std::invalid_argument);
}

TEST(Program, AcceptsExactShares) {
  EXPECT_NO_THROW(Program("p", "C", 1, {loop("a", 0.6)}, nonloop(0.4),
                          tuning_only()));
}

TEST(Program, RequiresAtLeastOneLoop) {
  EXPECT_THROW(Program("p", "C", 1, {}, nonloop(1.0), tuning_only()),
               std::invalid_argument);
}

TEST(Program, RequiresTuningInput) {
  InputSpec other;
  other.name = "small";
  EXPECT_THROW(
      Program("p", "C", 1, {loop("a", 0.6)}, nonloop(0.4), {other}),
      std::invalid_argument);
}

TEST(Program, RejectsNonPositiveLoopShare) {
  EXPECT_THROW(Program("p", "C", 1, {loop("a", 0.0)}, nonloop(1.0),
                       tuning_only()),
               std::invalid_argument);
}

TEST(Program, RejectsDuplicateLoopNames) {
  EXPECT_THROW(Program("p", "C", 1, {loop("a", 0.3), loop("a", 0.3)},
                       nonloop(0.4), tuning_only()),
               std::invalid_argument);
}

TEST(Program, AllModulesAppendsNonloop) {
  Program p("p", "C", 1, {loop("a", 0.3), loop("b", 0.3)}, nonloop(0.4),
            tuning_only());
  const auto modules = p.all_modules();
  ASSERT_EQ(modules.size(), 3u);
  EXPECT_TRUE(modules[0].is_loop);
  EXPECT_TRUE(modules[1].is_loop);
  EXPECT_FALSE(modules[2].is_loop);
}

TEST(Program, InputLookup) {
  InputSpec tuning;
  tuning.name = "tuning";
  InputSpec large;
  large.name = "large";
  large.o3_seconds = 99;
  Program p("p", "C", 1, {loop("a", 0.6)}, nonloop(0.4), {tuning, large});
  ASSERT_TRUE(p.input("large").has_value());
  EXPECT_DOUBLE_EQ(p.input("large")->o3_seconds, 99);
  EXPECT_FALSE(p.input("missing").has_value());
  EXPECT_EQ(p.tuning_input().name, "tuning");
}

TEST(Program, PgoFlagDefaultsFalse) {
  Program p("p", "C", 1, {loop("a", 0.6)}, nonloop(0.4), tuning_only());
  EXPECT_FALSE(p.pgo_instrumentation_fails());
  p.set_pgo_instrumentation_fails(true);
  EXPECT_TRUE(p.pgo_instrumentation_fails());
}

TEST(Program, SanitizesLoopFeaturesOnConstruction) {
  LoopModule bad = loop("a", 0.6);
  bad.features.divergence = 9.0;
  Program p("p", "C", 1, {bad}, nonloop(0.4), tuning_only());
  EXPECT_LE(p.loops()[0].features.divergence, 1.0);
}

}  // namespace
}  // namespace ft::ir
