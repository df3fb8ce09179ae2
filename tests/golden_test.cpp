// Golden-output regression tests: fixed-seed tuning runs are compared
// against committed JSON snapshots (the exact payload `ftune tune
// --json` writes). The comparator treats unquoted numeric literals as
// doubles at %.17g - a diff therefore means a real behavioral change,
// not a formatting accident, and the failure message points at the
// first diverging token instead of dumping two blobs.
//
// Regenerate snapshots after an INTENDED behavior change with:
//   FT_UPDATE_GOLDEN=1 ./build/tests/golden_test
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/funcy_tuner.hpp"
#include "core/serialization.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"

namespace ft::core {
namespace {

#ifndef FT_GOLDEN_DIR
#error "FT_GOLDEN_DIR must point at the source-tree snapshot directory"
#endif

/// One lexical token of a JSON document: either a numeric literal
/// (compared at %.17g) or a run of everything else (compared exactly).
/// Quoted strings stay textual even when they contain digits - loop
/// names and hashes must match byte-for-byte.
struct Token {
  bool numeric = false;
  std::string text;
};

std::vector<Token> tokenize(const std::string& json) {
  std::vector<Token> tokens;
  std::string text;
  bool in_string = false;
  std::size_t i = 0;
  const auto flush = [&] {
    if (!text.empty()) tokens.push_back({false, text});
    text.clear();
  };
  while (i < json.size()) {
    const char c = json[i];
    if (in_string) {
      text += c;
      if (c == '\\' && i + 1 < json.size()) text += json[++i];
      if (c == '"') in_string = false;
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      text += c;
      ++i;
      continue;
    }
    const bool starts_number =
        std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < json.size() &&
         std::isdigit(static_cast<unsigned char>(json[i + 1])));
    if (starts_number) {
      flush();
      const char* begin = json.c_str() + i;
      char* end = nullptr;
      (void)std::strtod(begin, &end);
      tokens.push_back(
          {true, std::string(begin, static_cast<std::size_t>(end - begin))});
      i += static_cast<std::size_t>(end - begin);
      continue;
    }
    text += c;
    ++i;
  }
  flush();
  return tokens;
}

std::string g17(const std::string& literal) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g",
                std::strtod(literal.c_str(), nullptr));
  return buffer;
}

/// Compares two JSON documents token-wise; on mismatch returns a
/// message naming the first diverging token with surrounding context.
testing::AssertionResult json_equal(const std::string& expected,
                                    const std::string& actual) {
  const std::vector<Token> a = tokenize(expected);
  const std::vector<Token> b = tokenize(actual);
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const bool same =
        a[i].numeric && b[i].numeric
            ? g17(a[i].text) == g17(b[i].text)
            : (a[i].numeric == b[i].numeric && a[i].text == b[i].text);
    if (same) continue;
    std::ostringstream oss;
    oss << "token " << i << " differs: expected '" << a[i].text
        << "' vs actual '" << b[i].text << "'\ncontext:";
    for (std::size_t j = i >= 2 ? i - 2 : 0; j < std::min(n, i + 3); ++j) {
      oss << ' ' << (j == i ? ">>>" : "") << b[j].text;
    }
    return testing::AssertionFailure() << oss.str();
  }
  if (a.size() != b.size()) {
    return testing::AssertionFailure()
           << "token counts differ: expected " << a.size() << ", actual "
           << b.size() << " (first extra: '"
           << (a.size() > b.size() ? a[n].text : b[n].text) << "')";
  }
  return testing::AssertionSuccess();
}

std::string snapshot_path(const std::string& name) {
  return std::string(FT_GOLDEN_DIR) + "/" + name;
}

/// Compares `actual` against the committed snapshot, or rewrites the
/// snapshot when FT_UPDATE_GOLDEN is set in the environment.
void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = snapshot_path(name);
  if (std::getenv("FT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_LOG_(INFO) << "updated golden snapshot " << path;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden snapshot " << path
                         << " (run with FT_UPDATE_GOLDEN=1 to create)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(json_equal(buffer.str(), actual))
      << "snapshot " << name << " diverged; if the change is intended, "
      << "regenerate with FT_UPDATE_GOLDEN=1";
}

/// The fixed-seed configuration all snapshots were recorded under.
/// Changing ANY default that feeds the evaluator shows up here first.
FuncyTunerOptions golden_options() {
  FuncyTunerOptions options;
  options.samples = 120;
  options.algorithm_options["cfr"] = {"--top-x=6"};
  options.seed = 42;
  options.final_reps = 5;
  return options;
}

// ------------------------------------------------------ comparator ----

TEST(GoldenComparator, NumbersCompareAtG17NotTextually) {
  EXPECT_TRUE(json_equal("{\"x\":1.50,\"y\":2}", "{\"x\":1.5,\"y\":2}"));
  EXPECT_TRUE(json_equal("[1e3]", "[1000]"));
  EXPECT_FALSE(json_equal("{\"x\":1.5}", "{\"x\":1.5000000000000002}"));
}

TEST(GoldenComparator, StringsCompareExactlyEvenWithDigits) {
  EXPECT_FALSE(json_equal("{\"id\":\"m1\"}", "{\"id\":\"m2\"}"));
  EXPECT_TRUE(json_equal("{\"id\":\"m1\"}", "{\"id\":\"m1\"}"));
  EXPECT_FALSE(json_equal("{\"x\":1}", "{\"x\":1,\"y\":2}"));
}

// --------------------------------------------------------- golden ----

TEST(Golden, CfrCloverleafBroadwellJson) {
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                   golden_options());
  const TuningResult result = tuner.run("cfr");
  check_golden("cfr_cloverleaf_broadwell.json",
               tuning_result_json(result, tuner.space(), tuner.program()));
}

TEST(Golden, RandomCloverleafBroadwellJson) {
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                   golden_options());
  const TuningResult result = tuner.run("random");
  check_golden("random_cloverleaf_broadwell.json",
               tuning_result_json(result, tuner.space(), tuner.program()));
}

TEST(Golden, CfrJsonUnchangedByEvalCache) {
  // The cache's bit-identity contract, pinned to the committed
  // snapshot: cache-on must reproduce the cache-off golden bytes.
  FuncyTunerOptions options = golden_options();
  options.eval_cache = true;
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(), options);
  const TuningResult result = tuner.run("cfr");
  check_golden("cfr_cloverleaf_broadwell.json",
               tuning_result_json(result, tuner.space(), tuner.program()));
}

}  // namespace
}  // namespace ft::core
