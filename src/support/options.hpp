// Declarative option table layered over CliArgs. Tools declare every
// flag once — name, type, default, help text, optional validator —
// and get strict parsing (unknown flags and malformed values throw
// CliError, the PR-3 contract) plus an auto-generated --help rendering
// for free. `tools/ftune.cpp` and the `bench/*` mains all build their
// command lines from this table.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/cli.hpp"

namespace ft::support {

class OptionSet {
 public:
  /// Returns "" when the raw value is acceptable, else a message that
  /// is appended to the CliError ("--samples: must be positive").
  using Validator = std::function<std::string(const std::string&)>;

  /// Parse result: every declared option resolved to its typed value.
  /// Getters throw std::logic_error for names that were never
  /// declared — that is a programming error, not a user error.
  class Parsed {
   public:
    [[nodiscard]] const std::string& text(const std::string& name) const;
    [[nodiscard]] std::int64_t integer(const std::string& name) const;
    [[nodiscard]] double real(const std::string& name) const;
    [[nodiscard]] bool flag(const std::string& name) const;
    /// True when the user supplied the option (vs. the default).
    [[nodiscard]] bool given(const std::string& name) const;
    [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
      return positionals_;
    }

   private:
    friend class OptionSet;
    struct Value {
      std::string name;
      std::string text;
      std::int64_t integer = 0;
      double real = 0.0;
      bool flag = false;
      int type = 0;  // OptionSet::Type
      bool given = false;
    };
    [[nodiscard]] const Value& lookup(const std::string& name, int type) const;
    std::vector<Value> values_;
    std::vector<std::string> positionals_;
  };

  // Declaration order is help order; chainable.
  OptionSet& flag(const std::string& name, bool fallback,
                  const std::string& help);
  OptionSet& integer(const std::string& name, std::int64_t fallback,
                     const std::string& help, Validator validator = nullptr);
  OptionSet& real(const std::string& name, double fallback,
                  const std::string& help, Validator validator = nullptr);
  OptionSet& text(const std::string& name, const std::string& fallback,
                  const std::string& help, Validator validator = nullptr);

  /// Strict parse: rejects undeclared flags, malformed numerics (even
  /// partial parses like "10o0"), bad boolean spellings, and any value
  /// a validator refuses. Throws CliError with the offending token.
  /// Every element of argv is a token — pass `argc - 1, argv + 1` from
  /// main (the program name is NOT skipped).
  [[nodiscard]] Parsed parse(int argc, const char* const* argv) const;
  [[nodiscard]] Parsed parse(const std::vector<std::string>& tokens) const;

  /// parse() for a main(): on a CliError prints "<name>: <error>" and
  /// the help to stderr and exits 1; when --help is given, prints the
  /// help and then `epilog` to stdout and exits 0. The set must
  /// declare a `help` flag; the usage line is "usage: <name> [options]".
  [[nodiscard]] Parsed parse_or_exit(int argc, const char* const* argv,
                                     const std::string& name) const;
  [[nodiscard]] Parsed parse_or_exit(const std::vector<std::string>& tokens,
                                     const std::string& name,
                                     const std::string& epilog = "") const;

  /// Aligned option table for --help, preceded by `usage_line`.
  [[nodiscard]] std::string help(const std::string& usage_line) const;

 private:
  enum Type { kFlag, kInteger, kReal, kText };
  struct Spec {
    std::string name;
    Type type;
    std::string fallback_text;  // rendered in help
    std::int64_t fallback_integer = 0;
    double fallback_real = 0.0;
    bool fallback_flag = false;
    std::string help;
    Validator validator;
  };

  OptionSet& add(Spec spec);
  [[nodiscard]] Parsed resolve(const CliArgs& args) const;

  std::vector<Spec> specs_;
};

}  // namespace ft::support
