// Minimal command-line tokenizer under support::OptionSet (every tool,
// bench binary and example declares its flags there). Supports
// "--name value" and "--name=value" forms plus boolean switches, with
// typed accessors and defaults.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ft::support {

/// Malformed command line: unknown flag or unparseable value. Carries
/// the offending token so tools can report it and exit nonzero.
class CliError : public std::runtime_error {
 public:
  explicit CliError(const std::string& what) : std::runtime_error(what) {}
};

class CliArgs {
 public:
  /// Parses pre-split tokens (argv without the program name);
  /// unrecognized bare words are kept as positionals.
  explicit CliArgs(const std::vector<std::string>& tokens);

  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;
  /// Typed accessors return `fallback` when the flag is absent and
  /// throw CliError (naming the flag and the offending token) when it
  /// is present but not a well-formed number - a typo like
  /// `--samples 10o0` must fail loudly, not silently tune with the
  /// default.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Throws CliError when any parsed `--flag` is not in `known`
  /// (misspelled options must not be silently ignored).
  void check_known(const std::vector<std::string>& known) const;

  [[nodiscard]] const std::vector<std::string>& positionals() const noexcept {
    return positionals_;
  }

 private:
  void parse(const std::vector<std::string>& tokens);

  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace ft::support
