// The one command-line layer. Every tool, bench binary and example
// declares each flag once — name, type, default, help text, optional
// validator — and gets strict parsing (unknown flags and malformed or
// refused values throw CliError) plus a generated --help table.
//
// Tokens: "--name value" and "--name=value" set a value; a "--name"
// followed by another option (or nothing) is a switch ("true"); any
// other token is a positional. A set may also declare option
// namespaces: "--<namespace>:<knob>[=value]" tokens are checked
// against the namespace's own knob schema and handed back normalized
// to "--<knob>=<value>" (ftune's per-algorithm knobs, `--cfr:top-x=8`).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ft::support {

/// Malformed command line: unknown flag or namespace, unparseable
/// value, or a value a validator refused. Carries the offending token
/// so tools can report it and exit nonzero.
class CliError : public std::runtime_error {
 public:
  explicit CliError(const std::string& what) : std::runtime_error(what) {}
};

class OptionSet {
 public:
  /// Returns "" when the raw value is acceptable, else a message that
  /// is appended to the CliError ("--samples: must be at least 1").
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
    /// The accepted namespaced tokens, per namespace in command-line
    /// order (repeats kept), each normalized to "--<knob>=<value>"
    /// with the raw value text; a bare switch becomes "=true".
    [[nodiscard]] const std::map<std::string, std::vector<std::string>>&
    namespaced() const noexcept {
      return namespaced_;
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
    std::map<std::string, std::vector<std::string>> namespaced_;
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
  /// Help renders the last declared option's default as `--<option>`:
  /// when not given, its caller reads that option instead (a budget
  /// knob that defaults to --samples).
  OptionSet& default_from(const std::string& option);
  /// Declares the namespace `name` with its knob schema. A set without
  /// knobs still declares the namespace: its knobs are then refused as
  /// unknown options rather than as an unknown namespace.
  OptionSet& knob_namespace(const std::string& name, const OptionSet& knobs);

  /// Strict parse: rejects undeclared flags and namespaces, malformed
  /// numerics (even partial parses like "10o0"), bad boolean
  /// spellings, and any value a validator refuses — namespaced knobs
  /// included. Throws CliError with the offending token.
  /// Every element of argv is a token — pass `argc - 1, argv + 1` from
  /// main (the program name is NOT skipped).
  [[nodiscard]] Parsed parse(int argc, const char* const* argv) const;
  [[nodiscard]] Parsed parse(const std::vector<std::string>& tokens) const;

  /// parse() for a main(): on a CliError prints "<name>: <error>" and
  /// the help to stderr and exits 1; when --help is given, prints the
  /// help to stdout and exits 0. The set must declare a `help` flag;
  /// the usage line is "usage: <name> [options]".
  [[nodiscard]] Parsed parse_or_exit(int argc, const char* const* argv,
                                     const std::string& name) const;

  /// Aligned option table for --help, preceded by `usage_line`, then
  /// every namespaced knob as `--<namespace>:<knob>`.
  [[nodiscard]] std::string help(const std::string& usage_line) const;

 private:
  enum Type { kFlag, kInteger, kReal, kText };
  struct Spec {
    std::string space;  // "" for a plain option, else its namespace
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
  [[nodiscard]] const Spec& find(const std::string& token_name) const;
  [[nodiscard]] static Parsed::Value resolve(const Spec& spec,
                                             const std::string* raw);

  std::vector<Spec> specs_;
  std::vector<std::string> namespaces_;
};

/// A Validator accepting exactly the values `decode` accepts: the
/// message of any std::exception that decode(raw) throws becomes the
/// refusal. Lets a tool declare a flag with the very function that
/// later decodes it (a program name, a framing list, a byte size).
template <typename Decode>
[[nodiscard]] OptionSet::Validator accepted_by(Decode decode) {
  return [decode = std::move(decode)](const std::string& raw) -> std::string {
    try {
      (void)decode(raw);
      return "";
    } catch (const std::exception& error) {
      return error.what();
    }
  };
}

/// A Validator for an integer option that refuses values below
/// `minimum` ("must be at least 1, got 0"). Text that is no integer
/// passes here and is refused by the option's own type check.
[[nodiscard]] OptionSet::Validator at_least(std::int64_t minimum);

}  // namespace ft::support
