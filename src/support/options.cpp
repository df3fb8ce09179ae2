#include "support/options.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "support/parse_number.hpp"

namespace ft::support {

namespace {

bool parse_flag_text(const std::string& text, bool* out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    *out = false;
    return true;
  }
  return false;
}

bool is_option(const std::string& token) { return token.rfind("--", 0) == 0; }

}  // namespace

const OptionSet::Parsed::Value& OptionSet::Parsed::lookup(
    const std::string& name, int type) const {
  for (const Value& value : values_) {
    if (value.name != name) continue;
    if (value.type != type) {
      throw std::logic_error("option --" + name + ": wrong type accessor");
    }
    return value;
  }
  throw std::logic_error("option --" + name + " was never declared");
}

const std::string& OptionSet::Parsed::text(const std::string& name) const {
  return lookup(name, kText).text;
}

std::int64_t OptionSet::Parsed::integer(const std::string& name) const {
  return lookup(name, kInteger).integer;
}

double OptionSet::Parsed::real(const std::string& name) const {
  return lookup(name, kReal).real;
}

bool OptionSet::Parsed::flag(const std::string& name) const {
  return lookup(name, kFlag).flag;
}

bool OptionSet::Parsed::given(const std::string& name) const {
  for (const Value& value : values_) {
    if (value.name == name) return value.given;
  }
  throw std::logic_error("option --" + name + " was never declared");
}

OptionSet& OptionSet::add(Spec spec) {
  for (const Spec& existing : specs_) {
    if (existing.space == spec.space && existing.name == spec.name) {
      throw std::logic_error("option --" + spec.name + " declared twice");
    }
  }
  specs_.push_back(std::move(spec));
  return *this;
}

OptionSet& OptionSet::flag(const std::string& name, bool fallback,
                           const std::string& help) {
  Spec spec;
  spec.name = name;
  spec.type = kFlag;
  spec.fallback_flag = fallback;
  spec.fallback_text = fallback ? "true" : "false";
  spec.help = help;
  return add(std::move(spec));
}

OptionSet& OptionSet::integer(const std::string& name, std::int64_t fallback,
                              const std::string& help, Validator validator) {
  Spec spec;
  spec.name = name;
  spec.type = kInteger;
  spec.fallback_integer = fallback;
  spec.fallback_text = std::to_string(fallback);
  spec.help = help;
  spec.validator = std::move(validator);
  return add(std::move(spec));
}

OptionSet& OptionSet::real(const std::string& name, double fallback,
                           const std::string& help, Validator validator) {
  Spec spec;
  spec.name = name;
  spec.type = kReal;
  spec.fallback_real = fallback;
  std::ostringstream rendered;
  rendered << fallback;
  spec.fallback_text = rendered.str();
  spec.help = help;
  spec.validator = std::move(validator);
  return add(std::move(spec));
}

OptionSet& OptionSet::text(const std::string& name, const std::string& fallback,
                           const std::string& help, Validator validator) {
  Spec spec;
  spec.name = name;
  spec.type = kText;
  spec.fallback_text = fallback;
  spec.help = help;
  spec.validator = std::move(validator);
  return add(std::move(spec));
}

OptionSet& OptionSet::default_from(const std::string& option) {
  specs_.back().fallback_text = "--" + option;
  return *this;
}

OptionSet& OptionSet::knob_namespace(const std::string& name,
                                     const OptionSet& knobs) {
  namespaces_.push_back(name);
  for (Spec spec : knobs.specs_) {
    spec.space = name;
    add(std::move(spec));
  }
  return *this;
}

const OptionSet::Spec& OptionSet::find(const std::string& token_name) const {
  const std::size_t colon = token_name.find(':');
  std::string space;
  std::string name = token_name;
  if (colon != std::string::npos) {
    space = token_name.substr(0, colon);
    name = token_name.substr(colon + 1);
    if (space.empty() || name.empty()) {
      throw CliError("malformed namespaced option --" + token_name +
                     " (expected --<namespace>:<knob>[=value])");
    }
    if (std::find(namespaces_.begin(), namespaces_.end(), space) ==
        namespaces_.end()) {
      throw CliError("unknown option namespace: --" + token_name);
    }
  }
  for (const Spec& spec : specs_) {
    if (spec.space == space && spec.name == name) return spec;
  }
  throw CliError("unknown option: --" + token_name);
}

OptionSet::Parsed::Value OptionSet::resolve(const Spec& spec,
                                            const std::string* raw) {
  Parsed::Value value;
  value.name = spec.name;
  value.type = spec.type;
  value.given = raw != nullptr;
  value.text = raw != nullptr ? *raw : spec.fallback_text;
  value.integer = spec.fallback_integer;
  value.real = spec.fallback_real;
  value.flag = spec.fallback_flag;
  if (raw == nullptr) return value;

  const std::string shown =
      "--" + (spec.space.empty() ? "" : spec.space + ":") + spec.name;
  if (spec.validator != nullptr) {
    const std::string verdict = spec.validator(*raw);
    if (!verdict.empty()) throw CliError(shown + ": " + verdict);
  }
  // Partial parses ("10o0") are as wrong as unparseable ones.
  switch (spec.type) {
    case kFlag:
      if (!parse_flag_text(*raw, &value.flag)) {
        throw CliError(shown + ": not a boolean: '" + *raw + "'");
      }
      break;
    case kInteger:
      if (!parse_int64(*raw, &value.integer)) {
        throw CliError(shown + ": not an integer: '" + *raw + "'");
      }
      break;
    case kReal:
      if (!parse_double(*raw, &value.real)) {
        throw CliError(shown + ": not a number: '" + *raw + "'");
      }
      break;
    case kText:
      break;
  }
  return value;
}

OptionSet::Parsed OptionSet::parse(int argc, const char* const* argv) const {
  // Consumes every element: callers pass `argc - 1, argv + 1` (or a
  // subcommand tail), having stripped the program name themselves.
  return parse(std::vector<std::string>(argv, argv + std::max(argc, 0)));
}

OptionSet::Parsed OptionSet::parse(
    const std::vector<std::string>& tokens) const {
  Parsed parsed;
  std::map<const Spec*, std::string> given;  // a repeated flag: last wins
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (!is_option(tokens[i])) {
      parsed.positionals_.push_back(tokens[i]);
      continue;
    }
    const std::string body = tokens[i].substr(2);
    const std::size_t eq = body.find('=');
    std::string value = "true";
    if (eq != std::string::npos) {
      value = body.substr(eq + 1);
    } else if (i + 1 < tokens.size() && !is_option(tokens[i + 1])) {
      value = tokens[++i];
    }
    const Spec& spec = find(body.substr(0, eq));
    if (spec.space.empty()) {
      given[&spec] = value;
      continue;
    }
    (void)resolve(spec, &value);
    parsed.namespaced_[spec.space].push_back("--" + spec.name + "=" + value);
  }
  // Eager typed parsing: a malformed value fails the whole command
  // line even if the tool never reads that option on this path.
  parsed.values_.reserve(specs_.size());
  for (const Spec& spec : specs_) {
    if (!spec.space.empty()) continue;
    const auto it = given.find(&spec);
    parsed.values_.push_back(
        resolve(spec, it == given.end() ? nullptr : &it->second));
  }
  return parsed;
}

OptionSet::Parsed OptionSet::parse_or_exit(int argc,
                                           const char* const* argv,
                                           const std::string& name) const {
  const std::string usage = "usage: " + name + " [options]";
  try {
    Parsed parsed = parse(argc, argv);
    if (parsed.flag("help")) {
      std::cout << help(usage);
      std::exit(0);
    }
    return parsed;
  } catch (const CliError& error) {
    std::cerr << name << ": " << error.what() << '\n' << help(usage);
    std::exit(1);
  }
}

std::string OptionSet::help(const std::string& usage_line) const {
  std::size_t width = 0;
  std::vector<std::string> heads;
  heads.reserve(specs_.size());
  for (const Spec& spec : specs_) {
    std::string head =
        "  --" + (spec.space.empty() ? "" : spec.space + ":") + spec.name;
    switch (spec.type) {
      case kFlag: break;
      case kInteger: head += " N"; break;
      case kReal: head += " X"; break;
      case kText: head += " S"; break;
    }
    width = std::max(width, head.size());
    heads.push_back(std::move(head));
  }

  std::ostringstream out;
  const auto rows = [&](bool namespaced) {
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const Spec& spec = specs_[i];
      if (spec.space.empty() == namespaced) continue;
      out << heads[i] << std::string(width - heads[i].size() + 2, ' ')
          << spec.help;
      if (!spec.fallback_text.empty()) {
        out << " [default: " << spec.fallback_text << "]";
      }
      out << "\n";
    }
  };
  out << usage_line << "\n\noptions:\n";
  rows(false);
  if (!namespaces_.empty()) {
    out << "\nnamespaced options (--<namespace>:<knob>[=value]):\n";
    rows(true);
  }
  return out.str();
}

OptionSet::Validator at_least(std::int64_t minimum) {
  return [minimum](const std::string& raw) -> std::string {
    std::int64_t value = 0;
    if (!parse_int64(raw, &value) || value >= minimum) return "";
    return "must be at least " + std::to_string(minimum) + ", got " + raw;
  };
}

}  // namespace ft::support
