#include "support/options.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

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
    if (existing.name == spec.name) {
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

OptionSet::Parsed OptionSet::parse(int argc, const char* const* argv) const {
  // Consumes every element: callers pass `argc - 1, argv + 1` (or a
  // subcommand tail), having stripped the program name themselves.
  std::vector<std::string> tokens;
  tokens.reserve(static_cast<std::size_t>(argc > 0 ? argc : 0));
  for (int i = 0; i < argc; ++i) tokens.emplace_back(argv[i]);
  return resolve(CliArgs(tokens));
}

OptionSet::Parsed OptionSet::parse(
    const std::vector<std::string>& tokens) const {
  return resolve(CliArgs(tokens));
}

OptionSet::Parsed OptionSet::parse_or_exit(int argc,
                                           const char* const* argv,
                                           const std::string& name) const {
  return parse_or_exit(std::vector<std::string>(argv, argv + argc), name);
}

OptionSet::Parsed OptionSet::parse_or_exit(
    const std::vector<std::string>& tokens, const std::string& name,
    const std::string& epilog) const {
  const std::string usage = "usage: " + name + " [options]";
  try {
    Parsed parsed = parse(tokens);
    if (parsed.flag("help")) {
      std::cout << help(usage) << epilog;
      std::exit(0);
    }
    return parsed;
  } catch (const CliError& error) {
    std::cerr << name << ": " << error.what() << '\n' << help(usage);
    std::exit(1);
  }
}

OptionSet::Parsed OptionSet::resolve(const CliArgs& args) const {
  std::vector<std::string> known;
  known.reserve(specs_.size());
  for (const Spec& spec : specs_) known.push_back(spec.name);
  args.check_known(known);

  Parsed parsed;
  parsed.positionals_ = args.positionals();
  parsed.values_.reserve(specs_.size());
  for (const Spec& spec : specs_) {
    Parsed::Value value;
    value.name = spec.name;
    value.type = spec.type;
    value.given = args.has(spec.name);
    if (value.given && spec.validator != nullptr) {
      const std::string verdict = spec.validator(args.get(spec.name));
      if (!verdict.empty()) {
        throw CliError("--" + spec.name + ": " + verdict);
      }
    }
    // Eager typed parsing: a malformed value fails the whole command
    // line even if the tool never reads that option on this path.
    switch (spec.type) {
      case kFlag: {
        value.flag = spec.fallback_flag;
        if (value.given) {
          const std::string raw = args.get(spec.name);
          if (!parse_flag_text(raw, &value.flag)) {
            throw CliError("--" + spec.name + ": not a boolean: '" + raw +
                           "'");
          }
        }
        break;
      }
      case kInteger:
        value.integer = args.get_int(spec.name, spec.fallback_integer);
        break;
      case kReal:
        value.real = args.get_double(spec.name, spec.fallback_real);
        break;
      case kText:
        value.text = args.get(spec.name, spec.fallback_text);
        break;
    }
    parsed.values_.push_back(std::move(value));
  }
  return parsed;
}

std::string OptionSet::help(const std::string& usage_line) const {
  std::size_t width = 0;
  std::vector<std::string> heads;
  heads.reserve(specs_.size());
  for (const Spec& spec : specs_) {
    std::string head = "  --" + spec.name;
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
  out << usage_line << "\n\noptions:\n";
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const Spec& spec = specs_[i];
    out << heads[i] << std::string(width - heads[i].size() + 2, ' ')
        << spec.help;
    if (!spec.fallback_text.empty()) {
      out << " [default: " << spec.fallback_text << "]";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace ft::support
