#include "support/cli.hpp"

#include <cstdlib>
#include <stdexcept>

#include "support/parse_number.hpp"

namespace ft::support {

CliArgs::CliArgs(const std::vector<std::string>& tokens) { parse(tokens); }

void CliArgs::parse(const std::vector<std::string>& tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      positionals_.push_back(token);
      continue;
    }
    const std::string body = token.substr(2);
    const std::size_t eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is another option or absent,
    // in which case it is a boolean switch.
    if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      values_[body] = tokens[i + 1];
      ++i;
    } else {
      values_[body] = "true";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  // Partial parses ("10o0") are as wrong as unparseable ones.
  if (!parse_int64(it->second, &value)) {
    throw CliError("--" + name + ": not an integer: '" + it->second + "'");
  }
  return value;
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  if (!parse_double(it->second, &value)) {
    throw CliError("--" + name + ": not a number: '" + it->second + "'");
  }
  return value;
}

bool CliArgs::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes" ||
         it->second == "on";
}

void CliArgs::check_known(const std::vector<std::string>& known) const {
  for (const auto& [name, value] : values_) {
    bool found = false;
    for (const std::string& candidate : known) {
      if (name == candidate) {
        found = true;
        break;
      }
    }
    if (!found) throw CliError("unknown option: --" + name);
  }
}

}  // namespace ft::support
