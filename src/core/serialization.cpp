#include "core/serialization.hpp"

#include <cmath>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "support/json.hpp"
#include "support/serialization.hpp"

namespace ft::core {

namespace {

/// JSON has no literal for inf/nan; failed measurements (scored
/// kInvalidSeconds) serialize as null so the output stays parseable.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream oss;
  oss << value;
  return oss.str();
}

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void write_collection_csv(std::ostream& os, const Outline& outline,
                          const Collection& collection) {
  os << "cv_index,cv_hash,end_to_end,rest";
  for (const std::size_t j : outline.hot) {
    os << ',' << outline.program->loops()[j].name;
  }
  os << '\n';
  for (std::size_t k = 0; k < collection.sample_count(); ++k) {
    os << k << ',' << collection.cvs[k].hash() << ','
       << collection.end_to_end[k] << ',' << collection.rest_times[k];
    for (std::size_t i = 0; i < outline.hot.size(); ++i) {
      os << ',' << collection.loop_times[i][k];
    }
    os << '\n';
  }
}

void write_history_csv(std::ostream& os, const TuningResult& result) {
  os << "evaluation,best_so_far_seconds\n";
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    os << (i + 1) << ',' << result.history[i] << '\n';
  }
}

std::string tuning_result_json(const TuningResult& result,
                               const flags::FlagSpace& space,
                               const ir::Program& program) {
  std::ostringstream oss;
  oss << "{" << support::schema_version_field()
      << ",\"algorithm\":\"" << json_escape(result.algorithm) << "\""
      << ",\"speedup\":" << json_number(result.speedup)
      << ",\"tuned_seconds\":" << json_number(result.tuned_seconds)
      << ",\"baseline_seconds\":" << json_number(result.baseline_seconds)
      << ",\"evaluations\":" << result.evaluations << ",\"extras\":{";
  bool first_extra = true;
  for (const auto& [key, value] : result.extras.items()) {
    if (!first_extra) oss << ',';
    first_extra = false;
    oss << "\"" << json_escape(key) << "\":" << json_number(value);
  }
  oss << "},\"modules\":{";
  bool first = true;
  for (std::size_t j = 0; j < result.best_assignment.loop_cvs.size();
       ++j) {
    if (!first) oss << ',';
    first = false;
    oss << "\"" << json_escape(program.loops()[j].name) << "\":\""
        << json_escape(space.render(result.best_assignment.loop_cvs[j]))
        << "\"";
  }
  if (!first) oss << ',';
  oss << "\"nonloop\":\""
      << json_escape(space.render(result.best_assignment.nonloop_cv))
      << "\"}}";
  return oss.str();
}

ResultExtras read_tuning_result_extras(const std::string& json) {
  support::require_schema_version(json, "tuning result");
  support::JsonValue document;
  std::string error;
  if (!support::JsonValue::parse(json, &document, &error)) {
    throw std::runtime_error("tuning result: malformed JSON: " + error);
  }
  ResultExtras extras;
  if (const support::JsonValue* block = document.find("extras");
      block != nullptr && block->is_object()) {
    for (const auto& [key, value] : block->members()) {
      if (value.is_number()) extras.set(key, value.number());
    }
  }
  return extras;
}

std::string campaign_json(const Campaign& campaign) {
  std::ostringstream oss;
  oss << "{" << support::schema_version_field() << ",\"cells\":[";
  bool first_cell = true;
  for (const CampaignCell& cell : campaign.cells()) {
    if (!first_cell) oss << ',';
    first_cell = false;
    oss << "{\"program\":\"" << json_escape(cell.program)
        << "\",\"architecture\":\"" << json_escape(cell.architecture)
        << "\",\"baseline_seconds\":" << json_number(cell.baseline_seconds)
        << ",\"results\":[";
    for (std::size_t i = 0; i < cell.results.size(); ++i) {
      const TuningResult& result = cell.results[i];
      if (i) oss << ',';
      oss << "{\"algorithm\":\"" << json_escape(result.algorithm)
          << "\",\"speedup\":" << json_number(result.speedup)
          << ",\"tuned_seconds\":" << json_number(result.tuned_seconds)
          << ",\"evaluations\":" << result.evaluations << '}';
    }
    oss << "]}";
  }
  oss << "]}";
  return oss.str();
}

}  // namespace ft::core
