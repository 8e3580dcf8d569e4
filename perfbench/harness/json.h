// Minimal JSON reader for the serve protocol's replies.
//
// The harness checks every answer it receives, so it parses each reply
// line back into a value tree rather than pattern-matching substrings.
// Numbers are read with strtod, which round-trips the engine's %.17g
// rendering exactly.

#ifndef SWOPE_PERFBENCH_HARNESS_JSON_H_
#define SWOPE_PERFBENCH_HARNESS_JSON_H_

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  /// Member `key` of an object, or null when absent (or not an object).
  const Json* Find(std::string_view key) const;
  /// Numeric member `key`, or `fallback` when absent or not a number.
  double Number(std::string_view key, double fallback = 0.0) const;
  /// Boolean member `key`, or false when absent or not a boolean.
  bool Bool(std::string_view key) const;
};

/// Parses one complete JSON document; nullopt on any syntax error or
/// trailing garbage.
std::optional<Json> ParseJson(std::string_view text);

}  // namespace perfbench

#endif  // SWOPE_PERFBENCH_HARNESS_JSON_H_
