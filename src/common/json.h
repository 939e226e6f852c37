#ifndef FGLB_COMMON_JSON_H_
#define FGLB_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace fglb {

// Minimal JSON support for the observability subsystem: the trace log
// and metrics registry *emit* JSON, and the tracecat inspector plus the
// round-trip tests *parse* it back. No external dependency, no DOM
// beyond what those consumers need.

// Escapes `text` for embedding inside a JSON string literal (quotes not
// included).
std::string JsonEscape(std::string_view text);

// Formats a double as a JSON number ("%.17g" would be lossless but
// noisy; %.12g round-trips every value we emit). Non-finite values have
// no JSON representation and render as 0.
std::string JsonNumber(double value);

// A parsed JSON value. Numbers are kept as doubles (every quantity we
// trace fits a double exactly or is itself a double).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  // Object field access; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
  // Convenience getters with defaults (wrong-kind access = default).
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;

  // Re-serializes the value (keys in map order; used by the inspector's
  // pretty printer, not guaranteed byte-identical to the input).
  std::string Dump() const;

  // Parses exactly one JSON document from `text` (trailing whitespace
  // allowed, trailing garbage is an error). Returns false with a
  // position-annotated message in *error, leaving *out untouched.
  static bool Parse(std::string_view text, JsonValue* out,
                    std::string* error);
};

}  // namespace fglb

#endif  // FGLB_COMMON_JSON_H_
