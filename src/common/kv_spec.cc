#include "common/kv_spec.h"

#include <charconv>
#include <cmath>
#include <set>
#include <system_error>

namespace fglb {

bool KvError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

bool SplitKvSpec(const std::string& text, char separator,
                 const std::string& what, KvItems* items, std::string* error) {
  if (!text.empty() && text.back() == separator) {
    const std::string name = separator == ',' ? "comma" : "newline";
    return KvError(error, "trailing " + name + " in " + what + ": " + text);
  }
  KvItems parsed;
  std::set<std::string> seen;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find(separator, pos);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) {
      return KvError(error, "empty " + what + " item in: " + text);
    }
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return KvError(error, what + " item lacks '=': " + item);
    }
    if (eq == 0) {
      return KvError(error, what + " item has an empty key: " + item);
    }
    std::string key = item.substr(0, eq);
    if (!seen.insert(key).second) {
      return KvError(error, "duplicate " + what + " key: " + key);
    }
    parsed.emplace_back(std::move(key), item.substr(eq + 1));
  }
  *items = std::move(parsed);
  return true;
}

namespace {

// std::from_chars takes no leading space or '+' and, for unsigned
// types, no '-'; it reports overflow instead of clamping.
template <typename T>
bool FromChars(const std::string& value, T* out) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec != std::errc() || ptr != end) return false;
  *out = parsed;
  return true;
}

}  // namespace

bool ParseKvNumber(const std::string& value, double* out) {
  double parsed = 0;
  if (!FromChars(value, &parsed) || !std::isfinite(parsed)) return false;
  *out = parsed;
  return true;
}

bool ParseKvCount(const std::string& value, uint64_t* out) {
  return FromChars(value, out);
}

bool ParseKvCount(const std::string& value, int* out) {
  int parsed = 0;
  if (!FromChars(value, &parsed) || parsed < 0) return false;
  *out = parsed;
  return true;
}

std::string FormatKvNumber(double value) {
  char buf[32];
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

}  // namespace fglb
