#ifndef FGLB_COMMON_KV_SPEC_H_
#define FGLB_COMMON_KV_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fglb {

// The one "key=value" grammar behind every config spec string: items
// separated by `separator` ("," inside a spec such as "pages=16384,
// read_us=100", "\n" between the lines of a RunConfig), the key being
// everything before an item's first '='. The specs travel inside
// FGLBCAP1 captures, so splitting is strict: an empty item (a leading,
// doubled or trailing separator), an item without '=', an empty key
// and a repeated key are all rejected, with a message that names the
// token and the spec (`what`, e.g. "tier spec"). Items come back in
// input order.
using KvItems = std::vector<std::pair<std::string, std::string>>;
bool SplitKvSpec(const std::string& text, char separator,
                 const std::string& what, KvItems* items, std::string* error);

// Stores `message` in *error (when non-null) and returns false: how
// every spec parser reports a rejection.
bool KvError(std::string* error, const std::string& message);

// Strict value parsers (std::from_chars): the whole string must
// parse, with no leading space or sign. A number is finite; a count is
// a plain digit string that fits the output type.
bool ParseKvNumber(const std::string& value, double* out);
bool ParseKvCount(const std::string& value, uint64_t* out);
bool ParseKvCount(const std::string& value, int* out);

// The shortest decimal form that parses back to exactly `value`
// (std::to_chars). Round values print as "%g" would ("0.5", "100",
// "16384"); others keep every digit they need ("123.4567").
std::string FormatKvNumber(double value);

}  // namespace fglb

#endif  // FGLB_COMMON_KV_SPEC_H_
