#ifndef FGLB_COMMON_KV_SPEC_H_
#define FGLB_COMMON_KV_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fglb {

// The one "key=value" grammar behind the two config texts a capture
// carries: items separated by `separator` ("\n" between the rows of a
// RunConfig, "," between the params of a FaultSpec entry such as
// "replica=1,restart=60"), the key being everything before an item's
// first '='. Both travel inside FGLBCAP1 captures, so splitting is
// strict: an empty item (a leading, doubled or trailing separator), an
// item without '=', an empty key and a repeated key are all rejected,
// with a message that names the token and the text (`what`, e.g.
// "run config"). Items come back in input order.
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
