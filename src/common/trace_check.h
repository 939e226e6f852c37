#ifndef FGLB_COMMON_TRACE_CHECK_H_
#define FGLB_COMMON_TRACE_CHECK_H_

#include <string>
#include <vector>

#include "common/json.h"

namespace fglb {

// Shared validation/rendering over JSONL decision traces: fglb_tracecat
// implements --check and --phase=action with these, and the
// deterministic-replay tests call them in-process on TraceLog's
// buffered lines, so tool and tests cannot drift apart.

// Validates every line against the TraceLog schema: well-formed JSON
// object, "v" == 1, "seq" gapless from 0, "mono_us" present, non-empty
// "phase"; recovery continuity and the mrc tier fields; and the order
// of every violating interval's sla -> impact -> iqr -> mrc -> action
// chain. Empty lines are skipped. On failure returns false with a
// one-line "line N: ..." message in *error.
bool CheckTraceLines(const std::vector<std::string>& lines,
                     std::string* error);

// Renders one parsed "action" event exactly as the simulator's action
// log does ("t=... [kind] desc\n"); empty for the kind:"none"
// placeholder events.
std::string FormatActionEventLine(const JsonValue& event);

// The action-format lines of a raw trace, in order. This is the
// run-to-run comparable projection of a trace: the header's mono_us is
// wall-clock and differs across runs, but t/kind/desc must not.
// Returns false with a message in *error on any unparsable line.
bool ActionLines(const std::vector<std::string>& lines,
                 std::vector<std::string>* out, std::string* error);

}  // namespace fglb

#endif  // FGLB_COMMON_TRACE_CHECK_H_
