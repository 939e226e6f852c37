#include "common/trace_check.h"

#include <cstdint>
#include <cstdio>
#include <map>
#include <set>

namespace fglb {

namespace {

std::string LineError(size_t line_number, const std::string& message) {
  return "line " + std::to_string(line_number) + ": " + message;
}

bool KnownRecoveryWhy(const std::string& why) {
  return why == "restored" || why == "bad_ckpt" || why == "no_ckpt" ||
         why == "stats_resync" || why == "report_lost";
}

// The decision chain of one violating interval: an `sla` event, then
// its app's `impact`/`iqr`/`mrc` events at its t — each measured impact
// followed at once by its replica's iqr, each measured mrc after its
// replica's iqr and at most once per replica, skipped:true back-fills
// after every measured phase, once each and only for a phase that
// never ran — then one or more `action` events at its t. Actions match
// by t alone: an action names the acted-on class's app. Any other
// event closes the chain, which must hold an action by then.
struct ChainCheck {
  // Feeds one event: a violation's message, or "" when it fits.
  std::string Next(const JsonValue& event, size_t line) {
    const std::string phase = event.StringOr("phase", "");
    const double t = event.NumberOr("t", -1);
    const int bit = phase == "impact" ? 1
                    : phase == "iqr"  ? 2
                    : phase == "mrc"  ? 4
                                      : 0;
    if (phase == "action") {
      if (!open || acted) {
        open = open && t == sla_t;  // else an action outside every chain
        return "";
      }
      if (t != sla_t) return "action at another t than its sla";
      if (pending >= 0) return "action before the iqr of its impact";
      if ((measured | backfilled) != 7) {
        return "action before its impact, iqr and mrc";
      }
      acted = true;
      return "";
    }
    if (open && !acted && bit == 0) {
      return phase + " before the action of the sla at line " +
             std::to_string(sla_line);
    }
    if (bit == 0) {
      *this = phase == "sla" ? ChainCheck{true, false, line,
                                           event.NumberOr("app", -1), t}
                             : ChainCheck{};
      return "";
    }
    const std::string fail = phase + " ";
    if (!open || acted) return fail + "outside a decision chain";
    if (event.NumberOr("app", -1) != app || t != sla_t) {
      return fail + "of another app or t than its sla";
    }
    const auto replica = static_cast<int64_t>(event.NumberOr("replica", -1));
    const bool skipped = event.BoolOr("skipped", false);
    if (pending >= 0 && (bit != 2 || replica != pending || skipped)) {
      return fail + "between an impact and its iqr";
    }
    if (skipped) {
      if (measured & bit) return fail + "back-filled after it ran";
      if (backfilled & bit) return fail + "back-filled twice";
      backfilled |= bit;
      return "";
    }
    if (backfilled != 0) return fail + "measured after a back-fill";
    measured |= bit;
    if (bit == 1) {
      pending = replica;
    } else if (bit == 2) {
      if (pending < 0) return fail + "without its impact";
      pending = -1;
      iqr_replicas.insert(replica);
    } else if (!iqr_replicas.contains(replica)) {
      return fail + "before the iqr of its replica";
    } else if (!mrc_replicas.insert(replica).second) {
      return fail + "twice for one replica";
    }
    return "";
  }

  // The trace ended: a chain still open must have acted.
  std::string End() const {
    return open && !acted ? "sla chain ends without an action" : "";
  }

  bool open = false;
  bool acted = false;
  size_t sla_line = 0;
  double app = -1;
  double sla_t = -1;
  int64_t pending = -1;  // a measured impact's replica, awaiting its iqr
  int measured = 0;      // measured phases: impact 1 | iqr 2 | mrc 4
  int backfilled = 0;    // back-filled phases, likewise
  std::set<int64_t> iqr_replicas{};
  std::set<int64_t> mrc_replicas{};
};

}  // namespace

bool CheckTraceLines(const std::vector<std::string>& lines,
                     std::string* error) {
  int64_t last_seq = -1;
  // Per-replica stats-channel state threaded through phase=recovery
  // events: the report sequence number must never regress, and
  // stale_intervals must count up by one per lost report within a
  // staleness episode (a stats_resync ends the episode).
  std::map<int64_t, int64_t> last_report_seq;
  std::map<int64_t, int64_t> last_stale;
  ChainCheck chain;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    JsonValue event;
    std::string parse_error;
    if (!JsonValue::Parse(line, &event, &parse_error)) {
      *error = LineError(i + 1, parse_error);
      return false;
    }
    const char* missing = nullptr;
    if (!event.is_object()) missing = "(not an object)";
    else if (event.NumberOr("v", 0) != 1) missing = "v";
    else if (event.Find("seq") == nullptr) missing = "seq";
    else if (event.Find("mono_us") == nullptr) missing = "mono_us";
    else if (event.StringOr("phase", "").empty()) missing = "phase";
    if (missing != nullptr) {
      *error = LineError(i + 1, std::string("missing/invalid field ") +
                                    missing);
      return false;
    }
    const int64_t seq = static_cast<int64_t>(event.NumberOr("seq", -1));
    if (seq != last_seq + 1) {
      *error = LineError(i + 1, "sequence gap (" + std::to_string(seq) +
                                    " after " + std::to_string(last_seq) +
                                    ")");
      return false;
    }
    last_seq = seq;
    if (event.StringOr("phase", "") == "recovery") {
      const std::string why = event.StringOr("why", "");
      if (!KnownRecoveryWhy(why)) {
        *error = LineError(i + 1, "unknown recovery why: " +
                                      (why.empty() ? "(missing)" : why));
        return false;
      }
      const JsonValue* replica = event.Find("replica");
      if (replica == nullptr) {
        // A controller-level restore/cold-start replaces the receiver
        // state wholesale; per-replica continuity restarts from there.
        if (why == "stats_resync" || why == "report_lost") {
          *error = LineError(i + 1, "channel recovery event without replica");
          return false;
        }
        last_report_seq.clear();
        last_stale.clear();
      } else {
        if (why != "stats_resync" && why != "report_lost") {
          *error = LineError(i + 1, "controller recovery event with replica");
          return false;
        }
        const int64_t id = static_cast<int64_t>(replica->number);
        const int64_t report_seq =
            static_cast<int64_t>(event.NumberOr("seq", -1));
        const int64_t stale =
            static_cast<int64_t>(event.NumberOr("stale_intervals", -1));
        if (report_seq < 0) {
          *error = LineError(i + 1, "recovery event missing report seq");
          return false;
        }
        auto seq_it = last_report_seq.find(id);
        if (seq_it != last_report_seq.end() && report_seq < seq_it->second) {
          *error = LineError(
              i + 1, "replica " + std::to_string(id) +
                         " report seq regressed (" +
                         std::to_string(report_seq) + " after " +
                         std::to_string(seq_it->second) + ")");
          return false;
        }
        last_report_seq[id] = report_seq;
        auto stale_it = last_stale.find(id);
        if (why == "report_lost") {
          // Within an episode the counter steps by exactly one; after a
          // restore (maps cleared) any starting point is legal.
          if (stale < 1 ||
              (stale_it != last_stale.end() &&
               stale != stale_it->second + 1)) {
            *error = LineError(
                i + 1, "replica " + std::to_string(id) +
                           " stale_intervals not monotone (" +
                           std::to_string(stale) + ")");
            return false;
          }
          last_stale[id] = stale;
        } else {  // stats_resync reports the episode length it ended
          if (stale < 1 ||
              (stale_it != last_stale.end() && stale_it->second != 0 &&
               stale != stale_it->second)) {
            *error = LineError(
                i + 1, "replica " + std::to_string(id) +
                           " resync with inconsistent stale_intervals (" +
                           std::to_string(stale) + ")");
            return false;
          }
          last_stale[id] = 0;
        }
      }
    }
    // phase=mrc events from tiered engines carry the tier fields as a
    // unit: a partial or nonsensical set means the producer is broken,
    // not merely tierless (tierless events omit all three).
    if (event.StringOr("phase", "") == "mrc") {
      const JsonValue* pages = event.Find("tier2_pages");
      const JsonValue* resident = event.Find("tier2_resident");
      const JsonValue* read_us = event.Find("tier2_read_us");
      if (pages != nullptr || resident != nullptr || read_us != nullptr) {
        const char* bad = nullptr;
        if (pages == nullptr || pages->kind != JsonValue::Kind::kNumber ||
            pages->number <= 0) {
          bad = "tier2_pages";
        } else if (resident == nullptr ||
                   resident->kind != JsonValue::Kind::kNumber ||
                   resident->number < 0 ||
                   resident->number > pages->number) {
          bad = "tier2_resident";
        } else if (read_us == nullptr ||
                   read_us->kind != JsonValue::Kind::kNumber ||
                   read_us->number <= 0) {
          bad = "tier2_read_us";
        }
        if (bad != nullptr) {
          *error = LineError(i + 1, std::string("malformed tier spec: ") +
                                        bad);
          return false;
        }
      }
    }
    const std::string violation = chain.Next(event, i + 1);
    if (!violation.empty()) {
      *error = LineError(i + 1, violation);
      return false;
    }
  }
  const std::string open = chain.End();
  if (!open.empty()) *error = LineError(chain.sla_line, open);
  return open.empty();
}

std::string FormatActionEventLine(const JsonValue& event) {
  if (event.StringOr("kind", "") == "none") return "";
  char buf[320];
  std::snprintf(buf, sizeof(buf), "t=%7.0f  [%s]  %s\n",
                event.NumberOr("t", 0),
                event.StringOr("kind", "?").c_str(),
                event.StringOr("desc", "").c_str());
  return buf;
}

bool ActionLines(const std::vector<std::string>& lines,
                 std::vector<std::string>* out, std::string* error) {
  out->clear();
  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    JsonValue event;
    std::string parse_error;
    if (!JsonValue::Parse(lines[i], &event, &parse_error)) {
      *error = LineError(i + 1, parse_error);
      return false;
    }
    if (event.StringOr("phase", "") != "action") continue;
    std::string rendered = FormatActionEventLine(event);
    if (!rendered.empty()) out->push_back(std::move(rendered));
  }
  return true;
}

}  // namespace fglb
