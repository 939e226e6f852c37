#ifndef FGLB_CORE_CONTROLLER_CHECKPOINT_H_
#define FGLB_CORE_CONTROLLER_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "sim/simulator.h"

namespace fglb {

class AdmissionController;
class SelectiveRetuner;

// FGLBCKPT1 — the versioned controller checkpoint a `ctl` crash
// restores from.
//
// Layout:
//
//   "FGLBCKPT1"                      9-byte magic (version in the name)
//   { tag varint, len varint, payload } ...   tagged sections
//   fixed32 CRC-32                   over everything before it
//
// Sections are written in tag order and tags are append-only. A reader
// skips tags it does not know (forward compatibility: a blob written
// by a newer controller restores cleanly on an older one), and rejects
// the whole blob on a magic mismatch, truncation, or CRC failure — the
// caller then cold-starts instead of trusting half a checkpoint.
//
// What the blob covers is exactly the control-plane state a crash
// loses: the retuner's streaks/cooldowns/stable baselines (including
// in-flight migrations, restored as placement cooldowns), the stats
// channel's receiver side, and the admission controller's shed/breaker
// state. Data-plane state (engines, pools, publisher sequence numbers)
// survives the crash in place and is deliberately absent.
struct ControllerCheckpoint {
  // Append-only section tags.
  enum Tag : uint64_t {
    kMeta = 1,         // SimTime the checkpoint was taken
    kRetuner = 2,      // SelectiveRetuner::SerializeControlState
    kStatsChannel = 3, // StatsChannel::SerializeReceiverState
    kAdmission = 4,    // AdmissionController::SerializeState
  };

  static constexpr char kMagic[] = "FGLBCKPT1";

  // Serializes the current control state; the stats-channel section
  // comes from the retuner's channel. `admission` may be null; its
  // section is then omitted.
  static void Build(SimTime now, const SelectiveRetuner& retuner,
                    const AdmissionController* admission, std::string* out);

  struct RestoreResult {
    bool ok = false;
    SimTime taken_at = 0;   // kMeta timestamp when ok
    std::string error;      // why the blob was rejected when !ok
  };

  // Validates the blob (magic + CRC) and, only then, resets and
  // restores the three subsystems (the stats channel is the retuner's).
  // On any rejection the subsystems are left reset (cold), never
  // half-restored. A section whose subsystem pointer is null is
  // skipped.
  static RestoreResult Restore(const std::string& blob,
                               SelectiveRetuner* retuner,
                               AdmissionController* admission);
};

}  // namespace fglb

#endif  // FGLB_CORE_CONTROLLER_CHECKPOINT_H_
