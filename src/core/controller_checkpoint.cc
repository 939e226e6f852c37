#include "core/controller_checkpoint.h"

#include <cstring>

#include "cluster/admission.h"
#include "common/varint.h"
#include "core/selective_retuner.h"

namespace fglb {

namespace {

constexpr size_t kMagicLen = sizeof(ControllerCheckpoint::kMagic) - 1;

void PutSection(std::string* out, uint64_t tag, const std::string& payload) {
  PutVarint64(out, tag);
  PutVarint64(out, payload.size());
  out->append(payload);
}

}  // namespace

constexpr char ControllerCheckpoint::kMagic[];

void ControllerCheckpoint::Build(SimTime now, const SelectiveRetuner& retuner,
                                 const AdmissionController* admission,
                                 std::string* out) {
  out->clear();
  out->append(kMagic, kMagicLen);
  std::string payload;
  PutFixed64(&payload, DoubleToBits(now));
  PutSection(out, kMeta, payload);
  payload.clear();
  retuner.SerializeControlState(&payload);
  PutSection(out, kRetuner, payload);
  payload.clear();
  retuner.stats_channel().SerializeReceiverState(&payload);
  PutSection(out, kStatsChannel, payload);
  if (admission != nullptr) {
    payload.clear();
    admission->SerializeState(&payload);
    PutSection(out, kAdmission, payload);
  }
  PutFixed32(out, Crc32(out->data(), out->size()));
}

ControllerCheckpoint::RestoreResult ControllerCheckpoint::Restore(
    const std::string& blob, SelectiveRetuner* retuner,
    AdmissionController* admission) {
  RestoreResult result;
  if (blob.size() < kMagicLen + 4 ||
      std::memcmp(blob.data(), kMagic, kMagicLen) != 0) {
    result.error = "bad magic";
    return result;
  }
  const uint8_t* base = reinterpret_cast<const uint8_t*>(blob.data());
  const uint8_t* crc_at = base + blob.size() - 4;
  uint32_t stored_crc = 0;
  GetFixed32(crc_at, base + blob.size(), &stored_crc);
  if (Crc32(blob.data(), blob.size() - 4) != stored_crc) {
    result.error = "crc mismatch";
    return result;
  }

  // The blob is structurally sound: wipe the control plane, then walk
  // the sections. Any decode failure past this point leaves everything
  // reset (cold start) rather than half-restored.
  auto reset_all = [&] {
    if (retuner != nullptr) retuner->ResetControlState();
    if (admission != nullptr) admission->ResetState();
  };
  reset_all();

  const uint8_t* p = base + kMagicLen;
  bool saw_meta = false;
  while (p < crc_at) {
    uint64_t tag = 0, len = 0;
    size_t n = GetVarint64(p, crc_at, &tag);
    if (n == 0) {
      reset_all();
      result.error = "truncated section tag";
      return result;
    }
    p += n;
    n = GetVarint64(p, crc_at, &len);
    if (n == 0 || len > static_cast<uint64_t>(crc_at - p - n)) {
      reset_all();
      result.error = "truncated section";
      return result;
    }
    p += n;
    const uint8_t* payload = p;
    const uint8_t* payload_end = p + len;
    p = payload_end;
    switch (tag) {
      case kMeta: {
        uint64_t bits = 0;
        if (len != 8 || !GetFixed64(payload, payload_end, &bits)) {
          reset_all();
          result.error = "bad meta section";
          return result;
        }
        result.taken_at = BitsToDouble(bits);
        saw_meta = true;
        break;
      }
      case kRetuner:
        if (retuner != nullptr &&
            !retuner->RestoreControlState(payload, payload_end)) {
          reset_all();
          result.error = "bad retuner section";
          return result;
        }
        break;
      case kStatsChannel:
        if (retuner != nullptr &&
            !retuner->stats_channel().RestoreReceiverState(payload,
                                                           payload_end)) {
          reset_all();
          result.error = "bad stats_channel section";
          return result;
        }
        break;
      case kAdmission:
        if (admission != nullptr &&
            !admission->RestoreState(payload, payload_end)) {
          reset_all();
          result.error = "bad admission section";
          return result;
        }
        break;
      default:
        // A tag from a newer controller: skip it. The CRC already
        // vouched for the bytes; nothing here knows how to use them.
        break;
    }
  }
  if (!saw_meta) {
    reset_all();
    result.error = "missing meta section";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace fglb
