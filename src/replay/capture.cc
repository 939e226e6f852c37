#include "replay/capture.h"

#include <cassert>
#include <cstring>

#include "common/varint.h"

namespace fglb {
namespace {

constexpr char kMagic[8] = {'F', 'G', 'L', 'B', 'C', 'A', 'P', '1'};

// Block types. Type 2 is retired: older captures carry it, and it
// stays unknown so they are rejected instead of misread.
constexpr uint8_t kBlockInfo = 1;
constexpr uint8_t kBlockEvents = 3;
constexpr uint8_t kBlockActions = 4;
constexpr uint8_t kBlockSamples = 5;
constexpr uint8_t kBlockEnd = 6;

// Event tags within an events block.
constexpr uint8_t kEventArrival = 1;
constexpr uint8_t kEventExecution = 2;

// Flush an events block once its payload passes this size.
constexpr size_t kEventsFlushBytes = 64 * 1024;

void PutString(std::string* dst, const std::string& s) {
  PutVarint64(dst, s.size());
  dst->append(s);
}

void PutDouble(std::string* dst, double d) {
  PutFixed64(dst, DoubleToBits(d));
}

uint8_t AccessFlags(const PageAccess& a) {
  return static_cast<uint8_t>(
      (a.kind == AccessKind::kSequential ? 1 : 0) | (a.is_write ? 2 : 0));
}

// --- section encoders ---

void EncodeActions(const std::vector<SelectiveRetuner::Action>& actions,
                   std::string* out) {
  PutVarint64(out, actions.size());
  for (const auto& a : actions) {
    PutDouble(out, a.time);
    out->push_back(static_cast<char>(a.kind));
    PutVarint64(out, a.app);
    PutString(out, a.description);
  }
}

bool DecodeActions(Reader& r,
                   std::vector<SelectiveRetuner::Action>* actions) {
  const uint64_t n = r.U64();
  if (!r.PlausibleCount(n, 10)) return false;
  actions->resize(n);
  for (auto& a : *actions) {
    a.time = r.F64();
    const uint8_t kind = r.U8();
    if (kind > static_cast<uint8_t>(SelectiveRetuner::ActionKind::kDemote)) {
      return false;
    }
    a.kind = static_cast<SelectiveRetuner::ActionKind>(kind);
    a.app = static_cast<AppId>(r.U64());
    a.description = r.Str();
  }
  return r.AtEnd();
}

void EncodeSamples(
    const std::vector<SelectiveRetuner::IntervalSample>& samples,
    std::string* out) {
  PutVarint64(out, samples.size());
  for (const auto& s : samples) {
    PutDouble(out, s.time);
    PutVarint64(out, s.apps.size());
    for (const auto& a : s.apps) {
      PutVarint64(out, a.app);
      PutVarint64(out, a.queries);
      PutDouble(out, a.avg_latency);
      PutDouble(out, a.p95_latency);
      PutDouble(out, a.throughput);
      out->push_back(a.sla_met ? 1 : 0);
      PutVarint64(out, static_cast<uint64_t>(a.servers_used));
    }
    PutVarint64(out, s.servers.size());
    for (const auto& sv : s.servers) {
      PutVarint64(out, static_cast<uint64_t>(sv.server_id));
      PutDouble(out, sv.cpu_utilization);
      PutDouble(out, sv.io_utilization);
    }
  }
}

bool DecodeSamples(Reader& r,
                   std::vector<SelectiveRetuner::IntervalSample>* samples) {
  const uint64_t n = r.U64();
  if (!r.PlausibleCount(n, 10)) return false;
  samples->resize(n);
  for (auto& s : *samples) {
    s.time = r.F64();
    uint64_t na = r.U64();
    if (!r.PlausibleCount(na, 10)) return false;
    s.apps.resize(na);
    for (auto& a : s.apps) {
      a.app = static_cast<AppId>(r.U64());
      a.queries = r.U64();
      a.avg_latency = r.F64();
      a.p95_latency = r.F64();
      a.throughput = r.F64();
      a.sla_met = r.U8() != 0;
      a.servers_used = static_cast<int>(r.U64());
    }
    uint64_t ns = r.U64();
    if (!r.PlausibleCount(ns, 10)) return false;
    s.servers.resize(ns);
    for (auto& sv : s.servers) {
      sv.server_id = static_cast<int>(r.U64());
      sv.cpu_utilization = r.F64();
      sv.io_utilization = r.F64();
    }
  }
  return r.AtEnd();
}

// Decodes one events block into the capture (the time-delta chain
// spans blocks, so `prev_time_bits` is carried by the caller).
bool DecodeEvents(Reader& r, uint64_t* prev_time_bits, Capture* out) {
  while (r.ok && r.p < r.limit) {
    const uint8_t tag = r.U8();
    *prev_time_bits += static_cast<uint64_t>(r.S64());
    const double t = BitsToDouble(*prev_time_bits);
    if (tag == kEventArrival) {
      CaptureArrival a;
      a.t = t;
      a.app = static_cast<AppId>(r.U64());
      a.cls = static_cast<QueryClassId>(r.U64());
      a.client_id = r.U64();
      if (!r.ok) return false;
      out->arrivals.push_back(a);
    } else if (tag == kEventExecution) {
      CaptureExecution e;
      e.t = t;
      e.replica = static_cast<int>(r.U64());
      e.key = r.U64();
      const uint64_t count = r.U64();
      // Each access is at least 2 bytes (flags + 1-byte varint).
      if (!r.PlausibleCount(count, 2)) return false;
      e.access_begin = out->accesses.size();
      e.access_count = static_cast<uint32_t>(count);
      uint64_t prev_page = 0;
      for (uint64_t i = 0; i < count; ++i) {
        const uint8_t flags = r.U8();
        if (flags > 3) {
          r.ok = false;
          return false;
        }
        prev_page += static_cast<uint64_t>(r.S64());
        PageAccess access;
        access.page = prev_page;
        access.kind = (flags & 1) ? AccessKind::kSequential
                                  : AccessKind::kRandom;
        access.is_write = (flags & 2) != 0;
        out->accesses.push_back(access);
      }
      if (!r.ok) return false;
      out->executions.push_back(e);
    } else {
      r.ok = false;
      return false;
    }
  }
  return r.ok;
}

}  // namespace

std::string EncodeSamples(
    const std::vector<SelectiveRetuner::IntervalSample>& samples) {
  std::string out;
  EncodeSamples(samples, &out);
  return out;
}

// --- CaptureWriter ---

CaptureWriter::CaptureWriter(Simulator* sim) : sim_(sim) {
  assert(sim_ != nullptr);
}

CaptureWriter::~CaptureWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

bool CaptureWriter::WriteBlock(uint8_t type, const std::string& payload) {
  if (file_ == nullptr || failed_) return false;
  std::string header;
  header.push_back(static_cast<char>(type));
  PutFixed32(&header, static_cast<uint32_t>(payload.size()));
  PutFixed32(&header, Crc32(payload.data(), payload.size()));
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file_) !=
          payload.size()) {
    failed_ = true;
    return false;
  }
  bytes_written_ += header.size() + payload.size();
  return true;
}

bool CaptureWriter::Open(const std::string& path, const RunConfig& run,
                         std::string* error) {
  assert(file_ == nullptr);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  if (std::fwrite(kMagic, 1, sizeof(kMagic), file_) != sizeof(kMagic)) {
    failed_ = true;
  }
  bytes_written_ += sizeof(kMagic);
  WriteBlock(kBlockInfo, run.ToString());
  if (failed_ && error != nullptr) *error = "write error on " + path;
  return !failed_;
}

void CaptureWriter::PutTime(double t) {
  const uint64_t bits = DoubleToBits(t);
  PutVarint64(&events_,
              ZigZagEncode(static_cast<int64_t>(bits - prev_time_bits_)));
  prev_time_bits_ = bits;
}

void CaptureWriter::OnArrival(const QueryInstance& query) {
  if (file_ == nullptr || failed_) return;
  events_.push_back(static_cast<char>(kEventArrival));
  PutTime(sim_->Now());
  PutVarint64(&events_, query.app);
  PutVarint64(&events_, query.tmpl->id);
  PutVarint64(&events_, query.client_id);
  ++arrivals_;
  FlushEvents(false);
}

void CaptureWriter::OnExecution(int replica_id, ClassKey key,
                                const std::vector<PageAccess>& accesses) {
  if (file_ == nullptr || failed_) return;
  events_.push_back(static_cast<char>(kEventExecution));
  PutTime(sim_->Now());
  PutVarint64(&events_, static_cast<uint64_t>(replica_id));
  PutVarint64(&events_, key);
  PutVarint64(&events_, accesses.size());
  uint64_t prev_page = 0;
  for (const PageAccess& a : accesses) {
    events_.push_back(static_cast<char>(AccessFlags(a)));
    PutVarint64(&events_,
                ZigZagEncode(static_cast<int64_t>(a.page - prev_page)));
    prev_page = a.page;
  }
  ++executions_;
  accesses_ += accesses.size();
  FlushEvents(false);
}

bool CaptureWriter::FlushEvents(bool force) {
  if (events_.empty()) return true;
  if (!force && events_.size() < kEventsFlushBytes) return true;
  const bool ok = WriteBlock(kBlockEvents, events_);
  events_.clear();
  return ok;
}

bool CaptureWriter::Finalize(
    const std::vector<SelectiveRetuner::Action>& actions,
    const std::vector<SelectiveRetuner::IntervalSample>& samples) {
  if (file_ == nullptr) return false;
  FlushEvents(true);

  std::string payload;
  EncodeActions(actions, &payload);
  WriteBlock(kBlockActions, payload);
  payload.clear();
  EncodeSamples(samples, &payload);
  WriteBlock(kBlockSamples, payload);

  WriteBlock(kBlockEnd, std::string());
  const bool ok = !failed_ && std::fflush(file_) == 0;
  std::fclose(file_);
  file_ = nullptr;
  return ok;
}

// --- ReadCapture ---

bool ReadCapture(const std::string& path, Capture* out, std::string* error) {
  assert(out != nullptr);
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return fail("cannot open " + path);
  std::string body;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return fail("read error on " + path);

  if (body.size() < sizeof(kMagic) ||
      std::memcmp(body.data(), kMagic, sizeof(kMagic)) != 0) {
    return fail(path + ": not a capture file (bad magic)");
  }
  *out = Capture();

  const uint8_t* p = reinterpret_cast<const uint8_t*>(body.data()) +
                     sizeof(kMagic);
  const uint8_t* limit = reinterpret_cast<const uint8_t*>(body.data()) +
                         body.size();
  bool seen_info = false;
  bool seen_actions = false;
  bool seen_samples = false;
  uint64_t prev_time_bits = 0;

  while (true) {
    if (p == limit) return fail(path + ": truncated (no end block)");
    const uint8_t type = *p++;
    uint32_t len = 0;
    uint32_t crc = 0;
    if (!GetFixed32(p, limit, &len)) {
      return fail(path + ": truncated block header");
    }
    p += 4;
    if (!GetFixed32(p, limit, &crc)) {
      return fail(path + ": truncated block header");
    }
    p += 4;
    if (len > static_cast<size_t>(limit - p)) {
      return fail(path + ": truncated block payload");
    }
    if (Crc32(p, len) != crc) {
      return fail(path + ": block checksum mismatch (corrupted)");
    }
    Reader r{p, p + len};
    p += len;
    if (!seen_info && type != kBlockInfo) {
      return fail(path + ": block type " + std::to_string(type) +
                  " before the info block");
    }

    switch (type) {
      case kBlockInfo: {
        if (seen_info) return fail(path + ": stray info block");
        const std::string text(reinterpret_cast<const char*>(r.p),
                               r.remaining());
        std::string info_error;
        if (!RunConfig::Parse(text, &out->run, &info_error)) {
          return fail(path + ": bad info block: " + info_error);
        }
        seen_info = true;
        break;
      }
      case kBlockEvents:
        if (!DecodeEvents(r, &prev_time_bits, out)) {
          return fail(path + ": bad events block");
        }
        break;
      case kBlockActions:
        if (seen_actions) return fail(path + ": duplicate actions block");
        if (!DecodeActions(r, &out->actions)) {
          return fail(path + ": bad actions block");
        }
        seen_actions = true;
        break;
      case kBlockSamples:
        if (seen_samples) return fail(path + ": duplicate samples block");
        if (!DecodeSamples(r, &out->samples)) {
          return fail(path + ": bad samples block");
        }
        seen_samples = true;
        break;
      case kBlockEnd:
        if (len != 0) return fail(path + ": bad end block");
        if (p != limit) {
          return fail(path + ": trailing garbage after end block");
        }
        return true;
      default:
        return fail(path + ": unknown block type " + std::to_string(type));
    }
  }
}

}  // namespace fglb
