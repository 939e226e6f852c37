#include "common/span_tracer.h"

#include "common/json.h"

namespace fglb {
namespace {

constexpr size_t kSpanChunk = 256;

// Pipeline order used both for slice tiling in the export and for the
// wait-profile segment listing.
constexpr SpanSegment kPipelineOrder[] = {
    SpanSegment::kAdmission, SpanSegment::kIoWait,
    SpanSegment::kIoService, SpanSegment::kCpuWait,
    SpanSegment::kCpuService, SpanSegment::kLockWait,
    SpanSegment::kCommitHold, SpanSegment::kShed,
    SpanSegment::kPenalty,
};
static_assert(sizeof(kPipelineOrder) / sizeof(kPipelineOrder[0]) ==
                  kSpanSegmentCount,
              "pipeline order must cover every segment");

// Trace pids: 0 is the controller (phase instants), 1 the scheduler
// (shed / penalty fast-fails that never reached a replica), 2+i is
// replica i.
constexpr int kControllerPid = 0;
constexpr int kSchedulerPid = 1;
constexpr int kReplicaPidBase = 2;

uint32_t AppOf(uint64_t key) { return static_cast<uint32_t>(key >> 32); }
uint32_t ClassOf(uint64_t key) {
  return static_cast<uint32_t>(key & 0xffffffffu);
}

std::string HistogramSummaryJson(const LatencyHistogram& h) {
  std::string out = "{\"count\":" + std::to_string(h.count());
  out += ",\"sum_us\":" + JsonNumber(h.sum_us());
  out += ",\"mean_us\":" + JsonNumber(h.mean_us());
  out += ",\"p50_us\":" + JsonNumber(h.Percentile(0.50));
  out += ",\"p95_us\":" + JsonNumber(h.Percentile(0.95));
  out += ",\"p99_us\":" + JsonNumber(h.Percentile(0.99));
  out += ",\"max_us\":" + JsonNumber(h.max_us());
  out += "}";
  return out;
}

}  // namespace

const char* SpanSegmentName(SpanSegment segment) {
  switch (segment) {
    case SpanSegment::kAdmission:
      return "admission";
    case SpanSegment::kIoWait:
      return "io_wait";
    case SpanSegment::kIoService:
      return "io_service";
    case SpanSegment::kCpuWait:
      return "cpu_wait";
    case SpanSegment::kCpuService:
      return "cpu_service";
    case SpanSegment::kLockWait:
      return "lock_wait";
    case SpanSegment::kCommitHold:
      return "commit_hold";
    case SpanSegment::kShed:
      return "shed";
    case SpanSegment::kPenalty:
      return "penalty";
    case SpanSegment::kCount:
      break;
  }
  return "unknown";
}

SpanTracer::SpanTracer(const SpanConfig& config) : config_(config) {
  if (config_.sample_every == 0) config_.sample_every = 1;
}

SpanTracer::~SpanTracer() { Close(); }

bool SpanTracer::OpenFile(const std::string& path, std::string* error) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    if (error != nullptr) *error = "cannot open spans file: " + path;
    return false;
  }
  return true;
}

void SpanTracer::EnableBuffering() { buffering_ = true; }

void SpanTracer::Close() {
  if (closed_) {
    if (file_ != nullptr) {
      std::fclose(file_);
      file_ = nullptr;
    }
    return;
  }
  closed_ = true;
  const char* tail = any_event_ ? "\n]\n" : "[\n]\n";
  if (file_ != nullptr) {
    std::fputs(tail, file_);
    std::fclose(file_);
    file_ = nullptr;
  }
  if (buffering_) buffer_ += tail;
}

std::string SpanTracer::BufferedJson() const {
  std::string doc = buffer_;
  if (!closed_) doc += any_event_ ? "\n]\n" : "[\n]\n";
  return doc;
}

QuerySpan* SpanTracer::AllocateSpan() {
  if (free_list_ == nullptr) {
    chunks_.emplace_back(new QuerySpan[kSpanChunk]);
    QuerySpan* chunk = chunks_.back().get();
    for (size_t i = 0; i < kSpanChunk; ++i) {
      chunk[i].next_free = free_list_;
      free_list_ = &chunk[i];
    }
  }
  QuerySpan* span = free_list_;
  free_list_ = span->next_free;
  *span = QuerySpan{};
  return span;
}

void SpanTracer::ReleaseSpan(QuerySpan* span) {
  span->next_free = free_list_;
  free_list_ = span;
}

QuerySpan* SpanTracer::Begin(uint32_t app, uint32_t cls, double now) {
  const uint64_t seq = sequence_++;
  if (seq % config_.sample_every != 0) return nullptr;
  QuerySpan* span = AllocateSpan();
  span->owner = this;
  span->id = sampled_++;
  span->seq = seq;
  span->key = (static_cast<uint64_t>(app) << 32) | cls;
  span->start = now;
  return span;
}

SpanTracer::ClassAggregate& SpanTracer::AggregateFor(uint64_t key) {
  auto it = aggregates_.find(key);
  if (it != aggregates_.end()) return it->second;
  ClassAggregate& agg = aggregates_[key];
  const std::string prefix = "span.a" + std::to_string(AppOf(key)) + ".c" +
                             std::to_string(ClassOf(key)) + ".";
  const auto make = [&](const std::string& name) -> LatencyHistogram* {
    if (metrics_ != nullptr) return metrics_->histogram(prefix + name);
    agg.owned.emplace_back(new LatencyHistogram());
    return agg.owned.back().get();
  };
  agg.end_to_end = make("total");
  for (size_t i = 0; i < kSpanSegmentCount; ++i) {
    agg.segments[i] = make(SpanSegmentName(static_cast<SpanSegment>(i)));
  }
  return agg;
}

void SpanTracer::Aggregate(const QuerySpan& span, double end_to_end) {
  ClassAggregate& agg = AggregateFor(span.key);
  ++agg.sampled;
  agg.end_to_end->Record(end_to_end * 1e6);
  for (size_t i = 0; i < kSpanSegmentCount; ++i) {
    if (span.seconds[i] > 0) agg.segments[i]->Record(span.seconds[i] * 1e6);
  }
}

void SpanTracer::EndSpan(QuerySpan* span, double now) {
  const double end_to_end = now - span->start;
  Aggregate(*span, end_to_end);
  if (exporting() && !closed_) ExportSpan(*span, end_to_end);
  ++finished_;
  if (observer_) observer_(*span, end_to_end);
  ReleaseSpan(span);
}

void SpanTracer::EndImmediate(QuerySpan* span, SpanSegment segment,
                              double duration) {
  span->Add(segment, duration);
  EndSpan(span, span->start + duration);
}

void SpanTracer::EmitEvent(const std::string& json) {
  if (closed_) return;
  std::string out = any_event_ ? ",\n" : "[\n";
  any_event_ = true;
  out += json;
  if (file_ != nullptr) std::fwrite(out.data(), 1, out.size(), file_);
  if (buffering_) buffer_ += out;
}

void SpanTracer::EnsureProcessTrack(int pid, const std::string& name) {
  if (track_named_[pid]) return;
  track_named_[pid] = true;
  EmitEvent(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
      std::to_string(pid) +
      ",\"tid\":0,\"args\":{\"name\":\"" + JsonEscape(name) + "\"}}");
}

int SpanTracer::LaneFor(int pid, double start, double end) {
  std::vector<double>& lanes = lanes_[pid];
  for (size_t i = 0; i < lanes.size(); ++i) {
    if (lanes[i] <= start + 1e-12) {
      lanes[i] = end;
      return static_cast<int>(i);
    }
  }
  lanes.push_back(end);
  return static_cast<int>(lanes.size() - 1);
}

void SpanTracer::ExportSpan(const QuerySpan& span, double end_to_end) {
  int pid = kSchedulerPid;
  std::string track = "scheduler";
  if (span.replica_id >= 0) {
    pid = kReplicaPidBase + span.replica_id;
    track = "replica-" + std::to_string(span.replica_id);
  }
  EnsureProcessTrack(pid, track);

  const double start = span.start;
  const double end = start + end_to_end;
  const int tid = LaneFor(pid, start, end) + 1;
  const std::string pid_tid =
      ",\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid);

  const double residual_us = (end_to_end - span.SegmentSum()) * 1e6;
  std::string query =
      "{\"name\":\"a" + std::to_string(AppOf(span.key)) + ".c" +
      std::to_string(ClassOf(span.key)) +
      "\",\"cat\":\"query\",\"ph\":\"X\",\"ts\":" + JsonNumber(start * 1e6) +
      ",\"dur\":" + JsonNumber(end_to_end * 1e6) + pid_tid +
      ",\"args\":{\"seq\":" + std::to_string(span.seq) +
      ",\"id\":" + std::to_string(span.id) +
      ",\"replica\":" + std::to_string(span.replica_id) +
      ",\"residual_us\":" + JsonNumber(residual_us) +
      ",\"page_accesses\":" + std::to_string(span.page_accesses) +
      ",\"buffer_misses\":" + std::to_string(span.buffer_misses) +
      ",\"io_requests\":" + std::to_string(span.io_requests) + "}}";
  EmitEvent(query);

  // Segments tile the query slice in pipeline order, so they render as
  // nested children of the query slice on the same lane.
  double cursor = start;
  for (SpanSegment seg : kPipelineOrder) {
    const double seconds = span.seconds[static_cast<size_t>(seg)];
    if (seconds <= 0) continue;
    EmitEvent("{\"name\":\"" + std::string(SpanSegmentName(seg)) +
              "\",\"cat\":\"segment\",\"ph\":\"X\",\"ts\":" +
              JsonNumber(cursor * 1e6) + ",\"dur\":" +
              JsonNumber(seconds * 1e6) + pid_tid + "}");
    cursor += seconds;
  }
}

void SpanTracer::RecordPhase(const char* phase, uint32_t app, double now) {
  if (!exporting() || closed_) return;
  EnsureProcessTrack(kControllerPid, "controller");
  auto it = phase_tids_.find(phase);
  if (it == phase_tids_.end()) {
    const int tid = static_cast<int>(phase_tids_.size()) + 1;
    it = phase_tids_.emplace(phase, tid).first;
    EmitEvent("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
              std::to_string(kControllerPid) +
              ",\"tid\":" + std::to_string(tid) +
              ",\"args\":{\"name\":\"phase-" + JsonEscape(phase) + "\"}}");
  }
  EmitEvent("{\"name\":\"" + JsonEscape(phase) +
            "\",\"cat\":\"phase\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
            JsonNumber(now * 1e6) + ",\"pid\":" +
            std::to_string(kControllerPid) +
            ",\"tid\":" + std::to_string(it->second) +
            ",\"args\":{\"app\":" + std::to_string(app) + "}}");
}

std::string SpanTracer::WaitProfileJson(uint32_t app) const {
  std::string out = "[";
  bool first_class = true;
  for (const auto& [key, agg] : aggregates_) {
    if (AppOf(key) != app) continue;
    if (!first_class) out += ",";
    first_class = false;
    out += "{\"app\":" + std::to_string(AppOf(key)) +
           ",\"cls\":" + std::to_string(ClassOf(key)) +
           ",\"sampled\":" + std::to_string(agg.sampled) +
           ",\"end_to_end\":" + HistogramSummaryJson(*agg.end_to_end) +
           ",\"segments\":[";
    bool first_seg = true;
    for (SpanSegment seg : kPipelineOrder) {
      const LatencyHistogram& h = *agg.segments[static_cast<size_t>(seg)];
      if (h.count() == 0) continue;
      if (!first_seg) out += ",";
      first_seg = false;
      out += "{\"seg\":\"" + std::string(SpanSegmentName(seg)) +
             "\"," + HistogramSummaryJson(h).substr(1);
    }
    out += "]}";
  }
  out += "]";
  return out;
}

}  // namespace fglb
