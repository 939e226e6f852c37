#ifndef FGLB_COMMON_SPAN_TRACER_H_
#define FGLB_COMMON_SPAN_TRACER_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics_registry.h"

namespace fglb {

// Sampled per-query span tracing: where did each query's latency go?
//
// The cluster's diagnosis pipeline infers *which resource* made a class
// an outlier from interval-aggregated statistics; the span tracer
// measures it directly. Every 1-in-N query (deterministic, by submit
// sequence) gets a pooled QuerySpan that the scheduler and replica
// stamp with sim-time segments as the query moves through its
// lifecycle: admission/pick, disk-channel wait + service, CPU run-queue
// wait + service, commit lock wait, commit hold — or the shed /
// no-capacity fast-fail paths. Segment boundaries fall out of the
// queueing stations' existing completion callbacks (the sojourn minus
// the known service time is the wait), so tracing schedules no events
// of its own and every segment is a pure function of simulated time —
// a replayed capture reproduces span output byte for byte.
//
// Finished spans aggregate into per-(app, class) wait profiles
// (power-of-two latency histograms per segment kind, living in the
// bound MetricsRegistry) that the controller attaches to phase=impact
// trace events, and optionally stream to a Chrome trace_event /
// Perfetto-compatible JSON file (--spans-out): one process track per
// replica, one thread track per controller phase, nested slices per
// segment — loadable as-is in ui.perfetto.dev.
//
// When no tracer is installed the whole layer is a null-check per
// submit/stage; bench_overhead's enabled/disabled gate (< 1.02) covers
// the compiled-in-but-disabled configuration.

class SpanTracer;

// Lifecycle segments of one query, in pipeline order. kShed/kPenalty
// are terminal fast-fail pseudo-segments (a span carries either the
// replica pipeline or one of those, never both).
enum class SpanSegment : uint8_t {
  kAdmission = 0,  // submit -> replica pickup (admission + scheduler pick)
  kIoWait,         // disk-channel queueing ahead of this query's I/O
  kIoService,      // buffer-pool-miss disk I/O service time
  kCpuWait,        // run-queue wait on the server's cores
  kCpuService,     // CPU service time
  kLockWait,       // commit stripe-lock wait
  kCommitHold,     // commit critical section under the locks
  kShed,           // admission fast-fail error round-trip
  kPenalty,        // no-capacity penalty latency
  kCount
};

constexpr size_t kSpanSegmentCount = static_cast<size_t>(SpanSegment::kCount);

const char* SpanSegmentName(SpanSegment segment);

// Sampling knobs. A run records the rate as the span_sample row of its
// RunConfig (0 = no tracer), so a replayed capture samples the
// identical queries.
struct SpanConfig {
  // Deterministic 1-in-N sampling by global submit sequence; 1 = every
  // query. The default is fglb_sim's rate for --spans-out.
  uint64_t sample_every = 64;
};

// One sampled query's recorder. Pool-allocated by the tracer; the
// scheduler threads the pointer through QueryInstance into the
// replica's per-query control block. All mutators are inline adds —
// the hot path never reaches back into the tracer until the span ends.
struct QuerySpan {
  SpanTracer* owner = nullptr;
  uint64_t id = 0;        // dense sample ordinal
  uint64_t seq = 0;       // global submit sequence that sampled it
  uint64_t key = 0;       // ClassKey: (app << 32) | class
  double start = 0;       // submit sim-time, seconds
  int replica_id = -1;    // -1 until a replica picks it up
  double seconds[kSpanSegmentCount] = {};
  // Engine-side attribution for the exported slice args.
  uint64_t page_accesses = 0;
  uint64_t buffer_misses = 0;
  uint64_t io_requests = 0;
  QuerySpan* next_free = nullptr;

  void Add(SpanSegment segment, double s) {
    seconds[static_cast<size_t>(segment)] += s;
  }
  // Splits a queueing station's sojourn into wait + service using the
  // service demand the caller submitted.
  void AddSojourn(SpanSegment wait, SpanSegment service, double sojourn,
                  double service_seconds) {
    const double queued = sojourn - service_seconds;
    Add(wait, queued > 0 ? queued : 0.0);
    Add(service, service_seconds);
  }
  // Replica pickup: stamps the admission/pick segment and the replica
  // track, plus the engine's per-access counters for the export args.
  void NoteExecution(double now, int replica, uint64_t accesses,
                     uint64_t misses, uint64_t ios) {
    replica_id = replica;
    Add(SpanSegment::kAdmission, now - start);
    page_accesses = accesses;
    buffer_misses = misses;
    io_requests = ios;
  }
  double SegmentSum() const {
    double total = 0;
    for (double s : seconds) total += s;
    return total;
  }
};

class SpanTracer {
 public:
  explicit SpanTracer(const SpanConfig& config = {});
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;
  ~SpanTracer();

  const SpanConfig& config() const { return config_; }

  // Aggregate wait-profile histograms into `registry` under
  // "span.a<app>.c<class>.<segment>" (else into tracer-owned
  // histograms, so WaitProfileJson works either way). Call before the
  // first Begin.
  void BindMetrics(MetricsRegistry* registry) { metrics_ = registry; }

  // Streams Chrome trace_event JSON to `path` (truncates). Returns
  // false with a message in *error on open failure.
  bool OpenFile(const std::string& path, std::string* error);
  // Collects the export in memory instead (tests; BufferedJson()).
  void EnableBuffering();
  bool exporting() const { return file_ != nullptr || buffering_; }

  // Finalizes the JSON document (file mode: writes "]" and closes).
  void Close();
  // The complete buffered document, including the closing bracket.
  std::string BufferedJson() const;

  // Counts one submitted query; returns a pooled span for the 1-in-N
  // sampled ones, null otherwise.
  QuerySpan* Begin(uint32_t app, uint32_t cls, double now);

  // Ends a span that ran the replica pipeline: aggregates its wait
  // profile, exports its slices, recycles it. `now` is completion time.
  void EndSpan(QuerySpan* span, double now);

  // Ends a fast-fail span (shed / no-capacity penalty) whose whole
  // latency is the single `segment` of known `duration` seconds.
  void EndImmediate(QuerySpan* span, SpanSegment segment, double duration);

  // Marks one controller phase occurrence (sla/impact/iqr/mrc/action)
  // on the controller track — an instant event at sim-time `now`.
  void RecordPhase(const char* phase, uint32_t app, double now);

  // Per-class measured latency breakdown for `app`, as a JSON array
  // (attached to phase=impact trace events):
  //   [{"app":2,"cls":5,"sampled":12,"end_to_end":{...},
  //     "segments":[{"seg":"cpu_service","count":..,"mean_us":..,
  //                  "p95_us":..},...]},...]
  // Deterministic: every value derives from simulated time.
  std::string WaitProfileJson(uint32_t app) const;

  uint64_t sequence() const { return sequence_; }
  uint64_t sampled() const { return sampled_; }
  uint64_t finished() const { return finished_; }

  // Test hook: observes every finished span (after segments are final)
  // with its measured end-to-end latency in seconds.
  void SetFinishObserver(
      std::function<void(const QuerySpan&, double end_to_end)> observer) {
    observer_ = std::move(observer);
  }

 private:
  struct ClassAggregate {
    uint64_t sampled = 0;
    LatencyHistogram* end_to_end = nullptr;
    LatencyHistogram* segments[kSpanSegmentCount] = {};
    // Backing storage when no MetricsRegistry is bound.
    std::vector<std::unique_ptr<LatencyHistogram>> owned;
  };

  QuerySpan* AllocateSpan();
  void ReleaseSpan(QuerySpan* span);
  ClassAggregate& AggregateFor(uint64_t key);
  void Aggregate(const QuerySpan& span, double end_to_end);
  void ExportSpan(const QuerySpan& span, double end_to_end);
  void EmitEvent(const std::string& json);
  // First lane of `pid` free at `start`; lanes render stacked slices
  // in Perfetto, so overlapping spans of one replica get distinct tids.
  int LaneFor(int pid, double start, double end);
  void EnsureProcessTrack(int pid, const std::string& name);

  SpanConfig config_;
  MetricsRegistry* metrics_ = nullptr;

  uint64_t sequence_ = 0;
  uint64_t sampled_ = 0;
  uint64_t finished_ = 0;

  // Span pool: chunked storage + intrusive free list.
  std::vector<std::unique_ptr<QuerySpan[]>> chunks_;
  QuerySpan* free_list_ = nullptr;

  std::map<uint64_t, ClassAggregate> aggregates_;

  // Export state.
  std::FILE* file_ = nullptr;
  bool buffering_ = false;
  bool closed_ = false;
  bool any_event_ = false;
  std::string buffer_;
  std::map<int, std::vector<double>> lanes_;  // pid -> lane busy-until
  std::map<int, bool> track_named_;
  std::map<std::string, int> phase_tids_;

  std::function<void(const QuerySpan&, double)> observer_;
};

}  // namespace fglb

#endif  // FGLB_COMMON_SPAN_TRACER_H_
