#include "engine/database_engine.h"

#include <algorithm>
#include <cassert>

namespace fglb {

DatabaseEngine::DatabaseEngine(std::string name, const Options& options,
                               const DiskModel* disk_model)
    : name_(std::move(name)),
      options_(options),
      pool_(options.buffer_pool_pages),
      stats_(options.access_window_capacity),
      disk_model_(disk_model),
      rng_(options.seed) {
  assert(disk_model != nullptr);
  if (options.tier.enabled()) {
    tier2_ = std::make_unique<TieredBufferPool>(options.tier);
    // Demote-on-DRAM-evict: every page a partition pushes out under
    // capacity pressure lands in the matching tier-2 partition.
    pool_.SetEvictionListener([tier = tier2_.get()](PartitionKey key,
                                                    PageId page) {
      tier->Demote(key, page);
    });
  }
}

ExecutionCounters DatabaseEngine::Execute(const QueryInstance& query) {
  assert(query.tmpl != nullptr);
  const ClassKey key = query.class_key();
  scratch_.clear();
  if (replay_source_ != nullptr && replay_source_->NextAccesses(key,
                                                               &scratch_)) {
    ++replayed_executions_;
  } else {
    if (replay_source_ != nullptr) ++generated_fallbacks_;
    generator_.Generate(*query.tmpl, rng_, &scratch_);
  }
  if (execution_recorder_ != nullptr) {
    execution_recorder_->OnExecution(recorder_replica_id_, key, scratch_);
  }

  ExecutionCounters counters;
  // Resolve the class's stats window and buffer-pool partition once;
  // the access string is then consumed as one contiguous span against
  // them (these lookups used to run once per page access).
  StatsCollector::AccessRecorder recorder = stats_.RecorderFor(key);
  BufferPool& partition = pool_.PartitionOf(key);
  counters.page_accesses = scratch_.size();
  for (const PageAccess& access : scratch_) {
    recorder.Record(access.page);
    if (access.is_write) ++counters.page_writes;
    if (access.kind == AccessKind::kSequential) {
      // Sequential run: if the page is not resident, read-ahead fetches
      // its whole 64-page extent in one I/O, so the page (and its
      // neighbours) then hit logically.
      if (!partition.Contains(access.page)) {
        ++counters.read_aheads;
        ++counters.io_requests;
        const uint64_t offset = OffsetOf(access.page);
        const uint64_t extent_start = offset - offset % kExtentPages;
        for (uint64_t i = 0; i < kExtentPages; ++i) {
          if (partition.Insert(MakePageId(TableOf(access.page),
                                          extent_start + i))) {
            ++counters.buffer_misses;  // physically read from disk
          }
        }
      }
      partition.Access(access.page);
    } else {
      if (!partition.Access(access.page)) {
        // DRAM miss: probe the second-tier cache before going to disk.
        // A tier-2 hit promotes the page (Access above already made it
        // DRAM-resident; PromoteHit removed the tier copy) and costs
        // SSD latency; a tier-2 miss is a disk random read.
        if (tier2_ != nullptr && tier2_->PromoteHit(key, access.page)) {
          ++counters.tier2_hits;
          ++counters.buffer_misses;
          ++counters.io_requests;
        } else {
          ++counters.random_misses;
          ++counters.buffer_misses;
          ++counters.io_requests;
        }
      }
    }
  }
  if (counters.page_writes > 0) {
    // Distinct stripes written, sorted: the commit's exclusive lock
    // set (sorted acquisition order prevents deadlock).
    for (const PageAccess& access : scratch_) {
      if (access.is_write) {
        counters.write_stripes.push_back(StripeOf(access.page));
      }
    }
    std::sort(counters.write_stripes.begin(), counters.write_stripes.end());
    counters.write_stripes.erase(
        std::unique(counters.write_stripes.begin(),
                    counters.write_stripes.end()),
        counters.write_stripes.end());
    counters.commit_seconds =
        query.tmpl->commit_hold_seconds +
        200e-6 * static_cast<double>(counters.page_writes);
  }
  counters.io_requests += counters.page_writes;
  counters.cpu_seconds =
      query.tmpl->fixed_cpu_seconds +
      query.tmpl->cpu_seconds_per_page *
          static_cast<double>(counters.page_accesses);
  counters.io_seconds = disk_model_->ServiceDemand(
      counters.random_misses, counters.read_aheads, counters.page_writes);
  if (counters.tier2_hits > 0) {
    counters.io_seconds += static_cast<double>(counters.tier2_hits) *
                           tier2_->HitServiceSeconds();
  }
  return counters;
}

void DatabaseEngine::RecordCompletion(ClassKey key, double latency_seconds,
                                      const ExecutionCounters& counters) {
  if (execution_timeout_seconds_ > 0 &&
      latency_seconds > execution_timeout_seconds_) {
    ++timeouts_;
    if (timeouts_counter_ != nullptr) timeouts_counter_->Increment();
  }
  stats_.RecordQuery(key, latency_seconds, counters);
}

bool DatabaseEngine::SetQuota(ClassKey key, uint64_t pages) {
  return pool_.SetQuota(key, pages);
}

void DatabaseEngine::DropQuota(ClassKey key) { pool_.DropQuota(key); }

bool DatabaseEngine::SetTierQuota(ClassKey key, uint64_t pages) {
  return tier2_ != nullptr && tier2_->SetQuota(key, pages);
}

void DatabaseEngine::DropTierQuota(ClassKey key) {
  if (tier2_ != nullptr) tier2_->DropQuota(key);
}

void DatabaseEngine::BindMetrics(MetricsRegistry* registry) {
  metrics_ = registry;
  if (registry == nullptr) {
    stats_.BindMetrics(nullptr, nullptr);
    timeouts_counter_ = nullptr;
    return;
  }
  const std::string prefix = "engine." + name_ + ".";
  stats_.BindMetrics(registry->counter(prefix + "queries"),
                     registry->histogram(prefix + "latency_us"));
  timeouts_counter_ = registry->counter(prefix + "timeouts");
}

void DatabaseEngine::PublishMetrics() {
  if (metrics_ == nullptr) return;
  pool_.PublishMetrics(metrics_, "engine." + name_ + ".bufferpool.");
  if (tier2_ != nullptr) {
    tier2_->PublishMetrics(metrics_, "engine." + name_ + ".tier.");
  }
}

}  // namespace fglb
