#include "core/query_batch.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <numeric>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "core/query_workspace.h"

namespace cod {
namespace {

// One rung of the degradation ladder: which variant to run and (for sampled
// variants) how much to shrink theta. Rung 0 is always the requested spec.
struct LadderStep {
  CodVariant variant;
  uint32_t theta_divisor = 1;
};

// Cost-DECREASING ladder per the paper's Fig. 9 query-time ordering
// (CODR >> CODL- > CODL > index-only > sketch; see DESIGN.md "Failure
// taxonomy and graceful degradation"). Index rungs are only offered when
// the core has a HIMOR index that can answer rank k — on an index-absent
// (degraded) core they vanish and the ladder is exactly the no-index
// subset; the core's own in-variant fallbacks (CODL -> CODL-) then mark
// rung-0 answers degraded themselves. When the core carries a
// coverage-sketch index deep enough for rank k (and sketch_rung is on),
// every ladder additionally bottoms out in the approximate sketch rung —
// an answer read straight off the sketch tables, microseconds instead of
// milliseconds, always tagged degraded.
std::vector<LadderStep> DegradationLadder(const EngineCore& core,
                                          CodVariant requested, uint32_t k,
                                          bool allow_degradation) {
  std::vector<LadderStep> ladder;
  ladder.push_back(LadderStep{requested, 1});
  if (!allow_degradation) return ladder;
  const bool index_ok =
      core.himor() != nullptr && k <= core.himor()->max_rank();
  switch (requested) {
    case CodVariant::kCodR:
      ladder.push_back(LadderStep{CodVariant::kCodLMinus, 1});
      if (index_ok) {
        ladder.push_back(LadderStep{CodVariant::kCodL, 1});
        ladder.push_back(LadderStep{CodVariant::kCodUIndexed, 1});
      }
      break;
    case CodVariant::kCodLMinus:
      if (index_ok) {
        ladder.push_back(LadderStep{CodVariant::kCodL, 1});
        ladder.push_back(LadderStep{CodVariant::kCodUIndexed, 1});
      }
      break;
    case CodVariant::kCodL:
      ladder.push_back(LadderStep{CodVariant::kCodL, 4});
      if (index_ok) {
        ladder.push_back(LadderStep{CodVariant::kCodUIndexed, 1});
      }
      break;
    case CodVariant::kCodU:
      ladder.push_back(LadderStep{CodVariant::kCodU, 4});
      if (index_ok) {
        ladder.push_back(LadderStep{CodVariant::kCodUIndexed, 1});
      }
      break;
    case CodVariant::kCodUIndexed:
      break;  // cheapest exact rung
    case CodVariant::kCodSketch:
      break;  // already approximate; nothing cheaper exists
  }
  // The sketch rung bottoms out EVERY ladder (when available): it cannot
  // time out in practice, so a batch under a hopeless deadline still
  // returns approximate answers instead of kTimeout.
  if (requested != CodVariant::kCodSketch && core.sketch() != nullptr &&
      core.options().sketch_rung && k <= core.sketch()->rank_depth()) {
    ladder.push_back(LadderStep{CodVariant::kCodSketch, 1});
  }
  return ladder;
}

// Runs `spec` as ladder rung `step` (spec's node / attrs, `step`'s variant,
// possibly shrunken theta). Restores the workspace's theta before returning
// so the next query sees the engine default. Routing through
// EngineCore::Query means every rung — including degraded ones — is tagged
// in the metrics registry under the variant it actually ran.
CodResult RunLadderStep(const EngineCore& core, const QuerySpec& spec,
                        const LadderStep& step, uint32_t k,
                        QueryWorkspace& ws) {
  const uint32_t full_theta = core.options().theta;
  if (step.theta_divisor > 1) {
    ws.evaluator().Rebind(core.model(),
                          std::max(1u, full_theta / step.theta_divisor));
  }
  QuerySpec rung = spec;
  rung.variant = step.variant;
  rung.k = k;
  CodResult result = core.Query(rung, ws);
  if (step.theta_divisor > 1) {
    ws.evaluator().Rebind(core.model(), full_theta);
  }
  return result;
}

// Tallies one finished query into a batch's aggregate stats.
void TallyResult(const CodResult& result, BatchStats* stats) {
  switch (result.code) {
    case StatusCode::kOk:
      if (result.degraded) {
        ++stats->degraded;
      } else {
        ++stats->served_ok;
      }
      if (result.ladder_rung < BatchStats::kMaxRungs) {
        ++stats->per_rung[result.ladder_rung];
      }
      break;
    case StatusCode::kCancelled:
      ++stats->cancelled;
      break;
    case StatusCode::kInvalidArgument:
      ++stats->invalid_argument;
      break;
    default:
      ++stats->timeout;
      break;
  }
}

// Publishes one batch's merged tallies into the process-wide registry
// (one registry touch per outcome class per batch, not per query).
void PublishBatchMetrics(const BatchStats& stats) {
  if (!MetricsRegistry::enabled()) return;
  struct Sites {
    Counter* ok;
    Counter* degraded;
    Counter* timeout;
    Counter* cancelled;
    Counter* invalid_argument;
    Counter* shard_missed;
    Counter* per_rung[BatchStats::kMaxRungs];
  };
  static const Sites sites = [] {
    MetricsRegistry& reg = MetricsRegistry::Instance();
    Sites s{};
    s.ok = reg.GetCounter("cod_batch_queries_total{outcome=\"ok\"}");
    s.degraded =
        reg.GetCounter("cod_batch_queries_total{outcome=\"degraded\"}");
    s.timeout = reg.GetCounter("cod_batch_queries_total{outcome=\"timeout\"}");
    s.cancelled =
        reg.GetCounter("cod_batch_queries_total{outcome=\"cancelled\"}");
    s.invalid_argument = reg.GetCounter(
        "cod_batch_queries_total{outcome=\"invalid_argument\"}");
    s.shard_missed = reg.GetCounter("cod_batch_shard_missed_total");
    for (size_t r = 0; r < BatchStats::kMaxRungs; ++r) {
      s.per_rung[r] = reg.GetCounter("cod_batch_degraded_total{rung=\"" +
                                     std::to_string(r) + "\"}");
    }
    return s;
  }();
  if (stats.served_ok > 0) sites.ok->Increment(stats.served_ok);
  if (stats.degraded > 0) sites.degraded->Increment(stats.degraded);
  if (stats.timeout > 0) sites.timeout->Increment(stats.timeout);
  if (stats.cancelled > 0) sites.cancelled->Increment(stats.cancelled);
  if (stats.invalid_argument > 0) {
    sites.invalid_argument->Increment(stats.invalid_argument);
  }
  if (stats.shard_missed > 0) {
    sites.shard_missed->Increment(stats.shard_missed);
  }
  for (size_t r = 1; r < BatchStats::kMaxRungs; ++r) {
    if (stats.per_rung[r] > 0) sites.per_rung[r]->Increment(stats.per_rung[r]);
  }
}

// The sharded tier's "answer anyway" conversion: a query whose shard (or
// whose own ladder) missed the deadline is served as a definitive-looking
// non-answer tagged degraded, never as an error (RunShardedQueryBatch
// contract). Pure per-query rewrite — no ordering dependence.
CodResult ShardMissedResult(const QuerySpec& spec) {
  CodResult result;
  result.code = StatusCode::kOk;
  result.found = false;
  result.degraded = true;
  result.variant_served = spec.variant;
  return result;
}

using Clock = std::chrono::steady_clock;

// How long each chunk sat behind other scheduler work before its first query
// ran; null when the registry is off (two clock reads per chunk otherwise
// wasted).
Histogram* QueueToStartHistogram() {
  return MetricsRegistry::enabled()
             ? MetricsRegistry::Instance().GetHistogram(
                   "cod_batch_queue_to_start_seconds")
             : nullptr;
}

// The body of one batch chunk, shared by both runners: answers specs[i]
// into results[i] for every i in `indices` on one fresh workspace and
// returns the chunk's tally. Each query is seeded by its batch position i,
// so an answer does not depend on which shard or chunk served it.
BatchStats RunChunk(const EngineCore& core, std::span<const QuerySpec> specs,
                    std::span<const size_t> indices, uint64_t batch_seed,
                    const BatchOptions& options, Histogram* queue_hist,
                    Clock::time_point submit_time,
                    std::vector<CodResult>& results) {
  if (queue_hist != nullptr) {
    queue_hist->Observe(
        std::chrono::duration<double>(Clock::now() - submit_time).count());
  }
  QueryWorkspace ws(core, /*seed=*/0);
  if (options.sampling_pool != nullptr) {
    ws.SetSamplingPool(options.sampling_pool);
  }
  BatchStats local;
  for (const size_t i : indices) {
    // Failure site for tests: a worker "dying" on a query marks that slot
    // cancelled instead of crashing the batch.
    if (COD_FAILPOINT("query_batch/worker")) {
      CodResult killed;
      killed.code = StatusCode::kCancelled;
      killed.variant_served = specs[i].variant;
      results[i] = std::move(killed);
    } else {
      results[i] = RunQuerySpecWithBudget(core, specs[i], ws, options,
                                          BatchQuerySeed(batch_seed, i));
    }
    TallyResult(results[i], &local);
  }
  return local;
}

}  // namespace

void BatchStats::Add(const BatchStats& other) {
  served_ok += other.served_ok;
  degraded += other.degraded;
  timeout += other.timeout;
  cancelled += other.cancelled;
  invalid_argument += other.invalid_argument;
  shard_missed += other.shard_missed;
  for (size_t r = 0; r < kMaxRungs; ++r) per_rung[r] += other.per_rung[r];
}

CodResult RunQuerySpecWithBudget(const EngineCore& core, const QuerySpec& spec,
                                 QueryWorkspace& ws,
                                 const BatchOptions& options,
                                 uint64_t query_seed) {
  const uint32_t k = spec.k == 0 ? core.options().k : spec.k;
  const double budget_seconds = spec.budget_seconds > 0.0
                                    ? spec.budget_seconds
                                    : options.default_budget_seconds;
  const Deadline per_query = budget_seconds > 0.0
                                 ? Deadline::After(budget_seconds)
                                 : Deadline::Infinite();
  const Budget budget{Deadline::Earliest(per_query, options.batch_deadline),
                      options.cancel};

  const std::vector<LadderStep> ladder =
      DegradationLadder(core, spec.variant, k, options.allow_degradation);
  // Admission shedding enters the ladder below rung 0 (clamped: the
  // cheapest rung always runs). Rung numbering is unchanged, so a shed
  // answer is tagged exactly like a timeout-degraded one.
  const size_t first_rung = std::min(options.shed_rungs, ladder.size() - 1);
  CodResult result;
  for (size_t s = first_rung; s < ladder.size(); ++s) {
    // Same seed on every rung: a degraded answer is exactly what a direct
    // query of the served variant would have returned.
    ws.ReseedRng(query_seed);
    ws.SetBudget(budget);
    result = RunLadderStep(core, spec, ladder[s], k, ws);
    ws.ClearBudget();
    result.ladder_rung = static_cast<uint8_t>(s);
    if (result.code == StatusCode::kOk) {
      // OR, don't overwrite: rung 0 can already be degraded when the core
      // itself degraded it (index-absent CODL fallback, CODR base-hierarchy
      // fallback).
      result.degraded = result.degraded || s > 0;
      return result;
    }
    // Only a timeout walks on: a cancelled caller wants no retries, and
    // refused input is refused by every rung alike.
    if (result.code != StatusCode::kTimeout) return result;
  }
  return result;  // every rung timed out
}

std::vector<CodResult> RunQueryBatch(const EngineCore& core,
                                     std::span<const QuerySpec> specs,
                                     TaskScheduler& scheduler,
                                     uint64_t batch_seed,
                                     const BatchOptions& options,
                                     BatchStats* stats) {
  if (stats != nullptr) *stats = BatchStats{};
  std::vector<CodResult> results(specs.size());
  if (specs.empty()) return results;

  const size_t num_chunks = std::min(scheduler.num_threads(), specs.size());

  // Admission control, decided ONCE before any chunk runs: a shed batch
  // starts every query one rung down its ladder (degraded but cheap)
  // instead of queueing at full cost behind an already-deep interactive
  // backlog. One decision per batch keeps the whole result vector
  // deterministic and reproducible via RunQuerySpecWithBudget with the same
  // effective options.
  BatchOptions effective = options;
  bool shed = false;
  if (options.allow_degradation &&
      scheduler.ShouldShed(TaskPriority::kInteractive, num_chunks)) {
    effective.shed_rungs = std::max<size_t>(effective.shed_rungs, 1);
    shed = true;
  }

  std::mutex mu;  // guards merged (chunks finish concurrently)
  BatchStats merged;
  merged.shed = shed;

  Histogram* queue_hist = QueueToStartHistogram();
  const Clock::time_point submit_time = Clock::now();
  std::vector<size_t> positions(specs.size());
  std::iota(positions.begin(), positions.end(), size_t{0});

  // The group scopes completion to THIS batch. Waiting from a scheduler
  // worker is safe (inline help), so batches may be issued from tasks.
  TaskGroup group(scheduler);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t begin = specs.size() * c / num_chunks;
    const size_t end = specs.size() * (c + 1) / num_chunks;
    const std::span<const size_t> chunk(positions.data() + begin,
                                        end - begin);
    scheduler.Submit(TaskPriority::kInteractive, group,
                     [&core, &results, specs, chunk, batch_seed, &effective,
                      &mu, &merged, queue_hist, submit_time] {
                       const BatchStats local =
                           RunChunk(core, specs, chunk, batch_seed, effective,
                                    queue_hist, submit_time, results);
                       std::lock_guard<std::mutex> lock(mu);
                       merged.Add(local);
                     });
  }
  group.Wait();

  PublishBatchMetrics(merged);
  if (stats != nullptr) *stats = merged;
  return results;
}

std::vector<CodResult> RunShardedQueryBatch(
    std::span<const ShardBatchInput> shards, std::span<const QuerySpec> specs,
    TaskScheduler& scheduler, uint64_t batch_seed, const BatchOptions& options,
    BatchStats* stats) {
  if (stats != nullptr) *stats = BatchStats{};
  std::vector<CodResult> results(specs.size());
  if (specs.empty()) return results;

  // One shed decision for the WHOLE sharded batch, exactly like the mono
  // path: per-shard decisions would make the merged vector depend on the
  // instantaneous queue depth between shard submissions.
  size_t total_chunks = 0;
  for (const ShardBatchInput& shard : shards) {
    total_chunks +=
        std::min(scheduler.num_threads(), shard.indices.size());
  }
  BatchOptions effective = options;
  bool shed = false;
  if (options.allow_degradation &&
      scheduler.ShouldShed(TaskPriority::kInteractive, total_chunks)) {
    effective.shed_rungs = std::max<size_t>(effective.shed_rungs, 1);
    shed = true;
  }

  std::mutex mu;
  BatchStats merged;
  merged.shed = shed;

  Histogram* queue_hist = QueueToStartHistogram();
  const Clock::time_point submit_time = Clock::now();

  // Scatter: every shard's chunks go into ONE group, submitted before any
  // wait, so shards progress independently (a stalled shard's chunks just
  // sit on the queues; they never gate another shard's workers).
  TaskGroup group(scheduler);
  for (const ShardBatchInput& shard : shards) {
    if (shard.indices.empty()) continue;
    COD_CHECK(shard.core != nullptr);
    // Whole-shard deadline miss, emulated: polled per shard in ascending
    // shard order on the calling thread, BEFORE submission, so tests arming
    // a count get a deterministic set of missed shards. The shard's queries
    // become degraded non-answers without touching its core.
    if (COD_FAILPOINT("serving/shard_deadline")) {
      // Outcome buckets partition: a shard-missed query counts ONLY in
      // shard_missed, never also in degraded / per_rung (the result object
      // still carries degraded=true for the caller).
      size_t missed = 0;
      for (size_t index : shard.indices) {
        results[index] = ShardMissedResult(specs[index]);
        ++missed;
      }
      std::lock_guard<std::mutex> lock(mu);
      merged.shard_missed += missed;
      continue;
    }
    const EngineCore& core = *shard.core;
    const std::vector<size_t>& indices = shard.indices;
    const size_t num_chunks =
        std::min(scheduler.num_threads(), indices.size());
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t begin = indices.size() * c / num_chunks;
      const size_t end = indices.size() * (c + 1) / num_chunks;
      const std::span<const size_t> chunk(indices.data() + begin,
                                          end - begin);
      scheduler.Submit(TaskPriority::kInteractive, group,
                       [&core, &results, specs, chunk, batch_seed, &effective,
                        &mu, &merged, queue_hist, submit_time] {
                         const BatchStats local = RunChunk(
                             core, specs, chunk, batch_seed, effective,
                             queue_hist, submit_time, results);
                         std::lock_guard<std::mutex> lock(mu);
                         merged.Add(local);
                       });
    }
  }
  group.Wait();

  // Shard-aware degradation: a query whose deadline ate every rung is served
  // as the degraded non-answer instead of an error. It counts only as
  // shard_missed (TallyResult bucketed it as a timeout), never as degraded,
  // so the outcome buckets still partition the batch.
  for (size_t i = 0; i < results.size(); ++i) {
    if (results[i].code != StatusCode::kTimeout) continue;
    results[i] = ShardMissedResult(specs[i]);
    --merged.timeout;
    ++merged.shard_missed;
  }

  PublishBatchMetrics(merged);
  if (stats != nullptr) *stats = merged;
  return results;
}

}  // namespace cod
