// Concurrent batch-query API: fan a COD query workload across a
// TaskScheduler as interactive-priority tasks.
//
// Determinism contract: query i of a batch always runs with
// Rng(BatchQuerySeed(batch_seed, i)) in a freshly reseeded per-chunk
// workspace, so the result vector is a pure function of
// (core, specs, batch_seed, effective options) — bit-identical for every
// worker count and every work-stealing interleaving, including a single
// worker. Chunks cover contiguous spec ranges and own one reusable
// QueryWorkspace each; nothing is shared mutably across chunks except the
// pre-sized result slots (one writer per slot).
//
// Budgets and graceful degradation (BatchOptions): each query runs under a
// deadline (per-spec override, batch default, and a batch-wide deadline —
// whichever is earliest) plus an optional cancel token. When a rung of work
// times out and degradation is allowed, the query retries on the next rung
// of a CHEAPER variant ladder (see DegradationLadder in the .cc / DESIGN.md)
// with the SAME per-query seed, so a degraded answer equals a direct query
// of the served variant. Answers record code / degraded / variant_served.
// Determinism caveat: budget expiry itself is a wall-clock event, so results
// are bit-identical across thread counts only for a fixed sequence of budget
// outcomes — guaranteed for unlimited budgets and for already-expired
// budgets (<= ~1ns, which deterministically fail their first poll), the
// cases the tests pin down.
//
// Admission control: when the scheduler reports interactive overload
// (TaskScheduler::ShouldShed — queue depth over its bound, or the
// "scheduler/admission" failpoint), a batch that allows degradation is shed
// one ladder rung: every query starts at rung 1 of its ladder instead of
// rung 0, decided ONCE before any chunk runs so the whole batch is
// deterministic and reproducible via RunQuerySpecWithBudget with the same
// effective options (shed answers come back degraded = true).
//
// Calling RunQueryBatch from a task running on the same scheduler is safe:
// the batch waits on a TaskGroup, and a worker-thread wait runs queued
// tasks inline instead of parking the slot (common/task_scheduler.h).

#ifndef COD_CORE_QUERY_BATCH_H_
#define COD_CORE_QUERY_BATCH_H_

#include <span>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "core/engine_core.h"

namespace cod {

class TaskScheduler;
class QueryWorkspace;

// Batch-level budget and degradation policy for RunQueryBatch. The default
// object is "no limits": every query runs its requested variant to
// completion.
struct BatchOptions {
  // Default per-query budget in seconds (0 = unlimited). Each query's
  // effective deadline is Earliest(per-query deadline, batch_deadline).
  double default_budget_seconds = 0.0;
  // Absolute deadline for the whole batch (defaults to never).
  Deadline batch_deadline;
  // Optional cooperative cancellation for the whole batch; must outlive the
  // RunQueryBatch call. Cancellation beats timeout and skips degradation.
  const CancelToken* cancel = nullptr;
  // When a query's budget expires, retry it on cheaper ladder rungs (tagged
  // degraded = true) instead of returning kTimeout outright.
  bool allow_degradation = true;
  // Start every query this many rungs down its degradation ladder (clamped
  // so at least the cheapest rung runs). 0 = normal service. RunQueryBatch
  // raises it to >= 1 when the scheduler sheds the batch under overload;
  // setting it directly reproduces a shed batch exactly.
  size_t shed_rungs = 0;
  // Optional borrowed scheduler for intra-query parallel RR sampling inside
  // each chunk's workspace (see QueryWorkspace::SetSamplingPool). Sharing
  // the batch scheduler is fine — sampling chunks are interactive tasks and
  // group waits help inline; results are bit-identical either way, so this
  // is a latency knob only. Null = serial per-query sampling (the default;
  // cross-query parallelism usually saturates the machine already).
  TaskScheduler* sampling_pool = nullptr;
};

// Aggregate outcome tallies for one RunQueryBatch call. Workers accumulate
// locally and merge once at the end, so filling this costs nothing per
// query; the same totals feed the process-wide MetricsRegistry
// (cod_batch_queries_total{outcome=...}, cod_batch_degraded_total{rung=...}).
// The six outcome counters PARTITION the batch: served_ok + degraded +
// timeout + cancelled + invalid_argument + shard_missed equals the number
// of specs, with every query in exactly one bucket. (`shed` is an
// orthogonal flag on the whole batch, not a bucket.)
struct BatchStats {
  uint64_t served_ok = 0;    // kOk from the requested variant (rung 0)
  uint64_t degraded = 0;     // kOk from a cheaper rung (degraded = true)
  uint64_t timeout = 0;      // every rung timed out
  uint64_t cancelled = 0;    // cancellation (skips remaining rungs)
  // Refused input (kInvalidArgument, see EngineCore::Query): an
  // out-of-range node or a k the index cannot answer. Never retried.
  uint64_t invalid_argument = 0;
  // Served answers by ladder rung; rung 0 is the requested variant. The
  // ladder never exceeds 5 rungs (see DegradationLadder in the .cc; the
  // fifth is the approximate sketch rung, offered only when the core
  // carries a coverage-sketch index). Shard-missed non-answers never ran a
  // rung, so they do not appear here.
  static constexpr size_t kMaxRungs = 5;
  uint64_t per_rung[kMaxRungs] = {0, 0, 0, 0, 0};
  // True when scheduler admission control shed this batch down the ladder
  // (see BatchOptions::shed_rungs).
  bool shed = false;
  // Sharded batches only (RunShardedQueryBatch): queries whose shard missed
  // the deadline (or tripped the "serving/shard_deadline" failpoint) and
  // were served as degraded NON-answers instead of errors. Its own bucket:
  // such a query is not also counted in `degraded` (the CodResult still
  // carries degraded = true so callers can tell it from a real answer).
  uint64_t shard_missed = 0;

  // Real answers only — shard-missed non-answers are excluded.
  uint64_t Served() const { return served_ok + degraded; }
  // Adds another (disjoint) tally's counters; `shed` is left alone.
  void Add(const BatchStats& other);
};

// The RNG seed batch query `index` runs with; exposed so tests and callers
// can reproduce any single query of a batch in isolation.
inline uint64_t BatchQuerySeed(uint64_t batch_seed, size_t index) {
  uint64_t state =
      batch_seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(index + 1);
  return SplitMix64(state);
}

// Runs one spec under `options`' budget discipline, walking the degradation
// ladder on timeout (refused input and cancellation return at once). Every
// rung reseeds the workspace RNG from `query_seed`, so the answer for a
// given (spec, options, seed, budget outcome sequence) is deterministic.
// Exposed for sequential re-verification of batch answers (pass
// BatchQuerySeed(batch_seed, i) as `query_seed`).
CodResult RunQuerySpecWithBudget(const EngineCore& core, const QuerySpec& spec,
                                 QueryWorkspace& ws,
                                 const BatchOptions& options,
                                 uint64_t query_seed);

// Fans `specs` across `scheduler` and blocks until every result is filled,
// under `options`' per-query budgets, batch deadline / cancellation and
// degradation ladder (the default BatchOptions runs every requested
// variant to completion). `stats` (ignored when null) receives the batch's
// aggregate outcome tallies. Thread-safe: concurrent batches may share one
// scheduler (each batch waits on its own TaskGroup, never on global
// idleness).
std::vector<CodResult> RunQueryBatch(const EngineCore& core,
                                     std::span<const QuerySpec> specs,
                                     TaskScheduler& scheduler,
                                     uint64_t batch_seed,
                                     const BatchOptions& options = {},
                                     BatchStats* stats = nullptr);

// ---- Sharded scatter/gather (the serving tier's router, src/serving/). ----

// One shard's slice of a batch: the epoch core that owns the shard's
// subgraph plus the positions (into the batch's spec span) of the queries
// routed to it. Cores are borrowed; the caller keeps the epochs alive for
// the duration of the batch.
struct ShardBatchInput {
  const EngineCore* core = nullptr;
  std::vector<size_t> indices;
};

// Fans a routed batch across `scheduler` — every shard's chunks are
// submitted up front into ONE task group, so a slow shard never gates
// another shard's start — and gathers per-query answers back into spec
// order.
//
// Determinism: query i runs with BatchQuerySeed(batch_seed, i) where i is
// its ORIGINAL position in `specs`, regardless of which shard serves it or
// how shards split into chunks. Combined with component-scoped shard
// engines (EngineOptions::component_scoped) the merged result vector is
// bit-identical across shard counts and worker counts.
//
// Shard-aware degradation: a query whose ladder exhausts its deadline
// (kTimeout) is converted to a DEGRADED NON-ANSWER — kOk, found = false,
// degraded = true, the requested variant — rather than surfacing an error:
// the batch answers from the shards that made the deadline and tags the
// rest, tallied in BatchStats::shard_missed. The "serving/shard_deadline"
// failpoint emulates a whole shard missing its deadline: it is polled once
// per shard in ascending shard order BEFORE any task is submitted (so
// arming it with count = 1 deterministically fails shard 0), and a tripped
// shard's queries are all served as degraded non-answers without touching
// its core. Cancellation still surfaces as kCancelled — a cancelled caller
// does not want fabricated answers. The one shed decision covers the whole
// sharded batch.
//
// Slots not routed to any shard are left default-constructed (kOk,
// found = false); the serving router covers every query by construction.
std::vector<CodResult> RunShardedQueryBatch(
    std::span<const ShardBatchInput> shards, std::span<const QuerySpec> specs,
    TaskScheduler& scheduler, uint64_t batch_seed, const BatchOptions& options,
    BatchStats* stats);

}  // namespace cod

#endif  // COD_CORE_QUERY_BATCH_H_
