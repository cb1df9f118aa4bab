// CodServiceInterface: the one API every COD serving implementation
// speaks. Callers — benches, examples, tests, anything embedding the
// serving tier — program against this interface plus ServiceOptions and
// never against a concrete service's layout, so the same harness drives a
// mono DynamicCodService and an N-shard ShardedCodService unchanged.
//
// The factories at the bottom pick the implementation from
// ServiceOptions::num_shards: 1 = one engine over the whole graph
// (DynamicCodService), >= 2 = a deterministic scatter/gather router over
// component-scoped shard engines (ShardedCodService). Both publish epochs
// RCU-style, never rebuild on a query path, and degrade instead of
// failing when an index build or a shard deadline falls over.

#ifndef COD_SERVING_SERVICE_INTERFACE_H_
#define COD_SERVING_SERVICE_INTERFACE_H_

#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/query_batch.h"
#include "serving/service_options.h"

namespace cod {

// Cumulative rebuild bookkeeping, inspectable at any time (test /
// monitoring hook). attempts counts every epoch-build call including
// retries; published counts successful epoch swaps (published_degraded of
// which were index-absent). A sharded service reports the field-wise sum
// over its shards.
struct RebuildStats {
  uint64_t attempts = 0;
  uint64_t failures = 0;
  uint64_t retries = 0;
  uint64_t published = 0;
  uint64_t published_degraded = 0;
  Status last_error;  // most recent failure; Ok() if none ever failed
};

class CodServiceInterface {
 public:
  virtual ~CodServiceInterface() = default;

  // ---- Updates (O(1), no rebuild). Duplicate inserts overwrite weight;
  // removing an absent edge returns false. Bad input is refused with
  // false, never a process abort: self-loops, node ids >= the node count,
  // and weights that are NaN, infinite or negative. A sharded service
  // additionally rejects edges that would CROSS shards (returns false,
  // counts cod_shard_cross_edge_rejected_total) — the partition is fixed
  // at construction. Thread-safe against queries and each other. ----
  virtual bool AddEdge(NodeId u, NodeId v, double weight = 1.0) = 0;
  virtual bool RemoveEdge(NodeId u, NodeId v) = 0;

  virtual size_t pending_updates() const = 0;
  // Mono: the published epoch number. Sharded: the MINIMUM epoch over
  // shards — the freshness floor every answer is guaranteed to meet.
  virtual uint64_t epoch() const = 0;
  // True when the current epoch serves index-absent (sharded: ANY shard).
  virtual bool epoch_degraded() const = 0;
  virtual size_t NumEdges() const = 0;
  virtual RebuildStats rebuild_stats() const = 0;

  // True when accumulated drift has crossed rebuild_threshold (sharded:
  // on any shard) — in sync mode the owner polls this and calls Refresh()
  // (queries never rebuild inline).
  virtual bool RefreshDue() const = 0;

  // Synchronously rebuilds and publishes before returning. A sharded
  // service refreshes EVERY shard and keeps going past a failed one (its
  // old epoch keeps serving), returning the first error encountered.
  virtual Status Refresh() = 0;
  // Schedules rebuilds on the configured scheduler and returns
  // immediately; false if nothing new was scheduled (every engine already
  // has a rebuild in flight). Requires ServiceOptions::async_rebuild.
  virtual bool RefreshAsync() = 0;
  // Blocks until no background rebuild is in flight on any engine,
  // waiting through scheduled retries (test/shutdown hook).
  virtual void WaitForRebuild() = 0;

  // One query, served from the current epoch of the engine that owns
  // spec.node (snapshot-and-serve; never rebuilds inline), through
  // EngineCore::Query — so bad input comes back as kInvalidArgument, never
  // a crash. `rng` advances exactly as if the query ran alone against that
  // engine. spec.budget_seconds is ignored (budgets are a batch feature).
  virtual CodResult Query(const QuerySpec& spec, Rng& rng) = 0;

  // Fans a workload across `scheduler` against ONE snapshot per engine,
  // gathered back into spec order. Deterministic given (epoch contents,
  // specs, batch_seed, effective options): query i always runs with
  // BatchQuerySeed(batch_seed, i) keyed by its position in `specs`,
  // regardless of shard layout, chunking, or worker count. Refused specs
  // (see EngineCore::Query) come back kInvalidArgument in their slot while
  // the rest of the batch is served. `stats` (ignored when null) receives
  // the batch's aggregate tallies, including BatchStats::shard_missed for
  // deadline-missed shards.
  virtual std::vector<CodResult> QueryBatch(std::span<const QuerySpec> specs,
                                            TaskScheduler& scheduler,
                                            uint64_t batch_seed,
                                            const BatchOptions& options,
                                            BatchStats* stats) const = 0;

  // Convenience forms (non-virtual): default options, no stats.
  std::vector<CodResult> QueryBatch(std::span<const QuerySpec> specs,
                                    TaskScheduler& scheduler,
                                    uint64_t batch_seed) const {
    return QueryBatch(specs, scheduler, batch_seed, BatchOptions{}, nullptr);
  }
  std::vector<CodResult> QueryBatch(std::span<const QuerySpec> specs,
                                    TaskScheduler& scheduler,
                                    uint64_t batch_seed,
                                    const BatchOptions& options) const {
    return QueryBatch(specs, scheduler, batch_seed, options, nullptr);
  }
};

// Builds the serving implementation ServiceOptions selects: a
// DynamicCodService when num_shards == 1, a ShardedCodService otherwise.
// CHECK-fails on invalid options (call options.Validate() first to handle
// configuration errors gracefully) and on a first-epoch build failure.
std::unique_ptr<CodServiceInterface> MakeCodService(
    Graph initial_graph, AttributeTable attrs, const ServiceOptions& options);

// Warm restart of whichever implementation `options` selects, from the
// snapshot layout under options.snapshot_dir. `cold_graph` / `cold_attrs`
// are the cold-start fallback source of truth: a mono service uses them
// only when NO usable snapshot exists (kNotFound); a sharded service
// additionally cold-rebuilds any INDIVIDUAL shard whose snapshots are
// missing or exhausted by corruption, while warm-restoring the rest. A
// snapshot whose options fingerprint disagrees with `options` fails with
// kFailedPrecondition — restoring it would change answers.
Result<std::unique_ptr<CodServiceInterface>> RecoverCodService(
    const ServiceOptions& options, Graph cold_graph, AttributeTable cold_attrs);

}  // namespace cod

#endif  // COD_SERVING_SERVICE_INTERFACE_H_
