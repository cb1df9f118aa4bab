// ShardedCodService: N component-scoped DynamicCodService shard engines
// behind a deterministic scatter/gather router — the sharded
// implementation of CodServiceInterface.
//
// Layout: the input graph is partitioned COMPONENT-ATOMICALLY
// (serving/partition.h) into num_shards subgraphs, each covering the full
// node id space but owning only its components' edges. Every shard engine
// runs with EngineOptions::component_scoped forced on, so a query's
// answer is a pure function of its component's subgraph — which is what
// makes the router's merged results bit-identical across 1, 2, or 4
// shards (and across worker counts): the layout decides WHERE a query
// runs, never WHAT it answers.
//
// Scatter/gather (RunShardedQueryBatch, core/query_batch.h): a QueryBatch
// is routed per shard by the partition, fanned as interactive-priority
// chunks into ONE task group — no cross-shard barrier, so a shard stalled
// in a rebuild or a slow query never delays another shard's start — and
// gathered back into spec order. Query i keeps BatchQuerySeed(batch_seed,
// i) from its ORIGINAL batch position regardless of routing.
//
// Shard-aware degradation: a query whose deadline dies on its shard comes
// back as a degraded non-answer (kOk, found = false, degraded = true)
// rather than an error — the batch answers from the shards that made the
// deadline and tags the rest (BatchStats::shard_missed). The
// "serving/shard_deadline" failpoint fails a whole shard's slice
// deterministically for tests.
//
// Rebuilds, epochs, and durability are PER SHARD: each engine publishes
// its own epoch stream, retries its own failures, and snapshots into its
// own "shard-%04d" subdirectory with independent retention and corruption
// quarantine. Recover() warm-restores every shard that has a usable
// snapshot and cold-rebuilds (from the caller's graph) any shard whose
// snapshots are missing or exhausted by corruption — one shard's bad disk
// never costs the others their warm restart. A fingerprint mismatch
// (different engine parameters, seed, or shard layout) refuses recovery
// outright: those snapshots would answer differently.

#ifndef COD_SERVING_SHARDED_SERVICE_H_
#define COD_SERVING_SHARDED_SERVICE_H_

#include <memory>
#include <vector>

#include "serving/dynamic_service.h"
#include "serving/partition.h"
#include "serving/service_interface.h"

namespace cod {

class ShardedCodService : public CodServiceInterface {
 public:
  // Partitions `initial_graph` and builds every shard's first epoch
  // synchronously (CHECK-fails on a first-build error, like the mono
  // service). `options` must Validate(); engine.component_scoped is forced
  // on for the shard engines regardless of its incoming value. One shared
  // attribute table backs all shards.
  ShardedCodService(Graph initial_graph, AttributeTable attrs,
                    const ServiceOptions& options);

  // Warm restart from the per-shard snapshot layout under
  // options.snapshot_dir (base/shard-%04d). `cold_graph` / `cold_attrs`
  // are the fallback source of truth: any shard whose snapshots are
  // missing or all corrupt (kNotFound after quarantine) is cold-rebuilt
  // from its partition slice while the other shards warm-restore — per-
  // shard epochs mean a mixed restart is fully consistent. Other errors
  // (kFailedPrecondition fingerprint mismatch, I/O errors) fail the whole
  // recovery. The caller must pass the graph the service was originally
  // built from (plus the updates it wants replayed); the partition is
  // recomputed from it deterministically.
  static Result<std::unique_ptr<ShardedCodService>> Recover(
      const ServiceOptions& options, Graph cold_graph,
      AttributeTable cold_attrs);

  ~ShardedCodService() override = default;

  // ---- CodServiceInterface ----

  // Same-shard edges delegate to the owning engine. An edge whose
  // endpoints live on DIFFERENT shards is rejected (returns false and
  // counts cod_shard_cross_edge_rejected_total): the partition is fixed at
  // construction, and silently dropping the edge into one shard would
  // break the component-scoped answer contract. Re-shard by rebuilding the
  // service to admit such edges.
  bool AddEdge(NodeId u, NodeId v, double weight = 1.0) override;
  bool RemoveEdge(NodeId u, NodeId v) override;

  size_t pending_updates() const override;  // sum over shards
  uint64_t epoch() const override;          // MIN over shards (freshness floor)
  bool epoch_degraded() const override;     // any shard degraded
  size_t NumEdges() const override;         // sum over shards
  RebuildStats rebuild_stats() const override;  // field-wise sum
  bool RefreshDue() const override;             // any shard due

  // Refreshes EVERY shard, continuing past failures (a failed shard keeps
  // serving its last good epoch); returns the first error encountered.
  Status Refresh() override;
  // Schedules a rebuild on every shard that does not already have one in
  // flight; true if any was scheduled.
  bool RefreshAsync() override;
  void WaitForRebuild() override;

  // Routed to the shard that owns spec.node's component (an out-of-range
  // node goes to shard 0, whose core refuses it).
  CodResult Query(const QuerySpec& spec, Rng& rng) override;

  // The scatter/gather path: snapshots one epoch per shard, routes specs
  // by the partition (out-of-range nodes to shard 0, as in Query), and
  // runs RunShardedQueryBatch (determinism and
  // degradation contract documented there and above).
  using CodServiceInterface::QueryBatch;
  std::vector<CodResult> QueryBatch(std::span<const QuerySpec> specs,
                                    TaskScheduler& scheduler,
                                    uint64_t batch_seed,
                                    const BatchOptions& options,
                                    BatchStats* stats) const override;

  // ---- Sharded-only surface (introspection / test hooks) ----
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  const GraphPartition& partition() const { return partition_; }
  uint32_t ShardOf(NodeId v) const { return partition_.shard_of_node[v]; }
  DynamicCodService& shard(uint32_t s) { return *shards_[s]; }
  const DynamicCodService& shard(uint32_t s) const { return *shards_[s]; }

  // The per-shard options `shard` runs with: component_scoped forced on,
  // snapshot_dir rebased to "<base>/shard-%04u". Exposed so recovery tests
  // can write/damage exactly what the service would read.
  static ServiceOptions ShardOptions(const ServiceOptions& base,
                                     uint32_t shard);
  // The "shard-%04u" subdirectory name for `shard` ("" when `base` is "").
  static std::string ShardSnapshotDir(const std::string& base,
                                      uint32_t shard);

 private:
  // ShardOf for a query node; out-of-range nodes route to shard 0 (every
  // shard core spans the full node id space and refuses them alike).
  uint32_t QueryShardOf(NodeId v) const {
    return v < partition_.shard_of_node.size() ? ShardOf(v) : 0;
  }

  ShardedCodService(std::shared_ptr<const AttributeTable> attrs,
                    const ServiceOptions& options, GraphPartition partition,
                    std::vector<std::unique_ptr<DynamicCodService>> shards);

  std::shared_ptr<const AttributeTable> attrs_;
  ServiceOptions options_;
  GraphPartition partition_;
  std::vector<std::unique_ptr<DynamicCodService>> shards_;
};

}  // namespace cod

#endif  // COD_SERVING_SHARDED_SERVICE_H_
