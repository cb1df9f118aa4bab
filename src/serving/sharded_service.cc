#include "serving/sharded_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/metrics.h"

namespace cod {
namespace {

Counter& CrossEdgeRejected() {
  static Counter* counter = MetricsRegistry::Instance().GetCounter(
      "cod_shard_cross_edge_rejected_total");
  return *counter;
}

}  // namespace

std::string ShardedCodService::ShardSnapshotDir(const std::string& base,
                                                uint32_t shard) {
  if (base.empty()) return "";
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "shard-%04u", shard);
  return base + "/" + suffix;
}

ServiceOptions ShardedCodService::ShardOptions(const ServiceOptions& base,
                                               uint32_t shard) {
  ServiceOptions opts = base;
  // Component scoping is what detaches a query's answer from the shard
  // layout; the fingerprint keeps the SHARDED layout (num_shards,
  // partitioner), so every shard's snapshots carry the same fingerprint
  // and a mono snapshot can never warm-restore into a shard.
  opts.engine.component_scoped = true;
  opts.snapshot_dir = ShardSnapshotDir(base.snapshot_dir, shard);
  return opts;
}

ShardedCodService::ShardedCodService(
    std::shared_ptr<const AttributeTable> attrs, const ServiceOptions& options,
    GraphPartition partition,
    std::vector<std::unique_ptr<DynamicCodService>> shards)
    : attrs_(std::move(attrs)),
      options_(options),
      partition_(std::move(partition)),
      shards_(std::move(shards)) {
  COD_CHECK_EQ(shards_.size(), partition_.num_shards);
}

ShardedCodService::ShardedCodService(Graph initial_graph, AttributeTable attrs,
                                     const ServiceOptions& options)
    : ShardedCodService(
          std::make_shared<const AttributeTable>(std::move(attrs)), options,
          GraphPartition{}, {}) {
  COD_CHECK(options_.Validate().ok());
  COD_CHECK_EQ(initial_graph.NumNodes(), attrs_->NumNodes());
  partition_ = PartitionGraph(initial_graph, *attrs_, options_.num_shards,
                              options_.partitioner);
  shards_.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<DynamicCodService>(
        BuildShardGraph(initial_graph, partition_, s), attrs_,
        ShardOptions(options_, s)));
  }
}

Result<std::unique_ptr<ShardedCodService>> ShardedCodService::Recover(
    const ServiceOptions& options, Graph cold_graph,
    AttributeTable cold_attrs) {
  COD_RETURN_IF_ERROR(options.Validate());
  COD_CHECK(!options.snapshot_dir.empty());
  auto attrs = std::make_shared<const AttributeTable>(std::move(cold_attrs));
  COD_CHECK_EQ(cold_graph.NumNodes(), attrs->NumNodes());
  GraphPartition partition = PartitionGraph(
      cold_graph, *attrs, options.num_shards, options.partitioner);
  std::vector<std::unique_ptr<DynamicCodService>> shards;
  shards.reserve(options.num_shards);
  for (uint32_t s = 0; s < options.num_shards; ++s) {
    const ServiceOptions shard_opts = ShardOptions(options, s);
    Result<std::unique_ptr<DynamicCodService>> recovered =
        DynamicCodService::Recover(shard_opts);
    if (recovered.ok()) {
      shards.push_back(std::move(recovered).value());
      continue;
    }
    if (recovered.status().code() == StatusCode::kNotFound) {
      // This shard has no usable snapshot (never written, or every file
      // quarantined as corrupt): cold-rebuild JUST this shard from its
      // partition slice. The others keep their warm epochs — per-shard
      // epoch streams make the mixed restart consistent.
      shards.push_back(std::make_unique<DynamicCodService>(
          BuildShardGraph(cold_graph, partition, s), attrs, shard_opts));
      continue;
    }
    // Fingerprint mismatch or an I/O failure: refuse the whole recovery —
    // the snapshots on disk do not belong to this configuration.
    return recovered.status();
  }
  return std::unique_ptr<ShardedCodService>(new ShardedCodService(
      std::move(attrs), options, std::move(partition), std::move(shards)));
}

bool ShardedCodService::AddEdge(NodeId u, NodeId v, double weight) {
  const size_t n = partition_.shard_of_node.size();
  if (u >= n || v >= n || u == v) return false;
  // Checked here too so a bad weight is never counted as a cross edge.
  if (!std::isfinite(weight) || weight < 0.0) return false;
  if (ShardOf(u) != ShardOf(v)) {
    CrossEdgeRejected().Increment();
    return false;
  }
  return shards_[ShardOf(u)]->AddEdge(u, v, weight);
}

bool ShardedCodService::RemoveEdge(NodeId u, NodeId v) {
  const size_t n = partition_.shard_of_node.size();
  if (u >= n || v >= n) return false;
  // A cross-shard edge can never have been admitted, so there is nothing
  // to remove.
  if (ShardOf(u) != ShardOf(v)) return false;
  return shards_[ShardOf(u)]->RemoveEdge(u, v);
}

size_t ShardedCodService::pending_updates() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->pending_updates();
  return total;
}

uint64_t ShardedCodService::epoch() const {
  // The merged epoch is the freshness FLOOR across shards — but only across
  // shards that own nodes. When the graph has fewer components than shards,
  // the surplus shards are structurally empty: no update can ever route to
  // them, their epoch stays pinned at its initial value forever, and
  // including them would cap the reported epoch of the whole service at
  // that constant no matter how many rebuilds the real shards publish.
  uint64_t min_epoch = 0;
  bool any = false;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (partition_.shard_nodes[s] == 0) continue;
    const uint64_t e = shards_[s]->epoch();
    min_epoch = any ? std::min(min_epoch, e) : e;
    any = true;
  }
  // All shards empty only for a node-less partition; report shard 0 rather
  // than inventing an epoch.
  return any ? min_epoch : shards_.front()->epoch();
}

bool ShardedCodService::epoch_degraded() const {
  for (const auto& shard : shards_) {
    if (shard->epoch_degraded()) return true;
  }
  return false;
}

size_t ShardedCodService::NumEdges() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->NumEdges();
  return total;
}

RebuildStats ShardedCodService::rebuild_stats() const {
  RebuildStats total;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    // Structurally empty shards (see epoch()) never rebuild after their
    // construction-time epoch; folding that constant baseline into the
    // aggregates would skew per-shard staleness ratios derived from them.
    if (partition_.shard_nodes[i] == 0) continue;
    const RebuildStats s = shards_[i]->rebuild_stats();
    total.attempts += s.attempts;
    total.failures += s.failures;
    total.retries += s.retries;
    total.published += s.published;
    total.published_degraded += s.published_degraded;
    if (!s.last_error.ok()) total.last_error = s.last_error;
  }
  return total;
}

bool ShardedCodService::RefreshDue() const {
  for (const auto& shard : shards_) {
    if (shard->RefreshDue()) return true;
  }
  return false;
}

Status ShardedCodService::Refresh() {
  // Every shard gets its refresh even after one fails — a failed shard
  // keeps serving its last good epoch, and partial freshness beats none.
  Status first_error;
  for (const auto& shard : shards_) {
    const Status s = shard->Refresh();
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

bool ShardedCodService::RefreshAsync() {
  bool any = false;
  for (const auto& shard : shards_) any = shard->RefreshAsync() || any;
  return any;
}

void ShardedCodService::WaitForRebuild() {
  for (const auto& shard : shards_) shard->WaitForRebuild();
}

CodResult ShardedCodService::Query(const QuerySpec& spec, Rng& rng) {
  return shards_[QueryShardOf(spec.node)]->Query(spec, rng);
}

std::vector<CodResult> ShardedCodService::QueryBatch(
    std::span<const QuerySpec> specs, TaskScheduler& scheduler,
    uint64_t batch_seed, const BatchOptions& options,
    BatchStats* stats) const {
  // One epoch snapshot per shard, all taken up front: the whole batch is
  // answered from one consistent layout-wide cut, and the shared_ptrs keep
  // every epoch alive however long the fan-out runs.
  std::vector<DynamicCodService::EpochSnapshot> epochs;
  epochs.reserve(shards_.size());
  std::vector<ShardBatchInput> inputs(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    epochs.push_back(shards_[s]->Snapshot());
    inputs[s].core = epochs.back().core.get();
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    inputs[QueryShardOf(specs[i].node)].indices.push_back(i);
  }
  return RunShardedQueryBatch(inputs, specs, scheduler, batch_seed, options,
                              stats);
}

}  // namespace cod
