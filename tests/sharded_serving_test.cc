// Sharded serving tier (src/serving/): component-atomic partitioning, the
// deterministic scatter/gather router, shard-aware degradation, and the
// per-shard snapshot layout behind ShardedCodService::Recover.
//
// The flagship assertions are the ISSUE's acceptance criteria:
//   * merged QueryBatch answers are BIT-IDENTICAL across 1/2/4 shards and
//     across worker counts (on a synthetic multi-component world and on
//     cora-sim, the CI-pinned dataset);
//   * a failpoint-stalled rebuild on shard 0 never blocks shard 1's
//     queries;
//   * a shard-wide deadline miss ("serving/shard_deadline") degrades that
//     shard's slice deterministically instead of erroring the batch;
//   * Recover() cold-rebuilds a shard whose snapshots are missing or
//     corrupt while warm-restoring the others.
//
// CI runs this binary once per shard count (COD_SHARD_COUNT=1/2/4); when
// the variable is set the cross-layout suites compare that layout against
// the 1-shard baseline, otherwise they sweep all three in-process.

#include "serving/sharded_service.h"

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "serving/partition.h"
#include "serving/service_interface.h"
#include "tests/test_util.h"

namespace cod {
namespace {

namespace fs = std::filesystem;

struct World {
  Graph graph;
  AttributeTable attrs;
};

// `parts` disjoint HPP blocks glued into one graph: every part is (at
// least) one connected component of its own, so a component-atomic
// partition has real spreading to do.
World MakeMultiWorld(uint64_t seed, size_t parts) {
  constexpr size_t kNodesPerPart = 60;
  constexpr size_t kEdgesPerPart = 220;
  Rng rng(seed);
  GraphBuilder gb(parts * kNodesPerPart);
  std::vector<uint32_t> block(parts * kNodesPerPart, 0);
  uint32_t next_block = 0;
  for (size_t p = 0; p < parts; ++p) {
    HppParams params;
    params.num_nodes = kNodesPerPart;
    params.num_edges = kEdgesPerPart;
    params.levels = 2;
    params.fanout = 3;
    GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
    const NodeId base = static_cast<NodeId>(p * kNodesPerPart);
    for (EdgeId e = 0; e < gen.graph.NumEdges(); ++e) {
      const auto [u, v] = gen.graph.Endpoints(e);
      gb.AddEdge(base + u, base + v, gen.graph.Weight(e));
    }
    for (size_t v = 0; v < kNodesPerPart; ++v) {
      block[base + v] = next_block + gen.block[v];
    }
    next_block += gen.num_blocks;
  }
  World w;
  w.graph = std::move(gb).Build();
  w.attrs = AssignCorrelatedAttributes(block, 5, 0.8, 0.1, rng);
  return w;
}

ServiceOptions BaseOptions(uint32_t num_shards) {
  ServiceOptions options;
  options.rebuild_threshold = 0.5;
  options.seed = 7;
  options.num_shards = num_shards;
  // The 1-shard baseline must answer from the same component-scoped world
  // the shard engines are forced into, or the comparison is meaningless.
  options.engine.component_scoped = true;
  return options;
}

// A mixed CODL/CODU workload over the attributed nodes.
std::vector<QuerySpec> MakeSpecs(const AttributeTable& attrs, size_t count,
                                 uint64_t seed) {
  Rng rng(seed);
  const std::vector<Query> queries = GenerateQueries(attrs, count, rng);
  std::vector<QuerySpec> specs;
  specs.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    QuerySpec spec;
    spec.node = queries[i].node;
    if (i % 3 == 2) {
      spec.variant = CodVariant::kCodU;
    } else {
      spec.variant = CodVariant::kCodL;
      spec.attrs = {queries[i].attribute};
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

void ExpectSameResults(const std::vector<CodResult>& a,
                       const std::vector<CodResult>& b,
                       const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(testing::SameResult(a[i], b[i]))
        << label << ": query " << i << " diverged";
  }
}

// Shard counts the cross-layout suites sweep. CI's matrix sets
// COD_SHARD_COUNT so each job pins one layout against the baseline.
std::vector<uint32_t> ShardCountsUnderTest() {
  if (const char* env = std::getenv("COD_SHARD_COUNT")) {
    const uint32_t n = static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
    if (n > 1) return {1, n};
    return {1};
  }
  return {1, 2, 4};
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sharded_serving-" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Partitioning.
// ---------------------------------------------------------------------------

TEST(PartitionTest, NeverSplitsAComponent) {
  World w = MakeMultiWorld(1, 4);
  const Components comps = ConnectedComponents(w.graph);
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kConnectedComponents,
        PartitionStrategy::kAttributeLocality}) {
    const GraphPartition part =
        PartitionGraph(w.graph, w.attrs, 3, strategy);
    ASSERT_EQ(part.shard_of_node.size(), w.graph.NumNodes());
    ASSERT_EQ(part.num_shards, 3u);
    // Same component => same shard (checking labels covers every edge).
    std::vector<uint32_t> shard_of_comp(comps.count, kInvalidNode);
    for (NodeId v = 0; v < w.graph.NumNodes(); ++v) {
      uint32_t& expected = shard_of_comp[comps.label[v]];
      if (expected == kInvalidNode) expected = part.shard_of_node[v];
      EXPECT_EQ(part.shard_of_node[v], expected)
          << "component " << comps.label[v] << " split at node " << v;
    }
  }
}

TEST(PartitionTest, ShardGraphsTileTheEdgeSet) {
  World w = MakeMultiWorld(2, 3);
  const GraphPartition part = PartitionGraph(
      w.graph, w.attrs, 2, PartitionStrategy::kConnectedComponents);
  size_t total_edges = 0;
  for (uint32_t s = 0; s < 2; ++s) {
    const Graph shard = BuildShardGraph(w.graph, part, s);
    EXPECT_EQ(shard.NumNodes(), w.graph.NumNodes());  // full node space
    for (EdgeId e = 0; e < shard.NumEdges(); ++e) {
      const auto [u, v] = shard.Endpoints(e);
      EXPECT_EQ(part.shard_of_node[u], s);
      EXPECT_EQ(part.shard_of_node[v], s);
    }
    total_edges += shard.NumEdges();
  }
  EXPECT_EQ(total_edges, w.graph.NumEdges());
  EXPECT_GT(BuildShardGraph(w.graph, part, 0).NumEdges(), 0u);
  EXPECT_GT(BuildShardGraph(w.graph, part, 1).NumEdges(), 0u);
}

TEST(PartitionTest, SingleComponentLeavesExtraShardsEmpty) {
  // One clique = one component: with 4 shards, three must be empty, and
  // the service must still serve every query.
  Graph g = testing::MakeClique(8);
  AttributeTableBuilder ab;
  for (NodeId v = 0; v < 8; ++v) ab.Add(v, "X");
  AttributeTable attrs = std::move(ab).Build(8);
  const GraphPartition part = PartitionGraph(
      g, attrs, 4, PartitionStrategy::kConnectedComponents);
  const uint32_t home = part.shard_of_node[0];
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(part.shard_of_node[v], home);

  ShardedCodService service(std::move(g), std::move(attrs), BaseOptions(4));
  EXPECT_EQ(service.num_shards(), 4u);
  Rng rng(3);
  EXPECT_TRUE(service.Query(
      {.variant = CodVariant::kCodL, .node = 0, .k = 3, .attrs = {0}},
      rng).found);
}

// ---------------------------------------------------------------------------
// Determinism across layouts and worker counts (the flagship contract).
// ---------------------------------------------------------------------------

TEST(ShardedDeterminismTest, BatchBitIdenticalAcrossShardAndWorkerCounts) {
  World base = MakeMultiWorld(10, 4);
  const std::vector<QuerySpec> specs = MakeSpecs(base.attrs, 40, 99);
  constexpr uint64_t kBatchSeed = 1234;

  std::vector<CodResult> reference;
  for (const uint32_t num_shards : ShardCountsUnderTest()) {
    World w = MakeMultiWorld(10, 4);  // same seed => same world
    const std::unique_ptr<CodServiceInterface> service = MakeCodService(
        std::move(w.graph), std::move(w.attrs), BaseOptions(num_shards));
    for (const uint32_t workers : {1u, 4u}) {
      TaskScheduler scheduler(workers);
      BatchStats stats;
      const std::vector<CodResult> got = service->QueryBatch(
          specs, scheduler, kBatchSeed, BatchOptions{}, &stats);
      EXPECT_EQ(stats.Served(), specs.size());
      EXPECT_EQ(stats.shard_missed, 0u);
      if (reference.empty()) {
        reference = got;
        ASSERT_EQ(reference.size(), specs.size());
        continue;
      }
      ExpectSameResults(got, reference,
                        "shards=" + std::to_string(num_shards) +
                            " workers=" + std::to_string(workers));
    }
  }
  // The workload must actually find communities for the comparison to
  // mean anything.
  size_t found = 0;
  for (const CodResult& r : reference) found += r.found;
  EXPECT_GT(found, specs.size() / 2);
}

TEST(ShardedDeterminismTest, BatchBitIdenticalOnCoraSim) {
  const std::vector<QuerySpec>* specs_ptr = nullptr;
  std::vector<QuerySpec> specs;
  std::vector<CodResult> reference;
  for (const uint32_t num_shards : ShardCountsUnderTest()) {
    Result<AttributedGraph> data = MakeDataset("cora-sim");
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    if (specs_ptr == nullptr) {
      specs = MakeSpecs(data->attributes, 32, 5);
      specs_ptr = &specs;
    }
    const std::unique_ptr<CodServiceInterface> service =
        MakeCodService(std::move(data->graph), std::move(data->attributes),
                       BaseOptions(num_shards));
    TaskScheduler scheduler(4);
    const std::vector<CodResult> got =
        service->QueryBatch(*specs_ptr, scheduler, /*batch_seed=*/77);
    if (reference.empty()) {
      reference = got;
      continue;
    }
    ExpectSameResults(got, reference,
                      "cora-sim shards=" + std::to_string(num_shards));
  }
}

TEST(ShardedDeterminismTest, AttributeLocalityLayoutAnswersIdentically) {
  // The partitioner decides WHERE a query runs, never WHAT it answers:
  // both strategies must merge to the same vector.
  const std::vector<QuerySpec> specs =
      MakeSpecs(MakeMultiWorld(11, 3).attrs, 24, 42);
  std::vector<CodResult> reference;
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kConnectedComponents,
        PartitionStrategy::kAttributeLocality}) {
    World w = MakeMultiWorld(11, 3);
    ServiceOptions options = BaseOptions(2);
    options.partitioner = strategy;
    const std::unique_ptr<CodServiceInterface> service =
        MakeCodService(std::move(w.graph), std::move(w.attrs), options);
    TaskScheduler scheduler(3);
    const std::vector<CodResult> got =
        service->QueryBatch(specs, scheduler, /*batch_seed=*/7);
    if (reference.empty()) {
      reference = got;
      continue;
    }
    ExpectSameResults(got, reference, "attribute-locality layout");
  }
}

// ---------------------------------------------------------------------------
// Shard isolation: one shard's rebuild trouble is not another's latency.
// ---------------------------------------------------------------------------

TEST(ShardIsolationTest, StalledRebuildOnOneShardNeverBlocksAnother) {
  World w = MakeMultiWorld(20, 2);
  ServiceOptions options = BaseOptions(2);
  options.rebuild_threshold = 0.01;
  options.async_rebuild = true;
  options.max_rebuild_retries = 3;
  options.rebuild_backoff_initial_ms = 20;
  options.rebuild_backoff_max_ms = 40;
  TaskScheduler scheduler(2);
  options.scheduler = &scheduler;
  ShardedCodService service(std::move(w.graph), std::move(w.attrs), options);

  // Pick one node per shard for targeted updates / probes.
  NodeId on_shard0 = kInvalidNode, on_shard1 = kInvalidNode;
  for (NodeId v = 0; v < service.partition().shard_of_node.size(); ++v) {
    if (service.ShardOf(v) == 0 && on_shard0 == kInvalidNode) on_shard0 = v;
    if (service.ShardOf(v) == 1 && on_shard1 == kInvalidNode) on_shard1 = v;
  }
  ASSERT_NE(on_shard0, kInvalidNode);
  ASSERT_NE(on_shard1, kInvalidNode);

  const World probe_world = MakeMultiWorld(20, 2);
  const std::vector<QuerySpec> all_specs = MakeSpecs(probe_world.attrs, 24, 8);
  std::vector<QuerySpec> shard1_specs;
  for (const QuerySpec& s : all_specs) {
    if (service.ShardOf(s.node) == 1) shard1_specs.push_back(s);
  }
  ASSERT_FALSE(shard1_specs.empty());

  {
    // Every rebuild attempt on ANY engine now fails; only shard 0 will
    // attempt one, and it stays stalled in its retry/backoff loop for the
    // whole scope.
    ScopedFailpoint stall("dynamic_service/rebuild", /*count=*/-1);
    // Drift shard 0 over its threshold and kick ITS engine only into the
    // (doomed) async rebuild; shard 1 has no drift and schedules nothing.
    for (int i = 0; i < 8; ++i) {
      service.AddEdge(on_shard0, static_cast<NodeId>(on_shard0 + 1 + i));
      service.RemoveEdge(on_shard0, static_cast<NodeId>(on_shard0 + 1 + i));
    }
    ASSERT_TRUE(service.shard(0).RefreshDue());
    ASSERT_TRUE(service.shard(0).RefreshAsync());

    // Shard 1 must answer at full service while shard 0 is down: same
    // epoch, no degradation, batch completes without waiting on shard 0's
    // retries (a stall would hang this call past the retry budget — the
    // real latency assertion is that this returns at all, which TSAN's
    // scheduling jitter cannot fake).
    BatchStats stats;
    const std::vector<CodResult> got = service.QueryBatch(
        shard1_specs, scheduler, /*batch_seed=*/3, BatchOptions{}, &stats);
    EXPECT_EQ(stats.Served(), shard1_specs.size());
    EXPECT_EQ(stats.shard_missed, 0u);
    EXPECT_EQ(stats.degraded, 0u);
    EXPECT_EQ(service.shard(1).epoch(), 1u);
    // Shard 1's only build is its initial epoch — it never joined the
    // doomed rebuild.
    EXPECT_EQ(service.shard(1).rebuild_stats().attempts, 1u);
    EXPECT_EQ(service.shard(0).epoch(), 1u);
    service.WaitForRebuild();  // drain the doomed retries before disarming
    EXPECT_GT(Failpoints::Instance().TriggerCount("dynamic_service/rebuild"),
              0u);
    EXPECT_GT(service.rebuild_stats().failures, 0u);
  }

  // Disarmed: the stalled shard recovers on the next refresh; shard 1's
  // epoch stream never moved.
  ASSERT_TRUE(service.shard(0).Refresh().ok());
  EXPECT_GE(service.shard(0).epoch(), 2u);
  EXPECT_EQ(service.shard(1).epoch(), 1u);
  EXPECT_EQ(service.epoch(), 1u);  // MIN over shards: the freshness floor
}

// ---------------------------------------------------------------------------
// Shard-aware degradation: a missed deadline is an answer, not an error.
// ---------------------------------------------------------------------------

TEST(ShardDegradationTest, DeadlineMissedShardDegradesDeterministically) {
  World w = MakeMultiWorld(30, 3);
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            BaseOptions(2));
  const World probe_world = MakeMultiWorld(30, 3);
  const std::vector<QuerySpec> specs = MakeSpecs(probe_world.attrs, 30, 17);
  size_t on_shard0 = 0;
  for (const QuerySpec& s : specs) on_shard0 += service.ShardOf(s.node) == 0;
  ASSERT_GT(on_shard0, 0u);
  ASSERT_LT(on_shard0, specs.size());
  TaskScheduler scheduler(3);

  const std::vector<CodResult> healthy =
      service.QueryBatch(specs, scheduler, /*batch_seed=*/55);

  auto run_degraded = [&](BatchStats* stats) {
    // Polled once per shard in ascending order before submission: count=1
    // deterministically fails exactly shard 0.
    ScopedFailpoint miss("serving/shard_deadline", /*count=*/1);
    return service.QueryBatch(specs, scheduler, /*batch_seed=*/55,
                              BatchOptions{}, stats);
  };
  BatchStats stats;
  const std::vector<CodResult> first = run_degraded(&stats);
  EXPECT_EQ(stats.shard_missed, on_shard0);
  // Outcomes partition: the missed shard's queries live ONLY in
  // shard_missed; the rest are real answers. Nothing errored.
  EXPECT_EQ(stats.Served(), specs.size() - on_shard0);
  EXPECT_EQ(stats.Served() + stats.shard_missed + stats.timeout +
                stats.cancelled,
            specs.size());
  EXPECT_EQ(stats.timeout, 0u);
  EXPECT_EQ(stats.cancelled, 0u);

  for (size_t i = 0; i < specs.size(); ++i) {
    if (service.ShardOf(specs[i].node) == 0) {
      // The missed shard's slice: degraded non-answers.
      EXPECT_EQ(first[i].code, StatusCode::kOk);
      EXPECT_FALSE(first[i].found);
      EXPECT_TRUE(first[i].degraded);
    } else {
      // The healthy shards' answers are untouched by the miss.
      EXPECT_TRUE(testing::SameResult(first[i], healthy[i]))
          << "healthy-shard query " << i << " changed under a shard miss";
    }
  }

  // Re-arming reproduces the exact same degraded batch.
  BatchStats stats2;
  const std::vector<CodResult> second = run_degraded(&stats2);
  EXPECT_EQ(stats2.shard_missed, stats.shard_missed);
  ExpectSameResults(second, first, "repeated shard-deadline miss");
}

// ---------------------------------------------------------------------------
// Cross-shard updates.
// ---------------------------------------------------------------------------

// The mono and sharded batch runners share one chunk body, so a sharded
// batch observes its chunks' queue wait like a mono one does.
TEST(ShardedBatchTest, QueueToStartHistogramSeesShardedChunks) {
  World w = MakeMultiWorld(41, 2);
  const std::vector<QuerySpec> specs = MakeSpecs(w.attrs, 8, 42);
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            BaseOptions(2));
  Histogram* queue_wait = MetricsRegistry::Instance().GetHistogram(
      "cod_batch_queue_to_start_seconds");
  const uint64_t before = queue_wait->Count();
  TaskScheduler scheduler(2);
  const std::vector<CodResult> results = service.QueryBatch(
      specs, scheduler, /*batch_seed=*/1, BatchOptions{}, nullptr);
  ASSERT_EQ(results.size(), specs.size());
  EXPECT_GT(queue_wait->Count(), before);
}

TEST(ShardedUpdateTest, CrossShardEdgeIsRejectedAndCounted) {
  World w = MakeMultiWorld(40, 2);
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            BaseOptions(2));
  NodeId a = kInvalidNode, b = kInvalidNode;
  for (NodeId v = 0; v < service.partition().shard_of_node.size(); ++v) {
    if (service.ShardOf(v) == 0 && a == kInvalidNode) a = v;
    if (service.ShardOf(v) == 1 && b == kInvalidNode) b = v;
  }
  ASSERT_NE(a, kInvalidNode);
  ASSERT_NE(b, kInvalidNode);

  Counter* rejected = MetricsRegistry::Instance().GetCounter(
      "cod_shard_cross_edge_rejected_total");
  const uint64_t before = rejected->Value();
  EXPECT_FALSE(service.AddEdge(a, b));
  EXPECT_EQ(rejected->Value(), before + 1);
  EXPECT_FALSE(service.RemoveEdge(a, b));  // can never have been admitted
  EXPECT_EQ(service.pending_updates(), 0u);

  // Same-shard updates still flow to the owning engine.
  const NodeId a2 = [&] {
    for (NodeId v = a + 1; v < service.partition().shard_of_node.size(); ++v) {
      if (service.ShardOf(v) == 0) return v;
    }
    return kInvalidNode;
  }();
  ASSERT_NE(a2, kInvalidNode);
  EXPECT_TRUE(service.AddEdge(a, a2, 2.0) || service.RemoveEdge(a, a2));
  EXPECT_EQ(service.pending_updates(), 1u);
}

// Bad update input is refused with false on the mono (1 shard) and the
// sharded service alike: nothing is queued, nothing aborts, and the next
// refresh publishes the unchanged edge set.
class UpdateBoundaryTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    World w = MakeMultiWorld(41, 2);
    num_nodes_ = w.graph.NumNodes();
    service_ = MakeCodService(std::move(w.graph), std::move(w.attrs),
                              BaseOptions(GetParam()));
    edges_ = service_->NumEdges();
  }

  void ExpectNothingApplied() {
    EXPECT_EQ(service_->pending_updates(), 0u);
    ASSERT_TRUE(service_->Refresh().ok());
    EXPECT_EQ(service_->NumEdges(), edges_);
  }

  size_t num_nodes_ = 0;
  size_t edges_ = 0;
  std::unique_ptr<CodServiceInterface> service_;
};

TEST_P(UpdateBoundaryTest, AddEdgeRefusesOutOfRangeNode) {
  const NodeId n = static_cast<NodeId>(num_nodes_);
  EXPECT_FALSE(service_->AddEdge(n, 0));
  EXPECT_FALSE(service_->AddEdge(0, n));
  EXPECT_FALSE(service_->AddEdge(kInvalidNode, kInvalidNode));
  ExpectNothingApplied();
}

TEST_P(UpdateBoundaryTest, RemoveEdgeRefusesOutOfRangeNode) {
  const NodeId n = static_cast<NodeId>(num_nodes_);
  EXPECT_FALSE(service_->RemoveEdge(n, 0));
  EXPECT_FALSE(service_->RemoveEdge(0, n));
  EXPECT_FALSE(service_->RemoveEdge(kInvalidNode, 1));
  ExpectNothingApplied();
}

TEST_P(UpdateBoundaryTest, AddEdgeRefusesNanWeight) {
  EXPECT_FALSE(service_->AddEdge(0, 1, std::nan("")));
  ExpectNothingApplied();
}

TEST_P(UpdateBoundaryTest, AddEdgeRefusesInfiniteWeight) {
  EXPECT_FALSE(
      service_->AddEdge(0, 1, std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(
      service_->AddEdge(0, 1, -std::numeric_limits<double>::infinity()));
  ExpectNothingApplied();
}

TEST_P(UpdateBoundaryTest, AddEdgeRefusesNegativeWeight) {
  EXPECT_FALSE(service_->AddEdge(0, 1, -0.5));
  ExpectNothingApplied();
  // A valid weight on the same pair is still admitted.
  EXPECT_TRUE(service_->AddEdge(0, 1, 0.5));
  EXPECT_EQ(service_->pending_updates(), 1u);
}

// Query boundary: bad specs come back kInvalidArgument (no crash, no RNG
// draw) through both the single-query and the batch entry points.
constexpr CodVariant kAllExactVariants[] = {
    CodVariant::kCodU, CodVariant::kCodR, CodVariant::kCodLMinus,
    CodVariant::kCodL, CodVariant::kCodUIndexed};

void ExpectRefused(const CodResult& r, CodVariant variant) {
  EXPECT_EQ(r.code, StatusCode::kInvalidArgument)
      << "variant " << CodVariantName(variant);
  EXPECT_FALSE(r.found);
  EXPECT_TRUE(r.members.empty());
  EXPECT_EQ(r.ladder_rung, 0);
}

TEST_P(UpdateBoundaryTest, QueryRefusesOutOfRangeNode) {
  for (const NodeId node : {static_cast<NodeId>(num_nodes_), kInvalidNode}) {
    for (const CodVariant variant : kAllExactVariants) {
      Rng rng(5);
      ExpectRefused(
          service_->Query({.variant = variant, .node = node, .attrs = {0}},
                          rng),
          variant);
      EXPECT_EQ(rng.Next(), Rng(5).Next()) << "a refused query drew randomness";
    }
  }
}

TEST_P(UpdateBoundaryTest, QueryRefusesKAboveIndexRank) {
  const uint32_t max_rank = BaseOptions(1).engine.himor_max_rank;
  for (const CodVariant variant :
       {CodVariant::kCodL, CodVariant::kCodUIndexed}) {
    Rng rng(6);
    ExpectRefused(service_->Query({.variant = variant,
                                   .node = 0,
                                   .k = max_rank + 1,
                                   .attrs = {0}},
                                  rng),
                  variant);
    EXPECT_EQ(
        service_
            ->Query({.variant = variant, .node = 0, .k = max_rank,
                     .attrs = {0}},
                    rng)
            .code,
        StatusCode::kOk);
  }
  // Sampled variants have no rank cap; k == 0 is the engine default, and
  // an attribute id nobody holds is a valid (attribute-blind) query.
  Rng rng(7);
  EXPECT_EQ(service_->Query({.variant = CodVariant::kCodU, .node = 0,
                             .k = max_rank + 1},
                            rng)
                .code,
            StatusCode::kOk);
  EXPECT_EQ(service_->Query({.variant = CodVariant::kCodL, .node = 0,
                             .k = 0, .attrs = {0}},
                            rng)
                .code,
            StatusCode::kOk);
  for (const CodVariant variant : {CodVariant::kCodR, CodVariant::kCodLMinus,
                                   CodVariant::kCodL}) {
    EXPECT_EQ(
        service_->Query({.variant = variant, .node = 0, .attrs = {1u << 30}},
                        rng)
            .code,
        StatusCode::kOk)
        << "variant " << CodVariantName(variant);
  }
}

TEST_P(UpdateBoundaryTest, QueryBatchRefusesBadSpecsAndServesTheRest) {
  const uint32_t max_rank = BaseOptions(1).engine.himor_max_rank;
  const NodeId n = static_cast<NodeId>(num_nodes_);
  const std::vector<QuerySpec> good = {
      {.variant = CodVariant::kCodL, .node = 0, .attrs = {0}},
      {.variant = CodVariant::kCodU, .node = 1},
      {.variant = CodVariant::kCodUIndexed, .node = 2},
      {.variant = CodVariant::kCodLMinus, .node = 3, .attrs = {1}},
      {.variant = CodVariant::kCodL, .node = 4, .attrs = {1}}};
  std::vector<QuerySpec> mixed = good;
  mixed[1].node = n;             // out-of-range node
  mixed[2].k = max_rank + 1;     // indexed CODU past the index
  mixed[4].k = max_rank + 1;     // CODL past the index
  TaskScheduler scheduler(2);
  // A budget no rung can meet: valid specs walk the ladder, refused ones
  // must not.
  BatchOptions hopeless;
  hopeless.default_budget_seconds = 1e-12;
  for (const BatchOptions& options : {BatchOptions{}, hopeless}) {
    BatchStats stats;
    const std::vector<CodResult> got = service_->QueryBatch(
        mixed, scheduler, /*batch_seed=*/9, options, &stats);
    const std::vector<CodResult> want = service_->QueryBatch(
        good, scheduler, /*batch_seed=*/9, options, nullptr);
    ASSERT_EQ(got.size(), mixed.size());
    for (const size_t i : {size_t{1}, size_t{2}, size_t{4}}) {
      ExpectRefused(got[i], mixed[i].variant);
    }
    // Refused specs do not disturb the rest of the batch.
    for (const size_t i : {size_t{0}, size_t{3}}) {
      EXPECT_TRUE(testing::SameResult(got[i], want[i])) << "spec " << i;
    }
    EXPECT_EQ(stats.invalid_argument, 3u);
    EXPECT_EQ(stats.served_ok + stats.degraded + stats.timeout +
                  stats.cancelled + stats.invalid_argument +
                  stats.shard_missed,
              mixed.size());
  }
}

INSTANTIATE_TEST_SUITE_P(MonoAndSharded, UpdateBoundaryTest,
                         ::testing::Values(1u, 2u));

// ---------------------------------------------------------------------------
// Per-shard durability: Recover() under a partially damaged layout.
// ---------------------------------------------------------------------------

// Builds a 2-shard service over `dir`, runs one refresh on each shard's
// world, and returns a probe answered before shutdown for comparison.
struct CrashedService {
  ServiceOptions options;
  std::vector<QuerySpec> specs;
  std::vector<CodResult> pre_crash;
  uint64_t final_epoch = 0;
};

CrashedService BuildAndCrash(const std::string& dir) {
  CrashedService out;
  World w = MakeMultiWorld(50, 2);
  out.options = BaseOptions(2);
  out.options.snapshot_dir = dir;
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            out.options);
  const World probe_world = MakeMultiWorld(50, 2);
  out.specs = MakeSpecs(probe_world.attrs, 20, 23);
  TaskScheduler scheduler(2);
  out.pre_crash = service.QueryBatch(out.specs, scheduler, /*batch_seed=*/5);
  out.final_epoch = service.epoch();
  return out;  // service destroyed here: the "crash"
}

TEST(ShardedRecoveryTest, MissingShardSnapshotsColdRebuildThatShardOnly) {
  const std::string dir = FreshDir("missing-shard");
  const CrashedService crashed = BuildAndCrash(dir);
  ASSERT_TRUE(fs::exists(ShardedCodService::ShardSnapshotDir(dir, 0)));
  ASSERT_TRUE(fs::exists(ShardedCodService::ShardSnapshotDir(dir, 1)));
  // Shard 0 loses its entire snapshot directory.
  fs::remove_all(ShardedCodService::ShardSnapshotDir(dir, 0));

  World cold = MakeMultiWorld(50, 2);
  Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
      crashed.options, std::move(cold.graph), std::move(cold.attrs));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->epoch(), crashed.final_epoch);

  // Cold-rebuilt shard 0 and warm-restored shard 1 answer exactly what the
  // pre-crash service answered: component scoping + the shared seed make
  // the cold epoch bit-compatible with the snapshotted one.
  TaskScheduler scheduler(2);
  const std::vector<CodResult> post = (*recovered)->QueryBatch(
      crashed.specs, scheduler, /*batch_seed=*/5);
  ExpectSameResults(post, crashed.pre_crash, "after losing shard 0 snapshots");
}

TEST(ShardedRecoveryTest, CorruptShardSnapshotsQuarantineAndColdRebuild) {
  const std::string dir = FreshDir("corrupt-shard");
  const CrashedService crashed = BuildAndCrash(dir);
  // Flip a payload byte in EVERY snapshot of shard 0: quarantine exhausts
  // the store (kNotFound) and the shard cold-rebuilds.
  const std::string shard0 = ShardedCodService::ShardSnapshotDir(dir, 0);
  size_t damaged = 0;
  for (const auto& entry : fs::directory_iterator(shard0)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 4u);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ++damaged;
  }
  ASSERT_GT(damaged, 0u);

  World cold = MakeMultiWorld(50, 2);
  Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
      crashed.options, std::move(cold.graph), std::move(cold.attrs));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // The damaged files were quarantined in place, not deleted.
  size_t corrupt_files = 0;
  for (const auto& entry : fs::directory_iterator(shard0)) {
    corrupt_files += entry.path().string().ends_with(".corrupt");
  }
  EXPECT_EQ(corrupt_files, damaged);

  TaskScheduler scheduler(2);
  const std::vector<CodResult> post = (*recovered)->QueryBatch(
      crashed.specs, scheduler, /*batch_seed=*/5);
  ExpectSameResults(post, crashed.pre_crash, "after corrupting shard 0");
}

TEST(ShardedRecoveryTest, FingerprintMismatchRefusesRecovery) {
  const std::string dir = FreshDir("fingerprint");
  const CrashedService crashed = BuildAndCrash(dir);

  // Same directory, different engine parameters: these snapshots would
  // answer differently, so recovery must refuse outright.
  ServiceOptions tampered = crashed.options;
  tampered.engine.k += 1;
  World cold = MakeMultiWorld(50, 2);
  Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
      tampered, std::move(cold.graph), std::move(cold.attrs));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardedRecoveryTest, MonoSnapshotsNeverRestoreIntoShards) {
  const std::string dir = FreshDir("mono-vs-sharded");
  ServiceOptions mono = BaseOptions(1);
  mono.snapshot_dir = ShardedCodService::ShardSnapshotDir(dir, 0);
  {
    World w = MakeMultiWorld(60, 2);
    const std::unique_ptr<CodServiceInterface> service =
        MakeCodService(std::move(w.graph), std::move(w.attrs), mono);
    ASSERT_GT(service->epoch(), 0u);
  }
  // A sharded recovery pointed at a layout containing mono snapshots must
  // refuse: num_shards is part of the fingerprint.
  ServiceOptions sharded = BaseOptions(2);
  sharded.snapshot_dir = dir;
  World cold = MakeMultiWorld(60, 2);
  Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
      sharded, std::move(cold.graph), std::move(cold.attrs));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// ServiceOptions: validation and the fingerprint.
// ---------------------------------------------------------------------------

TEST(ServiceOptionsTest, ValidateRejectsBrokenConfigurations) {
  EXPECT_TRUE(ServiceOptions{}.Validate().ok());
  {
    ServiceOptions o;
    o.num_shards = 0;
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.async_rebuild = true;  // no scheduler
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.snapshots_keep = 0;
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.rebuild_backoff_initial_ms = 500;
    o.rebuild_backoff_max_ms = 100;
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.engine.theta = 0;
    EXPECT_FALSE(o.Validate().ok());
  }
  {
    ServiceOptions o;
    o.rebuild_threshold = -0.1;
    EXPECT_FALSE(o.Validate().ok());
  }
}

TEST(ServiceOptionsTest, FingerprintTracksAnswerShapingFieldsOnly) {
  const ServiceOptions base;
  const uint64_t fp = base.Fingerprint();
  {
    // Answer-shaping fields move the fingerprint.
    ServiceOptions o;
    o.engine.k += 1;
    EXPECT_NE(o.Fingerprint(), fp);
    o = ServiceOptions{};
    o.seed += 1;
    EXPECT_NE(o.Fingerprint(), fp);
    o = ServiceOptions{};
    o.num_shards = 2;
    EXPECT_NE(o.Fingerprint(), fp);
    o = ServiceOptions{};
    o.engine.component_scoped = true;
    EXPECT_NE(o.Fingerprint(), fp);
  }
  {
    // Latency/durability knobs deliberately do not: tuning them must never
    // cost a warm restart.
    ServiceOptions o;
    o.rebuild_threshold = 0.2;
    o.snapshots_keep = 5;
    o.snapshot_dir = "/elsewhere";
    o.rebuild_budget_seconds = 1.0;
    o.max_rebuild_retries = 9;
    EXPECT_EQ(o.Fingerprint(), fp);
  }
  // Every shard of one layout shares the layout's fingerprint.
  const ServiceOptions sharded_base = BaseOptions(4);
  EXPECT_EQ(ShardedCodService::ShardOptions(sharded_base, 0).Fingerprint(),
            ShardedCodService::ShardOptions(sharded_base, 3).Fingerprint());
}

// ---------------------------------------------------------------------------
// Aggregate views over shards.
// ---------------------------------------------------------------------------

TEST(ShardedAggregateTest, EpochIsTheMinimumAndEdgesTheSum) {
  World w = MakeMultiWorld(70, 2);
  const size_t total_edges = w.graph.NumEdges();
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            BaseOptions(2));
  EXPECT_EQ(service.NumEdges(), total_edges);
  EXPECT_EQ(service.epoch(), 1u);

  // Refresh one shard directly: the aggregate epoch stays at the floor.
  ASSERT_TRUE(service.shard(0).Refresh().ok());
  EXPECT_EQ(service.shard(0).epoch(), 2u);
  EXPECT_EQ(service.shard(1).epoch(), 1u);
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.rebuild_stats().published, 3u);  // 2 first + 1 refresh

  // Refresh() lifts every shard, and the floor with it.
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_GE(service.epoch(), 2u);
}

TEST(ShardedAggregateTest, EmptyShardsDoNotPinTheEpochFloor) {
  // One connected component spread across two shards: component-atomic
  // partitioning leaves shard 1 with zero nodes. No update can ever route
  // to it, so its epoch is pinned at 1 forever — the aggregate freshness
  // floor (and the aggregate rebuild stats) must ignore it, or the service
  // would report itself permanently stale no matter how often the real
  // shard republishes.
  constexpr size_t kN = 60;
  GraphBuilder gb(kN);
  std::vector<uint32_t> block(kN);
  Rng rng(77);
  for (NodeId v = 0; v < kN; ++v) {
    gb.AddEdge(v, (v + 1) % kN, 1.0);  // ring: connected by construction
    block[v] = v / 15;
  }
  World w;
  w.graph = std::move(gb).Build();
  w.attrs = AssignCorrelatedAttributes(block, 5, 0.8, 0.1, rng);
  ShardedCodService service(std::move(w.graph), std::move(w.attrs),
                            BaseOptions(2));
  ASSERT_EQ(service.partition().shard_nodes[0], kN);
  ASSERT_EQ(service.partition().shard_nodes[1], 0u);
  EXPECT_EQ(service.epoch(), 1u);

  // Refresh only the populated shard — exactly what threshold-driven
  // refreshes do, since the empty shard can never become due.
  ASSERT_TRUE(service.shard(0).Refresh().ok());
  EXPECT_EQ(service.shard(0).epoch(), 2u);
  EXPECT_EQ(service.shard(1).epoch(), 1u);
  EXPECT_EQ(service.epoch(), 2u);  // the empty shard does not cap the floor

  // Stats likewise: shard 0's first build + refresh only; the empty
  // shard's constant publish baseline is excluded.
  EXPECT_EQ(service.rebuild_stats().published, 2u);
}

}  // namespace
}  // namespace cod
