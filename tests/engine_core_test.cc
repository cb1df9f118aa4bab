#include "core/engine_core.h"

#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace cod {
namespace {

using ::cod::testing::SameResult;

struct World {
  Graph graph;
  AttributeTable attrs;
};

World MakeWorld(uint64_t seed, size_t n = 250) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = n;
  params.num_edges = 4 * n;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 5, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  return w;
}

AttributeId AnyAttributeOf(const AttributeTable& attrs, NodeId q) {
  const auto a = attrs.AttributesOf(q);
  return a.empty() ? kInvalidAttribute : a[0];
}

TEST(EngineCoreTest, OwningConstructorKeepsInputsAlive) {
  std::shared_ptr<const EngineCore> core;
  {
    World w = MakeWorld(3);
    auto graph = std::make_shared<const Graph>(std::move(w.graph));
    auto attrs = std::make_shared<const AttributeTable>(std::move(w.attrs));
    core = std::make_shared<const EngineCore>(graph, attrs, EngineOptions{});
    // graph/attrs shared_ptrs go out of scope here; the core keeps them.
  }
  QueryWorkspace ws(*core, 4);
  int found = 0;
  for (NodeId q = 0; q < 10; ++q) {
    found += core->Query(
        {.variant = CodVariant::kCodU, .node = q, .k = 5}, ws).found;
  }
  EXPECT_GT(found, 0);
}

TEST(EngineCoreTest, WorkspaceReuseDoesNotChangeAnswers) {
  const World w = MakeWorld(5);
  const EngineCore core(w.graph, w.attrs, {});
  // One long-lived workspace against fresh per-query workspaces.
  QueryWorkspace reused(core, 0);
  for (NodeId q = 0; q < 10; ++q) {
    const AttributeId attr = AnyAttributeOf(w.attrs, q);
    if (attr == kInvalidAttribute) continue;
    reused.ReseedRng(100 + q);
    const CodResult a = core.Query(
        {.variant = CodVariant::kCodLMinus, .node = q, .k = 5, .attrs = {attr}},
        reused);
    QueryWorkspace fresh(core, 100 + q);
    const CodResult b = core.Query(
        {.variant = CodVariant::kCodLMinus, .node = q, .k = 5, .attrs = {attr}},
        fresh);
    EXPECT_TRUE(SameResult(a, b)) << "q=" << q;
  }
}

TEST(EngineCoreTest, WorkspaceRebindFollowsEpochSwap) {
  const World w1 = MakeWorld(6);
  const World w2 = MakeWorld(7, 180);
  const EngineCore core1(w1.graph, w1.attrs, {});
  const EngineCore core2(w2.graph, w2.attrs, {});

  QueryWorkspace ws(core1, 8);
  EXPECT_EQ(ws.bound_core(), &core1);
  const CodResult before = core1.Query(
      {.variant = CodVariant::kCodU, .node = 3, .k = 5}, ws);
  (void)before;

  ws.Rebind(core2);  // epoch swap: same workspace, new immutable core
  EXPECT_EQ(ws.bound_core(), &core2);
  ws.ReseedRng(9);
  const CodResult rebound = core2.Query(
      {.variant = CodVariant::kCodU, .node = 3, .k = 5}, ws);
  QueryWorkspace fresh(core2, 9);
  const CodResult reference = core2.Query(
      {.variant = CodVariant::kCodU, .node = 3, .k = 5}, fresh);
  EXPECT_TRUE(SameResult(rebound, reference));
}

// Satellite regression: the CODR hierarchy cache used to be a plain
// unordered_map mutated inside the query path. Hammer it from several
// threads and require every answer to match the uncached reference.
TEST(EngineCoreTest, ConcurrentCodrCachingGivesIdenticalResults) {
  const World w = MakeWorld(10);
  EngineOptions cached_opts;
  cached_opts.cache_codr_hierarchies = true;
  const EngineCore cached(w.graph, w.attrs, cached_opts);
  const EngineCore uncached(w.graph, w.attrs, {});

  // Reference answers, single-threaded and cache-free.
  struct Case {
    NodeId q;
    AttributeId attr;
    CodResult want;
  };
  std::vector<Case> cases;
  {
    QueryWorkspace ws(uncached, 0);
    for (NodeId q = 0; q < 8; ++q) {
      const AttributeId attr = AnyAttributeOf(w.attrs, q);
      if (attr == kInvalidAttribute) continue;
      ws.ReseedRng(1000 + q);
      cases.push_back(Case{q, attr, uncached.Query(
          {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = {attr}},
          ws)});
    }
  }
  ASSERT_GE(cases.size(), 4u);

  constexpr int kThreads = 4;
  constexpr int kRounds = 3;  // later rounds hit the warm cache
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryWorkspace ws(cached, 0);
      for (int round = 0; round < kRounds; ++round) {
        for (const Case& c : cases) {
          ws.ReseedRng(1000 + c.q);
          const CodResult got = cached.Query(
              {.variant = CodVariant::kCodR, .node = c.q, .k = 5,
               .attrs = {c.attr}},
              ws);
          if (!SameResult(got, c.want)) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

// Satellite: the CODR cache is bounded. A sweep over more attributes than
// `codr_cache_capacity` must stay under the cap by LRU-evicting cold
// hierarchies (and say so in cod_codr_cache_evictions_total) — answers stay
// identical to an uncached core throughout.
TEST(EngineCoreTest, CodrCacheEvictsLruPastCapacity) {
  const World w = MakeWorld(20);
  EngineOptions cached_opts;
  cached_opts.cache_codr_hierarchies = true;
  cached_opts.codr_cache_capacity = 3;
  const EngineCore cached(w.graph, w.attrs, cached_opts);
  const EngineCore uncached(w.graph, w.attrs, {});

  Counter* builds =
      MetricsRegistry::Instance().GetCounter("cod_codr_cache_builds_total");
  Counter* evictions =
      MetricsRegistry::Instance().GetCounter("cod_codr_cache_evictions_total");
  const uint64_t builds_before = builds->Value();
  const uint64_t evictions_before = evictions->Value();

  // High-cardinality sweep: every attribute in the world (5 > capacity 3),
  // twice, so the second pass re-faults the evicted ones.
  QueryWorkspace ws(cached, 0);
  QueryWorkspace ref_ws(uncached, 0);
  const AttributeId num_attrs = 5;
  for (int round = 0; round < 2; ++round) {
    for (AttributeId attr = 0; attr < num_attrs; ++attr) {
      const NodeId q = 3;
      ws.ReseedRng(2000 + attr);
      const CodResult got = cached.Query(
          {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = {attr}},
          ws);
      ref_ws.ReseedRng(2000 + attr);
      const CodResult want = uncached.Query(
          {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = {attr}},
          ref_ws);
      EXPECT_TRUE(SameResult(got, want)) << "attr=" << attr;
      EXPECT_LE(cached.CodrCacheSize(), 3u);
    }
  }
  EXPECT_LE(cached.CodrCacheSize(), 3u);
  // Round 1 builds all 5 and evicts 2; round 2 re-faults at least the two
  // evicted attributes (exact counts depend on LRU order, bounds suffice).
  EXPECT_GE(builds->Value() - builds_before, 7u);
  EXPECT_GE(evictions->Value() - evictions_before, 4u);
}

// Satellite: cache misses are single-flight. N threads first-touching the
// SAME attribute must run exactly one GlobalRecluster between them — the
// rest wait on the in-flight latch and serve the shared result. Run under
// TSAN in CI; the assertion here is the build counter delta.
TEST(EngineCoreTest, CodrCacheMissesAreSingleFlight) {
  const World w = MakeWorld(21);
  EngineOptions opts;
  opts.cache_codr_hierarchies = true;
  const EngineCore core(w.graph, w.attrs, opts);

  Counter* builds =
      MetricsRegistry::Instance().GetCounter("cod_codr_cache_builds_total");
  const uint64_t builds_before = builds->Value();

  constexpr int kThreads = 8;
  const AttributeId attr = 2;
  std::vector<CodResult> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryWorkspace ws(core, 0);
      ws.ReseedRng(3000);  // identical streams -> identical answers
      results[t] = core.Query(
          {.variant = CodVariant::kCodR, .node = 5, .k = 5, .attrs = {attr}},
          ws);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(builds->Value() - builds_before, 1u)
      << "first-touch stampede: redundant GlobalRecluster builds ran";
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(SameResult(results[t], results[0])) << "thread " << t;
  }
  EXPECT_EQ(core.CodrCacheSize(), 1u);
}

// Tentpole part 3: when the budgeted first-touch hierarchy build fails (the
// "engine_core/codr_cache" failpoint stands in for a budget blowout), CODR
// serves a degraded answer over the BASE hierarchy instead of kTimeout. The
// degraded answer is bit-identical to CODU under the same RNG stream.
TEST(EngineCoreTest, CodrCacheBuildFailureFallsBackToBaseHierarchy) {
  const World w = MakeWorld(22);
  EngineOptions opts;
  opts.cache_codr_hierarchies = true;
  const EngineCore core(w.graph, w.attrs, opts);

  Counter* fallbacks =
      MetricsRegistry::Instance().GetCounter("cod_codr_fallbacks_total");
  const uint64_t fallbacks_before = fallbacks->Value();
  const NodeId q = 4;
  const AttributeId attr = 1;

  QueryWorkspace ws(core, 0);
  CodResult degraded;
  {
    ScopedFailpoint fp("engine_core/codr_cache", /*count=*/1);
    ws.ReseedRng(4000);
    degraded = core.Query(
        {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = {attr}}, ws);
  }
  EXPECT_EQ(degraded.code, StatusCode::kOk);
  EXPECT_TRUE(degraded.degraded);
  EXPECT_EQ(degraded.variant_served, CodVariant::kCodU);
  EXPECT_EQ(fallbacks->Value() - fallbacks_before, 1u);

  ws.ReseedRng(4000);
  const CodResult codu = core.Query(
      {.variant = CodVariant::kCodU, .node = q, .k = 5}, ws);
  EXPECT_EQ(degraded.found, codu.found);
  EXPECT_EQ(degraded.members, codu.members);
  EXPECT_EQ(degraded.rank, codu.rank);

  // The failed build left no cache entry; with the failpoint gone the next
  // query builds the real hierarchy and serves undegraded CODR.
  ws.ReseedRng(4001);
  const CodResult healthy = core.Query(
      {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = {attr}}, ws);
  EXPECT_EQ(healthy.code, StatusCode::kOk);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_EQ(healthy.variant_served, CodVariant::kCodR);
  EXPECT_EQ(fallbacks->Value() - fallbacks_before, 1u);
}

// CODU for attribute-less nodes, CODL on the node's attribute otherwise.
QuerySpec MixedSpec(NodeId q, AttributeId attr) {
  if (attr == kInvalidAttribute) {
    return {.variant = CodVariant::kCodU, .node = q, .k = 5};
  }
  return {.variant = CodVariant::kCodL, .node = q, .k = 5, .attrs = {attr}};
}

TEST(EngineCoreTest, ConcurrentMixedQueriesMatchSequentialRerun) {
  const World w = MakeWorld(11);
  EngineCore core(w.graph, w.attrs, {});
  Rng build_rng(12);
  core.BuildHimor(build_rng);
  const EngineCore& shared = core;

  constexpr int kThreads = 4;
  constexpr NodeId kQueriesPerThread = 6;
  std::vector<std::vector<CodResult>> concurrent(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      QueryWorkspace ws(shared, 0);
      for (NodeId q = 0; q < kQueriesPerThread; ++q) {
        const AttributeId attr = AnyAttributeOf(w.attrs, q);
        ws.ReseedRng(t * 1000 + q);
        concurrent[t].push_back(shared.Query(MixedSpec(q, attr), ws));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  QueryWorkspace ws(shared, 0);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(concurrent[t].size(), kQueriesPerThread);
    for (NodeId q = 0; q < kQueriesPerThread; ++q) {
      const AttributeId attr = AnyAttributeOf(w.attrs, q);
      ws.ReseedRng(t * 1000 + q);
      const CodResult want = shared.Query(MixedSpec(q, attr), ws);
      EXPECT_TRUE(SameResult(concurrent[t][q], want))
          << "thread " << t << " q " << q;
    }
  }
}

// Index-only answers take about a microsecond; the latency histogram must
// resolve them instead of lumping every one into a 100 us floor bucket.
TEST(EngineCoreTest, IndexedCoduLatencyLandsBelow100Microseconds) {
  const World w = MakeWorld(21);
  EngineCore core(w.graph, w.attrs, {});
  Rng rng(22);
  core.BuildHimor(rng);
  QueryWorkspace ws(core, 0);
  const QuerySpec spec{.variant = CodVariant::kCodUIndexed, .node = 0};
  core.Query(spec, ws);  // registers the per-variant series
  const Histogram* latency = MetricsRegistry::Instance().GetHistogram(
      "cod_query_latency_seconds{variant=\"codu_indexed\"}");
  ASSERT_LE(latency->bounds().front(), 1e-6);
  auto below_100us = [latency] {
    const std::vector<uint64_t> counts = latency->BucketCounts();
    uint64_t total = 0;
    for (size_t i = 0; i < latency->bounds().size(); ++i) {
      if (latency->bounds()[i] < 100e-6) total += counts[i];
    }
    return total;
  };
  const uint64_t before = below_100us();
  for (int i = 0; i < 20; ++i) core.Query(spec, ws);
  EXPECT_GT(below_100us(), before);
}

}  // namespace
}  // namespace cod
