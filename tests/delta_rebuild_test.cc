// Delta-vs-cold equivalence suite for incremental epoch rebuilds
// (ServiceOptions::delta_rebuild).
//
// The contract under test: an epoch produced by a chain of DELTA rebuilds
// (each reusing the previous epoch's RR samples, dendrogram merges, and
// HIMOR tags wherever the dirty-vertex bitmap allows) is BIT-IDENTICAL to
// a cold rebuild on the same final edge set — same dendrogram bytes, same
// HIMOR bytes, same query answers. The fallback knobs (dirty-fraction
// threshold, "core/delta_rebuild" failpoint, degraded publication) are
// latency/availability levers and must never change answers.
//
// CI shards override the fuzz stream via COD_FUZZ_SEED; the per-test
// offset keeps the instantiations distinct within a shard.

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "graph/generators.h"
#include "hierarchy/dendrogram_io.h"
#include "serving/dynamic_service.h"
#include "tests/test_util.h"

namespace cod {
namespace {

uint64_t FuzzSeed(uint64_t offset) {
  const char* env = std::getenv("COD_FUZZ_SEED");
  const uint64_t base =
      (env == nullptr || *env == '\0') ? 0 : std::strtoull(env, nullptr, 10);
  return base + offset;
}

struct World {
  Graph graph;
  AttributeTable attrs;
};

// Small enough that a chain of rebuilds stays fast under TSAN/ASan, large
// enough that clean components and clean RR samples actually survive a
// sparse update batch (the delta tiers all get exercised).
World MakeWorld(uint64_t seed, size_t n = 160) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = n;
  params.num_edges = 4 * n;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 4, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  return w;
}

Graph CopyGraph(const Graph& g) {
  GraphBuilder b(g.NumNodes());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    b.AddEdge(u, v, g.Weight(e));
  }
  return std::move(b).Build();
}

ServiceOptions DeltaOptions(uint64_t seed = 7) {
  ServiceOptions options;
  options.seed = seed;
  options.delta_rebuild = true;
  options.rebuild_threshold = 1e9;  // rebuilds only via explicit Refresh()
  options.engine.theta = 16;
  // These worlds are tiny, so even small batches invalidate an estimated
  // sample fraction past any production threshold; disable the latency
  // fallback so the tests exercise the reuse machinery itself.
  options.delta_max_dirty_fraction = 1.0;
  return options;
}

std::string HierarchyBytes(const EngineCore& core) {
  BinaryBufferWriter w;
  SerializeDendrogram(core.base_hierarchy(), w);
  return std::move(w).TakeBytes();
}

std::string HimorBytes(const EngineCore& core) {
  BinaryBufferWriter w;
  EXPECT_NE(core.himor(), nullptr);
  if (core.himor() != nullptr) core.himor()->SerializeTo(w);
  return std::move(w).TakeBytes();
}

// Applies `count` random mutations (random adds between random endpoints,
// removals of random existing edges) and returns how many were applied.
size_t ApplyRandomBatch(DynamicCodService& service, size_t num_nodes,
                        size_t count, Rng& rng) {
  size_t applied = 0;
  for (size_t i = 0; i < count; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(num_nodes));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(num_nodes));
    if (u == v) continue;
    if (rng.UniformInt(3) == 0) {
      applied += service.RemoveEdge(u, v);
    } else {
      applied += service.AddEdge(u, v, 1.0 + 0.25 * rng.UniformInt(4));
    }
  }
  return applied;
}

// Full bit-level and answer-level comparison of two published epochs.
void ExpectSameEpoch(const EngineCore& a, const EngineCore& b,
                     const char* what) {
  ASSERT_EQ(a.graph().NumEdges(), b.graph().NumEdges()) << what;
  EXPECT_EQ(HierarchyBytes(a), HierarchyBytes(b))
      << what << ": dendrogram bytes diverged";
  EXPECT_EQ(HimorBytes(a), HimorBytes(b)) << what << ": HIMOR bytes diverged";
}

void ExpectSameAnswers(DynamicCodService& a, DynamicCodService& b,
                       size_t num_nodes, const char* what) {
  const AttributeTable& attrs = a.Snapshot().core->attributes();
  for (NodeId q = 0; q < num_nodes; q += 7) {
    Rng rng_a(1000 + q);
    Rng rng_b(1000 + q);
    const auto node_attrs = attrs.AttributesOf(q);
    if (!node_attrs.empty()) {
      const CodResult ra = a.Query(
          {.variant = CodVariant::kCodL, .node = q, .k = 5,
           .attrs = {node_attrs[0]}},
          rng_a);
      const CodResult rb = b.Query(
          {.variant = CodVariant::kCodL, .node = q, .k = 5,
           .attrs = {node_attrs[0]}},
          rng_b);
      EXPECT_TRUE(testing::SameResult(ra, rb))
          << what << ": CODL answer diverged at node " << q;
    }
    const CodResult ua = a.Query(
        {.variant = CodVariant::kCodU, .node = q, .k = 3}, rng_a);
    const CodResult ub = b.Query(
        {.variant = CodVariant::kCodU, .node = q, .k = 3}, rng_b);
    EXPECT_TRUE(testing::SameResult(ua, ub))
        << what << ": CODU answer diverged at node " << q;
  }
}

Counter* DeltaCounter(const char* name) {
  return MetricsRegistry::Instance().GetCounter(name);
}

// ---------------------------------------------------------------------------
// The core property: delta chains answer bit-identically to cold rebuilds.
// ---------------------------------------------------------------------------

class DeltaEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaEquivalenceTest, DeltaChainMatchesColdRebuild) {
  const uint64_t seed = FuzzSeed(GetParam());
  World w = MakeWorld(seed);
  World w2 = MakeWorld(seed);  // deterministic twin for the cold service
  const size_t n = w.graph.NumNodes();
  DynamicCodService delta_service(std::move(w.graph), std::move(w.attrs),
                                  DeltaOptions());

  // A chain of small randomized batches, each followed by a delta rebuild.
  Rng updates(seed ^ 0xabcdef);
  for (int batch = 0; batch < 4; ++batch) {
    ApplyRandomBatch(delta_service, n, 6, updates);
    ASSERT_TRUE(delta_service.Refresh().ok());
  }

  // A cold delta-mode service constructed directly on the FINAL edge set.
  const DynamicCodService::EpochSnapshot evolved = delta_service.Snapshot();
  DynamicCodService cold_service(CopyGraph(evolved.core->graph()),
                                 std::move(w2.attrs), DeltaOptions());

  ExpectSameEpoch(*evolved.core, *cold_service.Snapshot().core,
                  "delta chain vs cold");
  ExpectSameAnswers(delta_service, cold_service, n, "delta chain vs cold");
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DeltaEquivalenceTest,
                         ::testing::Values(11, 12, 13));

// ---------------------------------------------------------------------------
// Reuse accounting.
// ---------------------------------------------------------------------------

TEST(DeltaRebuildTest, EmptyBatchReusesEverySample) {
  World w = MakeWorld(FuzzSeed(21));
  const size_t n = w.graph.NumNodes();
  const ServiceOptions options = DeltaOptions();
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  Counter* reused = DeltaCounter("cod_rebuild_delta_samples_reused_total");
  Counter* resampled =
      DeltaCounter("cod_rebuild_delta_samples_resampled_total");
  const uint64_t reused_before = reused->Value();
  const uint64_t resampled_before = resampled->Value();
  const std::string hierarchy_before =
      HierarchyBytes(*service.Snapshot().core);
  const std::string himor_before = HimorBytes(*service.Snapshot().core);

  // No pending updates: the rebuilt epoch has zero dirty vertices, so every
  // sample is served from the cache and nothing is resampled.
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(reused->Value() - reused_before,
            static_cast<uint64_t>(n) * options.engine.theta);
  EXPECT_EQ(resampled->Value() - resampled_before, 0u);
  EXPECT_EQ(HierarchyBytes(*service.Snapshot().core), hierarchy_before);
  EXPECT_EQ(HimorBytes(*service.Snapshot().core), himor_before);
}

TEST(DeltaRebuildTest, SparseBatchReusesMostSamples) {
  World w = MakeWorld(FuzzSeed(22));
  const size_t n = w.graph.NumNodes();
  const ServiceOptions options = DeltaOptions();
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  Counter* reused = DeltaCounter("cod_rebuild_delta_samples_reused_total");
  Counter* replayed =
      DeltaCounter("cod_rebuild_delta_samples_replayed_total");
  Counter* resampled =
      DeltaCounter("cod_rebuild_delta_samples_resampled_total");
  const uint64_t reused_before = reused->Value();
  const uint64_t replayed_before = replayed->Value();
  const uint64_t resampled_before = resampled->Value();

  // One edge touches two vertices; the vast majority of RR samples avoid
  // them and must be reused or replayed, not resampled.
  ASSERT_TRUE(service.AddEdge(1, 2, 2.0));
  ASSERT_TRUE(service.Refresh().ok());
  const uint64_t total = static_cast<uint64_t>(n) * options.engine.theta;
  const uint64_t new_resampled = resampled->Value() - resampled_before;
  const uint64_t new_reused = reused->Value() - reused_before;
  const uint64_t new_replayed = replayed->Value() - replayed_before;
  EXPECT_EQ(new_reused + new_replayed + new_resampled, total);
  EXPECT_LT(new_resampled, total / 2);
  EXPECT_GT(new_reused, 0u);
}

// ---------------------------------------------------------------------------
// Fallback paths: always answer-identical, only slower.
// ---------------------------------------------------------------------------

TEST(DeltaRebuildTest, DirtyFractionThresholdFallsBackToFullRebuild) {
  World w = MakeWorld(FuzzSeed(23));
  World w2 = MakeWorld(FuzzSeed(23));
  const size_t n = w.graph.NumNodes();
  ServiceOptions options = DeltaOptions();
  options.delta_max_dirty_fraction = 0.0;  // any dirty vertex forces cold
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  Counter* fallbacks = DeltaCounter("cod_rebuild_delta_fallbacks_total");
  const uint64_t fallbacks_before = fallbacks->Value();
  ASSERT_TRUE(service.AddEdge(3, 4, 1.5));
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(fallbacks->Value() - fallbacks_before, 1u);

  // The threshold is latency-only: the cold-rebuilt epoch still matches a
  // fresh delta-mode service on the same edges.
  const DynamicCodService::EpochSnapshot snap = service.Snapshot();
  DynamicCodService fresh(CopyGraph(snap.core->graph()),
                          std::move(w2.attrs), DeltaOptions());
  ExpectSameEpoch(*snap.core, *fresh.Snapshot().core, "threshold fallback");
  ExpectSameAnswers(service, fresh, n, "threshold fallback");
}

TEST(DeltaRebuildTest, DeltaFailpointFallsBackToFullRebuild) {
  World w = MakeWorld(FuzzSeed(24));
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            DeltaOptions());
  Counter* attempts = DeltaCounter("cod_rebuild_delta_attempts_total");
  Counter* fallbacks = DeltaCounter("cod_rebuild_delta_fallbacks_total");
  const uint64_t attempts_before = attempts->Value();
  const uint64_t fallbacks_before = fallbacks->Value();

  ASSERT_TRUE(service.AddEdge(5, 6, 1.0));
  {
    ScopedFailpoint fail("core/delta_rebuild", /*count=*/1);
    ASSERT_TRUE(service.Refresh().ok());
  }
  EXPECT_EQ(attempts->Value() - attempts_before, 1u);
  EXPECT_EQ(fallbacks->Value() - fallbacks_before, 1u);
  EXPECT_FALSE(service.epoch_degraded());

  // The fallback rebuilt cold, which re-primes the caches: the next
  // no-update refresh reuses everything again.
  Counter* resampled =
      DeltaCounter("cod_rebuild_delta_samples_resampled_total");
  const uint64_t resampled_before = resampled->Value();
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(resampled->Value() - resampled_before, 0u);
}

TEST(DeltaRebuildTest, DegradedEpochDoesNotAdvanceCachesAndRecovers) {
  World w = MakeWorld(FuzzSeed(25));
  World w2 = MakeWorld(FuzzSeed(25));
  const size_t n = w.graph.NumNodes();
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            DeltaOptions());

  // Fail the HIMOR build once: the epoch publishes index-absent degraded
  // and the reuse caches stay pinned at the last fully indexed epoch.
  ASSERT_TRUE(service.AddEdge(7, 8, 1.0));
  {
    ScopedFailpoint fail("himor/build", /*count=*/2);
    // Two arms: the delta attempt fails, falls back to a full retry, which
    // fails too -> degraded publication (publish_without_index default).
    ASSERT_TRUE(service.Refresh().ok());
  }
  EXPECT_TRUE(service.epoch_degraded());

  // The next clean rebuild restores the index, and the recovered epoch is
  // bit-identical to a cold build on the same final edges.
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_FALSE(service.epoch_degraded());
  const DynamicCodService::EpochSnapshot snap = service.Snapshot();
  DynamicCodService fresh(CopyGraph(snap.core->graph()),
                          std::move(w2.attrs), DeltaOptions());
  ExpectSameEpoch(*snap.core, *fresh.Snapshot().core,
                  "recovery after degraded");
  ExpectSameAnswers(service, fresh, n, "recovery after degraded");
}

// ---------------------------------------------------------------------------
// Compatibility gates.
// ---------------------------------------------------------------------------

TEST(DeltaRebuildTest, FingerprintIgnoresDeltaMode) {
  ServiceOptions a = DeltaOptions();
  ServiceOptions b = a;
  b.delta_rebuild = false;
  // Every build samples the same epoch-independent schedule, so delta mode
  // changes latency and memory only: its snapshots warm-restore into a
  // non-delta service (and vice versa)...
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  // ...and the dirty threshold, a latency knob, never gates either.
  ServiceOptions c = a;
  c.delta_max_dirty_fraction = 0.9;
  EXPECT_EQ(a.Fingerprint(), c.Fingerprint());
}

TEST(DeltaRebuildTest, DeltaOnAndOffAnswerIdenticallyAtEveryEpoch) {
  World w_on = MakeWorld(FuzzSeed(27));
  World w_off = MakeWorld(FuzzSeed(27));
  const size_t n = w_on.graph.NumNodes();
  ServiceOptions off_options = DeltaOptions();
  off_options.delta_rebuild = false;
  DynamicCodService on(std::move(w_on.graph), std::move(w_on.attrs),
                       DeltaOptions());
  DynamicCodService off(std::move(w_off.graph), std::move(w_off.attrs),
                        off_options);
  ExpectSameEpoch(*on.Snapshot().core, *off.Snapshot().core, "first epoch");
  ExpectSameAnswers(on, off, n, "first epoch");
  Rng rng_on(FuzzSeed(28));
  Rng rng_off(FuzzSeed(28));
  for (const size_t batch : {size_t{1}, size_t{3}, size_t{8}, size_t{2}}) {
    ASSERT_EQ(ApplyRandomBatch(on, n, batch, rng_on),
              ApplyRandomBatch(off, n, batch, rng_off));
    ASSERT_TRUE(on.Refresh().ok());
    ASSERT_TRUE(off.Refresh().ok());
    ASSERT_EQ(on.epoch(), off.epoch());
    const std::string what = "epoch " + std::to_string(on.epoch());
    ExpectSameEpoch(*on.Snapshot().core, *off.Snapshot().core, what.c_str());
    ExpectSameAnswers(on, off, n, what.c_str());
  }
}

TEST(DeltaRebuildTest, ValidateRejectsBadDirtyFraction) {
  ServiceOptions options = DeltaOptions();
  options.delta_max_dirty_fraction = -0.1;
  EXPECT_FALSE(options.Validate().ok());
  options.delta_max_dirty_fraction = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options.delta_max_dirty_fraction = 1.0;
  EXPECT_TRUE(options.Validate().ok());
}

}  // namespace
}  // namespace cod
