// The COD query API end to end on one EngineCore: every variant through
// EngineCore::Query, plus ExplainCodL and FindTopPromoters.
#include "core/engine_core.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/query_workspace.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace cod {
namespace {

// A small planted-partition world shared by the query tests.
struct World {
  Graph graph;
  AttributeTable attrs;
  std::vector<uint32_t> block;
};

World MakeWorld(uint64_t seed, size_t n = 300) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = n;
  params.num_edges = 4 * n;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 5, 0.8, 0.1, rng);
  w.block = std::move(gen.block);
  w.graph = std::move(gen.graph);
  return w;
}

AttributeId AnyAttributeOf(const AttributeTable& attrs, NodeId q) {
  const auto a = attrs.AttributesOf(q);
  return a.empty() ? kInvalidAttribute : a[0];
}

TEST(EngineQueryTest, CoduFindsCommunityContainingQuery) {
  const World w = MakeWorld(1);
  EngineCore core(w.graph, w.attrs, {});
  QueryWorkspace ws(core, 2);
  int found = 0;
  for (NodeId q = 0; q < 20; ++q) {
    const CodResult r = core.Query(
        {.variant = CodVariant::kCodU, .node = q, .k = 5}, ws);
    if (!r.found) continue;
    ++found;
    EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                r.members.end());
    EXPECT_LT(r.rank, 5u);
    EXPECT_GE(r.num_levels, 1u);
  }
  EXPECT_GT(found, 0);
}

TEST(EngineQueryTest, ResultSizeGrowsWithK) {
  const World w = MakeWorld(3);
  EngineCore core(w.graph, w.attrs, {});
  // Average over queries: |C*| with k=5 >= |C*| with k=1 (monotonicity the
  // paper reports in Fig. 7); per-query sampling noise is averaged out by
  // using the same rng stream lengths.
  double size_k1 = 0.0;
  double size_k5 = 0.0;
  QueryWorkspace ws(core, 0);
  for (NodeId q = 0; q < 30; ++q) {
    ws.ReseedRng(100 + q);
    size_k1 += core.Query(
        {.variant = CodVariant::kCodU, .node = q, .k = 1}, ws).members.size();
    ws.ReseedRng(100 + q);
    size_k5 += core.Query(
        {.variant = CodVariant::kCodU, .node = q, .k = 5}, ws).members.size();
  }
  EXPECT_GE(size_k5, size_k1);
}

TEST(EngineQueryTest, CodrUsesAttributeAwareHierarchy) {
  const World w = MakeWorld(4);
  EngineCore core(w.graph, w.attrs, {});
  QueryWorkspace ws(core, 5);
  const NodeId q = 7;
  const AttributeId attr = AnyAttributeOf(w.attrs, q);
  ASSERT_NE(attr, kInvalidAttribute);
  const CodResult r = core.Query(
      {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = {attr}}, ws);
  if (r.found) {
    EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                r.members.end());
  }
}

TEST(EngineQueryTest, CodrCacheGivesSameResult) {
  const World w = MakeWorld(6);
  EngineOptions cached_opts;
  cached_opts.cache_codr_hierarchies = true;
  EngineCore cached(w.graph, w.attrs, cached_opts);
  EngineCore uncached(w.graph, w.attrs, {});
  const NodeId q = 11;
  const AttributeId attr = AnyAttributeOf(w.attrs, q);
  QueryWorkspace ws_cached(cached, 7);
  QueryWorkspace ws_uncached(uncached, 7);
  const CodResult a = cached.Query(
      {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = {attr}},
      ws_cached);
  const CodResult b = uncached.Query(
      {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = {attr}},
      ws_uncached);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.members, b.members);
  // Second cached query hits the cache and must be identical again.
  ws_cached.ReseedRng(7);
  const CodResult c = cached.Query(
      {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = {attr}},
      ws_cached);
  EXPECT_TRUE(c.stats.codr_cache_hit);
  EXPECT_EQ(a.members, c.members);
}

TEST(EngineQueryTest, CodlChainSplicesLocalAndGlobal) {
  const World w = MakeWorld(8);
  EngineCore core(w.graph, w.attrs, {});
  const NodeId q = 13;
  const AttributeId attr = AnyAttributeOf(w.attrs, q);
  const LoreChain lc = core.BuildCodlChain(q, attr);
  ASSERT_GE(lc.chain.NumLevels(), 1u);
  // The top level is the whole graph.
  EXPECT_EQ(lc.chain.community_size.back(), w.graph.NumNodes());
  // Community sizes are non-decreasing.
  for (size_t h = 1; h < lc.chain.community_size.size(); ++h) {
    EXPECT_GE(lc.chain.community_size[h], lc.chain.community_size[h - 1]);
  }
  // The c_ell boundary level has exactly |C_ell| members.
  EXPECT_EQ(lc.chain.community_size[lc.local_levels - 1],
            core.base_hierarchy().LeafCount(lc.c_ell));
  // q sits at level 0.
  EXPECT_EQ(lc.chain.level[q], 0u);
}

TEST(EngineQueryTest, CodlMinusRuns) {
  const World w = MakeWorld(9);
  EngineCore core(w.graph, w.attrs, {});
  QueryWorkspace ws(core, 10);
  int found = 0;
  for (NodeId q = 0; q < 15; ++q) {
    const AttributeId attr = AnyAttributeOf(w.attrs, q);
    const CodResult r = core.Query(
        {.variant = CodVariant::kCodLMinus, .node = q, .k = 5, .attrs = {attr}},
        ws);
    if (r.found) {
      ++found;
      EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                  r.members.end());
    }
  }
  EXPECT_GT(found, 0);
}

TEST(EngineQueryTest, CodlRequiresAndUsesHimor) {
  const World w = MakeWorld(11);
  EngineCore core(w.graph, w.attrs, {});
  Rng rng(12);
  core.BuildHimor(rng);
  ASSERT_NE(core.himor(), nullptr);
  QueryWorkspace ws(core, 0);
  ws.rng() = rng;  // continue the stream BuildHimor consumed from
  int found = 0;
  int from_index = 0;
  for (NodeId q = 0; q < 25; ++q) {
    const AttributeId attr = AnyAttributeOf(w.attrs, q);
    const CodResult r = core.Query(
        {.variant = CodVariant::kCodL, .node = q, .k = 5, .attrs = {attr}}, ws);
    if (r.found) {
      ++found;
      from_index += r.answered_from_index;
      EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                  r.members.end());
    }
  }
  EXPECT_GT(found, 0);
  // Most queries on a well-mixed graph resolve from the index.
  EXPECT_GT(from_index, 0);
}

TEST(EngineQueryTest, LtModelEndToEnd) {
  const World w = MakeWorld(13, 200);
  EngineOptions options;
  options.diffusion = DiffusionKind::kLinearThreshold;
  EngineCore core(w.graph, w.attrs, options);
  Rng rng(14);
  core.BuildHimor(rng);
  QueryWorkspace ws(core, 0);
  ws.rng() = rng;
  const NodeId q = 3;
  const AttributeId attr = AnyAttributeOf(w.attrs, q);
  const CodResult u = core.Query(
      {.variant = CodVariant::kCodU, .node = q, .k = 5}, ws);
  const CodResult l = core.Query(
      {.variant = CodVariant::kCodL, .node = q, .k = 5, .attrs = {attr}}, ws);
  // Smoke assertions: queries complete and communities contain q when found.
  if (u.found) {
    EXPECT_TRUE(std::find(u.members.begin(), u.members.end(), q) !=
                u.members.end());
  }
  if (l.found) {
    EXPECT_TRUE(std::find(l.members.begin(), l.members.end(), q) !=
                l.members.end());
  }
}

TEST(EngineQueryTest, TopicSetQueriesRun) {
  const World w = MakeWorld(20);
  EngineCore core(w.graph, w.attrs, {});
  Rng rng(21);
  core.BuildHimor(rng);
  QueryWorkspace ws(core, 0);
  ws.rng() = rng;
  int found = 0;
  for (NodeId q = 0; q < 15; ++q) {
    const auto own = w.attrs.AttributesOf(q);
    if (own.empty()) continue;
    // Topic set: the node's own attribute plus one other.
    std::vector<AttributeId> topics(own.begin(), own.end());
    topics.push_back((own[0] + 1) % static_cast<AttributeId>(
                                        w.attrs.NumAttributes()));
    const CodResult r = core.Query(
        {.variant = CodVariant::kCodL, .node = q, .k = 5, .attrs = topics}, ws);
    if (r.found) {
      ++found;
      EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q) !=
                  r.members.end());
    }
    // Variants accept topic sets too.
    core.Query(
        {.variant = CodVariant::kCodLMinus, .node = q, .k = 5, .attrs = topics},
        ws);
    core.Query(
        {.variant = CodVariant::kCodR, .node = q, .k = 5, .attrs = topics}, ws);
  }
  EXPECT_GT(found, 0);
}

TEST(EngineQueryTest, SingletonTopicSetMatchesSingleAttribute) {
  const World w = MakeWorld(22);
  EngineCore core(w.graph, w.attrs, {});
  Rng rng(23);
  core.BuildHimor(rng);
  QueryWorkspace ws(core, 0);
  for (NodeId q = 0; q < 10; ++q) {
    const auto own = w.attrs.AttributesOf(q);
    if (own.empty()) continue;
    const AttributeId attr = own[0];
    ws.ReseedRng(100 + q);
    const CodResult a = core.Query(
        {.variant = CodVariant::kCodL, .node = q, .k = 5, .attrs = {attr}}, ws);
    // The same attribute as a one-element topic set cut from the node's own
    // attribute span.
    const std::vector<AttributeId> topics(own.begin(), own.begin() + 1);
    ws.ReseedRng(100 + q);
    const CodResult b = core.Query(
        {.variant = CodVariant::kCodL, .node = q, .k = 5, .attrs = topics}, ws);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.members, b.members);
  }
}

TEST(EngineQueryTest, IndexedCoduIsTopKConsistentWithSampledCodu) {
  const World w = MakeWorld(40);
  EngineOptions options;
  options.theta = 40;  // extra samples tighten agreement
  EngineCore core(w.graph, w.attrs, options);
  Rng rng(41);
  core.BuildHimor(rng);
  QueryWorkspace ws(core, 0);
  size_t agree = 0;
  size_t total = 0;
  for (NodeId q = 0; q < 25; ++q) {
    const CodResult indexed = core.Query(
        {.variant = CodVariant::kCodUIndexed, .node = q, .k = 5}, ws);
    ws.ReseedRng(300 + q);
    const CodResult sampled = core.Query(
        {.variant = CodVariant::kCodU, .node = q, .k = 5}, ws);
    ++total;
    // Different sample pools: exact equality is not guaranteed, but both
    // must agree on "found" for a clear majority and the indexed community
    // must contain q.
    agree += indexed.found == sampled.found;
    if (indexed.found) {
      EXPECT_TRUE(std::find(indexed.members.begin(), indexed.members.end(),
                            q) != indexed.members.end());
      EXPECT_LT(indexed.rank, 5u);
    }
  }
  EXPECT_GE(agree * 3, total * 2);  // >= 2/3 agreement
}

TEST(EngineQueryTest, ExplainCodLMatchesQueryAndNarrates) {
  const World w = MakeWorld(30);
  EngineCore core(w.graph, w.attrs, {});
  Rng rng(31);
  core.BuildHimor(rng);
  QueryWorkspace ws(core, 0);
  int explained = 0;
  for (NodeId q = 0; q < 12; ++q) {
    const auto own = w.attrs.AttributesOf(q);
    if (own.empty()) continue;
    ws.ReseedRng(200 + q);
    const CodResult direct = core.Query(
        {.variant = CodVariant::kCodL, .node = q, .k = 5, .attrs = {own[0]}},
        ws);
    ws.ReseedRng(200 + q);
    const Result<QueryExplanation> explained_or =
        core.ExplainCodL(q, own[0], 5, ws);
    ASSERT_TRUE(explained_or.ok()) << explained_or.status().ToString();
    const QueryExplanation& explanation = *explained_or;
    EXPECT_EQ(explanation.result.found, direct.found);
    EXPECT_EQ(explanation.result.members, direct.members);
    EXPECT_EQ(explanation.c_ell_size,
              core.base_hierarchy().LeafCount(explanation.scores.Selected()));
    if (explanation.index_hit) {
      EXPECT_TRUE(explanation.result.answered_from_index);
      EXPECT_EQ(explanation.result.members.size(),
                core.base_hierarchy().LeafCount(
                    explanation.index_community));
    }
    const std::string text =
        explanation.ToString(core.base_hierarchy());
    EXPECT_NE(text.find("LORE chain"), std::string::npos);
    EXPECT_NE(text.find("C_ell"), std::string::npos);
    EXPECT_NE(text.find("result:"), std::string::npos);
    ++explained;
  }
  EXPECT_GT(explained, 0);
}

TEST(EngineQueryTest, FindTopPromotersReturnsVerifiedHolders) {
  const World w = MakeWorld(24);
  EngineCore core(w.graph, w.attrs, {});
  Rng rng(25);
  core.BuildHimor(rng);
  const AttributeId attr = 0;
  const Result<std::vector<Promoter>> found = core.FindTopPromoters(attr, 5, 5);
  ASSERT_TRUE(found.ok()) << found.status().ToString();
  const std::vector<Promoter>& promoters = *found;
  ASSERT_FALSE(promoters.empty());
  for (size_t i = 0; i < promoters.size(); ++i) {
    EXPECT_TRUE(w.attrs.Has(promoters[i].node, attr));
    EXPECT_LT(promoters[i].rank, 5u);
    EXPECT_EQ(promoters[i].size,
              core.base_hierarchy().LeafCount(promoters[i].community));
    EXPECT_TRUE(core.base_hierarchy().Contains(promoters[i].community,
                                                 promoters[i].node));
    if (i > 0) {
      EXPECT_GE(promoters[i - 1].size, promoters[i].size);
    }
  }
}

// The index-only helpers refuse bad input with a Status, like Query: a node
// out of range, k above the index's max rank, and an empty promoter list.
TEST(EngineQueryTest, ExplainCodLRefusesBadInput) {
  const World w = MakeWorld(26, 120);
  EngineCore core(w.graph, w.attrs, {});
  QueryWorkspace ws(core, 0);
  const AttributeId attr = AnyAttributeOf(w.attrs, 0);
  EXPECT_EQ(core.ExplainCodL(0, attr, 5, ws).status().code(),
            StatusCode::kFailedPrecondition);
  Rng rng(27);
  core.BuildHimor(rng);
  const uint32_t max_rank = core.himor()->max_rank();
  const NodeId n = static_cast<NodeId>(w.graph.NumNodes());
  EXPECT_EQ(core.ExplainCodL(n, attr, 5, ws).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(core.ExplainCodL(0, attr, max_rank + 1, ws).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(core.ExplainCodL(0, attr, max_rank, ws).ok());
  // k == 0 is the engine default, exactly as in Query.
  const Result<QueryExplanation> by_default = core.ExplainCodL(0, attr, 0, ws);
  const Result<QueryExplanation> explicit_k =
      core.ExplainCodL(0, attr, core.options().k, ws);
  ASSERT_TRUE(by_default.ok());
  ASSERT_TRUE(explicit_k.ok());
  EXPECT_EQ(by_default->result.members, explicit_k->result.members);
}

TEST(EngineQueryTest, FindTopPromotersRefusesBadInput) {
  const World w = MakeWorld(28, 120);
  EngineCore core(w.graph, w.attrs, {});
  EXPECT_EQ(core.FindTopPromoters(0, 5, 5).status().code(),
            StatusCode::kFailedPrecondition);
  Rng rng(29);
  core.BuildHimor(rng);
  const uint32_t max_rank = core.himor()->max_rank();
  EXPECT_EQ(core.FindTopPromoters(0, 0, 5).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(core.FindTopPromoters(0, 5, max_rank + 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(core.FindTopPromoters(0, 5, max_rank).ok());
  const Result<std::vector<Promoter>> by_default =
      core.FindTopPromoters(0, 5, 0);
  const Result<std::vector<Promoter>> explicit_k =
      core.FindTopPromoters(0, 5, core.options().k);
  ASSERT_TRUE(by_default.ok());
  ASSERT_TRUE(explicit_k.ok());
  ASSERT_EQ(by_default->size(), explicit_k->size());
  for (size_t i = 0; i < by_default->size(); ++i) {
    EXPECT_EQ((*by_default)[i].node, (*explicit_k)[i].node);
  }
}

TEST(EngineQueryTest, DeterministicGivenSeeds) {
  const World w = MakeWorld(15);
  EngineCore e1(w.graph, w.attrs, {});
  EngineCore e2(w.graph, w.attrs, {});
  QueryWorkspace ws1(e1, 16);
  QueryWorkspace ws2(e2, 16);
  const NodeId q = 5;
  const CodResult a = e1.Query(
      {.variant = CodVariant::kCodU, .node = q, .k = 5}, ws1);
  const CodResult b = e2.Query(
      {.variant = CodVariant::kCodU, .node = q, .k = 5}, ws2);
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.members, b.members);
  EXPECT_EQ(a.rank, b.rank);
}

}  // namespace
}  // namespace cod
