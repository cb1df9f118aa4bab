#include "graph/embeddings.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/engine_core.h"
#include "core/global_recluster.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace cod {
namespace {

TEST(EmbeddingTableTest, ShapeAndAccess) {
  const EmbeddingTable t(3, 2, {1.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f});
  EXPECT_EQ(t.NumNodes(), 3u);
  EXPECT_EQ(t.Dimension(), 2u);
  EXPECT_FLOAT_EQ(t.Of(2)[0], 1.0f);
  EXPECT_FLOAT_EQ(t.Of(1)[1], 1.0f);
}

TEST(EmbeddingTableTest, CosineHandComputed) {
  const EmbeddingTable t(4, 2,
                         {1.0f, 0.0f,    // e0
                          0.0f, 1.0f,    // e1: orthogonal to e0
                          2.0f, 0.0f,    // e2: parallel to e0
                          0.0f, 0.0f});  // e3: zero vector
  EXPECT_DOUBLE_EQ(t.Cosine(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(t.Cosine(0, 2), 1.0);
  EXPECT_DOUBLE_EQ(t.Cosine(0, 3), 0.0);  // zero vector convention
  EXPECT_NEAR(t.Cosine(1, 2), 0.0, 1e-12);
}

TEST(EmbeddingTableTest, CosineNegativeForOpposedVectors) {
  const EmbeddingTable t(2, 2, {1.0f, 0.5f, -1.0f, -0.5f});
  EXPECT_NEAR(t.Cosine(0, 1), -1.0, 1e-6);
}

TEST(BlockEmbeddingsTest, SameBlockMoreSimilarThanCrossBlock) {
  Rng rng(1);
  std::vector<uint32_t> block(400);
  for (NodeId v = 0; v < 400; ++v) block[v] = v / 100;
  const EmbeddingTable t = MakeBlockEmbeddings(block, 16, 0.3, rng);
  EXPECT_EQ(t.NumNodes(), 400u);
  double same = 0.0;
  double cross = 0.0;
  int same_n = 0;
  int cross_n = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const NodeId u = static_cast<NodeId>(rng.UniformInt(400));
    const NodeId v = static_cast<NodeId>(rng.UniformInt(400));
    if (u == v) continue;
    if (block[u] == block[v]) {
      same += t.Cosine(u, v);
      ++same_n;
    } else {
      cross += t.Cosine(u, v);
      ++cross_n;
    }
  }
  ASSERT_GT(same_n, 0);
  ASSERT_GT(cross_n, 0);
  EXPECT_GT(same / same_n, cross / cross_n + 0.3);
}

TEST(BlockEmbeddingsTest, ZeroNoiseGivesIdenticalRows) {
  Rng rng(2);
  std::vector<uint32_t> block = {0, 0, 1, 1};
  const EmbeddingTable t = MakeBlockEmbeddings(block, 8, 0.0, rng);
  EXPECT_NEAR(t.Cosine(0, 1), 1.0, 1e-6);
  EXPECT_NEAR(t.Cosine(2, 3), 1.0, 1e-6);
  EXPECT_LT(t.Cosine(0, 2), 0.999);
}

TEST(EmbeddingTransformTest, BoostsSimilarEndpoints) {
  // Path 0-1-2 with embeddings: 0 and 1 aligned, 2 orthogonal.
  const Graph g = testing::MakePath(3);
  const EmbeddingTable t(3, 2, {1.0f, 0.0f, 1.0f, 0.0f, 0.0f, 1.0f});
  AttributeTableBuilder ab;
  const AttributeTable attrs = std::move(ab).Build(3);
  TransformOptions options;
  options.transform = AttributeTransform::kEmbeddingCosine;
  options.beta = 3.0;
  options.embeddings = &t;
  const Graph w =
      BuildAttributeWeightedGraph(g, attrs, kInvalidAttribute, options);
  EXPECT_DOUBLE_EQ(w.Weight(w.FindEdge(0, 1)), 4.0);  // cos = 1
  EXPECT_DOUBLE_EQ(w.Weight(w.FindEdge(1, 2)), 1.0);  // cos = 0
}

TEST(EmbeddingTransformTest, NegativeCosineNeverPenalizesBelowBase) {
  GraphBuilder gb(2);
  gb.AddEdge(0, 1);
  const Graph g = std::move(gb).Build();
  const EmbeddingTable t(2, 2, {1.0f, 0.0f, -1.0f, 0.0f});
  AttributeTableBuilder ab;
  const AttributeTable attrs = std::move(ab).Build(2);
  TransformOptions options;
  options.transform = AttributeTransform::kEmbeddingCosine;
  options.beta = 5.0;
  options.embeddings = &t;
  const Graph w =
      BuildAttributeWeightedGraph(g, attrs, kInvalidAttribute, options);
  EXPECT_DOUBLE_EQ(w.Weight(0), 1.0);  // clamped at base
}

TEST(EmbeddingTransformTest, EngineEndToEnd) {
  Rng rng(3);
  HppParams params;
  params.num_nodes = 300;
  params.num_edges = 1200;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  const AttributeTable attrs =
      AssignCorrelatedAttributes(gen.block, 4, 0.8, 0.1, rng);
  const EmbeddingTable embeddings =
      MakeBlockEmbeddings(gen.block, 16, 0.3, rng);

  EngineOptions options;
  options.transform.transform = AttributeTransform::kEmbeddingCosine;
  options.transform.embeddings = &embeddings;
  EngineCore engine(gen.graph, attrs, options);
  Rng query_rng(4);
  engine.BuildHimor(query_rng);
  QueryWorkspace ws(engine, 0);
  ws.rng() = query_rng;
  int found = 0;
  for (NodeId q = 0; q < 15; ++q) {
    const auto own = attrs.AttributesOf(q);
    if (own.empty()) continue;
    const CodResult r = engine.Query(
        {.variant = CodVariant::kCodL, .node = q, .k = 5, .attrs = {own[0]}},
        ws);
    found += r.found;
  }
  EXPECT_GT(found, 0);
}

}  // namespace
}  // namespace cod
