// End-to-end pipeline tests: datasets -> engine -> all four COD variants and
// the three community-search baselines, with results cross-checked against
// the Monte-Carlo-backed rank verifier.

#include <algorithm>

#include <gtest/gtest.h>

#include "baselines/atc.h"
#include "baselines/kcore.h"
#include "baselines/ktruss.h"
#include "core/engine_core.h"
#include "core/query_workspace.h"
#include "eval/datasets.h"
#include "eval/metrics.h"
#include "eval/query_gen.h"
#include "graph/generators.h"

namespace cod {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(77);
    HppParams params;
    params.num_nodes = 600;
    params.num_edges = 2400;
    params.levels = 3;
    params.fanout = 3;
    GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
    graph_ = new Graph(std::move(gen.graph));
    attrs_ = new AttributeTable(
        AssignCorrelatedAttributes(gen.block, 6, 0.8, 0.1, rng));
    EngineOptions options;
    options.theta = 30;  // extra samples for stabler ranks in assertions
    engine_ = new EngineCore(*graph_, *attrs_, options);
    Rng build_rng(78);
    engine_->BuildHimor(build_rng);
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete attrs_;
    delete graph_;
    engine_ = nullptr;
    attrs_ = nullptr;
    graph_ = nullptr;
  }

  static Graph* graph_;
  static AttributeTable* attrs_;
  static EngineCore* engine_;
};

Graph* PipelineTest::graph_ = nullptr;
AttributeTable* PipelineTest::attrs_ = nullptr;
EngineCore* PipelineTest::engine_ = nullptr;

TEST_F(PipelineTest, AllVariantsProduceValidCommunities) {
  QueryWorkspace ws(*engine_, 1);
  Rng query_rng(2);
  const std::vector<Query> queries = GenerateQueries(*attrs_, 12, query_rng);
  constexpr CodVariant kVariants[] = {CodVariant::kCodU, CodVariant::kCodR,
                                      CodVariant::kCodLMinus,
                                      CodVariant::kCodL};
  for (const Query& q : queries) {
    for (CodVariant variant : kVariants) {
      QuerySpec spec;
      spec.variant = variant;
      spec.node = q.node;
      spec.k = 5;
      if (variant != CodVariant::kCodU) spec.attrs = {q.attribute};
      const CodResult r = engine_->Query(spec, ws);
      EXPECT_EQ(r.variant_served, variant);
      if (!r.found) continue;
      // Community contains the query and is a set (no duplicates).
      std::vector<NodeId> sorted = r.members;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::binary_search(sorted.begin(), sorted.end(), q.node));
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end());
      EXPECT_LT(r.rank, 5u);
    }
  }
}

TEST_F(PipelineTest, ClaimedRanksSurviveVerification) {
  // For found communities, an independent high-sample verification should
  // confirm the query is at least *near* the top-k (estimators are noisy;
  // the paper's Fig. 8 reports precision well below 1.0 for theta = 10).
  Rng rng(3);  // feeds the Monte-Carlo verifier
  QueryWorkspace ws(*engine_, 3);
  Rng query_rng(4);
  const std::vector<Query> queries = GenerateQueries(*attrs_, 8, query_rng);
  int verified = 0;
  int found = 0;
  for (const Query& q : queries) {
    const CodResult r = engine_->Query(
        {.variant = CodVariant::kCodL, .node = q.node, .k = 5,
         .attrs = {q.attribute}},
        ws);
    if (!r.found) continue;
    ++found;
    const uint32_t rank =
        VerifiedRank(engine_->model(), r.members, q.node, 200, rng);
    verified += rank < 2 * 5;
  }
  if (found > 0) {
    EXPECT_GE(verified * 2, found);  // at least half verify loosely
  }
}

TEST_F(PipelineTest, BaselinesReturnAttributeCoherentCommunities) {
  Rng query_rng(5);
  const std::vector<Query> queries = GenerateQueries(*attrs_, 15, query_rng);
  for (const Query& q : queries) {
    const std::vector<NodeId> acq =
        AcqSearch(*graph_, *attrs_, q.node, q.attribute);
    for (NodeId v : acq) {
      EXPECT_TRUE(attrs_->Has(v, q.attribute));
    }
    const std::vector<NodeId> cac =
        CacSearch(*graph_, *attrs_, q.node, q.attribute);
    for (NodeId v : cac) {
      EXPECT_TRUE(attrs_->Has(v, q.attribute));
    }
    const std::vector<NodeId> atc =
        AtcSearch(*graph_, *attrs_, q.node, q.attribute);
    if (!atc.empty()) {
      EXPECT_TRUE(std::binary_search(atc.begin(), atc.end(), q.node));
    }
  }
}

TEST_F(PipelineTest, HierarchicalVariantsFindLargerCommunitiesThanCac) {
  // The headline effectiveness claim (Fig. 7 a-f): hierarchical COD methods
  // return larger characteristic communities than truss-based search.
  QueryWorkspace ws(*engine_, 6);
  Rng query_rng(7);
  const std::vector<Query> queries = GenerateQueries(*attrs_, 15, query_rng);
  double codl_total = 0.0;
  double cac_total = 0.0;
  for (const Query& q : queries) {
    codl_total +=
        engine_->Query(
            {.variant = CodVariant::kCodL, .node = q.node, .k = 5,
             .attrs = {q.attribute}},
            ws).members.size();
    cac_total += CacSearch(*graph_, *attrs_, q.node, q.attribute).size();
  }
  EXPECT_GT(codl_total, cac_total);
}

TEST(SmallDatasetPipelineTest, CoraSimEndToEnd) {
  Result<AttributedGraph> data = MakeDataset("cora-sim");
  ASSERT_TRUE(data.ok());
  EngineCore engine(data->graph, data->attributes, {});
  Rng rng(8);
  engine.BuildHimor(rng);
  QueryWorkspace ws(engine, 0);
  ws.rng() = rng;
  Rng query_rng(9);
  const std::vector<Query> queries =
      GenerateQueries(data->attributes, 5, query_rng);
  int found = 0;
  for (const Query& q : queries) {
    const CodResult r = engine.Query(
        {.variant = CodVariant::kCodL, .node = q.node, .k = 5,
         .attrs = {q.attribute}},
        ws);
    found += r.found;
  }
  EXPECT_GT(found, 0);
}

}  // namespace
}  // namespace cod
