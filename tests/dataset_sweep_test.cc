// Parameterized pipeline-invariant sweep over the registry's small datasets
// (the paper's real-attribute group): whatever the graph shape, every chain,
// LORE selection, HIMOR entry list, and query answer must satisfy the
// structural contracts the algorithms rely on.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/engine_core.h"
#include "core/query_workspace.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"

namespace cod {
namespace {

class DatasetSweepTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    Result<AttributedGraph> data = MakeDataset(GetParam());
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    data_ = std::move(data).value();
    engine_ = std::make_unique<EngineCore>(data_.graph, data_.attributes,
                                           EngineOptions{});
    Rng rng(11);
    engine_->BuildHimor(rng);
    Rng query_rng(13);
    queries_ = GenerateQueries(data_.attributes, 6, query_rng);
  }

  AttributedGraph data_;
  std::unique_ptr<EngineCore> engine_;
  std::vector<Query> queries_;
};

TEST_P(DatasetSweepTest, ChainsAreWellFormed) {
  for (const Query& q : queries_) {
    for (int variant = 0; variant < 2; ++variant) {
      const CodChain chain =
          variant == 0
              ? engine_->BuildCoduChain(q.node)
              : engine_->BuildCodlChain(q.node, q.attribute).chain;
      ASSERT_GE(chain.NumLevels(), 1u);
      EXPECT_EQ(chain.level[q.node], 0u);
      EXPECT_TRUE(chain.in_universe[q.node]);
      EXPECT_EQ(chain.community_size.back(), data_.graph.NumNodes());
      for (size_t h = 1; h < chain.NumLevels(); ++h) {
        EXPECT_GE(chain.community_size[h], chain.community_size[h - 1]);
      }
      // The universe is exactly the nodes marked in_universe, and level
      // histogram matches community sizes.
      size_t marked = 0;
      for (char m : chain.in_universe) marked += m;
      EXPECT_EQ(marked, chain.universe.size());
      EXPECT_EQ(chain.universe.size(), data_.graph.NumNodes());
    }
  }
}

TEST_P(DatasetSweepTest, LoreSelectionIsOnTheChain) {
  for (const Query& q : queries_) {
    const LoreScores scores = ComputeReclusteringScores(
        data_.graph, data_.attributes, engine_->base_hierarchy(),
        engine_->base_lca(), q.node, q.attribute);
    ASSERT_GE(scores.chain.size(), 1u);
    EXPECT_LT(scores.selected, scores.chain.size());
    EXPECT_GE(scores.selected, scores.chain.size() == 1 ? 0u : 1u);
    for (double s : scores.score) EXPECT_GE(s, 0.0);
    // Selected community contains the query node.
    EXPECT_TRUE(
        engine_->base_hierarchy().Contains(scores.Selected(), q.node));
  }
}

TEST_P(DatasetSweepTest, HimorEntriesLieOnEachNodesPath) {
  for (const Query& q : queries_) {
    const auto entries = engine_->himor()->RanksOf(q.node);
    const auto path = engine_->base_hierarchy().PathToRoot(q.node);
    size_t path_pos = 0;
    for (const auto& entry : entries) {
      // Entries are a deepest-first subsequence of the ancestor path.
      while (path_pos < path.size() && path[path_pos] != entry.community) {
        ++path_pos;
      }
      ASSERT_LT(path_pos, path.size())
          << "entry community not on the ancestor path";
      EXPECT_LT(entry.rank, engine_->himor()->max_rank());
    }
  }
}

TEST_P(DatasetSweepTest, QueriesReturnConsistentCommunities) {
  QueryWorkspace ws(*engine_, 17);
  for (const Query& q : queries_) {
    const CodResult r = engine_->Query(
        {.variant = CodVariant::kCodL, .node = q.node, .k = 5,
         .attrs = {q.attribute}},
        ws);
    if (!r.found) continue;
    EXPECT_FALSE(r.members.empty());
    EXPECT_TRUE(std::find(r.members.begin(), r.members.end(), q.node) !=
                r.members.end());
    EXPECT_LT(r.rank, 5u);
    std::vector<NodeId> sorted = r.members;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                sorted.end());
  }
}

INSTANTIATE_TEST_SUITE_P(SmallDatasets, DatasetSweepTest,
                         ::testing::Values("cora-sim", "citeseer-sim",
                                           "pubmed-sim", "retweet-sim"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace cod
