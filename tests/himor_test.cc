#include "core/himor.h"

#include "core/compressed_eval.h"

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "graph/generators.h"
#include "hierarchy/agglomerative.h"
#include "influence/influence_oracle.h"
#include "tests/test_util.h"

namespace cod {
namespace {

// With p = 1, sigma_C(v) is exactly the size of v's connected component in
// C's induced subgraph, so every HIMOR rank is deterministic.
uint32_t DeterministicRank(const Graph& g, const Dendrogram& d, CommunityId c,
                           NodeId q) {
  const auto span = d.Members(c);
  std::vector<char> allowed(g.NumNodes(), 0);
  for (NodeId v : span) allowed[v] = 1;
  std::vector<uint32_t> comp_size(g.NumNodes(), 0);
  std::vector<char> visited(g.NumNodes(), 0);
  for (NodeId start : span) {
    if (visited[start]) continue;
    std::vector<NodeId> comp{start};
    visited[start] = 1;
    for (size_t head = 0; head < comp.size(); ++head) {
      for (const AdjEntry& a : g.Neighbors(comp[head])) {
        if (allowed[a.to] && !visited[a.to]) {
          visited[a.to] = 1;
          comp.push_back(a.to);
        }
      }
    }
    for (NodeId v : comp) comp_size[v] = static_cast<uint32_t>(comp.size());
  }
  uint32_t rank = 0;
  for (NodeId v : span) {
    if (comp_size[v] > comp_size[q]) ++rank;
  }
  return rank;
}

TEST(HimorTest, EntriesCoverEveryAncestor) {
  const auto ex = testing::MakePaperExample();
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(ex.graph);
  const LcaIndex lca(ex.dendrogram);
  Rng rng(1);
  const HimorIndex index =
      testing::BuildHimorIndex(m, ex.dendrogram, lca, /*theta=*/5, rng,
                               std::numeric_limits<uint32_t>::max());
  for (NodeId v = 0; v < 10; ++v) {
    const auto entries = index.RanksOf(v);
    const auto path = ex.dendrogram.PathToRoot(v);
    ASSERT_EQ(entries.size(), path.size());
    for (size_t i = 0; i < path.size(); ++i) {
      EXPECT_EQ(entries[i].community, path[i]);  // deepest first
    }
  }
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(HimorTest, DeterministicWorldRanksExact) {
  const auto ex = testing::MakePaperExample();
  const DiffusionModel m = DiffusionModel::UniformIc(ex.graph, 1.0);
  const LcaIndex lca(ex.dendrogram);
  Rng rng(2);
  const HimorIndex index =
      testing::BuildHimorIndex(m, ex.dendrogram, lca, /*theta=*/2, rng,
                               std::numeric_limits<uint32_t>::max());
  for (NodeId v = 0; v < 10; ++v) {
    for (const auto& entry : index.RanksOf(v)) {
      EXPECT_EQ(entry.rank,
                DeterministicRank(ex.graph, ex.dendrogram, entry.community, v))
          << "node " << v << " community " << entry.community;
    }
  }
}

class HimorRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HimorRandomTest, DeterministicWorldRanksOnRandomGraphs) {
  Rng rng(GetParam());
  const size_t n = 30 + rng.UniformInt(70);
  // Deliberately NOT EnsureConnected: disconnected communities exercise the
  // component-size rank logic.
  const Graph g = ErdosRenyi(n, 2 * n, rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::UniformIc(g, 1.0);
  const HimorIndex index = testing::BuildHimorIndex(
      m, d, lca, 1, rng, std::numeric_limits<uint32_t>::max());
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId v = static_cast<NodeId>(rng.UniformInt(n));
    for (const auto& entry : index.RanksOf(v)) {
      ASSERT_EQ(entry.rank, DeterministicRank(g, d, entry.community, v))
          << "n=" << n << " node " << v << " community " << entry.community;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HimorRandomTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

TEST(HimorTest, StatisticalRanksMatchOracle) {
  // Star-of-cliques with clear influence gaps: HIMOR's ranks at the deepest
  // and root communities must match a high-sample oracle.
  GraphBuilder b(10);
  for (NodeId v = 1; v <= 4; ++v) b.AddEdge(0, v);  // star around 0
  for (NodeId u = 5; u <= 9; ++u) {
    for (NodeId v = u + 1; v <= 9; ++v) b.AddEdge(u, v);  // clique
  }
  b.AddEdge(4, 5);
  const Graph g = std::move(b).Build();
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  Rng rng(3);
  const HimorIndex index =
      testing::BuildHimorIndex(m, d, lca, /*theta=*/600, rng);

  InfluenceOracle oracle(m);
  // Check the hub's rank in its deepest community.
  const auto entries = index.RanksOf(0);
  ASSERT_FALSE(entries.empty());
  const CommunityId deepest = entries[0].community;
  const auto members = d.Members(deepest);
  const std::vector<uint32_t> counts =
      oracle.CountsWithin(members, 800, rng);
  const uint32_t oracle_rank = InfluenceOracle::RankOf(members, counts, 0);
  EXPECT_EQ(entries[0].rank, oracle_rank);
}

TEST(HimorTest, FindTopKAncestorWalksTopDown) {
  const auto ex = testing::MakePaperExample();
  const DiffusionModel m = DiffusionModel::UniformIc(ex.graph, 1.0);
  const LcaIndex lca(ex.dendrogram);
  Rng rng(4);
  const HimorIndex index =
      testing::BuildHimorIndex(m, ex.dendrogram, lca, 2, rng);
  // p=1 on a connected graph: everyone ties at rank 0 in every community,
  // so the largest ancestor (the root) wins for any k.
  const auto* hit = index.FindTopKAncestor(0, ex.c0, 1, ex.dendrogram);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->community, ex.c6);
  EXPECT_EQ(hit->rank, 0u);
  // With c_ell = c4 the scan stops at c4 but the root still qualifies first.
  const auto* hit2 = index.FindTopKAncestor(0, ex.c4, 1, ex.dendrogram);
  ASSERT_NE(hit2, nullptr);
  EXPECT_EQ(hit2->community, ex.c6);
}

TEST(HimorTest, SparseIndexAnswersLikeFullIndex) {
  // The max_rank pruning ("selected communities") must never change an
  // Algorithm-3 answer for k <= max_rank. Deterministic world makes the two
  // builds produce identical counts.
  Rng gen_rng(6);
  const Graph g = ErdosRenyi(80, 200, gen_rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::UniformIc(g, 1.0);
  Rng rng1(7);
  Rng rng2(7);
  const uint32_t max_rank = 6;
  const HimorIndex sparse =
      testing::BuildHimorIndex(m, d, lca, 1, rng1, max_rank);
  const HimorIndex full = testing::BuildHimorIndex(
      m, d, lca, 1, rng2, std::numeric_limits<uint32_t>::max());
  EXPECT_LE(sparse.NumEntries(), full.NumEntries());
  for (NodeId q = 0; q < 80; ++q) {
    const auto path = d.PathToRoot(q);
    for (CommunityId c_ell : path) {
      for (uint32_t k = 1; k <= max_rank; ++k) {
        const auto* a = sparse.FindTopKAncestor(q, c_ell, k, d);
        const auto* b = full.FindTopKAncestor(q, c_ell, k, d);
        ASSERT_EQ(a == nullptr, b == nullptr)
            << "q=" << q << " c_ell=" << c_ell << " k=" << k;
        if (a != nullptr) {
          EXPECT_EQ(a->community, b->community);
          EXPECT_EQ(a->rank, b->rank);
        }
      }
    }
  }
}

TEST(HimorTest, IndexedAnswerMatchesCompressedChainInDeterministicWorld) {
  // Cross-pipeline exactness: with p = 1 the HIMOR walk (tree buckets,
  // bottom-up merge, top-down scan) and the compressed chain evaluation
  // (linear buckets, incremental top-k) must pick the same best level for
  // the base chain of every node.
  Rng gen_rng(9);
  const Graph g = ErdosRenyi(70, 180, gen_rng);  // disconnected on purpose
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::UniformIc(g, 1.0);
  Rng rng(10);
  const HimorIndex index = testing::BuildHimorIndex(m, d, lca, 1, rng, 8);
  CompressedEvaluator evaluator(m, 1);
  for (NodeId q = 0; q < 70; ++q) {
    for (uint32_t k = 1; k <= 8; k += 3) {
      const HimorIndex::Entry* hit =
          index.FindTopKAncestor(q, d.Parent(d.LeafOf(q)), k, d);
      const CodChain chain = BuildChainFromDendrogram(d, q);
      const ChainEvalOutcome outcome = evaluator.Evaluate(chain, q, k, rng);
      if (hit == nullptr) {
        EXPECT_EQ(outcome.best_level, -1) << "q=" << q << " k=" << k;
      } else {
        ASSERT_GE(outcome.best_level, 0) << "q=" << q << " k=" << k;
        EXPECT_EQ(d.LeafCount(hit->community),
                  chain.community_size[outcome.best_level])
            << "q=" << q << " k=" << k;
      }
    }
  }
}

TEST(HimorTest, FindTopKAncestorReturnsNullWhenNoneQualify) {
  // Make node 9 a peripheral leaf of a hub graph; with k=1 it should not be
  // top-1 anywhere above its deepest communities under p=1 (component sizes
  // tie, so rank 0...). Use a handcrafted index check instead: ask for an
  // ancestor of a *different* branch.
  const auto ex = testing::MakePaperExample();
  const DiffusionModel m = DiffusionModel::UniformIc(ex.graph, 1.0);
  const LcaIndex lca(ex.dendrogram);
  Rng rng(5);
  const HimorIndex index =
      testing::BuildHimorIndex(m, ex.dendrogram, lca, 2, rng);
  // c_ell = C5 = {8,9} is not on node 0's chain: the top-down scan stops
  // immediately after the shared prefix; with k = 0 nothing can qualify.
  const auto* hit = index.FindTopKAncestor(0, ex.c0, 0, ex.dendrogram);
  EXPECT_EQ(hit, nullptr);
}

}  // namespace
}  // namespace cod
