// Exact possible-world semantics tests.
//
// For tiny graphs the IC model is exactly computable: every directed edge
// orientation is independently live, so enumerating all 2^(2|E|) worlds and
// averaging reachable-set sizes gives sigma_C(v) to machine precision. This
// validates, against ground truth rather than against another estimator:
//   * the forward Monte-Carlo simulator,
//   * RR-set counting (Theorem 1),
//   * induced-community estimation through shared RR graphs (Theorem 2),
//   * the compressed evaluator's per-level ranks, and
//   * HIMOR's stored ranks.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/compressed_eval.h"
#include "core/himor.h"
#include "hierarchy/lca.h"
#include "influence/influence_oracle.h"
#include "influence/monte_carlo.h"
#include "tests/test_util.h"

namespace cod {
namespace {

// Exact expected influence of every node within the community `allowed`
// (nullptr = whole graph), by enumerating all live-edge worlds.
std::vector<double> ExactInfluence(const Graph& g, const DiffusionModel& m,
                                   const std::vector<char>* allowed) {
  const size_t num_directed = 2 * g.NumEdges();
  COD_CHECK(num_directed <= 22);  // 4M worlds tops
  const size_t num_worlds = size_t{1} << num_directed;

  // Directed edge i: orientation toward Endpoints(e).second for even i,
  // toward .first for odd i (matching edge id e = i / 2).
  auto prob_of = [&](size_t i) {
    const EdgeId e = static_cast<EdgeId>(i / 2);
    const auto [lo, hi] = g.Endpoints(e);
    return m.ProbToward(e, i % 2 == 0 ? hi : lo);
  };

  std::vector<double> sigma(g.NumNodes(), 0.0);
  std::vector<char> reached(g.NumNodes());
  std::vector<NodeId> stack;
  for (size_t world = 0; world < num_worlds; ++world) {
    double probability = 1.0;
    for (size_t i = 0; i < num_directed; ++i) {
      const double p = prob_of(i);
      probability *= (world >> i & 1) ? p : (1.0 - p);
    }
    if (probability == 0.0) continue;
    // Reachability from each seed within `allowed` along live edges.
    for (NodeId seed = 0; seed < g.NumNodes(); ++seed) {
      if (allowed != nullptr && !(*allowed)[seed]) continue;
      std::fill(reached.begin(), reached.end(), 0);
      stack.assign(1, seed);
      reached[seed] = 1;
      size_t count = 1;
      while (!stack.empty()) {
        const NodeId u = stack.back();
        stack.pop_back();
        for (const AdjEntry& a : g.Neighbors(u)) {
          if (reached[a.to]) continue;
          if (allowed != nullptr && !(*allowed)[a.to]) continue;
          // Live orientation u -> a.to?
          const auto [lo, hi] = g.Endpoints(a.edge);
          const size_t bit = 2 * a.edge + (a.to == hi ? 0 : 1);
          if (!(world >> bit & 1)) continue;
          reached[a.to] = 1;
          stack.push_back(a.to);
          ++count;
        }
      }
      sigma[seed] += probability * static_cast<double>(count);
    }
  }
  return sigma;
}

// Small asymmetric test graph: distinct degrees give well-separated sigmas.
Graph TestGraph() {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  return std::move(b).Build();
}

TEST(ExactWorldTest, MonteCarloMatchesEnumeration) {
  const Graph g = TestGraph();
  const DiffusionModel m = DiffusionModel::UniformIc(g, 0.4);
  const std::vector<double> exact = ExactInfluence(g, m, nullptr);
  MonteCarloSimulator simulator(m);
  Rng rng(1);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_NEAR(simulator.EstimateInfluence(v, 200000, rng), exact[v], 0.02)
        << "node " << v;
  }
}

TEST(ExactWorldTest, WeightedCascadeMonteCarloMatchesEnumeration) {
  const Graph g = TestGraph();
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  const std::vector<double> exact = ExactInfluence(g, m, nullptr);
  MonteCarloSimulator simulator(m);
  Rng rng(2);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_NEAR(simulator.EstimateInfluence(v, 200000, rng), exact[v], 0.02);
  }
}

TEST(ExactWorldTest, RrCountingMatchesEnumeration) {
  const Graph g = TestGraph();
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  const std::vector<double> exact = ExactInfluence(g, m, nullptr);
  InfluenceOracle oracle(m);
  Rng rng(3);
  std::vector<NodeId> everyone = {0, 1, 2, 3, 4, 5};
  const uint32_t theta = 60000;
  const std::vector<uint32_t> counts =
      oracle.CountsWithin(everyone, theta, rng);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_NEAR(static_cast<double>(counts[v]) / theta, exact[v], 0.03)
        << "node " << v;
  }
}

TEST(ExactWorldTest, RestrictedRrMatchesCommunityEnumeration) {
  const Graph g = TestGraph();
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  std::vector<char> community(6, 0);
  for (NodeId v : {0, 1, 2, 3}) community[v] = 1;
  const std::vector<double> exact = ExactInfluence(g, m, &community);
  InfluenceOracle oracle(m);
  Rng rng(4);
  const std::vector<NodeId> members = {0, 1, 2, 3};
  const uint32_t theta = 60000;
  const std::vector<uint32_t> counts = oracle.CountsWithin(members, theta, rng);
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / theta, exact[members[i]],
                0.03)
        << "node " << members[i];
  }
}

// Exact rank (strictly greater count) with a tie guard: returns the exact
// rank only if no other node's sigma is within `margin` of q's.
int GuardedExactRank(const std::vector<double>& sigma,
                     std::span<const NodeId> members, NodeId q,
                     double margin) {
  uint32_t rank = 0;
  for (NodeId v : members) {
    if (v == q) continue;
    if (std::abs(sigma[v] - sigma[q]) < margin) return -1;  // too close
    if (sigma[v] > sigma[q]) ++rank;
  }
  return static_cast<int>(rank);
}

TEST(ExactWorldTest, CompressedEvaluatorRanksMatchEnumeration) {
  const Graph g = TestGraph();
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  // Hand-built chain over the dendrogram {0,1,2} < {0,1,2,3} < all.
  DendrogramBuilder db(6);
  const CommunityId c01 = db.Merge(0, 1);
  const CommunityId c012 = db.Merge(c01, 2);
  const CommunityId c0123 = db.Merge(c012, 3);
  const CommunityId c45 = db.Merge(4, 5);
  db.Merge(c0123, c45);
  const Dendrogram d = std::move(db).Build();

  CompressedEvaluator evaluator(m, /*theta=*/4000);
  Rng rng(5);
  const uint32_t k = 2;
  for (NodeId q : {0u, 1u, 3u}) {
    const CodChain chain = BuildChainFromDendrogram(d, q);
    const ChainEvalOutcome outcome = evaluator.Evaluate(chain, q, k, rng);
    for (uint32_t h = 0; h < chain.NumLevels(); ++h) {
      const std::vector<NodeId> members = chain.MembersOfLevel(h);
      std::vector<char> allowed(6, 0);
      for (NodeId v : members) allowed[v] = 1;
      const std::vector<double> exact = ExactInfluence(g, m, &allowed);
      const int exact_rank = GuardedExactRank(exact, members, q, 0.08);
      if (exact_rank < 0) continue;  // near-tie: estimator may flip
      EXPECT_EQ(outcome.rank_per_level[h],
                std::min<uint32_t>(static_cast<uint32_t>(exact_rank), k))
          << "q=" << q << " level=" << h;
    }
  }
}

TEST(ExactWorldTest, HimorRanksMatchEnumeration) {
  const Graph g = TestGraph();
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  DendrogramBuilder db(6);
  const CommunityId c01 = db.Merge(0, 1);
  const CommunityId c012 = db.Merge(c01, 2);
  const CommunityId c0123 = db.Merge(c012, 3);
  const CommunityId c45 = db.Merge(4, 5);
  db.Merge(c0123, c45);
  const Dendrogram d = std::move(db).Build();
  const LcaIndex lca(d);
  Rng rng(6);
  const HimorIndex index =
      testing::BuildHimorIndex(m, d, lca, /*theta=*/4000, rng);

  for (NodeId q = 0; q < 6; ++q) {
    for (const auto& entry : index.RanksOf(q)) {
      const auto span = d.Members(entry.community);
      std::vector<char> allowed(6, 0);
      for (NodeId v : span) allowed[v] = 1;
      const std::vector<double> exact = ExactInfluence(g, m, &allowed);
      const int exact_rank = GuardedExactRank(exact, span, q, 0.08);
      if (exact_rank < 0) continue;
      EXPECT_EQ(entry.rank, static_cast<uint32_t>(exact_rank))
          << "q=" << q << " community=" << entry.community;
    }
  }
}

}  // namespace
}  // namespace cod
