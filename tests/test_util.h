// Shared fixtures for the codlib test suite: tiny hand-built graphs and the
// paper's running example (Fig. 2 graph + hierarchy, Fig. 5 attributes).

#ifndef COD_TESTS_TEST_UTIL_H_
#define COD_TESTS_TEST_UTIL_H_

#include <vector>

#include "core/engine_core.h"
#include "core/himor.h"
#include "graph/attributes.h"
#include "graph/graph.h"
#include "hierarchy/dendrogram.h"

namespace cod::testing {

// Bit-level equality of two query answers (every observable field), used by
// the determinism and concurrency suites.
inline bool SameResult(const CodResult& a, const CodResult& b) {
  return a.found == b.found && a.members == b.members && a.rank == b.rank &&
         a.num_levels == b.num_levels &&
         a.answered_from_index == b.answered_from_index &&
         a.code == b.code && a.degraded == b.degraded &&
         a.variant_served == b.variant_served;
}

// Unbudgeted HIMOR build whose schedule seed is one rng.Next() draw.
inline HimorIndex BuildHimorIndex(const DiffusionModel& model,
                                  const Dendrogram& dendrogram,
                                  const LcaIndex& lca, uint32_t theta,
                                  Rng& rng, uint32_t max_rank = 16) {
  Result<HimorIndex> built = HimorIndex::Build(
      HimorBuildSpec{.model = &model,
                     .dendrogram = &dendrogram,
                     .lca = &lca,
                     .theta = theta,
                     .max_rank = max_rank,
                     .seed = rng.Next()});
  COD_CHECK(built.ok());
  return std::move(built).value();
}

// Path 0-1-2-...-(n-1).
inline Graph MakePath(size_t n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  return std::move(b).Build();
}

// Complete graph on n nodes.
inline Graph MakeClique(size_t n) {
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) b.AddEdge(u, v);
  }
  return std::move(b).Build();
}

// Two k-cliques {0..k-1} and {k..2k-1} joined by the bridge (k-1, k).
inline Graph MakeTwoCliquesWithBridge(size_t k) {
  GraphBuilder b(2 * k);
  for (NodeId u = 0; u < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) {
      b.AddEdge(u, v);
      b.AddEdge(u + k, v + k);
    }
  }
  b.AddEdge(static_cast<NodeId>(k - 1), static_cast<NodeId>(k));
  return std::move(b).Build();
}

// The paper's Fig. 2 example: 10 nodes, 15 edges, hierarchy
//   C0 = {v0..v3}, C2 = {v6,v7}, C3 = C0+C2, C1 = {v4,v5}, C4 = C3+C1,
//   C5 = {v8,v9}, C6 = C4+C5 (root).
// Depths: C6=1, C4=2, C5=2, C3=3, C1=3, C0=4, C2=4 — matching Example 2's
// dep(C3) = 3 and H(v0) = {C0, C3, C4, C6}.
struct PaperExample {
  Graph graph;
  Dendrogram dendrogram;
  CommunityId c0, c1, c2, c3, c4, c5, c6;
};

inline PaperExample MakePaperExample() {
  PaperExample ex;
  GraphBuilder b(10);
  // Dense block {v0..v3}.
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  // Block {v6, v7} attached to C0.
  b.AddEdge(6, 7);
  b.AddEdge(3, 7);
  b.AddEdge(2, 6);
  // Block {v4, v5} attached to C3's nodes.
  b.AddEdge(4, 5);
  b.AddEdge(2, 4);
  b.AddEdge(3, 5);
  b.AddEdge(5, 6);
  // Block {v8, v9} attached to the rest.
  b.AddEdge(8, 9);
  b.AddEdge(4, 8);
  b.AddEdge(7, 9);
  ex.graph = std::move(b).Build();

  DendrogramBuilder db(10);
  // Build bottom-up; leaves are 0..9. C0 is a 4-way vertex exactly as in
  // Fig. 2 (the builder supports arbitrary fan-out).
  const CommunityId c0_children[4] = {0, 1, 2, 3};
  ex.c0 = db.Merge(c0_children);           // C0 = {0,1,2,3}
  ex.c2 = db.Merge(6, 7);                  // C2 = {6,7}
  ex.c3 = db.Merge(ex.c0, ex.c2);          // C3
  ex.c1 = db.Merge(4, 5);                  // C1 = {4,5}
  ex.c4 = db.Merge(ex.c3, ex.c1);          // C4
  ex.c5 = db.Merge(8, 9);                  // C5 = {8,9}
  ex.c6 = db.Merge(ex.c4, ex.c5);          // C6 = root
  ex.dendrogram = std::move(db).Build();
  return ex;
}

// Fig. 5 attributes: DB on v2, v3, v4, v5, v7 (the query-attributed edges on
// v0's chain are then (v2,v4), (v3,v5) with lca C4 and (v3,v7) with lca C3,
// reproducing Delta(C3) = 1, Delta(C4) = 2 of Example 6; note v2-v3 is an
// in-C0 edge and must stay excluded from every score).
inline AttributeTable MakePaperAttributes() {
  AttributeTableBuilder b;
  for (NodeId v : {2, 3, 4, 5, 7}) b.Add(v, "DB");
  b.Add(0, "IR");
  b.Add(1, "IR");
  b.Add(8, "ML");
  b.Add(9, "ML");
  return std::move(b).Build(10);
}

}  // namespace cod::testing

#endif  // COD_TESTS_TEST_UTIL_H_
