// Quickstart: build a small attributed graph, construct an EngineCore, and ask
// for a node's characteristic community — the largest community on the query
// topic in which the node is one of the top-k most influential members.
//
//   $ ./quickstart
//
// The graph is the paper's running example (Fig. 2/Fig. 5): ten researchers,
// fifteen coauthorship edges, and topic attributes DB/IR/ML.

#include <cstdio>

#include "core/engine_core.h"
#include "core/query_workspace.h"

int main() {
  // 1. Build the graph (15 undirected edges over 10 nodes).
  cod::GraphBuilder graph_builder(10);
  const std::pair<cod::NodeId, cod::NodeId> edges[] = {
      {0, 1}, {0, 2}, {0, 3}, {1, 2}, {2, 3},  // dense group around 0
      {6, 7}, {3, 7}, {2, 6},                  // group {6,7}
      {4, 5}, {2, 4}, {3, 5}, {5, 6},          // group {4,5}
      {8, 9}, {4, 8}, {7, 9},                  // group {8,9}
  };
  for (const auto& [u, v] : edges) graph_builder.AddEdge(u, v);
  const cod::Graph graph = std::move(graph_builder).Build();

  // 2. Attach categorical attributes.
  cod::AttributeTableBuilder attr_builder;
  for (cod::NodeId v : {0, 2, 3, 4, 5, 7}) attr_builder.Add(v, "DB");
  for (cod::NodeId v : {0, 1, 6}) attr_builder.Add(v, "IR");
  for (cod::NodeId v : {8, 9}) attr_builder.Add(v, "ML");
  const cod::AttributeTable attrs = std::move(attr_builder).Build(10);

  // 3. Construct the engine: this clusters the graph into a community
  //    hierarchy and prepares the influence model (weighted-cascade IC).
  cod::EngineOptions options;
  options.k = 1;       // require the query to be the single most influential
  options.theta = 200; // RR graphs per node (tiny graph -> sample generously)
  cod::EngineCore engine(graph, attrs, options);

  // 4. Build the HIMOR index once, then query through a workspace (one
  //    workspace per thread; this example is single-threaded).
  cod::Rng rng(/*seed=*/42);
  engine.BuildHimor(rng);
  cod::QueryWorkspace ws(engine, /*seed=*/42);

  const cod::AttributeId topic = attrs.Find("DB");
  auto show = [&](cod::NodeId query, uint32_t k) {
    const cod::CodResult result = engine.Query(
        {.variant = cod::CodVariant::kCodL, .node = query, .k = k,
         .attrs = {topic}},
        ws);
    if (!result.found) {
      std::printf(
          "node %u is not a top-%u influencer in any DB community\n", query,
          k);
      return;
    }
    std::printf("characteristic community of node %u on topic 'DB' (k=%u):\n ",
                query, k);
    for (const cod::NodeId v : result.members) std::printf(" %u", v);
    std::printf("\n  size: %zu   estimated rank of the query: #%u   %s\n",
                result.members.size(), result.rank + 1,
                result.answered_from_index ? "(answered from HIMOR index)"
                                           : "(answered by local evaluation)");
  };

  // The hub (node 2) dominates the whole graph; node 0 only leads smaller
  // groups — loosening k reveals communities at different scales.
  show(/*query=*/2, /*k=*/1);
  show(/*query=*/0, /*k=*/1);
  show(/*query=*/0, /*k=*/2);

  // Compare with the topic-blind variant to see what the attribute adds.
  const cod::CodResult plain =
      engine.Query({.variant = cod::CodVariant::kCodU, .node = 0, .k = 2}, ws);
  std::printf("topic-blind characteristic community of node 0 (k=2): %zu "
              "members\n",
              plain.found ? plain.members.size() : 0);
  return 0;
}
