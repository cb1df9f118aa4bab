// Reproduces Table II: HIMOR index construction time and memory overhead,
// next to the size of the input data (graph + base hierarchy), and the
// hierarchy-balance term sum_v dep(v) that drives construction cost.

#include "bench/bench_util.h"
#include "common/table.h"
#include "common/timer.h"

namespace cod::bench {
namespace {

size_t GraphBytes(const Graph& g) {
  // CSR adjacency + canonical edge list (+ optional weights).
  return g.NumNodes() * sizeof(size_t) + 2 * g.NumEdges() * sizeof(AdjEntry) +
         g.NumEdges() * sizeof(std::pair<NodeId, NodeId>) +
         (g.HasWeights() ? g.NumEdges() * sizeof(double) : 0);
}

size_t DendrogramBytes(const Dendrogram& d) {
  // parents, children CSR, depth, leaf intervals, leaf order/positions.
  return d.NumVertices() *
             (sizeof(CommunityId) * 2 + sizeof(size_t) + 3 * sizeof(uint32_t)) +
         d.NumLeaves() * 2 * sizeof(uint32_t);
}

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv, /*default_queries=*/0,
                                 DatasetNames());
  RefuseBenchJson(flags, "table2_himor_overhead");
  std::printf("== Table II: HIMOR construction time and memory ==\n\n");
  TablePrinter table({"dataset", "build time (s)", "index (MB)", "input (MB)",
                      "sum dep(v)/|V|"});
  for (const std::string& name : flags.datasets) {
    const AttributedGraph data = LoadDatasetOrDie(name);
    EngineCore engine(data.graph, data.attributes, {});
    Rng rng(flags.seed);
    WallTimer timer;
    engine.BuildHimor(rng);
    const double build_seconds = timer.ElapsedSeconds();
    const HimorIndex& index = *engine.himor();
    const Dendrogram& base = engine.base_hierarchy();
    double total_depth = 0.0;
    for (NodeId v = 0; v < data.graph.NumNodes(); ++v) {
      total_depth += base.Depth(base.LeafOf(v));
    }
    const double input_mb =
        (GraphBytes(data.graph) + DendrogramBytes(base)) / 1e6;
    table.AddRow({name, TablePrinter::Fmt(build_seconds, 2),
                  TablePrinter::Fmt(index.MemoryBytes() / 1e6, 2),
                  TablePrinter::Fmt(input_mb, 2),
                  TablePrinter::Fmt(
                      total_depth / data.graph.NumNodes(), 1)});
  }
  table.Print(stdout);
  std::printf(
      "\nExpected shape (paper): index size comparable to the input data;\n"
      "construction time scales with sum_v dep(v), so hierarchy skew (e.g.\n"
      "retweet-sim) costs more than a balanced hierarchy of equal size.\n");
  return DumpMetrics(flags);
}

}  // namespace
}  // namespace cod::bench

int main(int argc, char** argv) { return cod::bench::Run(argc, argv); }
