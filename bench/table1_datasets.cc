// Reproduces Table I: network statistics, including the average number of
// hierarchical communities containing a query node under LORE's attribute-
// aware hierarchy (|H_l(q)| averaged over the query workload).

#include "bench/bench_util.h"
#include "common/table.h"
#include "common/timer.h"

namespace cod::bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv, /*default_queries=*/100,
                                 DatasetNames());
  RefuseBenchJson(flags, "table1_datasets");
  std::printf("== Table I: network statistics ==\n");
  std::printf("(avg |H_l(q)| over %zu LORE chains per dataset)\n\n",
              flags.queries);
  TablePrinter table({"network", "|V|", "|E|", "|A|", "avg |H_l(q)|"});
  for (const std::string& name : flags.datasets) {
    const AttributedGraph data = LoadDatasetOrDie(name);
    EngineCore engine(data.graph, data.attributes, {});
    Rng rng(flags.seed);
    const std::vector<Query> queries =
        GenerateQueries(data.attributes, flags.queries, rng);
    double levels = 0.0;
    for (const Query& q : queries) {
      levels += engine.BuildCodlChain(q.node, q.attribute).chain.NumLevels();
    }
    table.AddRow({name, TablePrinter::Fmt(data.graph.NumNodes()),
                  TablePrinter::Fmt(data.graph.NumEdges()),
                  TablePrinter::Fmt(data.attributes.NumAttributes()),
                  TablePrinter::Fmt(levels / queries.size(), 1)});
  }
  table.Print(stdout);
  return DumpMetrics(flags);
}

}  // namespace
}  // namespace cod::bench

int main(int argc, char** argv) { return cod::bench::Run(argc, argv); }
