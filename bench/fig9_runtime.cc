// Reproduces Fig. 9: end-to-end COD query runtime of CODR, CODL- (LORE
// without the index), and fully optimized CODL (LORE + HIMOR), including the
// scalability run on the livejournal-sim stand-in.
//
// Timings include everything a fresh query pays: CODR re-clusters the whole
// weighted graph; CODL- re-clusters only C_ell and evaluates the full
// spliced chain; CODL consults HIMOR and only falls back to local
// evaluation. HIMOR construction cost is reported separately (Table II).
//
// The workload now runs through the concurrent batch API (one QuerySpec
// vector per variant). The default --threads=1 keeps per-query averages
// comparable to a sequential sweep; higher thread counts divide wall time
// without changing any answer (see core/query_batch.h's determinism
// contract). --metrics-json dumps the per-variant
// cod_query_latency_seconds histograms and stage timings of the run; the
// bench writes no BenchJsonEntry, so --bench-json is refused (exit 2).

#include "bench/bench_util.h"
#include "common/table.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "core/query_batch.h"

namespace cod::bench {
namespace {

std::vector<QuerySpec> SpecsFor(const std::vector<Query>& queries,
                                CodVariant variant, uint32_t k) {
  std::vector<QuerySpec> specs;
  specs.reserve(queries.size());
  for (const Query& q : queries) {
    specs.push_back(QuerySpec{variant, q.node, k, {q.attribute}});
  }
  return specs;
}

int Run(int argc, char** argv) {
  Flags flags = ParseFlags(
      argc, argv, /*default_queries=*/0,
      {"cora-sim", "citeseer-sim", "pubmed-sim", "retweet-sim", "amazon-sim",
       "dblp-sim", "livejournal-sim"});
  RefuseBenchJson(flags, "fig9_runtime");
  // CI smoke: the first dataset only, at 8 queries per variant.
  if (flags.smoke) {
    flags.datasets.resize(1);
    if (flags.queries == 0) flags.queries = 8;
  }
  std::printf("== Fig. 9: query runtime (seconds/query, %zu thread%s) ==\n\n",
              flags.threads, flags.threads == 1 ? "" : "s");
  TaskScheduler pool(flags.threads);
  TablePrinter table(
      {"dataset", "queries", "CODR", "CODL-", "CODL", "speedup R/L"});
  for (const std::string& name : flags.datasets) {
    const AttributedGraph data = LoadDatasetOrDie(name);
    EngineCore engine(data.graph, data.attributes, {});  // no CODR cache
    Rng rng(flags.seed);
    engine.BuildHimor(rng);

    // Default workload sizes shrink with graph size so the sweep stays
    // laptop-friendly; --queries overrides for all datasets.
    size_t num_queries = flags.queries;
    if (num_queries == 0) {
      const size_t n = data.graph.NumNodes();
      num_queries =
          n <= 3000 ? 60
                    : (name == "retweet-sim" ? 8
                                             : (n <= 40000 ? 15 : 6));
    }
    Rng query_rng(flags.seed + 1);
    const std::vector<Query> queries =
        GenerateQueries(data.attributes, num_queries, query_rng);
    const uint32_t k = engine.options().k;

    WallTimer timer;
    double per_variant[3] = {0.0, 0.0, 0.0};
    const CodVariant variants[3] = {CodVariant::kCodR, CodVariant::kCodLMinus,
                                    CodVariant::kCodL};
    for (int v = 0; v < 3; ++v) {
      const std::vector<QuerySpec> specs = SpecsFor(queries, variants[v], k);
      timer.Restart();
      RunQueryBatch(engine, specs, pool, flags.seed);
      per_variant[v] = timer.ElapsedSeconds();
    }
    const double nq = static_cast<double>(queries.size());
    const double codr = per_variant[0];
    const double codl_minus = per_variant[1];
    const double codl = per_variant[2];
    table.AddRow({name, TablePrinter::Fmt(queries.size()),
                  TablePrinter::Fmt(codr / nq, 4),
                  TablePrinter::Fmt(codl_minus / nq, 4),
                  TablePrinter::Fmt(codl / nq, 4),
                  TablePrinter::Fmt(codl > 0.0 ? codr / codl : 0.0, 1)});
  }
  table.Print(stdout);
  std::printf(
      "\nExpected shape (paper): CODL- beats CODR (local vs global\n"
      "reclustering); CODL beats CODL- by a further 5-10x via HIMOR; the\n"
      "gap widens with graph size (paper reports ~25x CODR/CODL on DBLP).\n");
  return DumpMetrics(flags);
}

}  // namespace
}  // namespace cod::bench

int main(int argc, char** argv) { return cod::bench::Run(argc, argv); }
