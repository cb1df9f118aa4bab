// Serving throughput of the batch-query API: queries/sec of one immutable
// EngineCore snapshot under 1/2/4/8 worker threads. Every sweep runs the
// identical workload with the identical batch seed, so the determinism
// contract (core/query_batch.h) lets us assert bit-identical answers across
// thread counts while only wall time changes.
//
// Besides the human-readable table, each configuration emits one
// machine-readable line:
//   THROUGHPUT_JSON {"dataset":"cora-sim","threads":4,...}
// for dashboards / regression tracking (grep for THROUGHPUT_JSON).
//
// --bench-json=PATH additionally writes canonical BenchJsonEntry records
// (bench/bench_util.h): one "serving_batch" entry per thread config with
// p50/p95 over repeated batch runs and queries/sec at the median.

#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "core/query_batch.h"
#include "tests/test_util.h"

namespace cod::bench {
namespace {

int Run(int argc, char** argv) {
  Flags flags =
      ParseFlags(argc, argv, /*default_queries=*/200, {"cora-sim"});
  std::printf("== Serving throughput: QueryBatch queries/sec ==\n\n");
  TablePrinter table({"dataset", "threads", "queries", "seconds",
                      "queries/sec", "speedup vs 1"});
  std::vector<BenchJsonEntry> bench_entries;
  const std::vector<size_t> thread_counts =
      flags.smoke ? std::vector<size_t>{1, 2}
                  : std::vector<size_t>{1, 2, 4, 8};
  for (const std::string& name : flags.datasets) {
    const AttributedGraph data = LoadDatasetOrDie(name);
    EngineCore engine(data.graph, data.attributes, {});
    Rng rng(flags.seed);
    engine.BuildHimor(rng);

    Rng query_rng(flags.seed + 1);
    const std::vector<Query> queries =
        GenerateQueries(data.attributes, flags.queries, query_rng);
    std::vector<QuerySpec> specs;
    specs.reserve(queries.size());
    for (const Query& q : queries) {
      specs.push_back(QuerySpec{CodVariant::kCodL, q.node,
                                engine.options().k, {q.attribute}});
    }

    std::vector<CodResult> reference;
    double base_seconds = 0.0;
    WallTimer timer;
    const size_t reps = flags.smoke ? 3 : 7;
    for (const size_t threads : thread_counts) {
      TaskScheduler pool(threads);
      RunQueryBatch(engine, specs, pool, flags.seed);  // warm-up (cache, pages)
      std::vector<double> times;
      std::vector<CodResult> results;
      for (size_t r = 0; r < reps; ++r) {
        timer.Restart();
        results = RunQueryBatch(engine, specs, pool, flags.seed);
        times.push_back(timer.ElapsedSeconds());
      }
      const double seconds = Quantile(times, 0.5);

      // Thread count must not change a single answer.
      if (reference.empty()) {
        reference = results;
        base_seconds = seconds;
      } else {
        for (size_t i = 0; i < specs.size(); ++i) {
          if (!cod::testing::SameResult(results[i], reference[i])) {
            std::fprintf(stderr,
                         "FATAL: %s query %zu differs at %zu threads — "
                         "determinism contract broken\n",
                         name.c_str(), i, threads);
            return 1;
          }
        }
      }

      const double qps =
          seconds > 0.0 ? static_cast<double>(specs.size()) / seconds : 0.0;
      table.AddRow({name, TablePrinter::Fmt(threads),
                    TablePrinter::Fmt(specs.size()),
                    TablePrinter::Fmt(seconds, 3), TablePrinter::Fmt(qps, 1),
                    TablePrinter::Fmt(
                        seconds > 0.0 ? base_seconds / seconds : 0.0, 2)});
      std::printf(
          "THROUGHPUT_JSON {\"dataset\":\"%s\",\"threads\":%zu,"
          "\"queries\":%zu,\"seconds\":%.6f,\"queries_per_sec\":%.2f,"
          "\"seed\":%llu}\n",
          name.c_str(), threads, specs.size(), seconds, qps,
          static_cast<unsigned long long>(flags.seed));

      BenchJsonEntry entry;
      entry.name = "serving_batch_" + name;
      entry.config = "threads=" + std::to_string(threads);
      entry.samples = specs.size();
      entry.p50_seconds = seconds;
      entry.p95_seconds = Quantile(times, 0.95);
      entry.p99_seconds = Quantile(times, 0.99);
      entry.samples_per_sec = qps;
      bench_entries.push_back(std::move(entry));
    }
  }
  std::printf("\n");
  table.Print(stdout);
  std::printf(
      "\nAll thread counts answered the workload bit-identically (checked\n"
      "against the 1-thread run). Speedup tracks available cores; on a\n"
      "single-core machine expect ~1.0 across the sweep.\n");
  if (const int rc = WriteBenchJson(flags.bench_json, bench_entries);
      rc != 0) {
    return rc;
  }
  return DumpMetrics(flags);
}

}  // namespace
}  // namespace cod::bench

int main(int argc, char** argv) { return cod::bench::Run(argc, argv); }
