// Shared plumbing for the paper-reproduction bench binaries: flag parsing,
// dataset loading, and the one-evaluation-covers-all-k trick.
//
// Every bench accepts:
//   --queries=N          queries per dataset (default set per bench)
//   --datasets=a,b,c     comma-separated dataset names (default per bench)
//   --seed=S             workload seed (default 1)
//   --smoke              tiny workload for CI: proves the binary runs and
//                        emits its machine-readable lines, not a benchmark
//   --metrics-json=PATH  after the run, dump the process metrics registry
//                        (common/metrics.h JsonDump) to PATH
//   --bench-json=PATH    write the bench's canonical result entries
//                        (BenchJsonEntry below) to PATH as a JSON array —
//                        the regression-tracking format CI archives. Benches
//                        that produce no entries refuse it (exit 2) rather
//                        than write nothing; see RefuseBenchJson.

#ifndef COD_BENCH_BENCH_UTIL_H_
#define COD_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "core/engine_core.h"
#include "core/query_batch.h"
#include "core/query_workspace.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"

namespace cod::bench {

struct Flags {
  size_t queries = 0;
  std::vector<std::string> datasets;
  uint64_t seed = 1;
  size_t threads = 1;        // worker threads for batch benches
  bool smoke = false;        // CI smoke run: minimal workload
  std::string metrics_json;  // dump the metrics registry here ("" = don't)
  std::string bench_json;    // canonical bench results here ("" = don't)
};

inline Flags ParseFlags(int argc, char** argv, size_t default_queries,
                        std::vector<std::string> default_datasets) {
  Flags flags;
  flags.queries = default_queries;
  flags.datasets = std::move(default_datasets);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--queries=", 0) == 0) {
      flags.queries = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      flags.threads = std::strtoull(arg.c_str() + 10, nullptr, 10);
      if (flags.threads == 0) flags.threads = 1;
    } else if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      flags.metrics_json = arg.substr(15);
    } else if (arg.rfind("--bench-json=", 0) == 0) {
      flags.bench_json = arg.substr(13);
    } else if (arg.rfind("--datasets=", 0) == 0) {
      flags.datasets.clear();
      std::string list = arg.substr(11);
      size_t pos = 0;
      while (pos != std::string::npos) {
        const size_t comma = list.find(',', pos);
        flags.datasets.push_back(list.substr(
            pos, comma == std::string::npos ? comma : comma - pos));
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (expected --queries= --datasets= "
                   "--seed= --threads= --smoke --metrics-json= "
                   "--bench-json=)\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  if (flags.smoke && flags.queries > 20) flags.queries = 20;
  return flags;
}

// For benches that emit no BenchJsonEntry: a --bench-json request is an
// error (exit 2), never a silently missing file. Call right after
// ParseFlags.
inline void RefuseBenchJson(const Flags& flags, const char* bench) {
  if (flags.bench_json.empty()) return;
  std::fprintf(stderr,
               "%s writes no bench entries; --bench-json is not supported "
               "(use --metrics-json)\n",
               bench);
  std::exit(2);
}

// Writes MetricsRegistry::JsonDump() to flags.metrics_json if set (and
// always prints it as a METRICS_JSON line for log scraping). Call at the
// end of a bench's Run().
inline int DumpMetrics(const Flags& flags) {
  const std::string json = MetricsRegistry::Instance().JsonDump();
  std::printf("METRICS_JSON %s\n", json.c_str());
  if (flags.metrics_json.empty()) return 0;
  std::FILE* f = std::fopen(flags.metrics_json.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 flags.metrics_json.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return 0;
}

// One canonical bench result: a named measurement under a named
// configuration. Wall-clock quantiles are over per-repetition times of one
// unit of work; samples_per_sec is the work-rate at the median.
struct BenchJsonEntry {
  std::string name;    // what was measured, e.g. "rr_pool_build"
  std::string config;  // how, e.g. "serial" / "pool4" / "threads=2"
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double samples_per_sec = 0.0;  // units of work per second at p50
  size_t samples = 0;            // units of work timed per repetition
};

// Writes `entries` to `path` as a JSON array (one object per entry) and
// echoes each as a BENCH_JSON line for log scraping. Returns 0 on success.
inline int WriteBenchJson(const std::string& path,
                          const std::vector<BenchJsonEntry>& entries) {
  std::string out = "[";
  char buf[512];
  for (size_t i = 0; i < entries.size(); ++i) {
    const BenchJsonEntry& e = entries[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"name\":\"%s\",\"config\":\"%s\","
                  "\"p50_seconds\":%.9f,\"p95_seconds\":%.9f,"
                  "\"p99_seconds\":%.9f,"
                  "\"samples_per_sec\":%.2f,\"samples\":%zu}",
                  i == 0 ? "" : ",", e.name.c_str(), e.config.c_str(),
                  e.p50_seconds, e.p95_seconds, e.p99_seconds,
                  e.samples_per_sec, e.samples);
    out += buf;
    std::printf("BENCH_JSON {\"name\":\"%s\",\"config\":\"%s\","
                "\"p50_seconds\":%.9f,\"p95_seconds\":%.9f,"
                "\"p99_seconds\":%.9f,"
                "\"samples_per_sec\":%.2f,\"samples\":%zu}\n",
                e.name.c_str(), e.config.c_str(), e.p50_seconds,
                e.p95_seconds, e.p99_seconds, e.samples_per_sec, e.samples);
  }
  out += "\n]\n";
  if (path.empty()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return 0;
}

// p-th quantile (0 <= p <= 1) of `times` by sorting a copy; nearest-rank.
inline double Quantile(std::vector<double> times, double p) {
  if (times.empty()) return 0.0;
  std::sort(times.begin(), times.end());
  const size_t idx = static_cast<size_t>(p * (times.size() - 1) + 0.5);
  return times[idx < times.size() ? idx : times.size() - 1];
}

inline AttributedGraph LoadDatasetOrDie(const std::string& name) {
  Result<AttributedGraph> data = MakeDataset(name);
  if (!data.ok()) {
    std::fprintf(stderr, "failed to build dataset %s: %s\n", name.c_str(),
                 data.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(data).value();
}

// Derives, for each k in [1, max_k], the best (largest) chain level where
// the query is top-k, from ONE evaluation run at k = max_k: levels with
// rank_per_level[h] < k qualify. Returns -1 when none qualifies.
inline int BestLevelForK(const ChainEvalOutcome& outcome, uint32_t k) {
  int best = -1;
  for (size_t h = 0; h < outcome.rank_per_level.size(); ++h) {
    if (outcome.rank_per_level[h] < k) best = static_cast<int>(h);
  }
  return best;
}

}  // namespace cod::bench

#endif  // COD_BENCH_BENCH_UTIL_H_
