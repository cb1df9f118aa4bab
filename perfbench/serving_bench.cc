// The repository's serving benchmark: one workload per process. Every timed
// operation goes through the serving tier's public API (MakeCodService,
// CodServiceInterface::{QueryBatch, AddEdge, RemoveEdge, Refresh},
// RecoverCodService); only the traced run's replays call the per-layer
// functions directly. perfbench/run.py builds this binary and calls it; see
// perfbench/README.md for the workloads, the metrics and what each layer
// metric is expected to move.
//
//   serving_bench --workload lj-index --seed 7 --seconds 10 --trace 0
//                 --work-dir DIR [--commit SHA]
//
// One client thread drives a closed loop (the next call goes out only when
// the previous one returned) against a service whose TaskScheduler has two
// workers. The run prints human-readable progress on stderr and one line
//   RESULT {"provenance":{...},"correct":...,"attempted":...,"failed":...,
//           "metrics":{...},"layers":{...}}
// on stdout. With --trace 1 the same workload runs with spans recorded in
// this file around the calls into each layer, and "layers" holds the
// per-layer numbers. Exit status: 0 ok, 1 an answer-correctness gate
// failed, 2 bad arguments or inputs.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/task_scheduler.h"
#include "core/engine_core.h"
#include "core/himor.h"
#include "core/query_batch.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"
#include "hierarchy/agglomerative.h"
#include "influence/coverage_sketch.h"
#include "serving/service_interface.h"
#include "serving/service_options.h"
#include "storage/epoch_snapshot.h"

namespace cod::perfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

// Derives an independent stream seed from the workload seed and a tag.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t state = seed ^ tag;
  return SplitMix64(state);
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Arguments.
// ---------------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;
  std::string commit = "unknown";
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      flags->workload = value;
    } else if (key == "--seed") {
      flags->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      flags->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      flags->trace = value == "1";
    } else if (key == "--work-dir") {
      flags->work_dir = value;
    } else if (key == "--commit") {
      flags->commit = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "flags come in --name value pairs\n");
    return false;
  }
  return !flags->workload.empty() && !flags->work_dir.empty() &&
         flags->seconds > 0.0;
}

// ---------------------------------------------------------------------------
// Workloads. Everything that differs between them lives here; the phases
// below read these fields and nothing else.
// ---------------------------------------------------------------------------

enum class Mix { kIndexed, kChurn };

struct Workload {
  const char* name;
  const char* dataset;
  Mix mix;
  bool delta_rebuild;
  int setup_reps;    // MakeCodService repetitions; setup_s is their median
  int restart_reps;  // RecoverCodService repetitions at the end of each
                     // segment; restart_s is the median of all of them
  size_t warmup_queries;
  // How often each timed query runs; its latency is its fastest run, so a
  // stretch of host interference has to cover every run to show. Each rerun
  // asks the same spec with the same batch seed and must answer like the
  // first run. The read workloads rerun a query in later loop segments,
  // kSegments / query_runs segments apart, on the service recovered in
  // between; cora-churn reruns each publish's queries on the same epoch,
  // round robin.
  int query_runs;
  size_t batch_specs;  // specs per batch-phase QueryBatch call
  size_t probe_specs;  // fixed probe set for the restart / cold-build gates
};

constexpr Workload kWorkloads[] = {
    {"lj-index", "livejournal-sim", Mix::kIndexed, false, 3, 1, 40, 4, 128,
     40},
    {"cora-churn", "cora-sim", Mix::kChurn, true, 31, 3, 0, 2, 64, 8},
};

constexpr uint32_t kTopK = 5;
constexpr size_t kQueryPool = 4096;
constexpr size_t kWorkers = 2;
// The closed loop, the batch phase and the restarts each run in this many
// segments, alternating, so that every metric samples the host evenly over
// the whole run and not over a few stretches of it. The host's speed drifts
// over seconds to minutes.
constexpr int kSegments = 12;
// Shares of --seconds: client time of the closed loop, wall time of the
// batch phase.
constexpr double kLoopShare = 2.0 / 3.0;
constexpr double kBatchShare = 1.0 / 3.0;
static_assert(
    [] {
      for (const Workload& w : kWorkloads) {
        if (w.query_runs < 1 || kSegments % w.query_runs != 0) return false;
      }
      return true;
    }(),
    "every query_runs must divide kSegments");
// The batch phase runs at least this many slices, one per segment.
constexpr size_t kMinBatchSlices = kSegments;
constexpr double kRssSampleMs = 50.0;
// cora-churn's update batches cycle through these sizes; each is followed
// by one Refresh() and kQueriesPerPublish queries on the fresh epoch.
constexpr size_t kChurnBatchSizes[] = {1, 2, 4, 32};
constexpr size_t kQueriesPerPublish = 4;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Query i of the workload's query pool. lj-index interleaves CODL with the
// HIMOR-only kCodUIndexed 4:1; cora-churn asks only CODR. (A CODL mix makes
// cora-churn's median fall between CODL answered by HIMOR alone, ~0.2 ms,
// and CODL answered through the CODL- fallback, 0.5-26 ms, so it jumps
// between seeds. CODR re-clusters for every query, as the per-attribute
// hierarchy cache is off by default.)
QuerySpec MakeSpec(Mix mix, size_t i, const Query& q) {
  QuerySpec spec;
  spec.node = q.node;
  spec.k = kTopK;
  switch (mix) {
    case Mix::kIndexed:
      spec.variant = i % 5 == 4 ? CodVariant::kCodUIndexed : CodVariant::kCodL;
      break;
    case Mix::kChurn:
      spec.variant = CodVariant::kCodR;
      break;
  }
  if (spec.variant != CodVariant::kCodUIndexed) spec.attrs = {q.attribute};
  return spec;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded around calls made from this file, kept in memory,
// aggregated and written to stderr at the end. Spans of one client are
// strictly nested and sequential, so a span's children never overlap and its
// self time is its duration minus the sum of its children's.
// ---------------------------------------------------------------------------

class Trace {
 public:
  struct Totals {
    double total_ms = 0.0;
    double self_ms = 0.0;
    uint64_t count = 0;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span under `parent` (-1 = a root) in `phase`; returns its id,
  // or -1 when tracing is off.
  int Open(const char* phase, const char* name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back(Span{phase, name, parent, Clock::now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) {
    if (id >= 0) spans_[id].ms = MsSince(spans_[id].start);
  }
  // A finished span of `ms`: an interval this file already timed, or a
  // stage time the program reported in CodResult::stats. Returns its id, or
  // -1 when tracing is off.
  int Add(const char* phase, const char* name, int parent, double ms) {
    if (!enabled_) return -1;
    spans_.push_back(Span{phase, name, parent, Clock::time_point{}, ms});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Writes every span's totals, per phase and name, to `out`.
  void Dump(std::FILE* out) const {
    std::vector<std::string> phases;
    for (const Span& s : spans_) {
      if (std::find(phases.begin(), phases.end(), s.phase) == phases.end()) {
        phases.push_back(s.phase);
      }
    }
    for (const std::string& phase : phases) {
      for (const auto& [name, t] : Aggregate(phase)) {
        std::fprintf(out, "span %-12s %-28s n=%-6" PRIu64
                          " total_ms=%.3f self_ms=%.3f\n",
                     phase.c_str(), name.c_str(), t.count, t.total_ms,
                     t.self_ms);
      }
    }
  }

  // Per span name within `phase`.
  std::map<std::string, Totals> Aggregate(const std::string& phase) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ms[s.parent] += s.ms;
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].phase != phase) continue;
      Totals& t = out[spans_[i].name];
      t.total_ms += spans_[i].ms;
      t.self_ms += spans_[i].ms - child_ms[i];
      ++t.count;
    }
    return out;
  }

 private:
  struct Span {
    std::string phase;
    std::string name;
    int parent;
    Clock::time_point start;
    double ms;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Trace& trace, const char* phase, const char* name, int parent)
      : trace_(trace), id_(trace.Open(phase, name, parent)) {}
  ~ScopedSpan() { trace_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Trace& trace_;
  int id_;
};

// ---------------------------------------------------------------------------
// Metrics the library registers, read through their MetricsRegistry handles.
// Call these only once the library has registered the metric: a histogram
// created here first would get the default bucket bounds.
// ---------------------------------------------------------------------------

double CounterValue(const char* name) {
  return static_cast<double>(
      MetricsRegistry::Instance().GetCounter(name)->Value());
}

double GaugeValue(const char* name) {
  return MetricsRegistry::Instance().GetGauge(name)->Value();
}

// A histogram's (observation count, sum of observations).
std::pair<double, double> HistogramTotals(const char* name) {
  const Histogram* h = MetricsRegistry::Instance().GetHistogram(name);
  return {static_cast<double>(h->Count()), h->Sum()};
}

// The service's delta-rebuild counters: attempts, fallbacks to a cold
// build, and RR samples reused out of those touched.
struct DeltaCounters {
  double attempts = 0.0, fallbacks = 0.0, reused = 0.0, touched = 0.0;

  static DeltaCounters Read() {
    DeltaCounters c;
    c.attempts = CounterValue("cod_rebuild_delta_attempts_total");
    c.fallbacks = CounterValue("cod_rebuild_delta_fallbacks_total");
    c.reused = CounterValue("cod_rebuild_delta_samples_reused_total");
    c.touched = c.reused +
                CounterValue("cod_rebuild_delta_samples_replayed_total") +
                CounterValue("cod_rebuild_delta_samples_resampled_total");
    return c;
  }
  DeltaCounters Minus(const DeltaCounters& o) const {
    return {attempts - o.attempts, fallbacks - o.fallbacks, reused - o.reused,
            touched - o.touched};
  }
};

// ---------------------------------------------------------------------------
// Small helpers.
// ---------------------------------------------------------------------------

// Linear-interpolated quantile of `values` (q in [0, 1]).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

// Returns the allocator's free memory to the OS, so that a timed setup or
// restart faults in fresh pages, as a newly started process would, instead
// of reusing what the previous service freed. Whether glibc had kept that
// memory varied between repetitions and moved restart_s by up to 50%.
void ReleaseFreedMemory() { malloc_trim(0); }

// A "Vm...:" line of /proc/self/status in MB, e.g. VmHWM (peak) or VmRSS.
double ProcStatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  const size_t len = std::strlen(key);
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

struct Edge {
  NodeId u;
  NodeId v;
  double w;
};

// The edge set the benchmark tracks beside the service: what a cold build
// must reproduce, and where deletes draw existing edges from.
class EdgeBook {
 public:
  explicit EdgeBook(const Graph& g) : num_nodes_(g.NumNodes()) {
    edges_.reserve(g.NumEdges());
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      const auto [u, v] = g.Endpoints(e);
      Insert(Edge{u, v, g.Weight(e)});
    }
  }
  size_t num_nodes() const { return num_nodes_; }
  const std::vector<Edge>& edges() const { return edges_; }
  bool Has(NodeId u, NodeId v) const { return present_.count(Key(u, v)) != 0; }
  void Insert(const Edge& e) {
    edges_.push_back(e);
    present_.insert(Key(e.u, e.v));
  }
  Edge RemoveAt(size_t i) {
    const Edge e = edges_[i];
    present_.erase(Key(e.u, e.v));
    edges_[i] = edges_.back();
    edges_.pop_back();
    return e;
  }
  Graph Build() const {
    GraphBuilder b(num_nodes_);
    for (const Edge& e : edges_) b.AddEdge(e.u, e.v, e.w);
    return std::move(b).Build();
  }

 private:
  static uint64_t Key(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  size_t num_nodes_;
  std::vector<Edge> edges_;
  std::unordered_set<uint64_t> present_;
};

AttributeTable CopyAttributes(const AttributeTable& attrs) {
  AttributeTableBuilder b;
  for (AttributeId a = 0; a < attrs.NumAttributes(); ++a) {
    b.Intern(attrs.Name(a));
  }
  for (NodeId v = 0; v < attrs.NumNodes(); ++v) {
    for (const AttributeId a : attrs.AttributesOf(v)) b.Add(v, a);
  }
  return std::move(b).Build(attrs.NumNodes());
}

bool SameAnswer(const CodResult& a, const CodResult& b) {
  return a.found == b.found && a.members == b.members && a.rank == b.rank &&
         a.num_levels == b.num_levels &&
         a.answered_from_index == b.answered_from_index && a.code == b.code &&
         a.degraded == b.degraded && a.variant_served == b.variant_served &&
         a.ladder_rung == b.ladder_rung;
}

// One JSON object of {"value": v, "unit": u} metrics, or of raw fields.
class JsonObject {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"value\":%.9g,\"unit\":\"%s\"}",
                  std::isfinite(value) ? value : 0.0, unit);
    Field(name, buf);
  }
  void Field(const std::string& name, const std::string& raw) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += name;
    body_ += "\":";
    body_ += raw;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Newest epoch-*.cods file in `dir` ("" if none).
std::string NewestSnapshot(const std::string& dir) {
  std::string best;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("epoch-", 0) == 0 && entry.path().extension() == ".cods" &&
        name > fs::path(best).filename().string()) {
      best = entry.path().string();
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------------

class Bench {
 public:
  Bench(const Flags& flags, const Workload& w)
      : flags_(flags),
        w_(w),
        trace_(flags.trace),
        scheduler_(kWorkers),
        snapshot_dir_(flags.work_dir + "/snapshots") {}

  int Run();

 private:
  // ---- phases ----
  Status LoadInputs();
  void Setup();
  void QueryLoop(int segment);
  void ChurnLoop(int segment);
  void BatchPhase(int segment);
  void ColdBuildGate();
  void Restart(int segment);
  JsonObject LayerMetrics() const;
  void PrintResult();

  // ---- helpers ----
  ServiceOptions Options(bool snapshots);
  CodResult QueryOne(const CodServiceInterface& svc, const QuerySpec& spec,
                     uint64_t batch_seed);
  // The first answer that setup_s and restart_s wait for: a HIMOR-only
  // lookup, so the readiness time does not depend on which node the seed
  // drew first.
  QuerySpec ReadyProbe() const;
  // One timed closed-loop query of specs_[spec], kept in timed_.
  void TimedQuery(size_t spec, uint64_t batch_seed);
  // Runs a kept query again with its batch seed; it must answer alike. The
  // faster run's latency and program-reported stages are kept.
  struct TimedRecord;
  void RepeatQuery(TimedRecord& q);
  // Moves the kept queries into query_ms_, their stage spans and the
  // per-layer accumulators.
  void FinishQueries();
  std::vector<CodResult> Probe(const CodServiceInterface& svc);
  void CountAnswer(const CodResult& r);
  void CountOp(bool ok);
  void Gate(bool ok, const std::string& what);
  // Snapshot writes and write failures so far.
  double SnapshotWritesEnded();
  // Waits until `expected` snapshot writes have ended, then counts them.
  void WaitForSnapshotWrites(double expected);
  // Counts each snapshot write since the last call as an operation, and a
  // failed write as a failed one.
  void CountSnapshotWrites();
  void SampleLoopRss();
  // Replays of what the service does inside MakeCodService / Refresh /
  // RecoverCodService, through the same public per-layer calls, so the
  // traced run can split those end-to-end times by layer.
  void ReplayColdBuild(int root);
  void ReplayDeltaBuild(int root, bool first);
  void ReplayRestart(int root);
  void RecordIndexBytes(const EngineCore& core);

  const Flags flags_;
  const Workload& w_;
  Trace trace_;
  TaskScheduler scheduler_;
  const std::string snapshot_dir_;

  // Inputs.
  std::optional<EdgeBook> book_;
  std::shared_ptr<const AttributeTable> attrs_;
  std::vector<QuerySpec> specs_;
  size_t next_spec_ = 0;
  // [first, last) timed_ entries of each segment that asked new queries.
  std::vector<std::pair<size_t, size_t>> segment_queries_;
  size_t batch_offset_ = 0;
  size_t churn_cycle_ = 0;
  size_t single_edge_batches_ = 0;
  uint64_t next_batch_seed_ = 0;
  Rng update_rng_{0};

  std::unique_ptr<CodServiceInterface> service_;

  // Outcome tallies.
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t answers_ = 0;
  uint64_t degraded_ = 0;
  double snapshot_writes_ = 0.0, snapshot_failures_ = 0.0;
  bool correct_ = true;

  // End-to-end samples.
  std::vector<double> setup_s_;
  std::vector<double> restart_s_;
  struct TimedRecord {
    size_t spec;
    uint64_t batch_seed;
    double ms;
    CodResult result;
  };
  std::vector<TimedRecord> timed_;
  std::vector<double> query_ms_;
  std::vector<double> publish_ms_;
  double loop_busy_ms_ = 0.0;
  // VmHWM once setup is done. A few seeds draw queries whose sampling alone
  // lifts the process peak by 100-300 MB on livejournal-sim; the whole-run
  // peak is reported with the per-layer metrics instead.
  double setup_peak_rss_mb_ = 0.0;
  // VmRSS sampled every kRssSampleMs of the closed loop, between calls.
  // serving.query_rss_mb is their minimum, the memory the service holds
  // while it answers: after a rare query that samples hundreds of MB the
  // allocator may keep that memory for the rest of the loop, so a median
  // would move with where in the pool the seed puts such a query.
  std::vector<double> loop_rss_mb_;
  Clock::time_point last_rss_sample_{};

  // Per-layer accumulators (filled in every run; reported when tracing).
  double levels_ = 0.0, rr_samples_ = 0.0, explored_ = 0.0;
  double codl_queries_ = 0.0, codl_index_hits_ = 0.0;
  // Per timed query: wall ms and its chain / LORE / sampling / eval ms.
  std::vector<std::array<double, 5>> query_stages_;
  double batch_busy_s_ = 0.0, batch_wall_s_ = 0.0;
  std::vector<double> batch_slice_qps_;
  double sched_wait_count_ = 0.0, sched_wait_sum_s_ = 0.0;
  DeltaCounters delta_;
  double himor_bytes_ = 0.0, sketch_bytes_ = 0.0;

  // Replay state for the delta path (cora-churn, traced runs only): the
  // same double-buffered caches and dirty bitmap the service keeps.
  ClusterReplay replay_cluster_[2];
  HimorSampleCache replay_cache_[2];
  int replay_cur_ = -1;
  std::vector<char> replay_dirty_;
};

ServiceOptions Bench::Options(bool snapshots) {
  ServiceOptions o;
  o.seed = flags_.seed;
  o.engine.sketch_bits = 8;
  o.scheduler = &scheduler_;
  o.async_rebuild = false;
  o.delta_rebuild = w_.delta_rebuild;
  if (snapshots) o.snapshot_dir = snapshot_dir_;
  return o;
}

Status Bench::LoadInputs() {
  Result<AttributedGraph> data = MakeDataset(w_.dataset);
  if (!data.ok()) return data.status();
  book_.emplace(data->graph);
  attrs_ = std::make_shared<const AttributeTable>(std::move(data->attributes));
  Rng query_rng(DeriveSeed(flags_.seed, 0x5155455259ULL));
  const std::vector<Query> queries =
      GenerateQueries(*attrs_, kQueryPool, query_rng);
  for (size_t i = 0; i < queries.size(); ++i) {
    specs_.push_back(MakeSpec(w_.mix, i, queries[i]));
  }
  update_rng_ = Rng(DeriveSeed(flags_.seed, 0x555044415445ULL));
  next_batch_seed_ = DeriveSeed(flags_.seed, 0x4241544348ULL);
  if (w_.delta_rebuild) replay_dirty_.assign(book_->num_nodes(), 0);
  return Status::Ok();
}

void Bench::CountAnswer(const CodResult& r) {
  ++attempted_;
  if (r.code != StatusCode::kOk) {
    ++failed_;
    return;
  }
  ++answers_;
  if (r.degraded) ++degraded_;
}

void Bench::CountOp(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Bench::Gate(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "GATE FAILED: %s\n", what.c_str());
}

CodResult Bench::QueryOne(const CodServiceInterface& svc,
                          const QuerySpec& spec, uint64_t batch_seed) {
  std::vector<CodResult> r = svc.QueryBatch(
      std::span<const QuerySpec>(&spec, 1), scheduler_, batch_seed,
      BatchOptions{}, nullptr);
  CountAnswer(r[0]);
  return std::move(r[0]);
}

QuerySpec Bench::ReadyProbe() const {
  QuerySpec spec;
  spec.variant = CodVariant::kCodUIndexed;
  spec.node = specs_[0].node;
  spec.k = kTopK;
  return spec;
}

void Bench::TimedQuery(size_t spec, uint64_t batch_seed) {
  const auto t0 = Clock::now();
  CodResult r = QueryOne(*service_, specs_[spec], batch_seed);
  timed_.push_back(TimedRecord{spec, batch_seed, MsSince(t0), std::move(r)});
}

void Bench::RepeatQuery(TimedRecord& q) {
  const auto t0 = Clock::now();
  CodResult r = QueryOne(*service_, specs_[q.spec], q.batch_seed);
  const double ms = MsSince(t0);
  Gate(SameAnswer(q.result, r), "a repeated query answered differently");
  if (ms < q.ms) {
    q.ms = ms;
    q.result.stats = r.stats;
  }
}

void Bench::FinishQueries() {
  for (const TimedRecord& q : timed_) {
    const QueryStats& s = q.result.stats;
    query_ms_.push_back(q.ms);
    const int span = trace_.Add("query", "serving.query", -1, q.ms);
    trace_.Add("query", "core.chain_build", span, 1e3 * s.chain_build_seconds);
    trace_.Add("query", "core.lore_scan", span, 1e3 * s.lore_scan_seconds);
    trace_.Add("query", "influence.rr_sample", span,
               1e3 * (s.sample_seconds + s.merge_seconds));
    trace_.Add("query", "core.eval", span, 1e3 * s.eval_seconds);
    query_stages_.push_back({q.ms, 1e3 * s.chain_build_seconds,
                             1e3 * s.lore_scan_seconds,
                             1e3 * (s.sample_seconds + s.merge_seconds),
                             1e3 * s.eval_seconds});
    levels_ += static_cast<double>(s.levels_examined);
    rr_samples_ += static_cast<double>(s.rr_samples);
    explored_ += static_cast<double>(s.explored_nodes);
    if (specs_[q.spec].variant == CodVariant::kCodL) {
      ++codl_queries_;
      if (s.index_hit) ++codl_index_hits_;
    }
  }
}

std::vector<CodResult> Bench::Probe(const CodServiceInterface& svc) {
  const std::span<const QuerySpec> probe(specs_.data(), w_.probe_specs);
  const uint64_t seed = DeriveSeed(flags_.seed, 0x50524F4245ULL);
  std::vector<CodResult> r =
      svc.QueryBatch(probe, scheduler_, seed, BatchOptions{}, nullptr);
  for (const CodResult& x : r) CountAnswer(x);
  return r;
}

double Bench::SnapshotWritesEnded() {
  return CounterValue("cod_snapshot_writes_total") +
         CounterValue("cod_snapshot_write_failures_total");
}

void Bench::WaitForSnapshotWrites(double expected) {
  // Snapshot writes run as maintenance tasks after publication; let them
  // land before the next timed phase so they do not share its CPU.
  const auto t0 = Clock::now();
  while (SnapshotWritesEnded() < expected) {
    if (MsSince(t0) > 120e3) {
      std::fprintf(stderr, "snapshot writes did not finish\n");
      CountOp(false);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  CountSnapshotWrites();
}

void Bench::CountSnapshotWrites() {
  const double writes = CounterValue("cod_snapshot_writes_total");
  const double failures = CounterValue("cod_snapshot_write_failures_total");
  for (; snapshot_writes_ < writes; ++snapshot_writes_) CountOp(true);
  for (; snapshot_failures_ < failures; ++snapshot_failures_) {
    std::fprintf(stderr, "a snapshot write failed\n");
    CountOp(false);
  }
}

// Setup: MakeCodService on an already generated graph, up to the first
// answer, repeated from scratch; the last service carries the workload.
void Bench::Setup() {
  const double writes_before = SnapshotWritesEnded();
  for (int rep = 0; rep < w_.setup_reps; ++rep) {
    fs::remove_all(snapshot_dir_);
    fs::create_directories(snapshot_dir_);
    Graph graph = book_->Build();
    AttributeTable attrs = CopyAttributes(*attrs_);
    const bool last = rep + 1 == w_.setup_reps;
    if (last && trace_.enabled()) {
      // The layer split of setup, replayed on the same inputs before the
      // service that carries the workload is built.
      ScopedSpan root(trace_, "setup", "replay.setup", -1);
      if (w_.delta_rebuild) {
        ReplayDeltaBuild(root.id(), /*first=*/true);
      } else {
        ReplayColdBuild(root.id());
      }
    }
    ReleaseFreedMemory();
    const auto t0 = Clock::now();
    service_ = MakeCodService(std::move(graph), std::move(attrs),
                              Options(/*snapshots=*/true));
    CountOp(true);
    QueryOne(*service_, ReadyProbe(), next_batch_seed_);
    setup_s_.push_back(MsSince(t0) / 1e3);
    trace_.Add("setup_e2e", "serving.make_service", -1, 1e3 * setup_s_.back());
    std::fprintf(stderr, "[%s] setup rep %d: %.3f s\n", w_.name, rep,
                 setup_s_.back());
    if (!last) service_.reset();
  }
  WaitForSnapshotWrites(writes_before + w_.setup_reps);
  setup_peak_rss_mb_ = ProcStatusMb("VmHWM:");
}

// lj-index: one-spec QueryBatch calls. The first kSegments / query_runs
// segments ask new queries, each for 1/kSegments of the loop's client time
// (kLoopShare of --seconds) counted from its own start, so that a rare query
// taking seconds (some CODL misses do) delays the run but starves no later
// segment. Every later segment asks again the queries of the segment
// kSegments / query_runs before it, which takes about as long.
void Bench::QueryLoop(int segment) {
  if (segment == 0) {
    for (size_t i = 0; i < w_.warmup_queries; ++i) {
      QueryOne(*service_, specs_[next_spec_++ % specs_.size()],
               next_batch_seed_++);
    }
  }
  const size_t asking = static_cast<size_t>(kSegments / w_.query_runs);
  if (static_cast<size_t>(segment) >= asking) {
    const auto [first, last] = segment_queries_[segment % asking];
    for (size_t i = first; i < last; ++i) {
      const auto t0 = Clock::now();
      RepeatQuery(timed_[i]);
      loop_busy_ms_ += MsSince(t0);
      SampleLoopRss();
    }
    return;
  }
  const size_t first = timed_.size();
  const double until_ms =
      loop_busy_ms_ + 1e3 * flags_.seconds * kLoopShare / kSegments;
  while (loop_busy_ms_ < until_ms) {
    const auto t0 = Clock::now();
    TimedQuery(next_spec_++ % specs_.size(), next_batch_seed_++);
    loop_busy_ms_ += MsSince(t0);
    SampleLoopRss();
  }
  segment_queries_.emplace_back(first, timed_.size());
}

void Bench::SampleLoopRss() {
  if (MsSince(last_rss_sample_) < kRssSampleMs) return;
  loop_rss_mb_.push_back(ProcStatusMb("VmRSS:"));
  last_rss_sample_ = Clock::now();
}

// cora-churn: update batch -> Refresh() -> 4 queries on the fresh epoch,
// until a further 1/kSegments of the loop's client time has passed (traced
// replays excluded).
void Bench::ChurnLoop(int segment) {
  while (loop_busy_ms_ <
         1e3 * flags_.seconds * kLoopShare * (segment + 1) / kSegments) {
    const size_t size =
        kChurnBatchSizes[churn_cycle_++ % std::size(kChurnBatchSizes)];
    // Half inserts, half deletes; single-edge batches alternate.
    size_t inserts = size / 2;
    if (size == 1) inserts = single_edge_batches_++ % 2 == 0 ? 1 : 0;
    std::vector<std::pair<bool, Edge>> batch;
    const uint64_t n = book_->num_nodes();
    while (batch.size() < inserts) {
      const auto u = static_cast<NodeId>(update_rng_.UniformInt(n));
      const auto v = static_cast<NodeId>(update_rng_.UniformInt(n));
      if (u == v || book_->Has(u, v)) continue;
      book_->Insert(Edge{u, v, 1.0});
      batch.emplace_back(true, Edge{u, v, 1.0});
    }
    while (batch.size() < size) {
      const size_t pick = update_rng_.UniformInt(book_->edges().size());
      batch.emplace_back(false, book_->RemoveAt(pick));
    }

    const auto t0 = Clock::now();
    for (const auto& [add, e] : batch) {
      CountOp(add ? service_->AddEdge(e.u, e.v, e.w)
                  : service_->RemoveEdge(e.u, e.v));
    }
    const auto p0 = Clock::now();
    const Status st = service_->Refresh();
    publish_ms_.push_back(MsSince(p0));
    trace_.Add("publish_e2e", "serving.refresh", -1, publish_ms_.back());
    CountOp(st.ok());
    if (!st.ok()) {
      std::fprintf(stderr, "Refresh failed: %s\n", st.ToString().c_str());
    }
    for (size_t q = 0; q < kQueriesPerPublish; ++q) {
      TimedQuery(next_spec_++ % specs_.size(), next_batch_seed_++);
    }
    for (int run = 1; run < w_.query_runs; ++run) {
      for (auto q = timed_.end() - kQueriesPerPublish; q != timed_.end(); ++q) {
        RepeatQuery(*q);
      }
    }
    loop_busy_ms_ += MsSince(t0);
    SampleLoopRss();

    if (trace_.enabled()) {
      for (const auto& [add, e] : batch) {
        replay_dirty_[e.u] = 1;
        replay_dirty_[e.v] = 1;
      }
      ScopedSpan root(trace_, "publish", "replay.publish", -1);
      ReplayDeltaBuild(root.id(), /*first=*/false);
    }
  }
}

// The workload's query set as QueryBatch calls on the 2-worker scheduler:
// consecutive slices of the query pool, one call per slice. Over all
// segments the phase runs for kBatchShare of --seconds and at least
// kMinBatchSlices slices; batch_qps is the median over slices, so that a
// slice holding one of the rare CODL queries that take seconds cannot decide
// it. The first slice is gated against a 1-worker pass over the same specs
// and batch seed on the same epoch.
void Bench::BatchPhase(int segment) {
  const auto [waits_before, wait_s_before] =
      HistogramTotals("cod_sched_queue_delay_seconds");
  const double until_s =
      flags_.seconds * kBatchShare * (segment + 1) / kSegments;
  const size_t min_slices = kMinBatchSlices * (segment + 1) / kSegments;
  std::vector<CodResult> first;
  uint64_t first_seed = 0;
  while (batch_wall_s_ < until_s || batch_slice_qps_.size() < min_slices) {
    if (batch_offset_ + w_.batch_specs > specs_.size()) batch_offset_ = 0;
    const std::span<const QuerySpec> slice(specs_.data() + batch_offset_,
                                           w_.batch_specs);
    const uint64_t seed = next_batch_seed_++;
    const auto t0 = Clock::now();
    std::vector<CodResult> results =
        service_->QueryBatch(slice, scheduler_, seed, BatchOptions{}, nullptr);
    const double wall_s = MsSince(t0) / 1e3;
    trace_.Add("batch", "serving.batch", -1, 1e3 * wall_s);
    batch_wall_s_ += wall_s;
    batch_slice_qps_.push_back(static_cast<double>(slice.size()) / wall_s);
    for (const CodResult& r : results) {
      CountAnswer(r);
      batch_busy_s_ += r.stats.TotalStageSeconds();
    }
    if (batch_offset_ == 0 && first.empty()) {
      first = std::move(results);
      first_seed = seed;
    }
    batch_offset_ += w_.batch_specs;
  }
  const auto [waits, wait_s] = HistogramTotals("cod_sched_queue_delay_seconds");
  sched_wait_count_ += waits - waits_before;
  sched_wait_sum_s_ += wait_s - wait_s_before;
  if (segment != 0) return;

  TaskScheduler one_worker(1);
  const std::vector<CodResult> reference = service_->QueryBatch(
      std::span<const QuerySpec>(specs_.data(), w_.batch_specs), one_worker,
      first_seed, BatchOptions{}, nullptr);
  for (size_t i = 0; i < reference.size(); ++i) {
    CountAnswer(reference[i]);
    Gate(SameAnswer(first[i], reference[i]),
         "batch query " + std::to_string(i) +
             " differs between 2 workers and 1 worker");
  }
}

// cora-churn: the final epoch must answer the probe set exactly like a
// service cold-built from the edge set this benchmark tracked.
void Bench::ColdBuildGate() {
  const std::vector<CodResult> evolved = Probe(*service_);
  std::unique_ptr<CodServiceInterface> cold = MakeCodService(
      book_->Build(), CopyAttributes(*attrs_), Options(/*snapshots=*/false));
  CountOp(true);
  Gate(cold->NumEdges() == service_->NumEdges(),
       "cold-built service has a different edge count");
  const std::vector<CodResult> fresh = Probe(*cold);
  for (size_t i = 0; i < fresh.size(); ++i) {
    Gate(SameAnswer(evolved[i], fresh[i]),
         "final epoch and cold build differ on probe " + std::to_string(i));
  }
}

// Warm restart at the end of a segment: drop the service, RecoverCodService
// from its snapshots up to the first answer, and check the probe answers
// survived. The last recovered service carries the next segment; if no
// recovery succeeded, service_ is left empty.
void Bench::Restart(int segment) {
  const std::vector<CodResult> before = Probe(*service_);
  const uint64_t epoch = service_->epoch();
  service_.reset();  // waits for queued snapshot writes
  CountSnapshotWrites();
  if (trace_.enabled() && segment == 0) {
    ScopedSpan root(trace_, "restart", "replay.restart", -1);
    ReplayRestart(root.id());
  }
  // A recovered service starts without delta-rebuild caches, so its first
  // publish is cold; the publish replay follows it.
  replay_cur_ = -1;
  for (int rep = 0; rep < w_.restart_reps; ++rep) {
    service_.reset();
    Graph graph = book_->Build();
    AttributeTable attrs = CopyAttributes(*attrs_);
    const double loads = CounterValue("cod_snapshot_loads_total");
    ReleaseFreedMemory();
    const auto t0 = Clock::now();
    Result<std::unique_ptr<CodServiceInterface>> recovered = RecoverCodService(
        Options(/*snapshots=*/true), std::move(graph), std::move(attrs));
    CountOp(recovered.ok());
    if (!recovered.ok()) {
      Gate(false, "restart rep " + std::to_string(rep) +
                      ": RecoverCodService failed: " +
                      recovered.status().ToString());
      continue;
    }
    QueryOne(**recovered, ReadyProbe(), next_batch_seed_);
    restart_s_.push_back(MsSince(t0) / 1e3);
    trace_.Add("restart_e2e", "serving.recover", -1, 1e3 * restart_s_.back());
    std::fprintf(stderr, "[%s] restart %d.%d: %.3f s\n", w_.name, segment,
                 rep, restart_s_.back());
    // RecoverCodService cold-builds when it finds no usable snapshot; that
    // answers the same, so only the load counter tells the two apart.
    Gate(CounterValue("cod_snapshot_loads_total") == loads + 1,
         "restart rep " + std::to_string(rep) + " did not load a snapshot");
    Gate((*recovered)->epoch() == epoch,
         "restart recovered a different epoch");
    const std::vector<CodResult> after = Probe(**recovered);
    for (size_t i = 0; i < after.size(); ++i) {
      Gate(SameAnswer(before[i], after[i]),
           "restart rep " + std::to_string(rep) + " changed probe " +
               std::to_string(i));
    }
    service_ = std::move(*recovered);
  }
  CountSnapshotWrites();
}

void Bench::ReplayColdBuild(int root) {
  const ServiceOptions o = Options(false);
  std::shared_ptr<const Graph> graph;
  {
    ScopedSpan s(trace_, "setup", "graph.build", root);
    graph = std::make_shared<const Graph>(book_->Build());
  }
  std::optional<Dendrogram> dendrogram;
  {
    ScopedSpan s(trace_, "setup", "hierarchy.cluster", root);
    dendrogram.emplace(AgglomerativeCluster(*graph));
  }
  std::optional<Result<std::unique_ptr<EngineCore>>> core;
  {
    ScopedSpan s(trace_, "setup", "core.assemble", root);
    core.emplace(EngineCore::FromPrebuilt(graph, attrs_, o.engine,
                                          std::move(*dendrogram), std::nullopt,
                                          std::nullopt, false));
  }
  if (!core->ok()) return;
  EngineCore& built = ***core;
  {
    ScopedSpan s(trace_, "setup", "core.himor_build", root);
    Rng rng(o.seed);  // the service's first rebuild ticket is 0
    (void)built.TryBuildHimor(rng, Budget{});
  }
  RecordIndexBytes(built);
}

// Mirrors the service's delta rebuild (DynamicCodService::
// BuildEpochCoreDelta): decide reuse vs cold by counting cached RR samples
// that touch a dirty vertex, recluster with replay, rebuild HIMOR with reuse.
void Bench::ReplayDeltaBuild(int root, bool first) {
  const char* phase = first ? "setup" : "publish";
  const ServiceOptions o = Options(false);
  std::shared_ptr<const Graph> graph;
  {
    ScopedSpan s(trace_, phase, "graph.build", root);
    graph = std::make_shared<const Graph>(book_->Build());
  }
  const int cur = replay_cur_;
  const int nxt = cur < 0 ? 0 : 1 - cur;
  bool use_prev = cur >= 0 && replay_cache_[cur].valid &&
                  replay_cluster_[cur].valid;
  if (use_prev) {
    ScopedSpan s(trace_, phase, "serving.delta_check", root);
    const RrSlabPool& rr = replay_cache_[cur].rr;
    size_t dirty_samples = 0;
    for (size_t i = 0; i < rr.NumSamples(); ++i) {
      const RrSlabPool::View view = rr.Sample(i);
      for (uint32_t k = 0; k < view.node_count; ++k) {
        if (replay_dirty_[view.nodes[k]] != 0) {
          ++dirty_samples;
          break;
        }
      }
    }
    use_prev = static_cast<double>(dirty_samples) <=
               o.delta_max_dirty_fraction *
                   static_cast<double>(rr.NumSamples());
  }
  const std::vector<char>* dirty = use_prev ? &replay_dirty_ : nullptr;
  std::optional<Result<Dendrogram>> hierarchy;
  {
    ScopedSpan s(trace_, phase, "hierarchy.cluster", root);
    hierarchy.emplace(AgglomerativeClusterDelta(
        *graph, AgglomerativeOptions{}, Budget{}, dirty,
        use_prev ? &replay_cluster_[cur] : nullptr, &replay_cluster_[nxt]));
  }
  if (!hierarchy->ok()) return;
  std::optional<Result<std::unique_ptr<EngineCore>>> core;
  {
    ScopedSpan s(trace_, phase, "core.assemble", root);
    core.emplace(EngineCore::FromPrebuilt(
        graph, attrs_, o.engine, std::move(*hierarchy).value(), std::nullopt,
        std::nullopt, false));
  }
  if (!core->ok()) return;
  EngineCore& built = ***core;
  HimorDeltaStats stats;
  Status st;
  {
    ScopedSpan s(trace_, phase, "core.himor_build", root);
    st = built.TryBuildHimorDelta(o.seed, Budget{}, dirty,
                                  use_prev ? &replay_cache_[cur] : nullptr,
                                  &replay_cache_[nxt], &stats);
  }
  if (!st.ok()) return;
  replay_cur_ = nxt;
  std::fill(replay_dirty_.begin(), replay_dirty_.end(), 0);
  RecordIndexBytes(built);
}

void Bench::RecordIndexBytes(const EngineCore& core) {
  if (core.himor() != nullptr) {
    himor_bytes_ = static_cast<double>(core.himor()->MemoryBytes());
  }
  if (core.sketch() != nullptr) {
    sketch_bytes_ = static_cast<double>(core.sketch()->MemoryBytes());
  }
}

void Bench::ReplayRestart(int root) {
  const std::string path = NewestSnapshot(snapshot_dir_);
  if (path.empty()) return;
  std::optional<Result<DecodedEpochSnapshot>> loaded;
  {
    ScopedSpan s(trace_, "restart", "storage.snapshot_load", root);
    loaded.emplace(LoadEpochSnapshotFile(path));
  }
  if (!loaded->ok()) return;
  DecodedEpochSnapshot& snap = **loaded;
  ScopedSpan s(trace_, "restart", "core.from_prebuilt", root);
  (void)EngineCore::FromPrebuilt(
      std::make_shared<const Graph>(std::move(snap.graph)),
      std::make_shared<const AttributeTable>(std::move(snap.attributes)),
      Options(false).engine, std::move(*snap.hierarchy), std::move(snap.himor),
      std::move(snap.sketch), snap.meta.degraded);
}

JsonObject Bench::LayerMetrics() const {
  JsonObject layers;
  const auto query = trace_.Aggregate("query");
  const double nq = static_cast<double>(query_ms_.size());
  auto per_query = [&](const char* span) {
    const auto it = query.find(span);
    return it == query.end() ? 0.0 : Ratio(it->second.self_ms, nq);
  };
  layers.Add("core.chain_build_ms", per_query("core.chain_build"), "ms");
  layers.Add("core.lore_scan_ms", per_query("core.lore_scan"), "ms");
  layers.Add("influence.rr_sample_ms", per_query("influence.rr_sample"),
             "ms");
  layers.Add("core.eval_ms", per_query("core.eval"), "ms");
  // Stage shares of the queries whose latency lies in the 40th-60th
  // percentile band: what query_p50_ms is made of.
  const double lo = Quantile(query_ms_, 0.4);
  const double hi = Quantile(query_ms_, 0.6);
  std::array<double, 5> band{};
  for (const auto& q : query_stages_) {
    if (q[0] < lo || q[0] > hi) continue;
    for (size_t i = 0; i < band.size(); ++i) band[i] += q[i];
  }
  layers.Add("trace.p50_chain_build_frac", Ratio(band[1], band[0]), "frac");
  layers.Add("trace.p50_lore_scan_frac", Ratio(band[2], band[0]), "frac");
  layers.Add("trace.p50_rr_sample_frac", Ratio(band[3], band[0]), "frac");
  layers.Add("trace.p50_eval_frac", Ratio(band[4], band[0]), "frac");
  const double query_wall = query.count("serving.query")
                                ? query.at("serving.query").total_ms
                                : 0.0;
  const double query_self = query.count("serving.query")
                                ? query.at("serving.query").self_ms
                                : 0.0;
  layers.Add("serving.query_self_ms", Ratio(query_self, nq), "ms");
  layers.Add("core.levels_examined", Ratio(levels_, nq), "count");
  layers.Add("core.index_hit_frac", Ratio(codl_index_hits_, codl_queries_),
             "frac");
  layers.Add("influence.rr_samples_per_query", Ratio(rr_samples_, nq),
             "count");
  layers.Add("influence.explored_nodes_per_query", Ratio(explored_, nq),
             "count");
  layers.Add("common.sched_queue_wait_ms",
             Ratio(1e3 * sched_wait_sum_s_, sched_wait_count_), "ms");
  layers.Add("serving.batch_worker_util",
             Ratio(batch_busy_s_, kWorkers * batch_wall_s_), "frac");

  // Build layers: the setup replay on the read workloads, the mean publish
  // replay on cora-churn.
  const std::string build_phase = w_.delta_rebuild ? "publish" : "setup";
  const auto build = trace_.Aggregate(build_phase);
  auto per_build = [&](const char* span) {
    const auto it = build.find(span);
    if (it == build.end()) return 0.0;
    const auto root = build.find("replay." + build_phase);
    return Ratio(it->second.self_ms,
                 root == build.end() ? 1.0 : root->second.count);
  };
  layers.Add("graph.build_ms", per_build("graph.build"), "ms");
  layers.Add("hierarchy.cluster_ms", per_build("hierarchy.cluster"), "ms");
  layers.Add("core.assemble_ms", per_build("core.assemble"), "ms");
  layers.Add("core.himor_build_ms", per_build("core.himor_build"), "ms");
  layers.Add("serving.delta_check_ms", per_build("serving.delta_check"),
             "ms");
  layers.Add("core.delta_reuse_frac", Ratio(delta_.reused, delta_.touched),
             "frac");
  layers.Add("serving.delta_fallback_frac",
             Ratio(delta_.fallbacks, delta_.attempts), "frac");

  const auto [writes, write_s] = HistogramTotals("cod_snapshot_write_seconds");
  layers.Add("storage.snapshot_write_ms", Ratio(1e3 * write_s, writes), "ms");
  layers.Add("storage.snapshot_bytes", GaugeValue("cod_snapshot_bytes"),
             "bytes");
  const auto restart = trace_.Aggregate("restart");
  auto restart_ms = [&](const char* span) {
    const auto it = restart.find(span);
    return it == restart.end() ? 0.0 : it->second.self_ms;
  };
  layers.Add("storage.snapshot_load_ms",
             restart_ms("storage.snapshot_load"), "ms");
  layers.Add("core.from_prebuilt_ms", restart_ms("core.from_prebuilt"),
             "ms");
  layers.Add("core.himor_bytes", himor_bytes_, "bytes");
  layers.Add("influence.sketch_bytes", sketch_bytes_, "bytes");
  layers.Add("serving.run_peak_rss_mb", ProcStatusMb("VmHWM:"), "MB");
  layers.Add("serving.query_rss_mb", Quantile(loop_rss_mb_, 0.0), "MB");

  layers.Add("publish_p50_ms", Quantile(publish_ms_, 0.5), "ms");
  layers.Add("publish_p95_ms", Quantile(publish_ms_, 0.95), "ms");
  layers.Add("failed_frac",
             Ratio(static_cast<double>(failed_), attempted_), "frac");
  layers.Add("degraded_frac",
             Ratio(static_cast<double>(degraded_), answers_), "frac");

  // Coverage: how much of each end-to-end time the layer spans explain.
  // Setup and restart are split by their replays (one replay against the
  // median of the timed repetitions); queries by their own stage times;
  // publishes by one replay per publish. A replayed share is an estimate and
  // exceeds 1 when the replay ran slower than the service's own pass.
  auto covered = [&](const std::string& phase) {
    double ms = 0.0;
    for (const auto& [name, t] : trace_.Aggregate(phase)) {
      if (name.rfind("replay.", 0) != 0) ms += t.total_ms;
    }
    return ms;
  };
  const double setup_ms = 1e3 * Quantile(setup_s_, 0.5);
  const double restart_e2e_ms = 1e3 * Quantile(restart_s_, 0.5);
  const double setup_cov = covered("setup");
  const double restart_cov = covered("restart");
  const double query_cov = query_wall - query_self;
  double publish_wall = 0.0;
  for (const double ms : publish_ms_) publish_wall += ms;
  const double publish_cov = covered("publish");
  layers.Add("trace.setup_covered_frac", Ratio(setup_cov, setup_ms), "frac");
  layers.Add("trace.restart_covered_frac",
             Ratio(restart_cov, restart_e2e_ms), "frac");
  layers.Add("trace.query_covered_frac", Ratio(query_cov, query_wall),
             "frac");
  layers.Add("trace.publish_covered_frac", Ratio(publish_cov, publish_wall),
             "frac");
  // Time of the timed operations no layer span covers, summed over the
  // run: setup and restart repetitions, queries and publishes.
  const double unattributed =
      static_cast<double>(setup_s_.size()) * (setup_ms - setup_cov) +
      static_cast<double>(restart_s_.size()) *
          (restart_e2e_ms - restart_cov) +
      (query_wall - query_cov) + (publish_wall - publish_cov);
  layers.Add("unattributed_ms", unattributed, "ms");
  return layers;
}

void Bench::PrintResult() {
  JsonObject e2e;
  e2e.Add("setup_s", Quantile(setup_s_, 0.5), "s");
  e2e.Add("restart_s", Quantile(restart_s_, 0.5), "s");
  e2e.Add("query_p50_ms", Quantile(query_ms_, 0.5), "ms");
  e2e.Add("query_p95_ms", Quantile(query_ms_, 0.95), "ms");
  e2e.Add("batch_qps", Quantile(batch_slice_qps_, 0.5), "1/s");
  e2e.Add("peak_rss_mb", setup_peak_rss_mb_, "MB");

  char provenance[640];
  std::snprintf(
      provenance, sizeof(provenance),
      "{\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"dataset\":\"%s\",\"nodes\":%zu,\"edges\":%zu,"
      "\"options_fingerprint\":\"%016" PRIx64
      "\",\"commit\":\"%s\",\"nproc\":%u,\"build_type\":\"%s\","
      "\"workers\":%zu,\"queries\":%zu,\"publishes\":%zu,\"trace\":%d}",
      w_.name, flags_.seed, w_.dataset, book_->num_nodes(),
      book_->edges().size(), Options(true).Fingerprint(),
      flags_.commit.c_str(), std::thread::hardware_concurrency(),
      COD_BENCH_BUILD_TYPE, kWorkers, query_ms_.size(), publish_ms_.size(),
      flags_.trace ? 1 : 0);

  JsonObject out;
  out.Field("provenance", provenance);
  out.Field("correct", correct_ ? "true" : "false");
  out.Field("attempted", std::to_string(attempted_));
  out.Field("failed", std::to_string(failed_));
  out.Field("metrics", e2e.str());
  out.Field("layers", trace_.enabled() ? LayerMetrics().str() : "{}");
  std::printf("RESULT %s\n", out.str().c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  const auto t0 = Clock::now();
  if (const Status st = LoadInputs(); !st.ok()) {
    std::fprintf(stderr, "inputs: %s\n", st.ToString().c_str());
    return 2;
  }
  std::fprintf(stderr, "[%s] inputs ready in %.1f s (%zu nodes, %zu edges)\n",
               w_.name, MsSince(t0) / 1e3, book_->num_nodes(),
               book_->edges().size());
  Setup();
  std::fprintf(stderr, "[%s] setup done at %.1f s\n", w_.name,
               MsSince(t0) / 1e3);
  const DeltaCounters delta_before = DeltaCounters::Read();
  for (int segment = 0; segment < kSegments; ++segment) {
    if (w_.mix == Mix::kChurn) {
      ChurnLoop(segment);
    } else {
      QueryLoop(segment);
    }
    BatchPhase(segment);
    Restart(segment);
    std::fprintf(stderr,
                 "[%s] segment %d done at %.1f s (loop %.1f s, batch %.1f s)\n",
                 w_.name, segment, MsSince(t0) / 1e3, loop_busy_ms_ / 1e3,
                 batch_wall_s_);
    if (service_ == nullptr) break;  // every recovery failed; gated above
  }
  delta_ = DeltaCounters::Read().Minus(delta_before);
  FinishQueries();
  if (w_.mix == Mix::kChurn && service_ != nullptr) ColdBuildGate();
  std::fprintf(stderr,
               "[%s] done at %.1f s (%zu queries, %zu publishes, %zu batch "
               "slices, %zu restarts)\n",
               w_.name, MsSince(t0) / 1e3, query_ms_.size(),
               publish_ms_.size(), batch_slice_qps_.size(), restart_s_.size());
  Gate(!setup_s_.empty() && !restart_s_.empty() && !query_ms_.empty() &&
           !batch_slice_qps_.empty() &&
           (w_.mix != Mix::kChurn || !publish_ms_.empty()),
       "a timed phase recorded no sample");
  PrintResult();
  trace_.Dump(stderr);
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace cod::perfbench

int main(int argc, char** argv) {
  cod::perfbench::Flags flags;
  if (!cod::perfbench::ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: serving_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--commit SHA]\n");
    return 2;
  }
  const cod::perfbench::Workload* w =
      cod::perfbench::FindWorkload(flags.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", flags.workload.c_str());
    return 2;
  }
  cod::perfbench::Bench bench(flags, *w);
  return bench.Run();
}
