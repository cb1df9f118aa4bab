// Scenario: serving COD queries over a stream of edge updates (the paper's
// dynamic-graphs future work, via epoch rebuilds behind
// CodServiceInterface).
//
// A social platform ingests follow/unfollow events while answering "what is
// this user's characteristic community right now?". The service absorbs
// updates in O(1) and always answers from the last built epoch — queries
// NEVER rebuild inline. Rebuilds run as rebuild-priority tasks on a shared
// TaskScheduler (async_rebuild): once accumulated drift crosses the
// threshold, the next update or query schedules the epoch rebuild
// (hierarchy + HIMOR) off-thread while ingest and queries keep serving the
// stale epoch. Interactive queries outrank rebuilds in the scheduler's
// priority order, so serving latency stays flat while a rebuild churns.
//
// The whole demo is written against CodServiceInterface, so the same code
// drives one engine (num_shards = 1, the default) or a sharded
// scatter/gather deployment (pass a shard count as the second argument) —
// only MakeCodService / RecoverCodService know the difference. Under
// sharding, follow events whose endpoints land on different shards are
// rejected (the partition is fixed at construction), which the demo counts.
//
// After the stream the process "restarts": the service is destroyed and
// recovered from the durable epoch snapshots it wrote after each publish
// (options.snapshot_dir; one subdirectory per shard when sharded). Warm
// recovery deserializes the last epoch — graph, hierarchy, HIMOR index —
// instead of rebuilding it, and the demo prints cold vs warm
// time-to-first-query to show the difference.
//
// Bench mode (--bench / --smoke): a sustained-update-rate benchmark of the
// incremental epoch path (ServiceOptions::delta_rebuild). For each churn
// level (fraction of cora-sim's edges mutated per batch) it drives the SAME
// mutation stream into a delta-mode service and a full-rebuild service,
// times every epoch publish, checks the delta epochs answer bit-identically
// to a cold rebuild on the final edge set (hard failure if not), and writes
// the sweep — publish latency, speedup, RR-sample reuse fraction, sustained
// update rate, staleness window — to a JSON file (default BENCH_PR9.json).
// --smoke shrinks theta and the round count for CI.
//
//   $ ./dynamic_stream [num_events] [num_shards]
//   $ ./dynamic_stream --bench [out.json]
//   $ ./dynamic_stream --smoke [out.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "eval/datasets.h"
#include "eval/query_gen.h"
#include "hierarchy/dendrogram_io.h"
#include "serving/dynamic_service.h"
#include "serving/service_interface.h"

namespace {

// ---------------------------------------------------------------------------
// Bench mode.
// ---------------------------------------------------------------------------

std::string HierarchyBytes(const cod::EngineCore& core) {
  cod::BinaryBufferWriter w;
  cod::SerializeDendrogram(core.base_hierarchy(), w);
  return std::move(w).TakeBytes();
}

std::string HimorBytes(const cod::EngineCore& core) {
  cod::BinaryBufferWriter w;
  if (core.himor() != nullptr) core.himor()->SerializeTo(w);
  return std::move(w).TakeBytes();
}

cod::Graph CopyGraph(const cod::Graph& g) {
  cod::GraphBuilder b(g.NumNodes());
  for (cod::EdgeId e = 0; e < g.NumEdges(); ++e) {
    const auto [u, v] = g.Endpoints(e);
    b.AddEdge(u, v, g.Weight(e));
  }
  return std::move(b).Build();
}

// Exact edge-set bookkeeping so every generated mutation is guaranteed to
// apply (random pairs mostly miss existing edges, which would make the
// realized churn drift from the requested level).
struct EdgeBook {
  std::vector<std::pair<cod::NodeId, cod::NodeId>> edges;
  std::unordered_set<uint64_t> present;

  static uint64_t Key(cod::NodeId u, cod::NodeId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }
  void Add(cod::NodeId u, cod::NodeId v) {
    edges.emplace_back(u, v);
    present.insert(Key(u, v));
  }
  bool Has(cod::NodeId u, cod::NodeId v) const {
    return present.count(Key(u, v)) != 0;
  }
  std::pair<cod::NodeId, cod::NodeId> RemoveAt(size_t i) {
    const auto e = edges[i];
    present.erase(Key(e.first, e.second));
    edges[i] = edges.back();
    edges.pop_back();
    return e;
  }
};

struct Mutation {
  bool add;
  cod::NodeId u, v;
  double weight;
};

// `count` mutations (~2/3 adds, ~1/3 removals) that all apply cleanly.
std::vector<Mutation> MakeBatch(EdgeBook& book, size_t num_nodes, size_t count,
                                cod::Rng& rng) {
  std::vector<Mutation> batch;
  while (batch.size() < count) {
    if (!book.edges.empty() && rng.UniformInt(3) == 0) {
      const auto [u, v] = book.RemoveAt(rng.UniformInt(book.edges.size()));
      batch.push_back(Mutation{false, u, v, 0.0});
      continue;
    }
    const auto u = static_cast<cod::NodeId>(rng.UniformInt(num_nodes));
    const auto v = static_cast<cod::NodeId>(rng.UniformInt(num_nodes));
    if (u == v || book.Has(u, v)) continue;
    book.Add(u, v);
    // cora-sim is an unweighted citation graph, so churn inserts unit-weight
    // edges. Mixed weights on an otherwise-unit graph also honestly
    // restructure the upper UPGMA levels and would understate sample reuse.
    batch.push_back(Mutation{true, u, v, 1.0});
  }
  return batch;
}

void ApplyBatch(cod::DynamicCodService& service,
                const std::vector<Mutation>& batch) {
  for (const Mutation& m : batch) {
    if (m.add) {
      service.AddEdge(m.u, m.v, m.weight);
    } else {
      service.RemoveEdge(m.u, m.v);
    }
  }
}

uint64_t CounterValue(const char* name) {
  return cod::MetricsRegistry::Instance().GetCounter(name)->Value();
}

struct ChurnRow {
  double churn;
  size_t batch_edges;
  double delta_publish_ms;   // mean over rounds
  double full_publish_ms;    // mean over rounds
  double speedup;
  double reuse_fraction;     // reused RR samples / total, mean over rounds
  double sustained_updates_per_sec;  // batch ingested + delta-published
  double staleness_ms;       // answer lag behind ingest = delta publish
  bool bit_identical;
};

int RunBench(bool smoke, const std::string& json_path) {
  cod::Result<cod::AttributedGraph> data = cod::MakeDataset("cora-sim");
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const size_t num_nodes = data->graph.NumNodes();
  const size_t base_edges = data->graph.NumEdges();
  auto attrs =
      std::make_shared<const cod::AttributeTable>(std::move(data->attributes));

  const uint32_t theta = smoke ? 16 : 64;
  const int rounds = smoke ? 2 : 5;
  // 0.02% rounds to a single edge per batch — the per-update publish
  // latency a streaming deployment actually pays; the coarser levels batch
  // enough random cross-community edges that RR invalidation fans out
  // through hub vertices and reuse falls off.
  const double churn_levels[] = {0.0002, 0.001, 0.005, 0.01};

  cod::ServiceOptions delta_options;
  delta_options.seed = 5;
  delta_options.rebuild_threshold = 1e9;  // publish only via Refresh()
  delta_options.engine.theta = theta;
  delta_options.delta_rebuild = true;
  cod::ServiceOptions full_options = delta_options;
  full_options.delta_rebuild = false;

  std::printf("cora-sim: %zu nodes, %zu edges, theta %u, %d rounds/level\n",
              num_nodes, base_edges, theta, rounds);
  std::vector<ChurnRow> rows;
  bool all_identical = true;
  for (const double churn : churn_levels) {
    // Fresh services per level so each level measures the same base world.
    cod::DynamicCodService delta_service(CopyGraph(data->graph), attrs,
                                         delta_options);
    cod::DynamicCodService full_service(CopyGraph(data->graph), attrs,
                                        full_options);
    EdgeBook book;
    for (cod::EdgeId e = 0; e < data->graph.NumEdges(); ++e) {
      const auto [u, v] = data->graph.Endpoints(e);
      book.Add(u, v);
    }
    const size_t batch_edges =
        std::max<size_t>(1, static_cast<size_t>(churn * base_edges));
    cod::Rng rng(42 + static_cast<uint64_t>(churn * 1e6));

    ChurnRow row{};
    row.churn = churn;
    row.batch_edges = batch_edges;
    double delta_total_s = 0.0, full_total_s = 0.0, ingest_total_s = 0.0;
    double reuse_total = 0.0;
    for (int r = 0; r < rounds; ++r) {
      const std::vector<Mutation> batch =
          MakeBatch(book, num_nodes, batch_edges, rng);
      cod::WallTimer timer;
      ApplyBatch(delta_service, batch);
      const double ingest_s = timer.ElapsedSeconds();
      const uint64_t reused_before =
          CounterValue("cod_rebuild_delta_samples_reused_total");
      const uint64_t resampled_before =
          CounterValue("cod_rebuild_delta_samples_resampled_total");
      const uint64_t replayed_before =
          CounterValue("cod_rebuild_delta_samples_replayed_total");
      timer.Restart();
      if (!delta_service.Refresh().ok()) {
        std::fprintf(stderr, "delta refresh failed\n");
        return 1;
      }
      const double delta_s = timer.ElapsedSeconds();
      const double reused = static_cast<double>(
          CounterValue("cod_rebuild_delta_samples_reused_total") -
          reused_before);
      const double touched =
          reused +
          static_cast<double>(
              CounterValue("cod_rebuild_delta_samples_resampled_total") -
              resampled_before) +
          static_cast<double>(
              CounterValue("cod_rebuild_delta_samples_replayed_total") -
              replayed_before);
      ApplyBatch(full_service, batch);
      timer.Restart();
      if (!full_service.Refresh().ok()) {
        std::fprintf(stderr, "full refresh failed\n");
        return 1;
      }
      const double full_s = timer.ElapsedSeconds();
      delta_total_s += delta_s;
      full_total_s += full_s;
      ingest_total_s += ingest_s;
      reuse_total += touched > 0.0 ? reused / touched : 0.0;
    }
    row.delta_publish_ms = 1e3 * delta_total_s / rounds;
    row.full_publish_ms = 1e3 * full_total_s / rounds;
    row.speedup = row.delta_publish_ms > 0.0
                      ? row.full_publish_ms / row.delta_publish_ms
                      : 0.0;
    row.reuse_fraction = reuse_total / rounds;
    row.staleness_ms = row.delta_publish_ms;
    const double cycle_s = (ingest_total_s + delta_total_s) / rounds;
    row.sustained_updates_per_sec =
        cycle_s > 0.0 ? static_cast<double>(batch_edges) / cycle_s : 0.0;

    // Bit-identity canary: the delta chain's epoch must match a cold
    // delta-mode service built directly on the final edge set.
    const auto evolved = delta_service.Snapshot();
    cod::DynamicCodService cold(CopyGraph(evolved.core->graph()), attrs,
                                delta_options);
    const auto cold_snap = cold.Snapshot();
    row.bit_identical =
        HierarchyBytes(*evolved.core) == HierarchyBytes(*cold_snap.core) &&
        HimorBytes(*evolved.core) == HimorBytes(*cold_snap.core);
    all_identical = all_identical && row.bit_identical;

    std::printf(
        "churn %.3f%% (%zu edges/batch): delta %.2fms, full %.2fms, "
        "%.1fx, reuse %.1f%%, %s\n",
        100.0 * churn, batch_edges, row.delta_publish_ms, row.full_publish_ms,
        row.speedup, 100.0 * row.reuse_fraction,
        row.bit_identical ? "bit-identical" : "MISMATCH");
    rows.push_back(row);
  }

  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"dynamic_stream_delta_rebuild\",\n"
               "  \"dataset\": \"cora-sim\",\n  \"num_nodes\": %zu,\n"
               "  \"num_edges\": %zu,\n  \"theta\": %u,\n"
               "  \"rounds_per_level\": %d,\n  \"smoke\": %s,\n"
               "  \"churn_levels\": [\n",
               num_nodes, base_edges, theta, rounds, smoke ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ChurnRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"churn\": %.4f, \"batch_edges\": %zu,\n"
        "     \"delta_publish_ms\": %.3f, \"full_publish_ms\": %.3f,\n"
        "     \"speedup\": %.2f, \"rr_sample_reuse_fraction\": %.4f,\n"
        "     \"sustained_updates_per_sec\": %.1f, \"staleness_ms\": %.3f,\n"
        "     \"bit_identical_to_cold_rebuild\": %s}%s\n",
        r.churn, r.batch_edges, r.delta_publish_ms, r.full_publish_ms,
        r.speedup, r.reuse_fraction, r.sustained_updates_per_sec,
        r.staleness_ms, r.bit_identical ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: delta epoch diverged from cold rebuild bytes\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && (std::strcmp(argv[1], "--bench") == 0 ||
                   std::strcmp(argv[1], "--smoke") == 0)) {
    return RunBench(std::strcmp(argv[1], "--smoke") == 0,
                    argc > 2 ? argv[2] : "BENCH_PR9.json");
  }
  const size_t num_events =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 600;
  const uint32_t num_shards =
      argc > 2 ? static_cast<uint32_t>(std::strtoul(argv[2], nullptr, 10)) : 1;

  std::printf("bootstrapping from cora-sim (%u shard%s)...\n", num_shards,
              num_shards == 1 ? "" : "s");
  cod::Result<cod::AttributedGraph> data = cod::MakeDataset("cora-sim");
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const size_t num_nodes = data->graph.NumNodes();
  // Remember real edges so unfollow events can hit existing ones.
  std::vector<std::pair<cod::NodeId, cod::NodeId>> known_edges;
  for (cod::EdgeId e = 0; e < data->graph.NumEdges(); ++e) {
    known_edges.push_back(data->graph.Endpoints(e));
  }

  // Pick the watched users and remember their topic names BEFORE the
  // attribute table moves into the service — the interface deliberately
  // does not expose engine internals.
  cod::Rng query_rng(9);
  const std::vector<cod::Query> watched =
      cod::GenerateQueries(data->attributes, 3, query_rng);
  std::vector<std::string> watched_topics;
  for (const cod::Query& q : watched) {
    watched_topics.push_back(data->attributes.Name(q.attribute));
  }

  // One scheduler shared by rebuilds and (in a larger deployment) query
  // batches: rebuilds enter at kRebuild, queries at kInteractive. Snapshot
  // writes ride along at kMaintenance.
  cod::TaskScheduler scheduler(2);
  const std::string snapshot_dir =
      (std::filesystem::temp_directory_path() / "cod_dynamic_stream_snaps")
          .string();
  std::filesystem::remove_all(snapshot_dir);  // fresh cold start
  cod::ServiceOptions options;
  options.rebuild_threshold = 0.03;  // rebuild after ~3% edge churn
  options.seed = 5;
  options.async_rebuild = true;
  options.scheduler = &scheduler;
  options.snapshot_dir = snapshot_dir;
  options.num_shards = num_shards;
  if (!options.Validate().ok()) {
    std::fprintf(stderr, "bad options: %s\n",
                 options.Validate().ToString().c_str());
    return 1;
  }
  cod::WallTimer timer;
  std::unique_ptr<cod::CodServiceInterface> service = cod::MakeCodService(
      std::move(data->graph), std::move(data->attributes), options);
  const uint64_t initial_epoch = service->epoch();
  std::printf("epoch %lu ready in %.2fs (%zu edges)\n",
              static_cast<unsigned long>(initial_epoch),
              timer.ElapsedSeconds(), service->NumEdges());

  cod::Rng rng(7);
  size_t adds = 0;
  size_t removals = 0;
  size_t cross_shard_rejects = 0;
  uint64_t seen_epoch = initial_epoch;
  for (size_t event = 1; event <= num_events; ++event) {
    // 70% follows (new random edge), 30% unfollows (drop a random existing
    // edge by trying random pairs).
    if (rng.Bernoulli(0.7)) {
      const cod::NodeId u = static_cast<cod::NodeId>(rng.UniformInt(num_nodes));
      const cod::NodeId v = static_cast<cod::NodeId>(rng.UniformInt(num_nodes));
      if (u == v) continue;
      if (service->AddEdge(u, v)) {
        ++adds;
        known_edges.emplace_back(u, v);
      } else if (num_shards > 1) {
        ++cross_shard_rejects;  // endpoints live on different shards
      }
    } else if (!known_edges.empty()) {
      const size_t pick = rng.UniformInt(known_edges.size());
      const auto [u, v] = known_edges[pick];
      known_edges[pick] = known_edges.back();
      known_edges.pop_back();
      if (service->RemoveEdge(u, v)) ++removals;
    }

    // Under async_rebuild the update above already scheduled an epoch
    // rebuild if drift crossed the threshold — the stream never blocks on
    // it. Just report when a freshly built epoch lands.
    if (service->epoch() != seen_epoch) {
      seen_epoch = service->epoch();
      std::printf("[event %zu: background rebuild published epoch %lu%s]\n",
                  event, static_cast<unsigned long>(seen_epoch),
                  service->epoch_degraded() ? ", DEGRADED (no index)" : "");
    }

    // Periodically query the watched users — these serve whatever epoch is
    // published, even while a rebuild is in flight on the scheduler.
    if (event % (num_events / 6 + 1) == 0) {
      std::printf("\n[event %zu: %zu adds, %zu removals, pending %zu]\n",
                  event, adds, removals, service->pending_updates());
      for (size_t w = 0; w < watched.size(); ++w) {
        const cod::Query& q = watched[w];
        const cod::CodResult r = service->Query(
            {.variant = cod::CodVariant::kCodL, .node = q.node, .k = 5,
             .attrs = {q.attribute}},
            rng);
        std::printf("  user %-5u topic %-7s -> %s (%zu members)\n", q.node,
                    watched_topics[w].c_str(),
                    r.found ? "community" : "none", r.members.size());
      }
    }
  }
  // Settle any in-flight background rebuild before the final report.
  service->WaitForRebuild();
  std::printf("\nstream done: %zu adds, %zu removals", adds, removals);
  if (num_shards > 1) {
    std::printf(", %zu cross-shard rejects", cross_shard_rejects);
  }
  std::printf(", final epoch %lu\n",
              static_cast<unsigned long>(service->epoch()));

  // ------------------------------------------------------------------
  // Restart: cold vs warm time-to-first-query.
  //
  // Cold is what the bootstrap above paid: full hierarchy + HIMOR build.
  // Warm loads the newest durable snapshot(s) the service wrote after each
  // publish — same epoch number, same seed stream, bit-identical answers.
  // The final edge set doubles as the cold-start fallback RecoverCodService
  // requires (a sharded service cold-rebuilds any shard whose snapshots
  // are missing).
  // ------------------------------------------------------------------
  const uint64_t final_epoch = service->epoch();
  const cod::Query probe = watched[0];
  service.reset();  // "crash": drops every in-memory epoch
  std::printf("\nservice destroyed; recovering from %s\n",
              snapshot_dir.c_str());

  cod::Result<cod::AttributedGraph> fresh = cod::MakeDataset("cora-sim");
  if (!fresh.ok()) {
    std::fprintf(stderr, "%s\n", fresh.status().ToString().c_str());
    return 1;
  }
  cod::GraphBuilder warm_gb(num_nodes);
  for (const auto& [u, v] : known_edges) warm_gb.AddEdge(u, v);
  timer.Restart();
  cod::Result<std::unique_ptr<cod::CodServiceInterface>> recovered =
      cod::RecoverCodService(options, std::move(warm_gb).Build(),
                             std::move(fresh->attributes));
  if (!recovered.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  cod::Rng warm_rng(11);
  const cod::CodResult warm = (*recovered)->Query(
      {.variant = cod::CodVariant::kCodL, .node = probe.node, .k = 5,
       .attrs = {probe.attribute}},
      warm_rng);
  const double warm_ttfq = timer.ElapsedSeconds();

  // Re-measure the cold path for an apples-to-apples number: rebuild the
  // same final edge set from scratch.
  cod::Result<cod::AttributedGraph> fresh2 = cod::MakeDataset("cora-sim");
  double cold_ttfq = 0.0;
  if (fresh2.ok()) {
    cod::GraphBuilder gb(num_nodes);
    for (const auto& [u, v] : known_edges) gb.AddEdge(u, v);
    cod::ServiceOptions cold_options = options;
    cold_options.snapshot_dir.clear();  // measure the build, not the write
    timer.Restart();
    std::unique_ptr<cod::CodServiceInterface> cold = cod::MakeCodService(
        std::move(gb).Build(), std::move(fresh2->attributes), cold_options);
    cod::Rng cold_rng(11);
    (void)cold->Query(
        {.variant = cod::CodVariant::kCodL, .node = probe.node, .k = 5,
         .attrs = {probe.attribute}},
        cold_rng);
    cold_ttfq = timer.ElapsedSeconds();
  }

  std::printf("recovered epoch %lu%s: user %u topic %s -> %s (%zu members)\n",
              static_cast<unsigned long>((*recovered)->epoch()),
              (*recovered)->epoch() == final_epoch ? " (matches pre-restart)"
                                                   : "",
              probe.node, watched_topics[0].c_str(),
              warm.found ? "community" : "none", warm.members.size());
  std::printf("time-to-first-query: cold rebuild %.3fs, warm restore %.3fs "
              "(%.1fx faster)\n",
              cold_ttfq, warm_ttfq,
              warm_ttfq > 0.0 ? cold_ttfq / warm_ttfq : 0.0);
  return 0;
}
