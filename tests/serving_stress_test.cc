// Satellite stress test for the RCU-style serving stack: several reader
// threads fan QueryBatch workloads across a shared scheduler while a writer
// thread ingests edge updates and kicks off background rebuilds. Readers
// pin a Snapshot() per iteration, so every answer must be bit-consistent
// with a sequential rerun against that same pinned epoch — a torn read or
// a query straddling two epochs would break the comparison.

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "serving/dynamic_service.h"
#include "core/query_batch.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "tests/test_util.h"

namespace cod {
namespace {

using ::cod::testing::SameResult;

// CI's failpoint-fuzz job points COD_METRICS_DUMP at a file and archives it
// when a shard fails — the counter state (trips, degraded epochs, fallbacks)
// is the first thing to read when reproducing a fuzz failure.
class MetricsDumpEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    const char* path = std::getenv("COD_METRICS_DUMP");
    if (path == nullptr || *path == '\0') return;
    std::ofstream out(path);
    out << MetricsRegistry::Instance().JsonDump() << "\n";
  }
};
const ::testing::Environment* const kMetricsDumpEnv =
    ::testing::AddGlobalTestEnvironment(new MetricsDumpEnvironment);

// CI shards override the fuzz stream via COD_FUZZ_SEED; the per-test offset
// keeps the three instantiations distinct within a shard.
uint64_t FuzzSeed(uint64_t offset) {
  const char* env = std::getenv("COD_FUZZ_SEED");
  const uint64_t base =
      (env == nullptr || *env == '\0') ? 0 : std::strtoull(env, nullptr, 10);
  return base + offset;
}

struct World {
  Graph graph;
  AttributeTable attrs;
};

// Kept deliberately small: each refresh rebuilds the hierarchy + HIMOR, and
// the test runs several epochs' worth of rebuilds under TSAN.
World MakeWorld(uint64_t seed, size_t n = 150) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = n;
  params.num_edges = 4 * n;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 4, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  return w;
}

std::vector<QuerySpec> MakeSpecs(const AttributeTable& attrs, size_t count) {
  std::vector<QuerySpec> specs;
  for (NodeId q = 0; specs.size() < count; ++q) {
    const NodeId node = q % static_cast<NodeId>(attrs.NumNodes());
    const auto own = attrs.AttributesOf(node);
    QuerySpec spec;
    spec.node = node;
    spec.k = 4;
    if (own.empty() || specs.size() % 3 == 0) {
      spec.variant = CodVariant::kCodU;
    } else if (specs.size() % 3 == 1) {
      spec.variant = CodVariant::kCodL;
      spec.attrs.assign(own.begin(), own.begin() + 1);
    } else {
      spec.variant = CodVariant::kCodR;
      spec.attrs.assign(own.begin(), own.begin() + 1);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(ServingStressTest, BatchQueriesRaceBackgroundRebuilds) {
  World w = MakeWorld(1);
  const size_t num_nodes = w.attrs.NumNodes();
  const std::vector<QuerySpec> specs = MakeSpecs(w.attrs, 12);

  TaskScheduler rebuild_pool(1);
  ServiceOptions options;
  options.rebuild_threshold = 100.0;  // writer refreshes explicitly
  options.seed = 3;
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  TaskScheduler query_pool(4);
  constexpr int kReaders = 4;
  constexpr int kIterations = 6;
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> max_epoch_seen{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_epoch = 0;
      for (int it = 0; it < kIterations; ++it) {
        const DynamicCodService::EpochSnapshot snap = service.Snapshot();
        // Publication is monotonic: a reader can never observe the epoch
        // counter going backwards.
        if (snap.epoch < last_epoch) ++failures;
        last_epoch = snap.epoch;
        uint64_t prev = max_epoch_seen.load();
        while (prev < snap.epoch &&
               !max_epoch_seen.compare_exchange_weak(prev, snap.epoch)) {
        }

        const uint64_t batch_seed = r * 100 + it;
        const std::vector<CodResult> batch =
            RunQueryBatch(*snap.core, specs, query_pool, batch_seed);
        if (batch.size() != specs.size()) {
          ++failures;
          continue;
        }
        // Sequential rerun against the SAME pinned epoch. Any divergence
        // means a query read state from a different (or half-published)
        // epoch.
        QueryWorkspace ws(*snap.core, 0);
        for (size_t i = 0; i < specs.size(); ++i) {
          ws.ReseedRng(BatchQuerySeed(batch_seed, i));
          if (!SameResult(batch[i], snap.core->Query(specs[i], ws))) {
            ++failures;
          }
        }
      }
    });
  }

  std::thread writer([&] {
    Rng rng(42);
    int refreshes = 0;
    while (!stop.load()) {
      const NodeId u = static_cast<NodeId>(rng.Next() % num_nodes);
      const NodeId v = static_cast<NodeId>(rng.Next() % num_nodes);
      if (u != v) {
        if (rng.Next() % 2 == 0) {
          service.AddEdge(u, v);
        } else {
          service.RemoveEdge(u, v);
        }
      }
      if (rng.Next() % 4 == 0) {
        if (service.RefreshAsync()) ++refreshes;
      }
      std::this_thread::yield();
    }
    // Guarantee at least one successful background rebuild happened.
    while (refreshes == 0) {
      service.AddEdge(0, static_cast<NodeId>(num_nodes - 1));
      if (service.RefreshAsync()) ++refreshes;
    }
  });

  for (std::thread& t : readers) t.join();
  stop.store(true);
  writer.join();
  service.WaitForRebuild();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(service.epoch(), 1u);  // background rebuilds actually published
  EXPECT_GE(max_epoch_seen.load(), 1u);
}

// Metric scrapes race the serving stack: while readers run batches and the
// writer publishes epochs, a scraper thread pulls ExpositionText/JsonDump in
// a loop. Exercises (under TSAN) the sharded-cell merge against concurrent
// relaxed bumps, and the scrape-time callback gauges reading service state
// (registry lock -> service mutex ordering).
TEST(ServingStressTest, ConcurrentScrapesRaceServingAndRebuilds) {
  World w = MakeWorld(3);
  const size_t num_nodes = w.attrs.NumNodes();
  const std::vector<QuerySpec> specs = MakeSpecs(w.attrs, 10);

  TaskScheduler rebuild_pool(1);
  ServiceOptions options;
  options.rebuild_threshold = 100.0;
  options.seed = 7;
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  TaskScheduler query_pool(3);
  std::atomic<bool> stop{false};
  std::atomic<int> scrape_failures{0};

  std::thread scraper([&] {
    while (!stop.load()) {
      const std::string text = MetricsRegistry::Instance().ExpositionText();
      // The service's callback gauges must be present in every scrape.
      if (text.find("cod_service_epoch ") == std::string::npos) {
        ++scrape_failures;
      }
      if (MetricsRegistry::Instance().JsonDump().find(
              "\"cod_service_pending_updates\"") == std::string::npos) {
        ++scrape_failures;
      }
      std::this_thread::yield();
    }
  });

  std::thread writer([&] {
    Rng rng(11);
    int refreshes = 0;
    for (int i = 0; i < 200 || refreshes == 0; ++i) {
      const NodeId u = static_cast<NodeId>(rng.Next() % num_nodes);
      const NodeId v = static_cast<NodeId>(rng.Next() % num_nodes);
      if (u != v) service.AddEdge(u, v);
      if (rng.Next() % 8 == 0 && service.RefreshAsync()) ++refreshes;
      std::this_thread::yield();
    }
  });

  for (int it = 0; it < 6; ++it) {
    const DynamicCodService::EpochSnapshot snap = service.Snapshot();
    const std::vector<CodResult> batch =
        RunQueryBatch(*snap.core, specs, query_pool, /*batch_seed=*/it);
    EXPECT_EQ(batch.size(), specs.size());
  }

  writer.join();
  stop.store(true);
  scraper.join();
  service.WaitForRebuild();
  EXPECT_EQ(scrape_failures.load(), 0);
}

// A snapshot taken before a rebuild keeps answering from its own epoch even
// while newer epochs are published and the old one is retired from
// published_.
TEST(ServingStressTest, PinnedSnapshotStableAcrossRebuilds) {
  World w = MakeWorld(2);
  const std::vector<QuerySpec> specs = MakeSpecs(w.attrs, 8);

  ServiceOptions options;
  options.rebuild_threshold = 100.0;
  options.seed = 5;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  TaskScheduler pool(2);
  const DynamicCodService::EpochSnapshot pinned = service.Snapshot();
  const std::vector<CodResult> before =
      RunQueryBatch(*pinned.core, specs, pool, 17);

  for (int i = 0; i < 3; ++i) {
    service.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(100 + i));
    service.Refresh();
  }
  ASSERT_EQ(service.epoch(), pinned.epoch + 3);

  const std::vector<CodResult> after =
      RunQueryBatch(*pinned.core, specs, pool, 17);
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_TRUE(SameResult(before[i], after[i])) << "spec " << i;
  }
}

// Tentpole: chaos-monkey the WHOLE serving stack. Fuzz mode trips every
// failpoint site (rebuild, himor/build, codr_cache, query_batch/worker,
// rr/sample) with a small independent probability while readers batch-query
// snapshots and a writer ingests edges and triggers rebuilds. The draws'
// assignment to sites depends on interleaving, so we assert invariants
// only: the failure taxonomy, monotonic epoch publication, no crash/hang —
// and full recovery once the fuzz scope ends.
class RandomFailpointStressTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomFailpointStressTest, ServingSurvivesRandomFaults) {
  World w = MakeWorld(4);
  const size_t num_nodes = w.attrs.NumNodes();
  const std::vector<QuerySpec> specs = MakeSpecs(w.attrs, 10);

  TaskScheduler rebuild_pool(1);
  ServiceOptions options;
  options.rebuild_threshold = 100.0;
  options.seed = 9;
  options.async_rebuild = true;
  options.scheduler = &rebuild_pool;
  // Fast, bounded retries so fuzz-failed rebuilds resolve within the test.
  options.max_rebuild_retries = 2;
  options.rebuild_backoff_initial_ms = 5;
  options.rebuild_backoff_max_ms = 20;
  DynamicCodService service(std::move(w.graph), std::move(w.attrs), options);

  TaskScheduler query_pool(3);
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  {
    // Arm AFTER construction: a service that failed to build is not a
    // serving-invariant violation, just a shorter test.
    ScopedRandomFailpoints fuzz(FuzzSeed(GetParam()), /*trip_probability=*/
                                0.02);

    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&, r] {
        uint64_t last_epoch = 0;
        for (int it = 0; it < 5; ++it) {
          const DynamicCodService::EpochSnapshot snap = service.Snapshot();
          if (snap.epoch < last_epoch) ++violations;
          last_epoch = snap.epoch;
          const std::vector<CodResult> batch = RunQueryBatch(
              *snap.core, specs, query_pool, /*batch_seed=*/r * 100 + it);
          if (batch.size() != specs.size()) {
            ++violations;
            continue;
          }
          for (const CodResult& res : batch) {
            // The complete failure taxonomy — nothing else may come back.
            if (res.code != StatusCode::kOk &&
                res.code != StatusCode::kTimeout &&
                res.code != StatusCode::kCancelled) {
              ++violations;
            }
            if (res.found) {
              if (res.code != StatusCode::kOk || res.members.empty()) {
                ++violations;
              }
              for (const NodeId v : res.members) {
                if (v >= snap.core->graph().NumNodes()) ++violations;
              }
            }
          }
        }
      });
    }

    std::thread writer([&] {
      Rng rng(13);
      while (!stop.load()) {
        const NodeId u = static_cast<NodeId>(rng.Next() % num_nodes);
        const NodeId v = static_cast<NodeId>(rng.Next() % num_nodes);
        if (u != v) service.AddEdge(u, v);
        if (rng.Next() % 6 == 0) service.RefreshAsync();
        std::this_thread::yield();
      }
    });

    for (std::thread& t : readers) t.join();
    stop.store(true);
    writer.join();
    service.WaitForRebuild();
  }  // fuzz disarmed

  EXPECT_EQ(violations.load(), 0);
  // Recovery: with the chaos gone, a refresh publishes a HEALTHY epoch and
  // ordinary queries answer undegraded.
  service.AddEdge(0, static_cast<NodeId>(num_nodes - 1));
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_FALSE(service.epoch_degraded());
  const DynamicCodService::EpochSnapshot snap = service.Snapshot();
  EXPECT_TRUE(snap.core->index_present());
  const std::vector<CodResult> healthy =
      RunQueryBatch(*snap.core, specs, query_pool, /*batch_seed=*/999);
  for (const CodResult& res : healthy) {
    EXPECT_EQ(res.code, StatusCode::kOk);
    EXPECT_FALSE(res.degraded);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFailpointStressTest,
                         ::testing::Values(201, 202, 203));

}  // namespace
}  // namespace cod
