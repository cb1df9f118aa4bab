// Determinism and allocation contracts of intra-query parallel RR sampling
// (influence/rr_pool.h): results are bit-identical across a workspace with
// no sampling scheduler / a 1-worker scheduler / an 8-worker scheduler, batches stay thread-count
// independent with a sampling scheduler attached, and the slab pool stops
// allocating once warmed.

#include <vector>

#include <gtest/gtest.h>

#include "common/task_scheduler.h"
#include "core/engine_core.h"
#include "core/query_batch.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "influence/rr_pool.h"
#include "tests/test_util.h"

namespace cod {
namespace {

using ::cod::testing::SameResult;

struct World {
  Graph graph;
  AttributeTable attrs;
};

World MakeWorld(uint64_t seed, size_t n = 160) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = n;
  params.num_edges = 4 * n;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 5, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  return w;
}

std::vector<QuerySpec> MakeVariantSpecs(const World& w, size_t count) {
  const CodVariant variants[] = {CodVariant::kCodU, CodVariant::kCodR,
                                 CodVariant::kCodLMinus, CodVariant::kCodL,
                                 CodVariant::kCodUIndexed};
  std::vector<QuerySpec> specs;
  for (size_t i = 0; specs.size() < count; ++i) {
    const NodeId q = static_cast<NodeId>(i % w.graph.NumNodes());
    const auto attrs = w.attrs.AttributesOf(q);
    QuerySpec spec;
    spec.variant = variants[i % std::size(variants)];
    spec.node = q;
    spec.k = 5;
    if (spec.variant != CodVariant::kCodU &&
        spec.variant != CodVariant::kCodUIndexed) {
      if (attrs.empty()) continue;
      spec.attrs.assign(1, attrs[0]);
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(SamplingPoolTest, QueryBitIdenticalAcrossSamplingModes) {
  const World w = MakeWorld(1);
  EngineOptions options;
  options.theta = 8;
  EngineCore core(w.graph, w.attrs, options);
  core.BuildHimor(/*seed=*/7);

  TaskScheduler sched1(1);
  TaskScheduler sched8(8);
  QueryWorkspace ws_off(core, 0);  // no sampling pool: serial sampling
  QueryWorkspace ws_one(core, 0);
  ws_one.SetSamplingPool(&sched1);
  QueryWorkspace ws_eight(core, 0);
  ws_eight.SetSamplingPool(&sched8);

  const std::vector<QuerySpec> specs = MakeVariantSpecs(w, 20);
  for (size_t i = 0; i < specs.size(); ++i) {
    const QuerySpec& spec = specs[i];
    const uint64_t seed = 1000 + i;

    ws_off.ReseedRng(seed);
    const CodResult off = core.Query(spec, ws_off);

    ws_one.ReseedRng(seed);
    const CodResult one = core.Query(spec, ws_one);
    ws_eight.ReseedRng(seed);
    const CodResult eight = core.Query(spec, ws_eight);

    EXPECT_TRUE(SameResult(off, one)) << "spec " << i;
    EXPECT_TRUE(SameResult(off, eight)) << "spec " << i;
    EXPECT_EQ(off.stats.rr_samples, one.stats.rr_samples) << "spec " << i;
    EXPECT_EQ(off.stats.rr_samples, eight.stats.rr_samples) << "spec " << i;
    EXPECT_EQ(off.stats.explored_nodes, eight.stats.explored_nodes)
        << "spec " << i;
    EXPECT_EQ(off.stats.parallel_chunks, 0u);
    if (spec.variant == CodVariant::kCodU) {
      // A sampled variant with a multi-worker scheduler actually went
      // parallel.
      EXPECT_GT(eight.stats.parallel_chunks, 1u) << "spec " << i;
    }
  }
}

TEST(SamplingPoolTest, EvaluateConsumesExactlyOneDrawPerCall) {
  const World w = MakeWorld(2);
  EngineOptions options;
  options.theta = 4;
  const EngineCore core(w.graph, w.attrs, options);
  const CodChain chain = core.BuildCoduChain(/*q=*/3);

  CompressedEvaluator eval(core.model(), options.theta);
  Rng used(5);
  eval.Evaluate(chain, /*q=*/3, /*k=*/5, used);
  Rng skipped(5);
  skipped.Next();
  // The evaluator drew the pool seed and nothing else, so both streams now
  // continue identically.
  EXPECT_EQ(used.Next(), skipped.Next());
}

TEST(SamplingPoolTest, BatchBitIdenticalAcrossThreadCountsWithScheduler) {
  const World w = MakeWorld(3);
  EngineOptions options;
  options.theta = 6;
  EngineCore core(w.graph, w.attrs, options);
  core.BuildHimor(/*seed=*/9);
  const std::vector<QuerySpec> specs = MakeVariantSpecs(w, 16);
  const uint64_t batch_seed = 42;

  TaskScheduler reference_sched(1);
  const std::vector<CodResult> reference =
      RunQueryBatch(core, specs, reference_sched, batch_seed);

  TaskScheduler sampling_sched(2);
  for (const size_t batch_threads : {1u, 3u}) {
    TaskScheduler sched(batch_threads);
    BatchOptions bo;
    bo.sampling_pool = &sampling_sched;
    const std::vector<CodResult> got =
        RunQueryBatch(core, specs, sched, batch_seed, bo);
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(SameResult(reference[i], got[i]))
          << "threads=" << batch_threads << " i=" << i;
      EXPECT_EQ(reference[i].stats.rr_samples, got[i].stats.rr_samples);
    }
  }

  // Handing the batch scheduler itself as the sampling scheduler is the
  // normal sharing pattern: sampling chunks are interactive tasks whose
  // group wait helps inline, so nothing deadlocks and results stay
  // bit-identical.
  TaskScheduler shared(2);
  BatchOptions self;
  self.sampling_pool = &shared;
  const std::vector<CodResult> shared_results =
      RunQueryBatch(core, specs, shared, batch_seed, self);
  for (size_t i = 0; i < shared_results.size(); ++i) {
    EXPECT_TRUE(SameResult(reference[i], shared_results[i])) << "i=" << i;
  }
}

TEST(SamplingPoolTest, EvaluateOnWorkerThreadMatchesSerial) {
  // Evaluating from inside a scheduler worker, handing that same scheduler
  // as the sampling scheduler, must produce bit-identical results to a
  // plain serial evaluation. The old flat pool handled this case by
  // detecting the worker thread and silently sampling inline; the
  // scheduler instead runs the chunks for real (the group wait helps
  // inline), so the parallel path is exercised, not skipped.
  const World w = MakeWorld(4);
  EngineOptions options;
  options.theta = 6;
  const EngineCore core(w.graph, w.attrs, options);
  const CodChain chain = core.BuildCoduChain(/*q=*/1);

  CompressedEvaluator serial_eval(core.model(), options.theta);
  Rng serial_rng(11);
  const ChainEvalOutcome serial =
      serial_eval.Evaluate(chain, /*q=*/1, /*k=*/5, serial_rng);

  for (const size_t workers : {1u, 2u}) {
    TaskScheduler sched(workers);
    CompressedEvaluator worker_eval(core.model(), options.theta);
    ChainEvalOutcome on_worker;
    TaskGroup group(sched);
    sched.Submit(TaskPriority::kInteractive, group, [&] {
      Rng rng(11);
      on_worker =
          worker_eval.Evaluate(chain, /*q=*/1, /*k=*/5, rng, Budget{}, &sched);
    });
    group.Wait();

    if (workers > 1) {
      EXPECT_GT(worker_eval.last_parallel_chunks(), 0u);
    } else {
      EXPECT_EQ(worker_eval.last_parallel_chunks(), 0u);
    }
    EXPECT_EQ(serial.rank_per_level, on_worker.rank_per_level)
        << "workers=" << workers;
    EXPECT_EQ(serial.best_level, on_worker.best_level)
        << "workers=" << workers;
  }
}

TEST(SamplingPoolTest, SlabPoolStopsGrowingAfterWarmup) {
  const World w = MakeWorld(5);
  EngineOptions options;
  options.theta = 6;
  const EngineCore core(w.graph, w.attrs, options);
  TaskScheduler sched(2);
  QueryWorkspace ws(core, 0);
  ws.SetSamplingPool(&sched);

  QuerySpec spec;
  spec.variant = CodVariant::kCodU;
  spec.node = 2;
  spec.k = 5;

  const uint64_t seeds[] = {100, 101, 102, 103, 104};
  // Warm-up pass: slabs and samplers grow to the workload's high-water mark.
  for (const uint64_t seed : seeds) {
    ws.ReseedRng(seed);
    core.Query(spec, ws);
  }
  const uint64_t warmed = ws.evaluator().slab_growth_events();
  EXPECT_GT(warmed, 0u);

  // The same query stream again (several times over) must not allocate.
  for (int round = 0; round < 4; ++round) {
    for (const uint64_t seed : seeds) {
      ws.ReseedRng(seed);
      core.Query(spec, ws);
    }
  }
  EXPECT_EQ(ws.evaluator().slab_growth_events(), warmed);

  // An epoch swap to an equivalent core keeps slab capacity: Rebind, then
  // the same stream still performs zero slab growth.
  const EngineCore twin(w.graph, w.attrs, options);
  ws.Rebind(twin);
  for (const uint64_t seed : seeds) {
    ws.ReseedRng(seed);
    twin.Query(spec, ws);
  }
  EXPECT_EQ(ws.evaluator().slab_growth_events(), warmed);
}

TEST(SamplingPoolTest, ExpiredBudgetMidPoolLeavesWorkspaceReusable) {
  const World w = MakeWorld(6);
  EngineOptions options;
  options.theta = 6;
  const EngineCore core(w.graph, w.attrs, options);
  TaskScheduler sched(2);

  QuerySpec spec;
  spec.variant = CodVariant::kCodU;
  spec.node = 4;
  spec.k = 5;

  QueryWorkspace ws(core, 0);
  ws.SetSamplingPool(&sched);
  // Sub-nanosecond budget: deterministically expires at the first poll in
  // every sampling chunk.
  ws.SetBudget(Budget{Deadline::After(1e-12)});
  ws.ReseedRng(77);
  const CodResult timed_out = core.Query(spec, ws);
  EXPECT_EQ(timed_out.code, StatusCode::kTimeout);
  EXPECT_FALSE(timed_out.found);

  // The same workspace answers normally afterwards, matching a fresh one.
  ws.ClearBudget();
  ws.ReseedRng(78);
  const CodResult reused = core.Query(spec, ws);
  QueryWorkspace fresh(core, 0);
  fresh.ReseedRng(78);
  const CodResult expected = core.Query(spec, fresh);
  EXPECT_TRUE(SameResult(reused, expected));
  EXPECT_EQ(reused.code, StatusCode::kOk);
}

}  // namespace
}  // namespace cod
