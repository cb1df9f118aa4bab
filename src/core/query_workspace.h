// QueryWorkspace: the mutable half of a COD query.
//
// EngineCore holds everything a query reads; this object holds everything a
// query writes — the compressed evaluator with its RR-sampling scratch and
// bucket buffers, plus the RNG that drives sampling. One workspace serves
// one thread: allocate it once, reuse it across any number of queries
// against the same core, and Rebind() it when an epoch swap replaces the
// core (scratch capacity is kept).
//
// A workspace is bound to the core it was created from (the evaluator
// references that core's diffusion model); EngineCore query methods
// DCHECK the binding.

#ifndef COD_CORE_QUERY_WORKSPACE_H_
#define COD_CORE_QUERY_WORKSPACE_H_

#include <cstdint>

#include "common/deadline.h"
#include "common/random.h"
#include "core/compressed_eval.h"
#include "core/query_stats.h"

namespace cod {

class EngineCore;

class QueryWorkspace {
 public:
  // Binds to `core`'s diffusion model and theta; `seed` initializes the
  // workspace RNG. `core` must outlive the workspace or be replaced via
  // Rebind before further use.
  QueryWorkspace(const EngineCore& core, uint64_t seed);

  // Re-binds to a (possibly different) core, reusing scratch allocations.
  // The RNG stream is left untouched; ReseedRng to restart it.
  void Rebind(const EngineCore& core);

  Rng& rng() { return rng_; }
  void ReseedRng(uint64_t seed) { rng_ = Rng(seed); }

  CompressedEvaluator& evaluator() { return evaluator_; }
  const EngineCore* bound_core() const { return core_; }

  // Optional intra-query sampling scheduler (borrowed, never owned; see
  // influence/rr_pool.h). When set, queries through this workspace shard
  // their RR-pool construction across it; without one they sample
  // serially. Sharing the batch scheduler is the normal case: sampling
  // chunks are interactive tasks whose group wait helps inline, so there is
  // no self-scheduler hazard. Results are bit-identical with or without a
  // scheduler.
  void SetSamplingPool(TaskScheduler* scheduler) {
    sampling_pool_ = scheduler;
  }
  TaskScheduler* sampling_pool() const { return sampling_pool_; }

  // Per-query budget: EngineCore query methods poll this between units of
  // work (RR samples, LORE edge strides) and unwind with kTimeout /
  // kCancelled when it is exhausted. Defaults to unlimited; the batch API
  // (core/query_batch.h) sets it around each ladder rung.
  void SetBudget(const Budget& budget) { budget_ = budget; }
  void ClearBudget() { budget_ = Budget{}; }
  const Budget& budget() const { return budget_; }

  // |R| explored by the most recent evaluation (diagnostics; see
  // CompressedEvaluator::last_explored_nodes).
  size_t last_explored_nodes() const {
    return evaluator_.last_explored_nodes();
  }

  // Per-query stage accumulator: EngineCore::Query resets it, the variant
  // implementations add to it, and the final CodResult copies it out. After
  // a query it still holds that query's numbers (diagnostics).
  QueryStats& stats() { return stats_; }
  const QueryStats& stats() const { return stats_; }

 private:
  const EngineCore* core_;
  CompressedEvaluator evaluator_;
  Rng rng_;
  Budget budget_;
  QueryStats stats_;
  TaskScheduler* sampling_pool_ = nullptr;  // borrowed, never owned
};

}  // namespace cod

#endif  // COD_CORE_QUERY_WORKSPACE_H_
