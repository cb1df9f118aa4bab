// CodEngine: the top-level facade of the library.
//
// Wires together the substrates and exposes the four COD variants the paper
// evaluates (Sec. V-A):
//   * CODU  — non-attributed hierarchy + compressed COD evaluation;
//   * CODR  — global recluster of the attribute-weighted graph g_l, then
//             compressed evaluation;
//   * CODL- — LORE local recluster, compressed evaluation over the whole
//             spliced chain (no index);
//   * CODL  — LORE + HIMOR index: answer from precomputed ranks above C_ell,
//             compressed evaluation inside C_ell otherwise.
//
// Since the EngineCore/QueryWorkspace split, the engine is a thin facade
// over an immutable, shareable EngineCore (see core/engine_core.h):
//
//   CodEngine engine(graph, attrs, {.k = 5, .theta = 10});
//   engine.BuildHimor(rng);                       // once, for CODL
//
//   // Concurrent serving: const engine, one workspace per thread —
//   const CodEngine& shared = engine;
//   QueryWorkspace ws = shared.MakeWorkspace(seed);
//   CodResult r = shared.QueryCodL(q, attr, 5, ws);
//   // — or fan a whole workload across a scheduler, deterministically:
//   std::vector<CodResult> rs = shared.QueryBatch(specs, sched, batch_seed);
//
// Influence is always evaluated on the ORIGINAL graph's probabilities;
// attribute weights only shape the hierarchy.

#ifndef COD_CORE_COD_ENGINE_H_
#define COD_CORE_COD_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/engine_core.h"
#include "core/query_batch.h"
#include "core/query_workspace.h"

namespace cod {

class TaskScheduler;

class CodEngine {
 public:
  // `graph` and `attrs` must outlive the engine. The non-attributed base
  // hierarchy, its LCA index, and the diffusion model are built eagerly.
  CodEngine(const Graph& graph, const AttributeTable& attrs,
            const EngineOptions& options);
  // Owning variant: the engine (and its published core) keep the inputs
  // alive — the serving path.
  CodEngine(std::shared_ptr<const Graph> graph,
            std::shared_ptr<const AttributeTable> attrs,
            const EngineOptions& options);

  const Graph& graph() const { return core_->graph(); }
  const AttributeTable& attributes() const { return core_->attributes(); }
  const DiffusionModel& model() const { return core_->model(); }
  const Dendrogram& base_hierarchy() const { return core_->base_hierarchy(); }
  const LcaIndex& base_lca() const { return core_->base_lca(); }
  const EngineOptions& options() const { return core_->options(); }

  // The immutable core, shareable across threads. Grab a snapshot before
  // spawning readers; setup mutators (BuildHimor, LoadHimor) must
  // happen-before sharing.
  std::shared_ptr<const EngineCore> core() const { return core_; }

  // A fresh workspace bound to the current core (one per serving thread).
  QueryWorkspace MakeWorkspace(uint64_t seed) const {
    return QueryWorkspace(*core_, seed);
  }

  // ---- Chain builders (exposed for benches and tests). ----
  CodChain BuildCoduChain(NodeId q) const { return core_->BuildCoduChain(q); }
  CodChain BuildCodrChain(NodeId q, AttributeId attr) const {
    return core_->BuildCodrChain(q, attr);
  }
  LoreChain BuildCodlChain(NodeId q, AttributeId attr) const {
    return core_->BuildCodlChain(q, attr);
  }
  LoreChain BuildCodlChain(NodeId q,
                           std::span<const AttributeId> attrs) const {
    return core_->BuildCodlChain(q, attrs);
  }

  // The canonical query entry point (see EngineCore::Query): dispatches on
  // spec.variant, fills result.stats, and records per-variant metrics.
  CodResult Query(const QuerySpec& spec, QueryWorkspace& ws) const {
    return core_->Query(spec, ws);
  }

  // ---- Query variants, workspace form: const and thread-safe (one
  // workspace per thread). Each attributed variant also accepts a topic SET
  // (an edge counts as query-attributed when both endpoints carry at least
  // one of the attributes). ----
  CodResult QueryCodU(NodeId q, uint32_t k, QueryWorkspace& ws) const {
    return core_->QueryCodU(q, k, ws);
  }
  CodResult QueryCodR(NodeId q, AttributeId attr, uint32_t k,
                      QueryWorkspace& ws) const {
    return core_->QueryCodR(q, attr, k, ws);
  }
  CodResult QueryCodR(NodeId q, std::span<const AttributeId> attrs,
                      uint32_t k, QueryWorkspace& ws) const {
    return core_->QueryCodR(q, attrs, k, ws);
  }
  CodResult QueryCodLMinus(NodeId q, AttributeId attr, uint32_t k,
                           QueryWorkspace& ws) const {
    return core_->QueryCodLMinus(q, attr, k, ws);
  }
  CodResult QueryCodLMinus(NodeId q, std::span<const AttributeId> attrs,
                           uint32_t k, QueryWorkspace& ws) const {
    return core_->QueryCodLMinus(q, attrs, k, ws);
  }
  CodResult QueryCodL(NodeId q, AttributeId attr, uint32_t k,
                      QueryWorkspace& ws) const {
    return core_->QueryCodL(q, attr, k, ws);
  }
  CodResult QueryCodL(NodeId q, std::span<const AttributeId> attrs,
                      uint32_t k, QueryWorkspace& ws) const {
    return core_->QueryCodL(q, attrs, k, ws);
  }

  // (The legacy Rng-form QueryCodX forwarders are gone: use MakeWorkspace
  // once, then the const QueryCodX(..., ws) overloads or Query(spec, ws).)

  // Index-only CODU: the largest base-hierarchy community where q is top-k,
  // answered entirely from HIMOR in O(dep(q)) — no sampling at query time.
  // Same semantics as QueryCodU up to the index's own estimation. Requires
  // BuildHimor() and k <= options().himor_max_rank.
  CodResult QueryCodUIndexed(NodeId q, uint32_t k) const {
    return core_->QueryCodUIndexed(q, k);
  }

  // ---- Concurrent batch queries. Fans `specs` across `scheduler` with one
  // workspace per worker and an independently seeded RNG per query;
  // bit-identical results for any pool size (see core/query_batch.h). ----
  std::vector<CodResult> QueryBatch(std::span<const QuerySpec> specs,
                                    TaskScheduler& scheduler,
                                    uint64_t batch_seed) const;
  // With per-query budgets, batch deadline / cancellation, and the
  // degradation ladder (see BatchOptions in core/query_batch.h).
  std::vector<CodResult> QueryBatch(std::span<const QuerySpec> specs,
                                    TaskScheduler& scheduler,
                                    uint64_t batch_seed,
                                    const BatchOptions& options) const;

  // ---- Explanation (see QueryExplanation in core/engine_core.h). ----
  using QueryExplanation = cod::QueryExplanation;
  QueryExplanation ExplainCodL(NodeId q, AttributeId attr, uint32_t k,
                               Rng& rng);
  QueryExplanation ExplainCodL(NodeId q, AttributeId attr, uint32_t k,
                               QueryWorkspace& ws) const {
    return core_->ExplainCodL(q, attr, k, ws);
  }

  // ---- Reverse (promoter) search. ----
  // Which attribute holders have the LARGEST characteristic communities in
  // the base (non-attributed) hierarchy? Answered entirely from HIMOR, so it
  // scans all candidates in O(sum depth). Useful as a CBSM shortlist; refine
  // the survivors with QueryCodL. Requires BuildHimor().
  using Promoter = cod::Promoter;
  std::vector<Promoter> FindTopPromoters(AttributeId attr, size_t count,
                                         uint32_t k) const {
    return core_->FindTopPromoters(attr, count, k);
  }

  // Builds (or rebuilds) the HIMOR index over the base hierarchy. Setup
  // step: must happen-before sharing core() across threads.
  void BuildHimor(Rng& rng) { core_->BuildHimor(rng); }
  // Schedule-seed form, optionally on a borrowed scheduler; the result
  // depends on `seed` only, never on the worker count.
  void BuildHimor(uint64_t seed, TaskScheduler* scheduler = nullptr) {
    core_->BuildHimor(seed, scheduler);
  }
  const HimorIndex* himor() const { return core_->himor(); }
  // Index-absent degraded mode (see EngineCore::MarkIndexAbsent): CODL
  // serves the CODL- computation tagged degraded, indexed CODU falls back
  // to sampled CODU. Used by the serving stack when a budgeted index build
  // fails; exposed here for parity.
  void MarkIndexAbsent() { core_->MarkIndexAbsent(); }
  bool index_present() const { return core_->index_present(); }

  // Persists / restores the HIMOR index (the base hierarchy is deterministic
  // from the graph, so the index alone suffices to resume query serving).
  Status SaveHimor(const std::string& path) const {
    return core_->SaveHimor(path);
  }
  Status LoadHimor(const std::string& path) {
    return core_->LoadHimor(path);
  }

 private:
  std::shared_ptr<EngineCore> core_;
  QueryWorkspace ws_;  // scratch for the Rng-form ExplainCodL
};

}  // namespace cod

#endif  // COD_CORE_COD_ENGINE_H_
