// EngineCore: the immutable, shareable heart of the COD serving stack.
//
// Everything a query READS lives here — graph, attribute table, diffusion
// model, non-attributed base dendrogram, its LCA index, and the optional
// HIMOR index — and every query method is const. Everything a query WRITES
// (RR-sampling scratch, chain/eval buffers, the RNG) lives in a
// QueryWorkspace the caller passes in, so N threads answer queries
// concurrently against one core with one workspace each:
//
//     shared_ptr<const EngineCore> core = ...;   // built once per epoch
//     QueryWorkspace ws(*core, seed);            // one per thread, reusable
//     CodResult r = core->Query(
//         {.variant = CodVariant::kCodL, .node = q, .k = k, .attrs = {attr}},
//         ws);
//
// Query() is the one single-query entry point; RunQueryBatch
// (core/query_batch.h) fans many specs across a scheduler.
//
// The only mutable member is the optional CODR hierarchy cache: a bounded
// (LRU-evicting) per-attribute dendrogram cache with SINGLE-FLIGHT misses —
// concurrent first-touch queries for the same attribute elect one builder
// and the rest wait on its result instead of each running a redundant
// GlobalRecluster. Deterministic clustering means every waiter reads the
// same dendrogram a private build would have produced.
//
// Index-absent (degraded) mode: a core normally requires its HIMOR index
// for CODL / indexed-CODU. When an epoch's budgeted index build fails, the
// serving stack can still publish the core after MarkIndexAbsent(): CODL
// then answers through the compressed-evaluation fallback over the LORE
// chain (the Algorithm-3 slow path, extended with the global ancestors —
// i.e. the CODL- computation) and indexed CODU falls back to sampled CODU;
// both results are tagged degraded. Queries on a core that simply never
// built an index still fail fast (programming error), so the degraded mode
// is explicit, never accidental.
//
// Construction-time mutation: BuildHimor / TryBuildHimor / MarkIndexAbsent
// are setup steps. They must happen-before the core is shared across
// threads (publish the shared_ptr only after setup), exactly like filling a
// const object before handing out references.
//
// Ownership: the owning constructor shares the graph/attribute table (the
// serving path — epochs share the attribute table, the graph dies with the
// core); the reference constructor aliases caller-owned data that must
// outlive the core (tests, benches, one-shot tools).

#ifndef COD_CORE_ENGINE_CORE_H_
#define COD_CORE_ENGINE_CORE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cod_chain.h"
#include "core/global_recluster.h"
#include "core/himor.h"
#include "core/lore.h"
#include "core/query_stats.h"
#include "graph/attributes.h"
#include "hierarchy/agglomerative.h"
#include "hierarchy/lca.h"
#include "influence/cascade_model.h"

namespace cod {

class QueryWorkspace;

struct EngineOptions {
  uint32_t k = 5;          // default top-k requirement
  uint32_t theta = 10;     // RR graphs per source node
  // The g_l transform (see core/global_recluster.h): how the query
  // attribute reshapes edge weights before (re)clustering.
  TransformOptions transform;
  DiffusionKind diffusion = DiffusionKind::kIndependentCascade;
  // Largest k the HIMOR index can answer (ranks >= this are not stored;
  // see HimorBuildSpec::max_rank).
  uint32_t himor_max_rank = 16;
  // Reuse CODR hierarchies across queries with the same attribute (results
  // are identical; only timing changes — keep false for runtime benches).
  // The cache is mutex-guarded, so concurrent CODR queries are safe.
  bool cache_codr_hierarchies = false;
  // Cached dendrograms retained before LRU eviction kicks in (0 =
  // unbounded). A dendrogram costs O(n) nodes, so a high-cardinality
  // attribute sweep against an uncapped cache is a slow memory leak.
  size_t codr_cache_capacity = 64;
  // Component-scoped mode (the sharded serving tier, src/serving/): every
  // query is answered as if q's connected component were the whole graph.
  // Ancestor chains are truncated at the component subtree, LORE depth
  // weights are measured relative to it, and the HIMOR index is built with
  // component-pure materialization (HimorBuildSpec::comp_size_of_node).
  // The payoff: a query's answer is a pure function of its component's
  // subgraph — bit-identical no matter which other components share the
  // engine — which is what makes sharded scatter/gather results
  // independent of the shard count. On a connected
  // graph the truncation is a no-op (the component subtree IS the root).
  // Queries on singleton components short-circuit to a definitive
  // found=false. Off by default: mono serving keeps the historical
  // whole-graph chains (root included even across components).
  bool component_scoped = false;
  // Coverage-sketch index (influence/coverage_sketch.h): log2 of the
  // bottom-k signature capacity. 0 (default) disables the sketch entirely;
  // otherwise every HIMOR build co-builds a CoverageSketchIndex in the same
  // merge pass, enabling sketch_prune and sketch_rung below. Memory is
  // O(2^sketch_bits) u64 per materialized community plus the exact
  // threshold/top-count tables; 6-8 bits is plenty for pruning (the prune
  // bound uses only the EXACT tables, so sketch_bits sizes the approximate
  // rung's accuracy, not prune correctness).
  uint32_t sketch_bits = 0;
  // Answer-preserving pruning of exact HIMOR-schedule evaluations: levels
  // whose sketch thresholds prove rank >= k are skipped (sources unsampled,
  // occurrence lists unscanned) with bit-identical results — see
  // SketchPruneGuide in core/compressed_eval.h for the argument. Latency
  // knob only; excluded from the service fingerprint.
  bool sketch_prune = true;
  // Enables the CODSKETCH degradation rung (core/query_batch.h): a
  // zero-sampling, index-only approximate answer from the sketch tables,
  // always tagged degraded. Latency/availability knob only; excluded from
  // the service fingerprint.
  bool sketch_rung = true;
};

// The COD variants the serving stack can run (paper Sec. V-A), ordered by
// paper naming, not cost; see core/query_batch.h for the cost-ordered
// degradation ladder.
enum class CodVariant : uint8_t {
  kCodU,
  kCodR,
  kCodLMinus,
  kCodL,         // requires the core's HIMOR index
  kCodUIndexed,  // requires the core's HIMOR index
  // Approximate index-only answer from the coverage sketch (requires
  // sketch() and k <= sketch rank depth): the largest base-hierarchy
  // community whose sketch tables estimate q inside the top-k. Zero
  // sampling, O(dep(q)); ALWAYS tagged degraded — it is the bottom rung of
  // the degradation ladder, never an exact variant.
  kCodSketch
};

// Lower-case label value used for per-variant metrics (e.g.
// cod_query_latency_seconds{variant="codl"}).
const char* CodVariantName(CodVariant variant);

// One COD query, fully described: the input of EngineCore::Query, which
// the batch API (core/query_batch.h) and the serving tier also funnel into.
// Attributed variants accept a topic SET: an edge counts as
// query-attributed when both endpoints carry at least one of the attrs.
struct QuerySpec {
  CodVariant variant = CodVariant::kCodL;
  NodeId node = kInvalidNode;
  // 0 means "use the engine default" (EngineOptions::k).
  uint32_t k = 0;
  // Query topic set; ignored by kCodU / kCodUIndexed. A single element uses
  // the single-attribute paths (including the CODR hierarchy cache). The
  // `= {}` lets designated initializers omit it without a
  // -Wmissing-field-initializers warning.
  std::vector<AttributeId> attrs = {};
  // Per-query wall-clock budget in seconds, honored by the batch API only;
  // 0 means "use the batch default" (BatchOptions::default_budget_seconds).
  // Direct EngineCore::Query calls use the workspace budget instead.
  double budget_seconds = 0.0;
};

struct CodResult {
  bool found = false;
  std::vector<NodeId> members;  // the characteristic community C*(q)
  uint32_t rank = 0;            // q's estimated rank in C*(q) (0-based)
  size_t num_levels = 0;        // |H_l(q)| levels examined
  bool answered_from_index = false;  // CODL: resolved by HIMOR alone
  // Failure taxonomy (DESIGN.md): kOk is a COMPLETE answer (found may still
  // be false — "no characteristic community" is a definitive result);
  // kTimeout / kCancelled mean the workspace budget ran out first and
  // found/members/rank are unset. Direct EngineCore queries only ever
  // return the requested variant; the batch API's degradation ladder may
  // serve a cheaper one, recorded in variant_served with degraded = true.
  StatusCode code = StatusCode::kOk;
  bool degraded = false;
  CodVariant variant_served = CodVariant::kCodU;
  // Ladder rung the served answer came from (0 = the requested variant);
  // only the batch API's degradation ladder sets values > 0.
  uint8_t ladder_rung = 0;
  // Per-stage timings and sampling counts for THIS query (copied out of the
  // workspace accumulator by EngineCore::Query). Excluded from result
  // equality in tests — instrumentation, not an answer.
  QueryStats stats;
};

// A LORE-spliced chain plus provenance.
struct LoreChain {
  CodChain chain;
  CommunityId c_ell = kInvalidCommunity;
  size_t local_levels = 0;  // chain positions below (and incl.) C_ell
};

// Full instrumentation of one CODL query: which community LORE chose and
// why (the whole score profile), whether HIMOR answered, and the final
// result. For debugging, demos, and the hierarchy explorer.
struct QueryExplanation {
  LoreScores scores;
  uint32_t c_ell_size = 0;
  bool index_hit = false;
  CommunityId index_community = kInvalidCommunity;
  uint32_t index_rank = 0;
  CodResult result;

  // Human-readable multi-line report.
  std::string ToString(const Dendrogram& hierarchy) const;
};

// One hit of the reverse (promoter) search; see FindTopPromoters.
struct Promoter {
  NodeId node;
  CommunityId community;
  uint32_t size;
  uint32_t rank;
};

class EngineCore {
 public:
  // Owning constructor: the core keeps the graph and attribute table alive.
  EngineCore(std::shared_ptr<const Graph> graph,
             std::shared_ptr<const AttributeTable> attrs,
             const EngineOptions& options);
  // Aliasing constructor: `graph` and `attrs` must outlive the core.
  EngineCore(const Graph& graph, const AttributeTable& attrs,
             const EngineOptions& options);

  // Warm-restart factory (storage/epoch_snapshot.h): reassembles a core
  // from persisted parts, skipping the expensive AgglomerativeCluster pass —
  // the base hierarchy comes in prebuilt, and the HIMOR index (or the
  // explicit index-absent degraded marker) with it. The diffusion model and
  // LCA index are recomputed (both cheap and deterministic functions of the
  // graph / hierarchy), so a core restored from a snapshot answers queries
  // bit-identically to the one that wrote it. Fails with InvalidArgument
  // when the parts disagree (node counts, leaf counts, or a HIMOR entry that
  // is not on its node's chain in the hierarchy, deepest first, with rank
  // below the index's max rank) instead of CHECK-crashing or answering from
  // a misfit index: snapshot bytes are hostile input. The entry check is
  // one pass over the index.
  // `sketch` restores the coverage-sketch index persisted alongside the
  // HIMOR index (snapshot section kSketch); it requires `himor` to be
  // present and is validated against the graph/hierarchy shape. A missing
  // sketch is never an error — the core just serves without pruning or the
  // sketch rung (sketch loss degrades latency, not answers).
  static Result<std::unique_ptr<EngineCore>> FromPrebuilt(
      std::shared_ptr<const Graph> graph,
      std::shared_ptr<const AttributeTable> attrs,
      const EngineOptions& options, Dendrogram base_hierarchy,
      std::optional<HimorIndex> himor,
      std::optional<CoverageSketchIndex> sketch, bool index_absent_degraded);

  EngineCore(const EngineCore&) = delete;
  EngineCore& operator=(const EngineCore&) = delete;

  const Graph& graph() const { return *graph_; }
  const AttributeTable& attributes() const { return *attrs_; }
  const DiffusionModel& model() const { return model_; }
  const Dendrogram& base_hierarchy() const { return base_; }
  const LcaIndex& base_lca() const { return lca_; }
  const EngineOptions& options() const { return options_; }

  // ---- Chain builders (exposed for benches and tests). ----
  CodChain BuildCoduChain(NodeId q) const;
  CodChain BuildCodrChain(NodeId q, AttributeId attr) const;
  LoreChain BuildCodlChain(NodeId q, AttributeId attr) const;
  LoreChain BuildCodlChain(NodeId q,
                           std::span<const AttributeId> attrs) const;

  // ---- The canonical query entry point. Dispatches on spec.variant,
  // resolves spec.k == 0 to the engine default, resets and fills the
  // workspace's QueryStats (copied onto the result), and records
  // per-variant latency / outcome / stage metrics in the process-wide
  // MetricsRegistry — the ONE place queries are tagged. spec.budget_seconds
  // is ignored here (that field belongs to the batch API); the effective
  // budget is ws.budget().
  //
  // Bad input is refused with result.code = kInvalidArgument (no answer,
  // no RNG draw) instead of a crash: spec.node >= NumNodes(), and k above
  // the index's max rank on kCodL / kCodUIndexed (himor_max_rank when the
  // core serves index-absent). kCodSketch additionally needs sketch() and
  // k <= its rank depth. Attribute ids nobody holds are valid queries.
  //
  // Budget discipline: every variant honors ws.budget() — the LORE edge
  // scan, RR sampling, and the agglomerative (re)clustering passes all poll
  // it and unwind with result.code set to kTimeout / kCancelled.
  CodResult Query(const QuerySpec& spec, QueryWorkspace& ws) const;

  // CODL with its LORE score profile and index decision (see
  // QueryExplanation). k == 0 means the engine default. Refuses with
  // kInvalidArgument a node out of range or k above the index's max rank,
  // and with kFailedPrecondition a core without himor().
  Result<QueryExplanation> ExplainCodL(NodeId q, AttributeId attr, uint32_t k,
                                       QueryWorkspace& ws) const;

  // Reverse (promoter) search: which attribute holders have the LARGEST
  // characteristic communities in the base hierarchy? Answered entirely
  // from HIMOR (O(sum depth) scan). k == 0 means the engine default.
  // Refuses with kInvalidArgument count == 0 or k above the index's max
  // rank, and with kFailedPrecondition a core without himor().
  Result<std::vector<Promoter>> FindTopPromoters(AttributeId attr,
                                                 size_t count,
                                                 uint32_t k) const;

  // Evaluates an externally built chain with the workspace's evaluator.
  CodResult EvaluateChain(const CodChain& chain, NodeId q, uint32_t k,
                          QueryWorkspace& ws) const;

  // ---- Setup-time mutators: must happen-before sharing the core. ----
  // Every HIMOR build below fills one HimorBuildSpec from this core's
  // model, hierarchy, LCA index and options (theta, himor_max_rank,
  // sketch_bits, and component scoping) and runs HimorIndex::Build. The
  // index is a pure function of the schedule seed and the graph: the
  // borrowed `scheduler` and the delta inputs change only latency.
  //
  // The fallible form: a build that runs out of `budget` (or hits the
  // "himor/build" failpoint) returns the error and leaves any previously
  // built index untouched. `scheduler` (optional, borrowed) runs stage 1 in
  // fixed batches. With a valid `prev` cache plus the dirty-vertex bitmap,
  // only samples touching dirty vertices are redrawn; `next` (optional)
  // receives the carry state for the following epoch, and a successful
  // reuse build consumes prev's bucket-row carry (see HimorBuildSpec).
  Status TryBuildHimor(uint64_t seed, const Budget& budget,
                       TaskScheduler* scheduler = nullptr,
                       const std::vector<char>* dirty = nullptr,
                       HimorSampleCache* prev = nullptr,
                       HimorSampleCache* next = nullptr,
                       HimorDeltaStats* stats = nullptr);
  // Schedule seed = one rng.Next() draw.
  Status TryBuildHimor(Rng& rng, const Budget& budget);
  Status TryBuildHimorDelta(uint64_t seed, const Budget& budget,
                            const std::vector<char>* dirty,
                            HimorSampleCache* prev, HimorSampleCache* next,
                            HimorDeltaStats* stats);
  // Unbudgeted forms; they CHECK success, so arm the "himor/build"
  // failpoint only around the Try forms.
  void BuildHimor(Rng& rng);
  void BuildHimor(uint64_t seed, TaskScheduler* scheduler = nullptr);
  // Declares that this core intentionally serves WITHOUT a HIMOR index (the
  // budgeted build failed and the epoch is being published degraded). CODL
  // then answers via the CODL- computation (local recluster + spliced
  // global ancestors + compressed evaluation) and kCodUIndexed via sampled
  // CODU, both tagged degraded. Setup-time mutator, like BuildHimor.
  void MarkIndexAbsent();

  const HimorIndex* himor() const {
    return himor_.has_value() ? &*himor_ : nullptr;
  }
  // Coverage-sketch index co-built with the HIMOR index when
  // options().sketch_bits > 0 (null otherwise, including when the
  // "influence/sketch_build" failpoint dropped it — the index itself still
  // builds). Non-null implies himor() is non-null.
  const CoverageSketchIndex* sketch() const {
    return sketch_.has_value() ? &*sketch_ : nullptr;
  }
  // True when the HIMOR index exists; false only on cores published in the
  // explicit index-absent degraded mode (see MarkIndexAbsent).
  bool index_present() const { return himor_.has_value(); }
  bool index_absent_degraded() const { return index_absent_degraded_; }

  // Test/ops hook: cached CODR dendrograms currently resident.
  size_t CodrCacheSize() const;

 private:
  // Constructor behind FromPrebuilt: adopts the hierarchy instead of
  // clustering. The tag keeps it out of overload resolution.
  struct PrebuiltTag {};
  EngineCore(PrebuiltTag, std::shared_ptr<const Graph> graph,
             std::shared_ptr<const AttributeTable> attrs,
             const EngineOptions& options, Dendrogram base_hierarchy);

  // The LORE splice of BuildCodlChain after the scores are known; shared by
  // the budgeted query paths, which compute scores themselves. The local
  // reclustering pass polls `budget` and unwinds with kTimeout/kCancelled.
  Result<LoreChain> BuildCodlChainFromScores(
      const LoreScores& scores, NodeId q, std::span<const AttributeId> attrs,
      const Budget& budget) const;

  // Query()'s input check: q is a node of this core, and k fits the index
  // (kCodL, kCodUIndexed) or the sketch (kCodSketch) the variant reads.
  bool AcceptsQuery(CodVariant variant, NodeId q, uint32_t k) const;

  // ---- Variant implementations behind Query()'s dispatch. These fill
  // ws.stats() stage-by-stage; Query() owns the metrics tagging. ----
  CodResult DoCodU(NodeId q, uint32_t k, QueryWorkspace& ws) const;
  CodResult DoCodRSingle(NodeId q, AttributeId attr, uint32_t k,
                         QueryWorkspace& ws) const;
  CodResult DoCodRSpan(NodeId q, std::span<const AttributeId> attrs,
                       uint32_t k, QueryWorkspace& ws) const;
  CodResult DoCodLMinus(NodeId q, std::span<const AttributeId> attrs,
                        uint32_t k, QueryWorkspace& ws) const;
  CodResult DoCodL(NodeId q, std::span<const AttributeId> attrs, uint32_t k,
                   QueryWorkspace& ws) const;
  CodResult DoCodUIndexed(NodeId q, uint32_t k) const;
  CodResult DoCodSketch(NodeId q, uint32_t k) const;

  // The CODR cache lookup-or-build: returns the attribute's dendrogram,
  // electing this thread as the single-flight builder on a cold miss (the
  // "engine_core/codr_cache" failpoint fires inside the builder, before the
  // GlobalRecluster). Waiters honor `budget`'s deadline while the builder
  // runs. `*served_from_cache` reports whether the dendrogram was obtained
  // without this thread building it.
  Result<std::shared_ptr<const Dendrogram>> CodrDendrogramFor(
      AttributeId attr, const Budget& budget, bool* served_from_cache) const;

  // Component-scoped helpers (no-ops unless options_.component_scoped).
  // ScopeTopFor: the topmost ancestor of q in `dendrogram` that still fits
  // inside q's connected component — the component subtree root (== the
  // dendrogram root on connected graphs). Returns kInvalidCommunity when
  // scoping is off, i.e. "chain runs to the root" for every caller.
  CommunityId ScopeTopFor(const Dendrogram& dendrogram, NodeId q) const;
  // True when q is alone in its component: no edges, no influence, no
  // community — Query answers kOk/found=false without touching evaluators.
  bool IsSingletonComponent(NodeId q) const {
    return options_.component_scoped && comp_size_of_node_[q] <= 1;
  }
  // Commits a freshly co-built coverage sketch (possibly empty — failpoint
  // or sketch_bits == 0) after a SUCCESSFUL index build, observing its
  // build-stage histograms. Failed builds never reach this, keeping the
  // previous index+sketch pair intact together.
  void AdoptSketch(std::optional<CoverageSketchIndex> sketch);

  // Drops least-recently-used READY entries until the cache fits
  // options_.codr_cache_capacity; in-flight builds are never evicted.
  // Requires codr_mu_ held.
  void EvictCodrOverflowLocked() const;

  std::shared_ptr<const Graph> graph_;
  std::shared_ptr<const AttributeTable> attrs_;
  EngineOptions options_;
  DiffusionModel model_;
  Dendrogram base_;
  LcaIndex lca_;
  std::optional<HimorIndex> himor_;
  std::optional<CoverageSketchIndex> sketch_;
  bool index_absent_degraded_ = false;
  // Per-node connected-component sizes, filled only when
  // options_.component_scoped (empty otherwise).
  std::vector<uint32_t> comp_size_of_node_;

  // CODR per-attribute hierarchy cache (options_.cache_codr_hierarchies):
  // bounded LRU, single-flight misses. `dendrogram == nullptr` marks an
  // in-flight build; waiters sleep on codr_cv_ (one cv for the whole cache —
  // builds are rare and the thundering herd is exactly the set of waiters
  // that need to wake). shared_ptr values let readers drop the lock before
  // walking a dendrogram, and keep an evicted-but-in-use dendrogram alive.
  struct CodrCacheEntry {
    std::shared_ptr<const Dendrogram> dendrogram;  // null while building
    uint64_t last_used = 0;                        // LRU tick
  };
  mutable std::mutex codr_mu_;
  mutable std::condition_variable codr_cv_;
  mutable std::unordered_map<AttributeId, CodrCacheEntry> codr_cache_;
  mutable uint64_t codr_lru_tick_ = 0;
};

}  // namespace cod

#endif  // COD_CORE_ENGINE_CORE_H_
