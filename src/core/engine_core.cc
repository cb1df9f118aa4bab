#include "core/engine_core.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "core/query_workspace.h"
#include "graph/connectivity.h"

namespace cod {
namespace {

DiffusionModel MakeModel(const Graph& g, DiffusionKind kind) {
  switch (kind) {
    case DiffusionKind::kIndependentCascade:
      return DiffusionModel::WeightedCascadeIc(g);
    case DiffusionKind::kLinearThreshold:
      return DiffusionModel::WeightedCascadeLt(g);
  }
  COD_CHECK(false);
  return DiffusionModel::WeightedCascadeIc(g);
}

// Non-owning alias: the caller guarantees the referent outlives the core.
template <typename T>
std::shared_ptr<const T> Alias(const T& ref) {
  return std::shared_ptr<const T>(std::shared_ptr<const T>(), &ref);
}

// Per-node connected-component sizes for component-scoped cores.
std::vector<uint32_t> ComponentSizes(const Graph& g) {
  const Components comps = ConnectedComponents(g);
  std::vector<uint32_t> count(comps.count, 0);
  for (uint32_t label : comps.label) ++count[label];
  std::vector<uint32_t> sizes(comps.label.size());
  for (size_t v = 0; v < comps.label.size(); ++v) {
    sizes[v] = count[comps.label[v]];
  }
  return sizes;
}

// FromPrebuilt's check of a restored HIMOR index against its hierarchy, one
// pass over the entries: v's entries must walk up v's chain deepest first
// (each a proper ancestor of the one before, starting from v's leaf), with
// rank < max_rank. Queries index the hierarchy with these communities and
// stop their scans on this order, so an index that breaks it would read out
// of bounds or answer wrongly.
Status CheckHimorEntries(const HimorIndex& himor, const Dendrogram& tree) {
  for (NodeId v = 0; v < himor.NumNodes(); ++v) {
    CommunityId below = tree.LeafOf(v);
    for (const HimorIndex::Entry& entry : himor.RanksOf(v)) {
      if (entry.community >= tree.NumVertices() || entry.community == below ||
          !tree.IsAncestorOrSelf(entry.community, below) ||
          entry.rank >= himor.max_rank()) {
        return Status::InvalidArgument(
            "HIMOR index entry (community " + std::to_string(entry.community) +
            ", rank " + std::to_string(entry.rank) + ") of node " +
            std::to_string(v) + " does not fit the hierarchy");
      }
      below = entry.community;
    }
  }
  return Status::Ok();
}

// A query that ran out of budget before producing an answer.
CodResult BudgetExhaustedResult(StatusCode code, CodVariant variant) {
  CodResult result;
  result.code = code;
  result.variant_served = variant;
  return result;
}

// Accumulates the enclosing scope's wall time into a QueryStats field.
// Early returns still record (destructor fires on unwind).
class StageTimer {
 public:
  explicit StageTimer(double* sink)
      : sink_(sink), start_(std::chrono::steady_clock::now()) {}
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() {
    *sink_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start_)
                  .count();
  }

 private:
  double* sink_;
  std::chrono::steady_clock::time_point start_;
};

// Registry handles for one variant's per-query series, resolved once per
// process (the registry mutex is only taken on first use).
struct VariantSites {
  Histogram* latency;
  Counter* ok;
  Counter* timeout;
  Counter* cancelled;
  Counter* invalid_argument;
};

const VariantSites& SitesFor(CodVariant variant) {
  static const std::array<VariantSites, 6> sites = [] {
    std::array<VariantSites, 6> s{};
    MetricsRegistry& reg = MetricsRegistry::Instance();
    for (size_t i = 0; i < s.size(); ++i) {
      const std::string v = CodVariantName(static_cast<CodVariant>(i));
      // 1 us .. ~10 s: index and sketch answers take about a microsecond,
      // far below the default buckets' 100 us floor.
      s[i].latency = reg.GetHistogram(
          "cod_query_latency_seconds{variant=\"" + v + "\"}",
          HistogramOptions::Exponential(1e-6, 3.16, 15));
      s[i].ok = reg.GetCounter("cod_queries_total{variant=\"" + v +
                               "\",outcome=\"ok\"}");
      s[i].timeout = reg.GetCounter("cod_queries_total{variant=\"" + v +
                                    "\",outcome=\"timeout\"}");
      s[i].cancelled = reg.GetCounter("cod_queries_total{variant=\"" + v +
                                      "\",outcome=\"cancelled\"}");
      s[i].invalid_argument = reg.GetCounter(
          "cod_queries_total{variant=\"" + v +
          "\",outcome=\"invalid_argument\"}");
    }
    return s;
  }();
  return sites[static_cast<size_t>(variant)];
}

// Stage histograms and sampling counters shared by every variant.
struct StageSites {
  Histogram* chain_build;
  Histogram* lore_scan;
  Histogram* sample;
  Histogram* merge;
  Histogram* eval;
  Counter* rr_samples;
  Counter* rr_parallel_pools;
  Counter* rr_parallel_chunks;
  Counter* index_hits;
  Counter* codr_cache_hits;
  Counter* codr_cache_misses;
  Counter* codr_cache_builds;
  Counter* codr_cache_evictions;
  Counter* codr_fallbacks;
  Histogram* sketch_merge;
  Histogram* sketch_finalize;
  Counter* sketch_prune_skipped;
  Counter* sketch_prune_considered;
  Counter* sketch_rung_served;
};

const StageSites& Stages() {
  static const StageSites sites = [] {
    MetricsRegistry& reg = MetricsRegistry::Instance();
    StageSites s{};
    s.chain_build =
        reg.GetHistogram("cod_query_stage_seconds{stage=\"chain_build\"}");
    s.lore_scan =
        reg.GetHistogram("cod_query_stage_seconds{stage=\"lore_scan\"}");
    // Pool construction spans sub-millisecond smoke graphs to multi-minute
    // big-graph pools; the chunk merge is a memcpy pass, orders of magnitude
    // below the default latency buckets. Both get explicit ranges so large
    // or tiny timings don't all land in one end bucket.
    s.sample =
        reg.GetHistogram("cod_query_stage_seconds{stage=\"rr_sampling\"}",
                         HistogramOptions::Exponential(1e-5, 3.16, 16));
    s.merge = reg.GetHistogram("cod_query_stage_seconds{stage=\"rr_merge\"}",
                               HistogramOptions::Exponential(1e-7, 10.0, 10));
    s.eval = reg.GetHistogram("cod_query_stage_seconds{stage=\"evaluation\"}");
    s.rr_samples = reg.GetCounter("cod_rr_samples_total");
    s.rr_parallel_pools = reg.GetCounter("cod_rr_parallel_pools_total");
    s.rr_parallel_chunks = reg.GetCounter("cod_rr_parallel_chunks_total");
    s.index_hits = reg.GetCounter("cod_index_hits_total");
    s.codr_cache_hits = reg.GetCounter("cod_codr_cache_hits_total");
    s.codr_cache_misses = reg.GetCounter("cod_codr_cache_misses_total");
    s.codr_cache_builds = reg.GetCounter("cod_codr_cache_builds_total");
    s.codr_cache_evictions = reg.GetCounter("cod_codr_cache_evictions_total");
    s.codr_fallbacks = reg.GetCounter("cod_codr_fallbacks_total");
    // Sketch build stages: merge tracks the bottom-up signature folding
    // inside the index build's bucket pass, finalize the CSR pack.
    s.sketch_merge = reg.GetHistogram(
        "cod_sketch_build_stage_seconds{stage=\"merge\"}");
    s.sketch_finalize = reg.GetHistogram(
        "cod_sketch_build_stage_seconds{stage=\"finalize\"}");
    s.sketch_prune_skipped =
        reg.GetCounter("cod_sketch_prune_levels_skipped_total");
    s.sketch_prune_considered =
        reg.GetCounter("cod_sketch_prune_levels_considered_total");
    s.sketch_rung_served = reg.GetCounter("cod_sketch_rung_served_total");
    // Process-wide prune rate, derived at scrape time from the two counters
    // above (Counter::Value() merges shards without the registry lock, so
    // reading them inside a scrape is deadlock-free). Registered once for
    // the process lifetime, like the counter handles themselves.
    Counter* skipped = s.sketch_prune_skipped;
    Counter* considered = s.sketch_prune_considered;
    reg.RegisterCallbackGauge("cod_sketch_prune_rate", [skipped, considered] {
      const double total = static_cast<double>(considered->Value());
      if (total <= 0.0) return 0.0;
      return static_cast<double>(skipped->Value()) / total;
    });
    return s;
  }();
  return sites;
}

}  // namespace

const char* CodVariantName(CodVariant variant) {
  switch (variant) {
    case CodVariant::kCodU:
      return "codu";
    case CodVariant::kCodR:
      return "codr";
    case CodVariant::kCodLMinus:
      return "codl_minus";
    case CodVariant::kCodL:
      return "codl";
    case CodVariant::kCodUIndexed:
      return "codu_indexed";
    case CodVariant::kCodSketch:
      return "codsketch";
  }
  COD_CHECK(false);
  return "unknown";
}

EngineCore::EngineCore(std::shared_ptr<const Graph> graph,
                       std::shared_ptr<const AttributeTable> attrs,
                       const EngineOptions& options)
    : graph_(std::move(graph)),
      attrs_(std::move(attrs)),
      options_(options),
      model_(MakeModel(*graph_, options.diffusion)),
      base_(AgglomerativeCluster(*graph_)),
      lca_(base_) {
  COD_CHECK_EQ(graph_->NumNodes(), attrs_->NumNodes());
  COD_CHECK(graph_->NumNodes() >= 2);
  if (options_.component_scoped) comp_size_of_node_ = ComponentSizes(*graph_);
}

EngineCore::EngineCore(const Graph& graph, const AttributeTable& attrs,
                       const EngineOptions& options)
    : EngineCore(Alias(graph), Alias(attrs), options) {}

EngineCore::EngineCore(PrebuiltTag, std::shared_ptr<const Graph> graph,
                       std::shared_ptr<const AttributeTable> attrs,
                       const EngineOptions& options, Dendrogram base_hierarchy)
    : graph_(std::move(graph)),
      attrs_(std::move(attrs)),
      options_(options),
      model_(MakeModel(*graph_, options.diffusion)),
      base_(std::move(base_hierarchy)),
      lca_(base_) {
  if (options_.component_scoped) comp_size_of_node_ = ComponentSizes(*graph_);
}

Result<std::unique_ptr<EngineCore>> EngineCore::FromPrebuilt(
    std::shared_ptr<const Graph> graph,
    std::shared_ptr<const AttributeTable> attrs, const EngineOptions& options,
    Dendrogram base_hierarchy, std::optional<HimorIndex> himor,
    std::optional<CoverageSketchIndex> sketch, bool index_absent_degraded) {
  if (graph == nullptr || attrs == nullptr) {
    return Status::InvalidArgument("FromPrebuilt requires graph and attrs");
  }
  if (graph->NumNodes() < 2) {
    return Status::InvalidArgument("prebuilt graph has fewer than 2 nodes");
  }
  if (attrs->NumNodes() != graph->NumNodes()) {
    return Status::InvalidArgument(
        "attribute table covers a different node set than the graph");
  }
  if (base_hierarchy.NumLeaves() != graph->NumNodes()) {
    return Status::InvalidArgument(
        "base hierarchy was built over a different graph (leaf count "
        "mismatch)");
  }
  if (himor.has_value() && himor->NumNodes() != graph->NumNodes()) {
    return Status::InvalidArgument(
        "HIMOR index was built for a different graph (node count mismatch)");
  }
  if (himor.has_value()) {
    const Status entries = CheckHimorEntries(*himor, base_hierarchy);
    if (!entries.ok()) return entries;
  }
  if (himor.has_value() && index_absent_degraded) {
    return Status::InvalidArgument(
        "a core with an index cannot be index-absent degraded");
  }
  if (sketch.has_value()) {
    if (!himor.has_value()) {
      return Status::InvalidArgument(
          "a coverage sketch requires the HIMOR index it was built with");
    }
    if (sketch->NumNodes() != graph->NumNodes()) {
      return Status::InvalidArgument(
          "coverage sketch was built for a different graph (node count "
          "mismatch)");
    }
    if (sketch->theta() != options.theta) {
      return Status::InvalidArgument(
          "coverage sketch was built under a different theta");
    }
  }
  std::unique_ptr<EngineCore> core(new EngineCore(
      PrebuiltTag{}, std::move(graph), std::move(attrs), options,
      std::move(base_hierarchy)));
  if (himor.has_value()) {
    core->himor_ = std::move(himor);
    core->sketch_ = std::move(sketch);
  } else if (index_absent_degraded) {
    core->MarkIndexAbsent();
  }
  return core;
}

CommunityId EngineCore::ScopeTopFor(const Dendrogram& dendrogram,
                                    NodeId q) const {
  if (!options_.component_scoped) return kInvalidCommunity;
  // Walk up from q's parent while the subtree still fits inside q's
  // component; the stop is the component subtree root (the dendrogram stacks
  // whole components under one root, see hierarchy/agglomerative.cc). On a
  // connected graph this IS the root, making scoping a no-op.
  const uint32_t comp_size = comp_size_of_node_[q];
  CommunityId c = dendrogram.Parent(dendrogram.LeafOf(q));
  COD_DCHECK(c != kInvalidCommunity);
  while (dendrogram.Parent(c) != kInvalidCommunity &&
         dendrogram.LeafCount(dendrogram.Parent(c)) <= comp_size) {
    c = dendrogram.Parent(c);
  }
  return c;
}

bool EngineCore::AcceptsQuery(CodVariant variant, NodeId q,
                              uint32_t k) const {
  if (q >= graph_->NumNodes()) return false;
  switch (variant) {
    case CodVariant::kCodL:
    case CodVariant::kCodUIndexed:
      return k <= (himor_.has_value() ? himor_->max_rank()
                                      : options_.himor_max_rank);
    case CodVariant::kCodSketch:
      return sketch_.has_value() && k >= 1 && k <= sketch_->rank_depth();
    default:
      return true;
  }
}

CodChain EngineCore::BuildCoduChain(NodeId q) const {
  const CommunityId top = ScopeTopFor(base_, q);
  CodChain chain = BuildChainFromDendrogram(base_, q, top);
  // CODU chains live in the BASE dendrogram — the one the coverage sketch
  // (when built) indexes — so record the community id of every level to
  // enable sketch-guided pruning. The chain builder itself never fills this
  // (other callers hand it foreign dendrograms).
  chain.level_community.reserve(chain.NumLevels());
  for (CommunityId c = base_.Parent(base_.LeafOf(q)); c != kInvalidCommunity;
       c = base_.Parent(c)) {
    chain.level_community.push_back(c);
    if (c == top) break;
  }
  COD_DCHECK(chain.level_community.size() == chain.NumLevels());
  return chain;
}

CodChain EngineCore::BuildCodrChain(NodeId q, AttributeId attr) const {
  if (options_.cache_codr_hierarchies) {
    bool from_cache = false;
    Result<std::shared_ptr<const Dendrogram>> cached =
        CodrDendrogramFor(attr, Budget{}, &from_cache);
    if (cached.ok()) {
      return BuildChainFromDendrogram(*cached.value(), q,
                                      ScopeTopFor(*cached.value(), q));
    }
    // Cache build failed (failpoint injection): build privately below — this
    // unbudgeted chain-builder form has no failure channel to report through.
  }
  const Dendrogram dendrogram =
      GlobalRecluster(*graph_, *attrs_, attr, options_.transform);
  return BuildChainFromDendrogram(dendrogram, q,
                                  ScopeTopFor(dendrogram, q));
}

Result<std::shared_ptr<const Dendrogram>> EngineCore::CodrDendrogramFor(
    AttributeId attr, const Budget& budget, bool* served_from_cache) const {
  std::unique_lock<std::mutex> lock(codr_mu_);
  for (;;) {
    auto it = codr_cache_.find(attr);
    if (it == codr_cache_.end()) break;  // cold miss: become the builder
    if (it->second.dendrogram != nullptr) {
      it->second.last_used = ++codr_lru_tick_;
      *served_from_cache = true;
      return it->second.dendrogram;
    }
    // Single flight: another thread is already building this attribute.
    // Wait for its result instead of running a redundant GlobalRecluster,
    // honoring our own budget while we wait (an infinite-deadline wait with
    // a cancel token is sliced so cancellation is observed promptly).
    Status overdue = budget.Check("codr cache wait");
    if (!overdue.ok()) return overdue;
    if (budget.deadline.infinite()) {
      if (budget.cancel != nullptr) {
        codr_cv_.wait_for(lock, std::chrono::milliseconds(10));
      } else {
        codr_cv_.wait(lock);
      }
    } else {
      codr_cv_.wait_until(lock, budget.deadline.time_point());
    }
  }
  codr_cache_[attr];  // null dendrogram = in-flight latch for this attribute
  lock.unlock();
  *served_from_cache = false;
  Result<Dendrogram> built = [&]() -> Result<Dendrogram> {
    if (COD_FAILPOINT("engine_core/codr_cache")) {
      return Status::IoError("failpoint engine_core/codr_cache armed");
    }
    return GlobalRecluster(*graph_, *attrs_, attr, options_.transform, budget);
  }();
  lock.lock();
  if (!built.ok()) {
    // Only successful builds are cached. Drop the latch and wake the waiters
    // so one of them can take over (or fall back / report its own budget).
    codr_cache_.erase(attr);
    codr_cv_.notify_all();
    return built.status();
  }
  CodrCacheEntry& entry = codr_cache_[attr];
  entry.dendrogram =
      std::make_shared<const Dendrogram>(std::move(built).value());
  entry.last_used = ++codr_lru_tick_;
  // Hold our own reference before eviction runs: with capacity 1 and a
  // concurrent in-flight build, the entry we just inserted can itself be
  // the LRU victim.
  std::shared_ptr<const Dendrogram> result = entry.dendrogram;
  if (MetricsRegistry::enabled()) Stages().codr_cache_builds->Increment();
  EvictCodrOverflowLocked();
  codr_cv_.notify_all();
  return result;
}

void EngineCore::EvictCodrOverflowLocked() const {
  const size_t cap = options_.codr_cache_capacity;
  if (cap == 0) return;
  while (codr_cache_.size() > cap) {
    auto victim = codr_cache_.end();
    for (auto it = codr_cache_.begin(); it != codr_cache_.end(); ++it) {
      if (it->second.dendrogram == nullptr) continue;  // in-flight latch
      if (victim == codr_cache_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == codr_cache_.end()) return;  // nothing evictable yet
    codr_cache_.erase(victim);
    if (MetricsRegistry::enabled()) {
      Stages().codr_cache_evictions->Increment();
    }
  }
}

size_t EngineCore::CodrCacheSize() const {
  std::lock_guard<std::mutex> lock(codr_mu_);
  return codr_cache_.size();
}

LoreChain EngineCore::BuildCodlChain(NodeId q, AttributeId attr) const {
  return BuildCodlChain(q, std::span<const AttributeId>(&attr, 1));
}

LoreChain EngineCore::BuildCodlChain(
    NodeId q, std::span<const AttributeId> attrs) const {
  // An unlimited budget never aborts, so the Result form cannot fail here.
  Result<LoreChain> built = BuildCodlChainFromScores(
      ComputeReclusteringScores(*graph_, *attrs_, base_, lca_, q, attrs,
                                Budget{}, ScopeTopFor(base_, q)),
      q, attrs, Budget{});
  COD_CHECK(built.ok());
  return std::move(built).value();
}

Result<LoreChain> EngineCore::BuildCodlChainFromScores(
    const LoreScores& scores, NodeId q, std::span<const AttributeId> attrs,
    const Budget& budget) const {
  COD_DCHECK(scores.code == StatusCode::kOk);
  LoreChain out;
  out.c_ell = scores.Selected();

  // Locally recluster C_ell's induced subgraph with attribute weights.
  const auto members = base_.Members(out.c_ell);
  const InducedSubgraph sub = BuildAttributeWeightedSubgraph(
      *graph_, *attrs_, attrs, options_.transform, members);
  Result<Dendrogram> local =
      AgglomerativeCluster(sub.graph, AgglomerativeOptions{}, budget);
  if (!local.ok()) return local.status();
  NodeId local_q = kInvalidNode;
  for (size_t i = 0; i < sub.to_parent.size(); ++i) {
    if (sub.to_parent[i] == q) {
      local_q = static_cast<NodeId>(i);
      break;
    }
  }
  COD_CHECK(local_q != kInvalidNode);
  out.chain = BuildChainFromDendrogram(*local, local_q, kInvalidCommunity,
                                       &sub.to_parent, graph_->NumNodes());
  out.local_levels = out.chain.NumLevels();
  // The local levels come from a private reclustered dendrogram the sketch
  // knows nothing about (kInvalidCommunity = unprunable); the global
  // ancestors spliced below ARE base communities. Since pruning only ever
  // drops a top-contiguous suffix, the spliced tail is exactly the prunable
  // region.
  out.chain.level_community.assign(out.local_levels, kInvalidCommunity);

  // Splice the untouched global ancestors of C_ell on top. Each ancestor's
  // fresh nodes are the prefix + suffix of its member span around its
  // on-path child's span (nested leaf intervals). The splice stops at the
  // top of the scores chain — the root unscoped, the component subtree root
  // under component scoping (the scores chain is truncated there, so the
  // spliced chain ends at the same community either way).
  const uint32_t splice_top_depth = base_.Depth(scores.chain.back());
  const NodeId* prev_begin = members.data();
  const NodeId* prev_end = members.data() + members.size();
  std::vector<NodeId> fresh;
  for (CommunityId a = base_.Parent(out.c_ell);
       a != kInvalidCommunity && base_.Depth(a) >= splice_top_depth;
       a = base_.Parent(a)) {
    const auto span = base_.Members(a);
    const NodeId* begin = span.data();
    const NodeId* end = span.data() + span.size();
    COD_CHECK(begin <= prev_begin && prev_end <= end);
    fresh.assign(begin, prev_begin);
    fresh.insert(fresh.end(), prev_end, end);
    AppendLevelWithNewMembers(&out.chain, fresh,
                              static_cast<uint32_t>(span.size()));
    out.chain.level_community.push_back(a);
    prev_begin = begin;
    prev_end = end;
  }
  return out;
}

CodResult EngineCore::EvaluateChain(const CodChain& chain, NodeId q,
                                    uint32_t k, QueryWorkspace& ws) const {
  COD_DCHECK(ws.bound_core() == this);  // Rebind the workspace to this core
  // Sketch guidance only makes sense when the chain names its communities in
  // the base dendrogram (CODU chains, and the spliced tail of CODL- chains);
  // the evaluator re-checks theta and pins the pool to the sketch schedule.
  const SketchPruneGuide guide{sketch(), options_.sketch_prune};
  const SketchPruneGuide* guide_ptr =
      guide.sketch != nullptr && !chain.level_community.empty() ? &guide
                                                                : nullptr;
  const ChainEvalOutcome outcome =
      ws.evaluator().Evaluate(chain, q, k, ws.rng(), ws.budget(),
                              ws.sampling_pool(), guide_ptr);
  QueryStats& st = ws.stats();
  st.sample_seconds += ws.evaluator().last_sample_seconds();
  st.merge_seconds += ws.evaluator().last_merge_seconds();
  st.eval_seconds += ws.evaluator().last_eval_seconds();
  st.rr_samples += ws.evaluator().last_samples();
  st.explored_nodes += ws.evaluator().last_explored_nodes();
  st.parallel_chunks += ws.evaluator().last_parallel_chunks();
  st.sketch_levels_pruned += ws.evaluator().last_levels_pruned();
  st.sketch_levels_considered += ws.evaluator().last_levels_considered();
  CodResult result;
  result.num_levels = chain.NumLevels();
  result.code = outcome.code;
  if (outcome.code == StatusCode::kOk && outcome.best_level >= 0) {
    result.found = true;
    result.rank = outcome.rank_at_best;
    result.members =
        chain.MembersOfLevel(static_cast<uint32_t>(outcome.best_level));
  }
  return result;
}

CodResult EngineCore::Query(const QuerySpec& spec, QueryWorkspace& ws) const {
  COD_DCHECK(ws.bound_core() == this);
  ws.stats() = QueryStats{};
  const uint32_t k = spec.k == 0 ? options_.k : spec.k;
  CodResult result;
  // The service boundary: refuse what the variants below would crash on.
  if (!AcceptsQuery(spec.variant, spec.node, k)) {
    result.code = StatusCode::kInvalidArgument;
    result.variant_served = spec.variant;
    if (MetricsRegistry::enabled()) {
      SitesFor(spec.variant).invalid_argument->Increment();
    }
    return result;
  }
  const auto start = std::chrono::steady_clock::now();
  // Component-scoped cores answer queries on single-node components
  // definitively: no edges means no influence and no community (kOk with
  // found=false, not an error). The guard keeps every evaluator — and
  // ScopeTopFor, whose walk would land on the impure root — off this
  // degenerate case.
  if (IsSingletonComponent(spec.node)) {
    result.variant_served = spec.variant;
  } else {
    switch (spec.variant) {
      case CodVariant::kCodU:
        result = DoCodU(spec.node, k, ws);
        break;
      case CodVariant::kCodUIndexed:
        if (!himor_.has_value()) {
          // Index-absent degraded mode: sampled CODU answers the same
          // question (largest base community with q in the top-k) without
          // the index, at sampling cost and with estimated (not exact)
          // ranks.
          COD_CHECK(index_absent_degraded_);
          result = DoCodU(spec.node, k, ws);
          result.degraded = true;
        } else {
          result = DoCodUIndexed(spec.node, k);
        }
        break;
      case CodVariant::kCodR:
        result = spec.attrs.size() == 1
                     ? DoCodRSingle(spec.node, spec.attrs[0], k, ws)
                     : DoCodRSpan(spec.node, spec.attrs, k, ws);
        break;
      case CodVariant::kCodLMinus:
        result = DoCodLMinus(spec.node, spec.attrs, k, ws);
        break;
      case CodVariant::kCodL:
        result = DoCodL(spec.node, spec.attrs, k, ws);
        break;
      case CodVariant::kCodSketch:
        result = DoCodSketch(spec.node, k);
        break;
    }
  }
  QueryStats& st = ws.stats();
  if (result.answered_from_index) st.index_hit = true;
  st.levels_examined = result.num_levels;
  result.stats = st;

  if (MetricsRegistry::enabled()) {
    const double total = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    const VariantSites& vs = SitesFor(spec.variant);
    vs.latency->Observe(total);
    switch (result.code) {
      case StatusCode::kOk:
        vs.ok->Increment();
        break;
      case StatusCode::kTimeout:
        vs.timeout->Increment();
        break;
      case StatusCode::kCancelled:
        vs.cancelled->Increment();
        break;
      default:
        break;
    }
    const StageSites& ss = Stages();
    if (st.chain_build_seconds > 0.0) {
      ss.chain_build->Observe(st.chain_build_seconds);
    }
    if (st.lore_scan_seconds > 0.0) ss.lore_scan->Observe(st.lore_scan_seconds);
    if (st.sample_seconds > 0.0) ss.sample->Observe(st.sample_seconds);
    if (st.merge_seconds > 0.0) ss.merge->Observe(st.merge_seconds);
    if (st.eval_seconds > 0.0) ss.eval->Observe(st.eval_seconds);
    if (st.rr_samples > 0) ss.rr_samples->Increment(st.rr_samples);
    if (st.parallel_chunks > 0) {
      ss.rr_parallel_pools->Increment();
      ss.rr_parallel_chunks->Increment(st.parallel_chunks);
    }
    if (st.index_hit) ss.index_hits->Increment();
    if (st.sketch_levels_considered > 0) {
      ss.sketch_prune_considered->Increment(st.sketch_levels_considered);
      ss.sketch_prune_skipped->Increment(st.sketch_levels_pruned);
    }
    if (result.variant_served == CodVariant::kCodSketch) {
      ss.sketch_rung_served->Increment();
    }
    if (spec.variant == CodVariant::kCodR && spec.attrs.size() == 1 &&
        options_.cache_codr_hierarchies) {
      (st.codr_cache_hit ? ss.codr_cache_hits : ss.codr_cache_misses)
          ->Increment();
    }
  }
  return result;
}

CodResult EngineCore::DoCodU(NodeId q, uint32_t k, QueryWorkspace& ws) const {
  CodChain chain;
  {
    StageTimer timer(&ws.stats().chain_build_seconds);
    chain = BuildCoduChain(q);
  }
  CodResult result = EvaluateChain(chain, q, k, ws);
  result.variant_served = CodVariant::kCodU;
  return result;
}

CodResult EngineCore::DoCodRSingle(NodeId q, AttributeId attr, uint32_t k,
                                   QueryWorkspace& ws) const {
  QueryStats& st = ws.stats();
  CodChain chain;
  bool fell_back = false;
  {
    StageTimer timer(&st.chain_build_seconds);
    if (options_.cache_codr_hierarchies) {
      bool from_cache = false;
      Result<std::shared_ptr<const Dendrogram>> cached =
          CodrDendrogramFor(attr, ws.budget(), &from_cache);
      st.codr_cache_hit = from_cache;
      if (cached.ok()) {
        chain = BuildChainFromDendrogram(*cached.value(), q,
                                         ScopeTopFor(*cached.value(), q));
      } else if (cached.status().code() == StatusCode::kCancelled) {
        // A cancelled caller does not want a cheaper answer.
        return BudgetExhaustedResult(StatusCode::kCancelled,
                                     CodVariant::kCodR);
      } else {
        // Degraded fallback: the attribute hierarchy is unavailable (the
        // budgeted first-touch build failed or the "engine_core/codr_cache"
        // failpoint fired) — answer over the BASE hierarchy instead of
        // surfacing the build error. The evaluation still measures true
        // influence, so this is a valid (if attribute-blind) community,
        // tagged degraded with variant_served = kCodU. If the budget is
        // genuinely spent the evaluation below still unwinds kTimeout —
        // deadline discipline always wins.
        chain = BuildCoduChain(q);
        fell_back = true;
      }
    } else {
      Result<Dendrogram> dendrogram = GlobalRecluster(
          *graph_, *attrs_, attr, options_.transform, ws.budget());
      if (!dendrogram.ok()) {
        return BudgetExhaustedResult(dendrogram.status().code(),
                                     CodVariant::kCodR);
      }
      chain = BuildChainFromDendrogram(*dendrogram, q,
                                       ScopeTopFor(*dendrogram, q));
    }
  }
  CodResult result = EvaluateChain(chain, q, k, ws);
  result.variant_served = fell_back ? CodVariant::kCodU : CodVariant::kCodR;
  result.degraded = fell_back;
  if (fell_back && MetricsRegistry::enabled()) {
    Stages().codr_fallbacks->Increment();
  }
  return result;
}

CodResult EngineCore::DoCodRSpan(NodeId q, std::span<const AttributeId> attrs,
                                 uint32_t k, QueryWorkspace& ws) const {
  // Topic-set CODR never uses the per-attribute cache.
  QueryStats& st = ws.stats();
  CodChain chain;
  {
    StageTimer timer(&st.chain_build_seconds);
    Result<Dendrogram> dendrogram = GlobalRecluster(
        *graph_, *attrs_, attrs, options_.transform, ws.budget());
    if (!dendrogram.ok()) {
      return BudgetExhaustedResult(dendrogram.status().code(),
                                   CodVariant::kCodR);
    }
    chain = BuildChainFromDendrogram(*dendrogram, q,
                                     ScopeTopFor(*dendrogram, q));
  }
  CodResult result = EvaluateChain(chain, q, k, ws);
  result.variant_served = CodVariant::kCodR;
  return result;
}

CodResult EngineCore::DoCodLMinus(NodeId q,
                                  std::span<const AttributeId> attrs,
                                  uint32_t k, QueryWorkspace& ws) const {
  QueryStats& st = ws.stats();
  LoreScores scores;
  {
    StageTimer timer(&st.lore_scan_seconds);
    scores = ComputeReclusteringScores(*graph_, *attrs_, base_, lca_, q, attrs,
                                       ws.budget(), ScopeTopFor(base_, q));
  }
  if (scores.code != StatusCode::kOk) {
    return BudgetExhaustedResult(scores.code, CodVariant::kCodLMinus);
  }
  CodChain chain;
  {
    StageTimer timer(&st.chain_build_seconds);
    Result<LoreChain> built =
        BuildCodlChainFromScores(scores, q, attrs, ws.budget());
    if (!built.ok()) {
      return BudgetExhaustedResult(built.status().code(),
                                   CodVariant::kCodLMinus);
    }
    chain = std::move(built).value().chain;
  }
  CodResult result = EvaluateChain(chain, q, k, ws);
  result.variant_served = CodVariant::kCodLMinus;
  return result;
}

CodResult EngineCore::DoCodL(NodeId q, std::span<const AttributeId> attrs,
                             uint32_t k, QueryWorkspace& ws) const {
  if (!himor_.has_value()) {
    // Index-absent degraded mode (MarkIndexAbsent): answer with the CODL-
    // computation — LORE pick of C_ell, local recluster, spliced global
    // ancestors, compressed evaluation. Same communities the paper's
    // Algorithm 3 fallback produces; only the index short-circuit is lost.
    // A core that simply never built its index is still a programming error.
    COD_CHECK(index_absent_degraded_);
    CodResult result = DoCodLMinus(q, attrs, k, ws);
    result.degraded = true;  // variant_served stays kCodLMinus: what ran
    return result;
  }
  QueryStats& st = ws.stats();
  LoreScores scores;
  {
    StageTimer timer(&st.lore_scan_seconds);
    scores = ComputeReclusteringScores(*graph_, *attrs_, base_, lca_, q, attrs,
                                       ws.budget(), ScopeTopFor(base_, q));
  }
  if (scores.code != StatusCode::kOk) {
    return BudgetExhaustedResult(scores.code, CodVariant::kCodL);
  }
  const CommunityId c_ell = scores.Selected();

  // Fast path: some untouched ancestor of C_ell already has q in its top-k.
  if (const HimorIndex::Entry* hit =
          himor_->FindTopKAncestor(q, c_ell, k, base_)) {
    st.index_hit = true;
    CodResult result;
    result.found = true;
    result.answered_from_index = true;
    result.variant_served = CodVariant::kCodL;
    result.rank = hit->rank;
    const auto span = base_.Members(hit->community);
    result.members.assign(span.begin(), span.end());
    result.num_levels = scores.chain.size();  // chain length consulted
    return result;
  }

  // Slow path: locally recluster C_ell and run compressed evaluation on the
  // attribute-aware chain inside it.
  CodChain chain;
  {
    StageTimer timer(&st.chain_build_seconds);
    const auto members = base_.Members(c_ell);
    const InducedSubgraph sub = BuildAttributeWeightedSubgraph(
        *graph_, *attrs_, attrs, options_.transform, members);
    Result<Dendrogram> local =
        AgglomerativeCluster(sub.graph, AgglomerativeOptions{}, ws.budget());
    if (!local.ok()) {
      return BudgetExhaustedResult(local.status().code(), CodVariant::kCodL);
    }
    NodeId local_q = kInvalidNode;
    for (size_t i = 0; i < sub.to_parent.size(); ++i) {
      if (sub.to_parent[i] == q) {
        local_q = static_cast<NodeId>(i);
        break;
      }
    }
    COD_CHECK(local_q != kInvalidNode);
    chain = BuildChainFromDendrogram(*local, local_q, kInvalidCommunity,
                                     &sub.to_parent, graph_->NumNodes());
  }
  CodResult result = EvaluateChain(chain, q, k, ws);
  result.variant_served = CodVariant::kCodL;
  return result;
}

CodResult EngineCore::DoCodUIndexed(NodeId q, uint32_t k) const {
  COD_CHECK(himor_.has_value());  // build/load HIMOR during setup
  CodResult result;
  result.variant_served = CodVariant::kCodUIndexed;
  const CommunityId top = ScopeTopFor(base_, q);
  result.num_levels =
      top == kInvalidCommunity
          ? base_.Depth(base_.Parent(base_.LeafOf(q)))
          : base_.Depth(base_.Parent(base_.LeafOf(q))) - base_.Depth(top) + 1;
  const HimorIndex::Entry* hit =
      himor_->FindTopKAncestor(q, base_.Parent(base_.LeafOf(q)), k, base_);
  if (hit == nullptr) return result;
  result.found = true;
  result.answered_from_index = true;
  result.rank = hit->rank;
  const auto span = base_.Members(hit->community);
  result.members.assign(span.begin(), span.end());
  return result;
}

CodResult EngineCore::DoCodSketch(NodeId q, uint32_t k) const {
  // The degradation ladder only appends this rung when sketch() exists and
  // k fits the stored rank depth; direct callers get the same contract.
  COD_CHECK(sketch_.has_value());
  const CoverageSketchIndex& sk = *sketch_;
  COD_CHECK(k >= 1 && k <= sk.rank_depth());
  CodResult result;
  result.variant_served = CodVariant::kCodSketch;
  // An estimate from precomputed tables, not an evaluation: ALWAYS tagged
  // degraded, even when it happens to match the exact answer.
  result.degraded = true;
  if (IsSingletonComponent(q)) return result;
  const CommunityId top = ScopeTopFor(base_, q);
  // Ancestors of q, deepest first (same walk as the CODU chain).
  std::vector<CommunityId> chain;
  for (CommunityId c = base_.Parent(base_.LeafOf(q)); c != kInvalidCommunity;
       c = base_.Parent(c)) {
    chain.push_back(c);
    if (c == top) break;
  }
  result.num_levels = chain.size();
  const uint32_t tq = q < sk.NumNodes() ? sk.TopCountOf(q) : 0;
  // Largest (topmost) ancestor whose threshold table estimates q inside the
  // top-k. Zero-support communities (not materialized under the purity
  // rule, or never reached by any sample) carry no evidence — skip them.
  for (size_t i = chain.size(); i-- > 0;) {
    const CommunityId c = chain[i];
    if (c >= sk.NumCommunities() || sk.SupportOf(c) == 0) continue;
    const uint32_t rank = sk.EstimatedRank(c, tq);
    if (rank < k) {
      result.found = true;
      result.answered_from_index = true;
      result.rank = rank;
      const auto span = base_.Members(c);
      result.members.assign(span.begin(), span.end());
      break;
    }
  }
  return result;
}

Result<QueryExplanation> EngineCore::ExplainCodL(NodeId q, AttributeId attr,
                                                 uint32_t k,
                                                 QueryWorkspace& ws) const {
  if (!himor_.has_value()) {
    return Status::FailedPrecondition("ExplainCodL needs the HIMOR index");
  }
  if (k == 0) k = options_.k;
  if (!AcceptsQuery(CodVariant::kCodL, q, k)) {
    return Status::InvalidArgument(
        "ExplainCodL: node " + std::to_string(q) + " out of range or k = " +
        std::to_string(k) + " above the index's max rank " +
        std::to_string(himor_->max_rank()));
  }
  QueryExplanation explanation;
  explanation.scores = ComputeReclusteringScores(
      *graph_, *attrs_, base_, lca_, q,
      std::span<const AttributeId>(&attr, 1), Budget{},
      ScopeTopFor(base_, q));
  const CommunityId c_ell = explanation.scores.Selected();
  explanation.c_ell_size = base_.LeafCount(c_ell);

  if (const HimorIndex::Entry* hit =
          himor_->FindTopKAncestor(q, c_ell, k, base_)) {
    explanation.index_hit = true;
    explanation.index_community = hit->community;
    explanation.index_rank = hit->rank;
    explanation.result.found = true;
    explanation.result.answered_from_index = true;
    explanation.result.variant_served = CodVariant::kCodL;
    explanation.result.rank = hit->rank;
    const auto span = base_.Members(hit->community);
    explanation.result.members.assign(span.begin(), span.end());
    return explanation;
  }
  // Fall back to the uninstrumented slow path (identical code path).
  explanation.result = Query(
      {.variant = CodVariant::kCodL, .node = q, .k = k, .attrs = {attr}}, ws);
  return explanation;
}

std::string QueryExplanation::ToString(const Dendrogram& hierarchy) const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line),
                "LORE chain: %zu levels; reclustering scores:\n",
                scores.chain.size());
  out += line;
  for (size_t i = 0; i < scores.chain.size(); ++i) {
    std::snprintf(line, sizeof(line), "  level %2zu  |C|=%-7u r=%.4f%s\n", i,
                  hierarchy.LeafCount(scores.chain[i]), scores.score[i],
                  i == scores.selected ? "  <- C_ell" : "");
    out += line;
  }
  if (index_hit) {
    std::snprintf(line, sizeof(line),
                  "HIMOR hit: community of %u nodes above C_ell, stored rank "
                  "%u\n",
                  hierarchy.LeafCount(index_community), index_rank + 1);
    out += line;
  } else {
    out += "HIMOR miss: evaluated the reclustered chain inside C_ell\n";
  }
  if (result.found) {
    std::snprintf(line, sizeof(line),
                  "result: characteristic community of %zu members, query "
                  "rank #%u\n",
                  result.members.size(), result.rank + 1);
    out += line;
  } else {
    out += "result: no characteristic community\n";
  }
  return out;
}

Result<std::vector<Promoter>> EngineCore::FindTopPromoters(AttributeId attr,
                                                           size_t count,
                                                           uint32_t k) const {
  if (!himor_.has_value()) {
    return Status::FailedPrecondition("FindTopPromoters needs the HIMOR index");
  }
  if (k == 0) k = options_.k;
  if (count == 0 || k > himor_->max_rank()) {
    return Status::InvalidArgument(
        "FindTopPromoters: count = " + std::to_string(count) + ", k = " +
        std::to_string(k) + " (count must be >= 1, k at most the index's max "
        "rank " + std::to_string(himor_->max_rank()) + ")");
  }
  std::vector<Promoter> promoters;
  for (NodeId v = 0; v < graph_->NumNodes(); ++v) {
    if (!attrs_->Has(v, attr)) continue;
    // Largest base-hierarchy community where v is top-k: the whole chain is
    // eligible, so scan from the root side of v's index entries.
    const HimorIndex::Entry* hit = himor_->FindTopKAncestor(
        v, base_.Parent(base_.LeafOf(v)), k, base_);
    if (hit == nullptr) continue;
    promoters.push_back(Promoter{v, hit->community,
                                 base_.LeafCount(hit->community), hit->rank});
  }
  std::sort(promoters.begin(), promoters.end(),
            [](const Promoter& a, const Promoter& b) {
              if (a.size != b.size) return a.size > b.size;
              return a.node < b.node;
            });
  if (promoters.size() > count) promoters.resize(count);
  return promoters;
}

void EngineCore::AdoptSketch(std::optional<CoverageSketchIndex> sketch) {
  sketch_ = std::move(sketch);
  if (sketch_.has_value() && MetricsRegistry::enabled()) {
    const StageSites& ss = Stages();
    ss.sketch_merge->Observe(sketch_->build_merge_seconds());
    ss.sketch_finalize->Observe(sketch_->build_finalize_seconds());
  }
}

Status EngineCore::TryBuildHimor(uint64_t seed, const Budget& budget,
                                 TaskScheduler* scheduler,
                                 const std::vector<char>* dirty,
                                 HimorSampleCache* prev,
                                 HimorSampleCache* next,
                                 HimorDeltaStats* stats) {
  std::optional<CoverageSketchIndex> sketch;
  Result<HimorIndex> built = HimorIndex::Build(HimorBuildSpec{
      .model = &model_,
      .dendrogram = &base_,
      .lca = &lca_,
      .theta = options_.theta,
      .max_rank = options_.himor_max_rank,
      .seed = seed,
      .budget = budget,
      .comp_size_of_node =
          options_.component_scoped ? &comp_size_of_node_ : nullptr,
      .scheduler = scheduler,
      .dirty = dirty,
      .prev = prev,
      .next = next,
      .stats = stats,
      .sketch_bits = options_.sketch_bits,
      .sketch = &sketch});
  if (!built.ok()) return built.status();
  himor_ = std::move(built).value();
  AdoptSketch(std::move(sketch));
  return Status::Ok();
}

Status EngineCore::TryBuildHimor(Rng& rng, const Budget& budget) {
  return TryBuildHimor(rng.Next(), budget);
}

Status EngineCore::TryBuildHimorDelta(uint64_t seed, const Budget& budget,
                                      const std::vector<char>* dirty,
                                      HimorSampleCache* prev,
                                      HimorSampleCache* next,
                                      HimorDeltaStats* stats) {
  return TryBuildHimor(seed, budget, nullptr, dirty, prev, next, stats);
}

void EngineCore::BuildHimor(Rng& rng) {
  COD_CHECK(TryBuildHimor(rng, Budget{}).ok());
}

void EngineCore::BuildHimor(uint64_t seed, TaskScheduler* scheduler) {
  COD_CHECK(TryBuildHimor(seed, Budget{}, scheduler).ok());
}

void EngineCore::MarkIndexAbsent() {
  COD_CHECK(!himor_.has_value());  // an existing index is never discarded
  sketch_.reset();  // sketch without index would be unreachable anyway
  index_absent_degraded_ = true;
}

}  // namespace cod
