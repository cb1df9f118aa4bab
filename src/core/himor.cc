#include "core/himor.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <queue>

#include "common/binary_io.h"
#include "common/failpoint.h"
#include "common/task_scheduler.h"
#include "hierarchy/sketch_builder.h"

namespace cod {
namespace {

constexpr uint32_t kNoPos = static_cast<uint32_t>(-1);

// (count, node) runs sorted by descending count, ascending node id on ties.
using Run = std::vector<std::pair<uint32_t, NodeId>>;

bool RunLess(const std::pair<uint32_t, NodeId>& a,
             const std::pair<uint32_t, NodeId>& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second < b.second;
}

// Merges `a` and `b` into `out` (appending). When `bucket_stamp` is non-null,
// entries whose node is stamped with `token` (i.e. present in the current
// community's bucket) are skipped — they re-enter with fresh totals.
void MergeRuns(const Run& a, const Run& b,
               const std::vector<uint32_t>* bucket_stamp, uint32_t token,
               Run* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() || j < b.size()) {
    const bool take_a =
        j == b.size() || (i < a.size() && RunLess(a[i], b[j]));
    const auto& item = take_a ? a[i++] : b[j++];
    if (bucket_stamp != nullptr && (*bucket_stamp)[item.second] == token) {
      continue;
    }
    out->push_back(item);
  }
}

// Stage-1 worker: samples RR graphs and performs hierarchical-first search
// on the tree, emitting one (community, node) pair per first visit. Each
// worker owns its scratch, so independent workers can run as scheduler
// tasks; pairs are aggregated into buckets afterwards (addition commutes, so
// any merge order works).
//
// The walk is split from the sampling so a reuse build can re-run it
// over RR bytes carried from the previous epoch (RrSlabPool::View) as well
// as over freshly drawn RrGraphs — both expose nodes[] / NeighborsOf().
class TreeHfsSampler {
 public:
  TreeHfsSampler(const DiffusionModel& model, const Dendrogram& dendrogram,
                 const LcaIndex& lca)
      : dendrogram_(&dendrogram), lca_(&lca), sampler_(model) {
    max_depth_ = 0;
    for (CommunityId c = 0; c < dendrogram.NumVertices(); ++c) {
      max_depth_ = std::max(max_depth_, dendrogram.Depth(c));
    }
    depth_queue_.resize(max_depth_ + 1);
    source_chain_.resize(max_depth_ + 1);
  }

  // Loads `source`'s ancestor chain; must precede Walk / SampleAndWalk.
  // Ancestor depths are contiguous (a parent is exactly one level
  // shallower), so the chain occupies slots [0, source_level_] and stale
  // entries above it are never read — no per-source clear needed.
  void BeginSource(NodeId source) {
    const Dendrogram& dendrogram = *dendrogram_;
    source_ = source;
    CommunityId c = dendrogram.Parent(dendrogram.LeafOf(source));
    source_level_ = dendrogram.Depth(c);
    while (c != kInvalidCommunity) {
      source_chain_[dendrogram.Depth(c)] = c;
      c = dendrogram.Parent(c);
    }
  }

  // Number of non-leaf ancestors of the current source (= chain length).
  uint32_t source_level() const { return source_level_; }

  // The current source's ancestor at leaf-up position `pos` (0 = the leaf's
  // parent, source_level() - 1 = the root).
  CommunityId ChainAtLeafUp(uint32_t pos) const {
    return source_chain_[source_level_ - pos];
  }

  // Leaf-up slot of lca(w, source) on the current source's chain — the
  // position the walk would assign `w` before any clamping.
  uint32_t SlotOf(NodeId w) const {
    if (w == source_) return 0;
    return source_level_ - dendrogram_->Depth(lca_->LcaOfNodes(w, source_));
  }

  // Hierarchical-first search over one RR graph of the current source:
  // depth queues drained deepest-first, each node emitted once at the
  // shallowest depth its live path has been clamped to. When `cache` is
  // non-null, each emission also records (pos, tag, node) in LEAF-UP chain
  // positions — see HimorSampleCache. `pairs` may be null when only the
  // cache records are wanted (the delta builder maintains its bucket rows
  // incrementally instead of re-aggregating raw pairs).
  template <typename RrT>
  void Walk(const RrT& rr, std::vector<std::pair<CommunityId, NodeId>>* pairs,
            HimorSampleCache* cache) {
    WalkClamped(
        rr,
        [this](NodeId v) {
          return dendrogram_->Depth(lca_->LcaOfNodes(v, source_));
        },
        pairs, cache);
  }

  // The clamped hierarchical-first search with node depths supplied by
  // `lvl_of` instead of LCA queries. The delta rebuild's replay path knows
  // every node's new chain slot already, so it walks without touching the
  // LCA tables; results are bit-identical to Walk when `lvl_of` returns
  // Depth(lca(v, source)).
  template <typename RrT, typename LvlFn>
  void WalkClamped(const RrT& rr, LvlFn lvl_of,
                   std::vector<std::pair<CommunityId, NodeId>>* pairs,
                   HimorSampleCache* cache) {
    const size_t n_local = rr.NumNodes();
    if (queued_.size() < n_local) {
      queued_.resize(n_local);
      pos_depth_.resize(n_local);
    }
    std::fill(queued_.begin(), queued_.begin() + n_local, 0);

    queued_[0] = 1;
    pos_depth_[0] = source_level_;
    depth_queue_[source_level_].push_back(0);
    pending_.push(source_level_);
    while (!pending_.empty()) {
      const uint32_t d = pending_.top();
      pending_.pop();
      auto& queue = depth_queue_[d];
      const CommunityId community = source_chain_[d];
      for (size_t idx = 0; idx < queue.size(); ++idx) {
        const uint32_t i = queue[idx];
        if (pairs != nullptr) pairs->emplace_back(community, rr.nodes[i]);
        if (cache != nullptr) {
          cache->pair_pos.push_back(source_level_ - pos_depth_[i]);
          cache->pair_tag.push_back(source_level_ - d);
          cache->pair_node.push_back(rr.nodes[i]);
        }
        for (uint32_t u : rr.NeighborsOf(i)) {
          if (queued_[u]) continue;
          queued_[u] = 1;
          // Smallest source-ancestor containing u has depth
          // Depth(lca(u, source)); the live path so far is within depth
          // d, so u's tag is the shallower of the two.
          const uint32_t lvl_u = lvl_of(rr.nodes[u]);
          pos_depth_[u] = lvl_u;
          const uint32_t d2 = std::min(d, lvl_u);
          if (d2 != d && depth_queue_[d2].empty()) pending_.push(d2);
          depth_queue_[d2].push_back(u);
        }
      }
      queue.clear();
    }
  }

  // Draws one RR graph for the current source from `rng` and walks it. The
  // drawn bytes stay available via last_rr() until the next draw.
  void SampleAndWalk(Rng& rng,
                     std::vector<std::pair<CommunityId, NodeId>>* pairs,
                     HimorSampleCache* cache) {
    sampler_.Sample(source_, rng, &rr_);
    Walk(rr_, pairs, cache);
  }

  const RrGraph& last_rr() const { return rr_; }

  // Stage 1 over sources [begin, end): sample (source, t) draws from
  // Rng(RrSampleSeed(seed, source * theta + t)) — the one schedule, so any
  // partition of the sources into ranges produces identical bytes. Tag
  // pairs go to `pairs`; a non-null `cache` also records each sample's RR
  // bytes and (pos, tag, node) records, pushing the sample's end offset
  // onto cache->pair_begin. Returns kOk, or the first exhausted-budget/abort
  // code observed: the budget is polled once per source, and `abort_code`
  // is shared across batches so one batch's failure stops the rest at
  // their next source.
  StatusCode ProcessSources(NodeId begin, NodeId end, uint32_t theta,
                            uint64_t seed,
                            std::vector<std::pair<CommunityId, NodeId>>* pairs,
                            HimorSampleCache* cache, const Budget& budget,
                            std::atomic<int>* abort_code) {
    for (NodeId source = begin; source < end; ++source) {
      const int aborted = abort_code->load(std::memory_order_relaxed);
      if (aborted != 0) return static_cast<StatusCode>(aborted);
      const StatusCode budget_code = budget.ExhaustedCode();
      if (budget_code != StatusCode::kOk) {
        int expected = 0;
        abort_code->compare_exchange_strong(expected,
                                           static_cast<int>(budget_code),
                                           std::memory_order_relaxed);
        return budget_code;
      }
      BeginSource(source);
      for (uint32_t t = 0; t < theta; ++t) {
        Rng rng(RrSampleSeed(seed, uint64_t{source} * theta + t));
        SampleAndWalk(rng, pairs, cache);
        if (cache != nullptr) {
          cache->rr.Append(rr_);
          cache->pair_begin.push_back(cache->pair_node.size());
        }
      }
    }
    return StatusCode::kOk;
  }

 private:
  const Dendrogram* dendrogram_;
  const LcaIndex* lca_;
  RrSampler sampler_;
  RrGraph rr_;
  uint32_t max_depth_ = 0;
  std::vector<std::vector<uint32_t>> depth_queue_;
  std::priority_queue<uint32_t> pending_;  // max-heap: deepest first
  std::vector<char> queued_;
  std::vector<uint32_t> pos_depth_;  // per local node, Depth(lca(., source))
  std::vector<CommunityId> source_chain_;
  NodeId source_ = kInvalidNode;
  uint32_t source_level_ = 0;
};

// Error for a build aborted with the (non-ok) budget code recorded at the
// check site — never re-polls the budget, which may have changed since.
Status BudgetStatus(StatusCode code) {
  return code == StatusCode::kCancelled
             ? Status::Cancelled("HIMOR build cancelled")
             : Status::Timeout("HIMOR build deadline exceeded");
}

// Member-set fingerprint of a leaf. Internal vertices sum (mod 2^64) their
// children's fingerprints, so equal hashes mean equal leaf sets regardless
// of tree shape (up to collisions; DESIGN.md Sec. 15).
uint64_t LeafFingerprint(NodeId v) {
  uint64_t mix = 0x9e3779b97f4a7c15ULL * (uint64_t{v} + 1);
  return SplitMix64(mix);
}

// Raw (community, node) tag pairs of one stage-1 source batch.
using TagPairs = std::vector<std::pair<CommunityId, NodeId>>;

// Stage-1 output in community-major CSR form: bucket c's aggregated
// (node, count) items live at [item_begin[c], item_begin[c + 1]).
struct BucketTable {
  std::vector<size_t> item_begin;  // num_vertices + 1
  std::vector<NodeId> node;
  std::vector<uint32_t> count;
};

// Aggregates tag pairs into the CSR bucket table: a counting sort by
// community, then per-segment dedup with node stamps. `for_each_pair(fn)`
// must call fn(community, node) for every pair, in the same order on each
// of its two calls; reading the pairs where they already live means no
// concatenated copy of them is ever made.
template <typename ForEachPair>
BucketTable BuildBuckets(ForEachPair&& for_each_pair, size_t num_vertices,
                         size_t num_nodes) {
  BucketTable table;
  table.item_begin.assign(num_vertices + 1, 0);

  // Counting sort of the tag pairs by community.
  std::vector<size_t> start(num_vertices + 1, 0);
  for_each_pair(
      [&](CommunityId community, NodeId) { ++start[community + 1]; });
  for (size_t c = 1; c <= num_vertices; ++c) start[c] += start[c - 1];
  std::vector<NodeId> sorted(start[num_vertices]);
  {
    std::vector<size_t> cursor(start.begin(), start.end() - 1);
    for_each_pair([&](CommunityId community, NodeId node) {
      sorted[cursor[community]++] = node;
    });
  }

  // Per-community aggregation: node stamps (token = community + 1, unique
  // per segment) turn dedup into O(1) array probes.
  std::vector<uint32_t> stamp(num_nodes, 0);
  std::vector<size_t> slot(num_nodes, 0);
  for (size_t c = 0; c < num_vertices; ++c) {
    table.item_begin[c] = table.node.size();
    const uint32_t token = static_cast<uint32_t>(c) + 1;
    for (size_t i = start[c]; i < start[c + 1]; ++i) {
      const NodeId v = sorted[i];
      if (stamp[v] != token) {
        stamp[v] = token;
        slot[v] = table.node.size();
        table.node.push_back(v);
        table.count.push_back(1);
      } else {
        ++table.count[slot[v]];
      }
    }
  }
  table.item_begin[num_vertices] = table.node.size();
  return table;
}

// Aggregates the tag pairs of stage-1 batches, read in batch order.
BucketTable BucketsFromBatches(std::span<const TagPairs> batches,
                               size_t num_vertices, size_t num_nodes) {
  return BuildBuckets(
      [batches](auto&& fn) {
        for (const TagPairs& pairs : batches) {
          for (const auto& [community, node] : pairs) fn(community, node);
        }
      },
      num_vertices, num_nodes);
}

// Aggregates the tag pairs a cache records, in sample order: a pair's
// community is its source's ancestor at the pair's leaf-up tag position.
// This is the order the walk emitted them in, so the table equals the one
// built from the raw pairs.
BucketTable BucketsFromCache(const HimorSampleCache& cache,
                             const Dendrogram& dendrogram) {
  const size_t n = dendrogram.NumLeaves();
  const uint32_t theta = cache.theta;
  std::vector<CommunityId> chain;  // leaf-up ancestors of one source
  return BuildBuckets(
      [&](auto&& fn) {
        for (NodeId source = 0; source < n; ++source) {
          chain.clear();
          for (CommunityId c = dendrogram.Parent(dendrogram.LeafOf(source));
               c != kInvalidCommunity; c = dendrogram.Parent(c)) {
            chain.push_back(c);
          }
          const uint64_t pb = cache.pair_begin[uint64_t{source} * theta];
          const uint64_t pe = cache.pair_begin[uint64_t{source + 1} * theta];
          for (uint64_t k = pb; k < pe; ++k) {
            fn(chain[cache.pair_tag[k]], cache.pair_node[k]);
          }
        }
      },
      dendrogram.NumVertices(), n);
}

// Stage-2 item source over a bucket table.
auto TableItems(const BucketTable& buckets) {
  return [&buckets](CommunityId c, auto&& emit) {
    for (size_t i = buckets.item_begin[c]; i < buckets.item_begin[c + 1];
         ++i) {
      emit(buckets.node[i], buckets.count[i]);
    }
  };
}

// Converts a freshly aggregated bucket table into the fingerprint-keyed
// rows the next reuse build carries forward (cold builds, and reuse builds
// whose delta volume makes re-aggregation the cheaper move).
void RowsFromBuckets(const BucketTable& buckets, HimorSampleCache* next) {
  next->rows.clear();
  for (CommunityId c = 0; c + 1 < buckets.item_begin.size(); ++c) {
    const size_t ib = buckets.item_begin[c];
    const size_t ie = buckets.item_begin[c + 1];
    if (ib == ie) continue;
    HimorSampleCache::BucketRow& row = next->rows[next->set_hash[c]];
    row.node.insert(row.node.end(), buckets.node.begin() + ib,
                    buckets.node.begin() + ie);
    row.count.insert(row.count.end(), buckets.count.begin() + ib,
                     buckets.count.begin() + ie);
  }
}

// Appends one stage-1 batch's recorded samples to `next` and frees the
// batch. `part.pair_begin` holds batch-local sample END offsets.
void SpliceBatchCache(HimorSampleCache& part, HimorSampleCache* next) {
  next->rr.AppendPool(part.rr);
  const uint64_t base = next->pair_node.size();
  for (const uint64_t end : part.pair_begin) {
    next->pair_begin.push_back(base + end);
  }
  next->pair_pos.insert(next->pair_pos.end(), part.pair_pos.begin(),
                        part.pair_pos.end());
  next->pair_tag.insert(next->pair_tag.end(), part.pair_tag.begin(),
                        part.pair_tag.end());
  next->pair_node.insert(next->pair_node.end(), part.pair_node.begin(),
                         part.pair_node.end());
  part = HimorSampleCache{};
}

}  // namespace

// Stage 2 core. Internal vertex ids increase bottom-up (children precede
// parents), so one ascending sweep is a valid post-order. Emission order
// within a bucket is free: `updated` is re-sorted and the accumulators
// commute.
template <typename ItemsOf>
HimorIndex HimorIndex::MergeBuckets(const HimorBuildSpec& spec,
                                    ItemsOf&& items_of) {
  const Dendrogram& dendrogram = *spec.dendrogram;
  const uint32_t max_rank = spec.max_rank;
  const std::vector<uint32_t>* comp_size_of_node = spec.comp_size_of_node;
  // Sketch co-build gate. An armed "influence/sketch_build" failpoint (or
  // sketch_bits == 0, or no output slot) drops the sketch while the index
  // itself still builds.
  std::optional<CoverageSketchBuilder> sketch_builder;
  if (spec.sketch != nullptr && spec.sketch_bits != 0 &&
      !COD_FAILPOINT("influence/sketch_build")) {
    sketch_builder.emplace(dendrogram.NumVertices(), dendrogram.NumLeaves(),
                           spec.seed, spec.theta, spec.sketch_bits, max_rank);
  }
  CoverageSketchBuilder* sketch =
      sketch_builder.has_value() ? &*sketch_builder : nullptr;

  const size_t n = dendrogram.NumLeaves();
  const size_t num_vertices = dendrogram.NumVertices();
  std::vector<Run> runs(num_vertices);
  std::vector<uint32_t> acc(n, 0);        // cumulative count along each
                                          // node's processed chain
  std::vector<uint32_t> rank_of(n, 0);    // scratch, epoch-guarded
  std::vector<uint32_t> rank_epoch(n, 0);
  uint32_t epoch = 0;
  // "In the current community's bucket" stamps, consulted on the merge path.
  std::vector<uint32_t> bucket_stamp(n, 0);

  std::vector<std::vector<Entry>> per_node(n);
  for (NodeId v = 0; v < n; ++v) {
    per_node[v].reserve(dendrogram.Depth(dendrogram.LeafOf(v)));
  }

  Run scratch;
  Run updated;
  for (CommunityId c = 0; c < num_vertices; ++c) {
    if (dendrogram.IsLeaf(c)) continue;
    const uint32_t token = c + 1;

    // Nodes recorded at c get their accumulated totals bumped; they will be
    // re-inserted with fresh values, so child-run copies are excluded.
    updated.clear();
    items_of(c, [&](NodeId v, uint32_t count) {
      acc[v] += count;
      updated.emplace_back(acc[v], v);
      bucket_stamp[v] = token;
    });
    std::sort(updated.begin(), updated.end(), RunLess);

    const auto kids = dendrogram.Children(c);
    // The bucket run is exactly the nodes first covered at c, so the sketch
    // union (children's signatures + this bucket) sees c's full covered set
    // without any extra traversal.
    if (sketch != nullptr) sketch->MergeUp(c, kids, updated);

    // Merge child runs (2-way cascade; agglomerative trees are binary except
    // possibly at the root).
    Run merged;
    bool first = true;
    for (CommunityId child : kids) {
      Run& child_run = runs[child];
      if (first) {
        merged.clear();
        MergeRuns(child_run, Run{}, &bucket_stamp, token, &merged);
        first = false;
      } else {
        scratch.clear();
        MergeRuns(merged, child_run, &bucket_stamp, token, &scratch);
        merged.swap(scratch);
      }
      Run().swap(child_run);  // free child memory
    }
    scratch.clear();
    MergeRuns(merged, updated, /*bucket_stamp=*/nullptr, 0, &scratch);
    merged.swap(scratch);

    // Ranks in c: position of the first entry with the same count.
    ++epoch;
    uint32_t tie_rank = 0;
    for (size_t i = 0; i < merged.size(); ++i) {
      if (i == 0 || merged[i].first != merged[i - 1].first) {
        tie_rank = static_cast<uint32_t>(i);
      }
      rank_of[merged[i].second] = tie_rank;
      rank_epoch[merged[i].second] = epoch;
    }
    const uint32_t absent_rank = static_cast<uint32_t>(merged.size());
    // Component-scoped builds materialize only pure communities: a subtree
    // larger than its members' connected component must span components
    // (it includes every node of that component plus outsiders), so its
    // ranks depend on shard composition and are never served. Membership is
    // tested via the first member — a community either lies inside one
    // component or contains whole components, so one probe decides purity.
    bool materialize = true;
    if (comp_size_of_node != nullptr) {
      const auto members = dendrogram.Members(c);
      materialize =
          dendrogram.LeafCount(c) <= (*comp_size_of_node)[*members.begin()];
    }
    if (materialize) {
      for (NodeId v : dendrogram.Members(c)) {
        const uint32_t r =
            rank_epoch[v] == epoch ? rank_of[v] : absent_rank;
        // "Selected communities": entries a query with k <= max_rank could
        // ever need. An ancestor absent from v's list implies rank >=
        // max_rank.
        if (r < max_rank) per_node[v].push_back(Entry{c, r});
        // acc[v] is v's exact cumulative count at c; the ascending sweep
        // overwrites, so each node ends at its TOPMOST materialized
        // ancestor — the monotone upper bound sketch pruning compares
        // thresholds against.
        if (sketch != nullptr) sketch->SetTopCount(v, acc[v]);
      }
      if (sketch != nullptr) sketch->RecordCommunity(c, merged);
    }
    runs[c] = std::move(merged);
  }

  if (sketch_builder.has_value()) *spec.sketch = sketch_builder->Finish();

  // ---- CSR-pack the per-node entry lists. ----
  HimorIndex index;
  index.max_rank_ = max_rank;
  index.offsets_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    index.offsets_[v + 1] = index.offsets_[v] + per_node[v].size();
  }
  index.entries_.resize(index.offsets_[n]);
  for (NodeId v = 0; v < n; ++v) {
    std::copy(per_node[v].begin(), per_node[v].end(),
              index.entries_.begin() + index.offsets_[v]);
  }
  return index;
}


Result<HimorIndex> HimorIndex::Build(const HimorBuildSpec& spec) {
  COD_CHECK(spec.model != nullptr && spec.dendrogram != nullptr &&
            spec.lca != nullptr);
  COD_CHECK(spec.theta > 0);
  COD_CHECK(spec.max_rank > 0);
  const Dendrogram& dendrogram = *spec.dendrogram;
  const size_t n = spec.model->graph().NumNodes();
  COD_CHECK_EQ(n, dendrogram.NumLeaves());
  if (spec.comp_size_of_node != nullptr) {
    COD_CHECK_EQ(n, spec.comp_size_of_node->size());
  }
  COD_CHECK(spec.next == nullptr || spec.next != spec.prev);
  if (spec.sketch != nullptr) spec.sketch->reset();
  if (COD_FAILPOINT("himor/build")) {
    return Status::IoError("failpoint himor/build armed");
  }

  const uint64_t num_samples = uint64_t{n} * spec.theta;
  if (HimorSampleCache* next = spec.next; next != nullptr) {
    // `next` becomes valid only once the build fully succeeds.
    next->valid = false;
    next->theta = spec.theta;
    next->seed = spec.seed;
    next->max_rank = spec.max_rank;
    next->num_leaves = n;
    next->rr.Clear();
    next->rows.clear();
    next->pair_begin.clear();
    next->pair_begin.reserve(num_samples + 1);
    next->pair_begin.push_back(0);
    next->pair_pos.clear();
    next->pair_tag.clear();
    next->pair_node.clear();
    // New dendrogram shape + member-set fingerprints, carried for the
    // following epoch and matched against prev's by a reuse build.
    const size_t num_vertices = dendrogram.NumVertices();
    next->parent.resize(num_vertices);
    next->set_hash.resize(num_vertices);
    next->set_size.resize(num_vertices);
    for (CommunityId c = 0; c < num_vertices; ++c) {
      next->parent[c] = dendrogram.Parent(c);
      next->set_size[c] = dendrogram.LeafCount(c);
      if (dendrogram.IsLeaf(c)) {
        next->set_hash[c] = LeafFingerprint(dendrogram.LeafNode(c));
      } else {
        uint64_t h = 0;
        for (CommunityId child : dendrogram.Children(c)) {
          h += next->set_hash[child];
        }
        next->set_hash[c] = h;
      }
    }
  }

  // A previous-epoch cache is only consulted when it was produced by the
  // same (theta, seed, max_rank) schedule on a same-sized graph, together
  // with a dirty bitmap relating the two graphs and a `next` to carry the
  // result. The rows check is defensive: a cache whose bucket rows were
  // already consumed must never re-enter the reuse path. Anything else
  // (including a node-count change, which invalidates the whole id space)
  // samples everything.
  const HimorSampleCache* prev = spec.prev;
  const bool reusable =
      prev != nullptr && spec.next != nullptr && prev->valid &&
      prev->theta == spec.theta && prev->seed == spec.seed &&
      prev->max_rank == spec.max_rank && prev->num_leaves == n &&
      prev->rr.NumSamples() == num_samples &&
      prev->pair_begin.size() == num_samples + 1 && !prev->rows.empty() &&
      spec.dirty != nullptr && spec.dirty->size() == n;
  Result<HimorIndex> index = reusable ? BuildReusing(spec) : BuildCold(spec);
  if (index.ok() && spec.next != nullptr) spec.next->valid = true;
  return index;
}

Result<HimorIndex> HimorIndex::BuildCold(const HimorBuildSpec& spec) {
  const Dendrogram& dendrogram = *spec.dendrogram;
  const size_t n = dendrogram.NumLeaves();
  HimorSampleCache* next = spec.next;

  // Without a scheduler the sources form one batch run inline. With one,
  // they split into a FIXED number of batches (independent of the worker
  // count) merged in batch order, so the result is byte-identical to the
  // inline build. Each batch records its samples in a private cache; the
  // task that finishes the oldest unspliced batch appends every finished
  // batch from there into `next` and frees it, so only batches finished
  // out of order are ever held twice.
  const size_t num_batches =
      spec.scheduler == nullptr ? 1 : std::min<size_t>(64, n);
  // A build that records a cache reads its tag pairs back from the cache,
  // so it keeps no raw pair vectors.
  std::vector<TagPairs> pairs(next == nullptr ? num_batches : 0);
  std::vector<HimorSampleCache> parts(
      next != nullptr && num_batches > 1 ? num_batches : 0);
  std::vector<char> part_done(parts.size(), 0);
  size_t parts_spliced = 0;
  std::mutex splice_mu;
  std::atomic<int> abort_code{0};
  const auto run_batch = [&](size_t b) {
    TreeHfsSampler worker(*spec.model, dendrogram, *spec.lca);
    const NodeId begin = static_cast<NodeId>(b * n / num_batches);
    const NodeId end = static_cast<NodeId>((b + 1) * n / num_batches);
    worker.ProcessSources(begin, end, spec.theta, spec.seed,
                          pairs.empty() ? nullptr : &pairs[b],
                          parts.empty() ? next : &parts[b], spec.budget,
                          &abort_code);
    if (parts.empty()) return;
    std::lock_guard<std::mutex> lock(splice_mu);
    part_done[b] = 1;
    for (; parts_spliced < parts.size() && part_done[parts_spliced];
         ++parts_spliced) {
      SpliceBatchCache(parts[parts_spliced], next);
    }
  };
  if (spec.scheduler == nullptr) {
    run_batch(0);
  } else {
    TaskGroup group(*spec.scheduler);
    for (size_t b = 0; b < num_batches; ++b) {
      spec.scheduler->Submit(TaskPriority::kRebuild, group,
                             [&run_batch, b] { run_batch(b); });
    }
    group.Wait();
  }
  const int aborted = abort_code.load(std::memory_order_relaxed);
  if (aborted != 0) {
    // All-or-nothing: partial batches are discarded, so a successful build
    // is always the same deterministic index.
    return BudgetStatus(static_cast<StatusCode>(aborted));
  }

  BucketTable buckets;
  if (next == nullptr) {
    buckets = BucketsFromBatches(pairs, dendrogram.NumVertices(), n);
    std::vector<TagPairs>().swap(pairs);  // stage 2 never reads raw pairs
  } else {
    buckets = BucketsFromCache(*next, dendrogram);
    RowsFromBuckets(buckets, next);
  }
  if (spec.stats != nullptr) {
    const uint64_t num_samples = uint64_t{n} * spec.theta;
    *spec.stats = HimorDeltaStats{num_samples, num_samples, 0, 0};
  }
  return MergeBuckets(spec, TableItems(buckets));
}

Result<HimorIndex> HimorIndex::BuildReusing(const HimorBuildSpec& spec) {
  const Dendrogram& dendrogram = *spec.dendrogram;
  const uint32_t theta = spec.theta;
  const uint64_t seed = spec.seed;
  const Budget& budget = spec.budget;
  const std::vector<char>* dirty = spec.dirty;
  HimorSampleCache* prev = spec.prev;
  HimorSampleCache* next = spec.next;
  const size_t n = dendrogram.NumLeaves();
  const uint64_t num_samples = uint64_t{n} * theta;
  TreeHfsSampler worker(*spec.model, dendrogram, *spec.lca);
  HimorDeltaStats tally;
  tally.samples_total = num_samples;

  // At low churn the new pair population is close to the old one; one
  // up-front reservation keeps the hot loop free of geometric regrowth.
  next->pair_pos.reserve(prev->pair_pos.size());
  next->pair_tag.reserve(prev->pair_tag.size());
  next->pair_node.reserve(prev->pair_node.size());

  // Per-source scratch for the old-chain -> new-chain position match.
  std::vector<CommunityId> old_chain;
  std::vector<uint32_t> match;
  std::vector<char> pos_valid;

  // Per-source memo of each node's new chain slot (SlotOf), filled lazily:
  // pairs at preserved positions read `match`, pairs at damaged positions
  // pay one LCA query per distinct node per source.
  std::vector<uint32_t> new_slot(n, 0);
  std::vector<NodeId> new_slot_stamp(n, kInvalidNode);
  // Per-sample old-slot -> new-slot map (stamped by sample index + 1) for
  // the monotone-remap rescue below; old slots are bounded by chain length
  // and chains are shorter than n. The same arrays double as the per-row
  // node index when the bucket deltas are applied after the loop (tokens
  // there start past num_samples).
  std::vector<uint32_t> slot_to(n, 0);
  std::vector<uint64_t> slot_stamp(n, 0);
  std::vector<uint32_t> sample_slots;  // distinct old slots of one sample
  // Per-sample node -> old tag fingerprint memo for the replay diff: the
  // re-walk visits the exact node set of the cached sample, so a node whose
  // tag fingerprint is unchanged owes no bucket delta.
  std::vector<uint64_t> node_old_hash(n, 0);
  std::vector<uint64_t> node_hash_stamp(n, 0);

  // Sparse bucket maintenance: a sample whose every tag sits at a
  // member-set-preserved chain position contributes the SAME
  // (fingerprint, node) multiset in both epochs — no bucket change at all.
  // Only resampled and replayed samples, plus the restructured-tag pairs of
  // rescued samples, push +-1 deltas here; they are aggregated and applied
  // to the carried rows once the loop is done.
  struct BucketDelta {
    uint64_t hash;
    NodeId node;
    int32_t d;
  };
  std::vector<BucketDelta> deltas;
  const auto sub_pair = [&](uint32_t old_tag, NodeId v) {
    deltas.push_back({prev->set_hash[old_chain[old_tag]], v, -1});
  };
  const auto add_pair = [&](uint32_t new_tag, NodeId v) {
    deltas.push_back({next->set_hash[worker.ChainAtLeafUp(new_tag)], v, +1});
  };

  // Cached RR bytes are carried over in maximal contiguous sample-index
  // runs: one AppendRange per run instead of one Append per sample keeps
  // the slab copy at memcpy speed. A run is flushed whenever a sample has
  // to be redrawn (its bytes differ) so the slab stays in sample order.
  uint64_t run_lo = 0, run_hi = 0;
  const auto flush_run = [&] {
    if (run_hi > run_lo) next->rr.AppendRange(prev->rr, run_lo, run_hi);
    run_lo = run_hi = 0;
  };
  const auto carry_rr = [&](uint64_t lo, uint64_t hi) {
    if (run_hi == lo && run_hi > run_lo) {
      run_hi = hi;
    } else {
      flush_run();
      run_lo = lo;
      run_hi = hi;
    }
  };
  // Same batching for the cached pair records of verbatim samples (the
  // common case at low churn): three bulk inserts plus a pair_begin rebase
  // per run, instead of three pushes per pair.
  uint64_t prun_lo = 0, prun_hi = 0;
  const auto flush_pairs = [&] {
    if (prun_hi > prun_lo) {
      const uint64_t kb = prev->pair_begin[prun_lo];
      const uint64_t ke = prev->pair_begin[prun_hi];
      const uint64_t base = next->pair_node.size();
      next->pair_pos.insert(next->pair_pos.end(),
                            prev->pair_pos.begin() + kb,
                            prev->pair_pos.begin() + ke);
      next->pair_tag.insert(next->pair_tag.end(),
                            prev->pair_tag.begin() + kb,
                            prev->pair_tag.begin() + ke);
      next->pair_node.insert(next->pair_node.end(),
                             prev->pair_node.begin() + kb,
                             prev->pair_node.begin() + ke);
      for (uint64_t s = prun_lo; s < prun_hi; ++s) {
        next->pair_begin.push_back(base + prev->pair_begin[s + 1] - kb);
      }
    }
    prun_lo = prun_hi = 0;
  };
  const auto carry_pairs = [&](uint64_t idx) {
    if (prun_hi == idx && prun_hi > prun_lo) {
      prun_hi = idx + 1;
    } else {
      flush_pairs();
      prun_lo = idx;
      prun_hi = idx + 1;
    }
  };

  for (NodeId source = 0; source < n; ++source) {
    const StatusCode budget_code = budget.ExhaustedCode();
    if (budget_code != StatusCode::kOk) {
      return BudgetStatus(budget_code);
    }
    worker.BeginSource(source);
    const uint32_t new_len = worker.source_level();

    // Old ancestor chain of `source`, leaf-up (deepest first).
    old_chain.clear();
    for (CommunityId c = prev->parent[source]; c != kInvalidCommunity;
         c = prev->parent[c]) {
      old_chain.push_back(c);
    }
    // Two-pointer match on (size, fingerprint): member counts strictly
    // increase along both chains, so each new position is considered for
    // at most one old position and vice versa.
    match.assign(old_chain.size(), kNoPos);
    uint32_t q = 0;
    for (size_t p = 0; p < old_chain.size(); ++p) {
      const uint32_t sz = prev->set_size[old_chain[p]];
      while (q < new_len && next->set_size[worker.ChainAtLeafUp(q)] < sz) {
        ++q;
      }
      if (q < new_len) {
        const CommunityId nc = worker.ChainAtLeafUp(q);
        if (next->set_size[nc] == sz &&
            next->set_hash[nc] == prev->set_hash[old_chain[p]]) {
          match[p] = q++;
        }
      }
    }
    // Position p is PRESERVED when both the community at p and the one
    // directly below it survive with their member sets intact and still
    // adjacent: then "deepest ancestor containing w is at p" transfers to
    // match[p] verbatim (w is in the new community at match[p], not in
    // the one below it, and everything deeper is a subset of that). For
    // p == 0 the community below is the singleton leaf, so the match must
    // land on the new leaf parent. Preservation of every position a
    // sample referenced makes the remap order-preserving, which is all
    // the walk's min/max clamps observe — hence tier 3's verbatim reuse.
    pos_valid.assign(old_chain.size(), 0);
    for (size_t p = 0; p < old_chain.size(); ++p) {
      if (match[p] == kNoPos) continue;
      const bool below_ok = p == 0
                                ? match[0] == 0
                                : (match[p - 1] != kNoPos &&
                                   match[p] == match[p - 1] + 1);
      if (below_ok) pos_valid[p] = 1;
    }
    // `first_bad` is the first chain position NOT preserved. Below it the
    // below-adjacency rule forces `match` to be the identity (match[0] == 0
    // and match[p] == match[p - 1] + 1 by induction), so a clean sample
    // whose deepest tag stays below first_bad is this epoch's sample
    // VERBATIM. Cached pairs are tag-sorted (the walk drains depths
    // deepest-first) and pos <= tag per pair, so the sample's last tag
    // bounds every slot it references — an O(1) crossing test.
    uint32_t first_bad = static_cast<uint32_t>(old_chain.size());
    for (uint32_t p = 0; p < first_bad; ++p) {
      if (!pos_valid[p]) {
        first_bad = p;
        break;
      }
    }

    for (uint32_t j = 0; j < theta; ++j) {
      const uint64_t idx = uint64_t{source} * theta + j;
      const RrSlabPool::View view = prev->rr.Sample(idx);
      bool clean = view.source == source;
      for (uint32_t i = 0; clean && i < view.node_count; ++i) {
        clean = (*dirty)[view.nodes[i]] == 0;
      }
      const uint64_t kb = prev->pair_begin[idx];
      const uint64_t ke = prev->pair_begin[idx + 1];
      if (!clean) {
        // Tier 1: a dirty vertex was visited — redraw from the sample's
        // own seed, exactly as a cold build, and swap the sample's bucket
        // contribution (unchanged (fingerprint, node) entries cancel when
        // the deltas are aggregated).
        flush_pairs();
        flush_run();
        const uint64_t pair_base = next->pair_node.size();
        Rng rng(RrSampleSeed(seed, idx));
        worker.SampleAndWalk(rng, /*pairs=*/nullptr, next);
        next->rr.Append(worker.last_rr());
        for (uint64_t k = kb; k < ke; ++k) {
          sub_pair(prev->pair_tag[k], prev->pair_node[k]);
        }
        for (uint64_t k = pair_base; k < next->pair_node.size(); ++k) {
          add_pair(next->pair_tag[k], next->pair_node[k]);
        }
        next->pair_begin.push_back(next->pair_node.size());
        ++tally.samples_resampled;
        continue;
      }
      // The sampler consumes randomness per visited node as a function of
      // that node's adjacency only, so a clean visited set replays
      // bit-identically: the cached bytes ARE this epoch's sample.
      if (kb == ke || prev->pair_tag[ke - 1] < first_bad) {
        // Every referenced slot is identity-preserved: carry the pair
        // records and RR bytes verbatim, zero bucket change.
        carry_pairs(idx);
        carry_rr(idx, idx + 1);
        ++tally.samples_reused;
        continue;
      }
      flush_pairs();
      bool all_valid = true;
      for (uint64_t k = kb; all_valid && k < ke; ++k) {
        const uint32_t p = prev->pair_pos[k];
        const uint32_t t = prev->pair_tag[k];
        all_valid = p < pos_valid.size() && pos_valid[p] &&
                    t < pos_valid.size() && pos_valid[t];
      }
      if (all_valid) {
        // Tier 3: every referenced chain position is preserved (the sample
        // straddles the damaged stretch without touching it) — emit the
        // cached tags at their shifted positions. Preserved fingerprints
        // mean no bucket change.
        for (uint64_t k = kb; k < ke; ++k) {
          next->pair_pos.push_back(match[prev->pair_pos[k]]);
          next->pair_tag.push_back(match[prev->pair_tag[k]]);
          next->pair_node.push_back(prev->pair_node[k]);
        }
        ++tally.samples_reused;
      } else {
        // Some referenced position was damaged. Resolve every node's TRUE
        // new slot (preserved positions via `match`, damaged ones via one
        // memoized LCA query per node) and collect the induced old-slot ->
        // new-slot map. Tags are path bottlenecks — a pure min/max
        // function of the nodes' slots — so whenever that map is
        // single-valued and strictly monotone over the sample's slots, the
        // cached tags transfer through it verbatim and the walk is
        // skipped. Emission order survives too: pairs sort by tag, and a
        // monotone remap preserves that order.
        const uint64_t sample_stamp = idx + 1;
        bool remap_ok = true;
        sample_slots.clear();
        for (uint64_t k = kb; remap_ok && k < ke; ++k) {
          const uint32_t p = prev->pair_pos[k];
          const NodeId w = prev->pair_node[k];
          uint32_t np;
          if (p < pos_valid.size() && pos_valid[p]) {
            np = match[p];
          } else {
            if (new_slot_stamp[w] != source) {
              new_slot_stamp[w] = source;
              new_slot[w] = worker.SlotOf(w);
            }
            np = new_slot[w];
          }
          if (slot_stamp[p] != sample_stamp) {
            slot_stamp[p] = sample_stamp;
            slot_to[p] = np;
            sample_slots.push_back(p);
          } else if (slot_to[p] != np) {
            remap_ok = false;  // two nodes at one old slot diverged
          }
        }
        if (remap_ok) {
          // Every tag is some sample node's slot (the bottleneck is
          // attained on the path), so it must already be mapped.
          for (uint64_t k = kb; remap_ok && k < ke; ++k) {
            remap_ok = slot_stamp[prev->pair_tag[k]] == sample_stamp;
          }
        }
        if (remap_ok && sample_slots.size() > 1) {
          std::sort(sample_slots.begin(), sample_slots.end());
          for (size_t i = 1; remap_ok && i < sample_slots.size(); ++i) {
            remap_ok =
                slot_to[sample_slots[i - 1]] < slot_to[sample_slots[i]];
          }
        }
        if (remap_ok) {
          // Only pairs whose tag community's fingerprint genuinely moved
          // change buckets. A tag slot can fail pos_valid merely because
          // ADJACENCY below it broke; when the old community still sits
          // (by fingerprint) exactly at the new tag position, the pair's
          // (fingerprint, node) key is unchanged and no delta is owed.
          for (uint64_t k = kb; k < ke; ++k) {
            const uint32_t t_old = prev->pair_tag[k];
            const uint32_t t = slot_to[t_old];
            const NodeId v = prev->pair_node[k];
            next->pair_pos.push_back(slot_to[prev->pair_pos[k]]);
            next->pair_tag.push_back(t);
            next->pair_node.push_back(v);
            if (!(t_old < pos_valid.size() && pos_valid[t_old]) &&
                match[t_old] != t) {
              sub_pair(t_old, v);
              add_pair(t, v);
            }
          }
          ++tally.samples_reused;
        } else {
          // Tier 2: the sample genuinely restructured — re-walk it on the
          // cached RR bytes. Slots resolved above seed the walk, so it
          // runs without LCA queries; finish the memo first for nodes
          // whose pairs sat at preserved positions (the loop above may
          // have bailed before reaching them).
          for (uint64_t k = kb; k < ke; ++k) {
            const NodeId w = prev->pair_node[k];
            if (new_slot_stamp[w] != source) {
              new_slot_stamp[w] = source;
              const uint32_t p = prev->pair_pos[k];
              new_slot[w] = p < pos_valid.size() && pos_valid[p]
                                ? match[p]
                                : worker.SlotOf(w);
            }
          }
          const uint64_t pair_base = next->pair_node.size();
          worker.WalkClamped(
              view, [&](NodeId v) { return new_len - new_slot[v]; },
              /*pairs=*/nullptr, next);
          // Both walks emit every visited node exactly once, so diffing the
          // per-node tag fingerprints finds the (few) moved pairs without
          // flooding the delta list with cancelling entries.
          for (uint64_t k = kb; k < ke; ++k) {
            const NodeId v = prev->pair_node[k];
            node_hash_stamp[v] = sample_stamp;
            node_old_hash[v] = prev->set_hash[old_chain[prev->pair_tag[k]]];
          }
          for (uint64_t k = pair_base; k < next->pair_node.size(); ++k) {
            const NodeId v = next->pair_node[k];
            const uint64_t h =
                next->set_hash[worker.ChainAtLeafUp(next->pair_tag[k])];
            if (node_hash_stamp[v] == sample_stamp &&
                node_old_hash[v] == h) {
              continue;
            }
            if (node_hash_stamp[v] == sample_stamp) {
              deltas.push_back({node_old_hash[v], v, -1});
            }
            deltas.push_back({h, v, +1});
          }
          ++tally.samples_replayed;
        }
      }
      carry_rr(idx, idx + 1);
      next->pair_begin.push_back(next->pair_node.size());
    }
  }
  flush_pairs();
  flush_run();

  // ---- Produce this epoch's bucket rows. ----
  // A heavily restructured epoch (tags moved for a sizable fraction of all
  // pairs) re-aggregates from scratch: the counting sort costs a flat pass
  // over the pair arrays, while sorted delta application scales with the
  // delta volume and loses past roughly a fifth of the pairs. Both branches
  // produce the same row multisets, so the choice never shows in the index.
  if (deltas.size() * 5 > next->pair_node.size()) {
    prev->rows.clear();  // retired either way on success; free it early
    const BucketTable buckets = BucketsFromCache(*next, dendrogram);
    RowsFromBuckets(buckets, next);
    if (spec.stats != nullptr) *spec.stats = tally;
    return MergeBuckets(spec, TableItems(buckets));
  }

  // Sparse case: carry the rows across and apply the delta. Stealing (not
  // copying) the row map is what makes benign epochs cheap; it happens only
  // here, past every failure point, so an aborted build leaves `prev`
  // fully reusable.
  next->rows = std::move(prev->rows);
  prev->rows.clear();  // moved-from: make it deterministically empty

  if (!deltas.empty()) {
    std::sort(deltas.begin(), deltas.end(),
              [](const BucketDelta& a, const BucketDelta& b) {
                if (a.hash != b.hash) return a.hash < b.hash;
                return a.node < b.node;
              });
    uint64_t token = num_samples;  // continues past the per-sample stamps
    size_t g = 0;
    while (g < deltas.size()) {
      const uint64_t h = deltas[g].hash;
      size_t ge = g;
      while (ge < deltas.size() && deltas[ge].hash == h) ++ge;
      HimorSampleCache::BucketRow& row = next->rows[h];
      ++token;
      for (size_t i = 0; i < row.node.size(); ++i) {
        slot_stamp[row.node[i]] = token;
        slot_to[row.node[i]] = static_cast<uint32_t>(i);
      }
      for (size_t i = g; i < ge;) {
        const NodeId v = deltas[i].node;
        int64_t d = 0;
        for (; i < ge && deltas[i].node == v; ++i) d += deltas[i].d;
        if (d == 0) continue;
        if (slot_stamp[v] == token) {
          const int64_t updated = int64_t{row.count[slot_to[v]]} + d;
          COD_CHECK(updated >= 0);
          row.count[slot_to[v]] = static_cast<uint32_t>(updated);
        } else {
          COD_CHECK(d > 0);  // subtracting a pair the row never held
          slot_stamp[v] = token;
          slot_to[v] = static_cast<uint32_t>(row.node.size());
          row.node.push_back(v);
          row.count.push_back(static_cast<uint32_t>(d));
        }
      }
      // Compact: zero-count entries would be semantically neutral
      // downstream, but dropping them keeps rows from growing across
      // epochs and lets an emptied row (a vanished community) be erased.
      size_t w = 0;
      for (size_t i = 0; i < row.node.size(); ++i) {
        if (row.count[i] == 0) continue;
        row.node[w] = row.node[i];
        row.count[w] = row.count[i];
        ++w;
      }
      if (w == 0) {
        next->rows.erase(h);
      } else {
        row.node.resize(w);
        row.count.resize(w);
      }
      g = ge;
    }
  }

  // Stage 2 always re-runs over the (carried + refreshed) bucket rows, so
  // the sketch co-build inherits the delta discipline for free: clean
  // components feed byte-identical rows, dirty components freshly
  // recomputed ones, and the resulting sketch equals a cold build's.
  if (spec.stats != nullptr) *spec.stats = tally;
  return MergeBuckets(spec, [&](CommunityId c, auto&& emit) {
    const auto it = next->rows.find(next->set_hash[c]);
    if (it == next->rows.end()) return;
    const HimorSampleCache::BucketRow& row = it->second;
    for (size_t i = 0; i < row.node.size(); ++i) {
      emit(row.node[i], row.count[i]);
    }
  });
}

void HimorIndex::SerializeTo(BinaryBufferWriter& out) const {
  out.WritePod(max_rank_);
  out.WriteVector(offsets_);
  out.WriteVector(entries_);
}

Result<HimorIndex> HimorIndex::Deserialize(BinarySpanReader& in) {
  HimorIndex index;
  if (!in.ReadPod(&index.max_rank_) || !in.ReadVector(&index.offsets_) ||
      !in.ReadVector(&index.entries_)) {
    return in.status();
  }
  if (index.max_rank_ == 0) {
    in.Fail("corrupt HIMOR index (max_rank 0)");
    return in.status();
  }
  // Structural validation: offsets must be a monotone prefix-sum ending at
  // the entry count.
  if (index.offsets_.empty() || index.offsets_.front() != 0 ||
      index.offsets_.back() != index.entries_.size()) {
    in.Fail("inconsistent HIMOR offsets");
    return in.status();
  }
  for (size_t i = 1; i < index.offsets_.size(); ++i) {
    if (index.offsets_[i] < index.offsets_[i - 1]) {
      in.Fail("inconsistent HIMOR offsets");
      return in.status();
    }
  }
  return index;
}

const HimorIndex::Entry* HimorIndex::FindTopKAncestor(
    NodeId q, CommunityId c_ell, uint32_t k,
    const Dendrogram& dendrogram) const {
  COD_CHECK(k <= max_rank_);
  const auto entries = RanksOf(q);
  // Entries are deepest-first; scan from the root downward and return the
  // first (largest) qualifying community, stopping once below c_ell.
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (!dendrogram.IsAncestorOrSelf(it->community, c_ell)) break;
    if (it->rank < k) return &*it;
  }
  return nullptr;
}

}  // namespace cod
