// HIMOR index: precomputed Hierarchical Influence-rank Materialization Over
// the non-attributed community hierarchy (paper Section IV-B).
//
// For every node v and every community C on v's ancestor chain in the
// non-attributed dendrogram T, the index stores v's influence rank in C.
// LORE only alters the hierarchy *below* the reclustered community C_ell, so
// a CODL query can answer from the index whenever some ancestor of C_ell
// already has the query in its top-k, and only falls back to compressed
// evaluation inside C_ell otherwise (Algorithm 3).
//
// Construction (compressed, Theorem 6) extends compressed COD evaluation to
// the whole tree: one shared pool of Theta = theta * |V| RR graphs is
// traversed by hierarchical-first search with *tree-structured* buckets (one
// per community, holding each reached node's count at the deepest community
// containing a live source path); buckets are then merged bottom-up as
// sorted runs, producing every community's full ranking in
// O(Theta*omega + |R| log |V| + sum_v dep(v)).
//
// One builder, HimorIndex::Build(const HimorBuildSpec&), serves every
// caller. It draws sample (source, j) from the counter-seeded schedule
// RrSampleSeed(seed, source * theta + j), independent of epoch, thread
// placement, and every other sample. That one schedule is what lets the
// build run inline or as fixed source batches on a borrowed scheduler with
// identical bytes, lets a delta build reuse any subset of samples
// byte-identically, and lets the coverage-sketch index
// (influence/coverage_sketch.h) prove query-time pruning bounds against the
// very pool a pinned evaluation will draw.
//
// Incremental construction (DESIGN.md Sec. 15): under a small edge delta,
// most RR graphs and most of their hierarchical-first tags are unchanged.
// Given the previous epoch's HimorSampleCache and a dirty-vertex bitmap, the
// build reuses, per sample, as much of that work as the bitmap and a
// member-set comparison of the two dendrograms prove safe. The result is
// bit-identical to a build without the cache on the same graph.

#ifndef COD_CORE_HIMOR_H_
#define COD_CORE_HIMOR_H_

#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/binary_io.h"
#include "common/deadline.h"
#include "common/status.h"
#include "hierarchy/dendrogram.h"
#include "hierarchy/lca.h"
#include "influence/coverage_sketch.h"
#include "influence/rr_graph.h"
#include "influence/rr_pool.h"

namespace cod {

class CoverageSketchBuilder;
class TaskScheduler;

// Cross-epoch carry state for delta builds (HimorBuildSpec::prev / next):
// everything epoch N's build must remember so epoch N+1 can skip the
// untouched fraction. Owned by the serving layer (one double-buffered pair
// per service), opaque to queries.
//
//  * `rr` holds every RR graph of the epoch, sample (s, j) at slab index
//    s * theta + j. A sample whose visited set avoids the dirty bitmap
//    replays bit-identically (the sampler consumes randomness per VISITED
//    node, as a function of that node's adjacency only), so its bytes are
//    carried forward instead of resampled.
//  * The pair arrays record, per visited node of each sample, its
//    hierarchical-first tag: `pair_pos` is the chain position (distance
//    from the leaf, 0 = the source's leaf parent) of the deepest source
//    ancestor containing the node, `pair_tag` the position the node was
//    emitted at (the path-bottleneck clamp of pos), `pair_node` the node.
//    When the source's old and new ancestor chains agree (by member-set
//    size + fingerprint) at every position a sample referenced, the cached
//    pairs remap to the new chain without re-walking the RR graph.
//  * `parent` / `set_hash` / `set_size` describe the OLD dendrogram's
//    ancestor structure, so the matching needs no reference to the previous
//    epoch's engine core.
//  * `rows` carries the aggregated bucket contents, keyed by community
//    member-set fingerprint rather than community id so the key survives
//    dendrogram renumbering. A sample whose every tag sits at a member-set
//    preserved chain position contributes the identical (fingerprint, node)
//    multiset in both epochs, so a delta build moves the whole map forward
//    (stealing it from `prev`) and applies only the sparse sub/add delta of
//    the samples that actually changed. A cross-community fingerprint
//    collision would merge two buckets — the same ~2^-60 risk class as the
//    chain match (DESIGN.md Sec. 15). Cache-only carry state, never
//    serialized.
struct HimorSampleCache {
  struct BucketRow {
    std::vector<NodeId> node;
    std::vector<uint32_t> count;  // parallel to `node`; entries stay > 0
  };

  uint32_t theta = 0;
  uint64_t seed = 0;
  uint32_t max_rank = 0;
  size_t num_leaves = 0;
  std::vector<CommunityId> parent;  // per old dendrogram vertex
  std::vector<uint64_t> set_hash;   // commutative member-set fingerprint
  std::vector<uint32_t> set_size;   // leaf count
  RrSlabPool rr;
  std::vector<uint64_t> pair_begin;  // per sample, CSR into the pair arrays
  std::vector<uint32_t> pair_pos;
  std::vector<uint32_t> pair_tag;
  std::vector<NodeId> pair_node;
  std::unordered_map<uint64_t, BucketRow> rows;
  bool valid = false;
};

// Per-build reuse accounting (HimorBuildSpec::stats; the serving layer turns
// these into cod_rebuild_delta_samples_* counters).
struct HimorDeltaStats {
  uint64_t samples_total = 0;
  uint64_t samples_resampled = 0;  // RR set touched a dirty vertex
  uint64_t samples_replayed = 0;   // RR bytes reused, HFS walk re-run
  uint64_t samples_reused = 0;     // RR bytes and cached tags both reused
};

// Every input of one HIMOR build. `model`, `dendrogram` and `lca` are
// required and need only outlive the Build call; the index owns its data.
struct HimorBuildSpec {
  const DiffusionModel* model = nullptr;
  const Dendrogram* dendrogram = nullptr;
  const LcaIndex* lca = nullptr;
  uint32_t theta = 10;  // RR graphs sampled per source node
  // The paper's "selected communities": only (community, rank) pairs with
  // rank < max_rank are materialized, since a query with k <= max_rank
  // never needs the others (an absent ancestor means rank >= max_rank >
  // k - 1). This keeps the index near the input size on skewed
  // hierarchies; std::numeric_limits<uint32_t>::max() materializes every
  // ancestor.
  uint32_t max_rank = 16;
  // Schedule seed: sample (source, j) draws from
  // Rng(RrSampleSeed(seed, source * theta + j)).
  uint64_t seed = 0;
  Budget budget{};
  // Component-scoped materialization (sharded serving; see
  // EngineOptions::component_scoped), with comp_size_of_node[v] = the size
  // of v's connected component. Only "pure" communities (LeafCount <= the
  // size of their members' component, i.e. subtrees that never cross a
  // component boundary) get per-node entries: the impure merge vertices a
  // dendrogram over a disconnected graph stacks on top carry no influence
  // signal and would differ per shard layout. Since the schedule is keyed
  // by source, every within-component rank is then a pure function of
  // (seed, theta, the component's subgraph). Null materializes everything.
  const std::vector<uint32_t>* comp_size_of_node = nullptr;
  // Borrowed scheduler (null = run inline on the calling thread). Stage 1
  // then runs as a FIXED split of the sources into 64 rebuild-priority
  // batches, merged in batch order, so the bytes never depend on the worker
  // count. Waiting from a worker of the same scheduler helps inline, so a
  // build may itself run as a scheduler task.
  TaskScheduler* scheduler = nullptr;
  // Delta reuse. `next` (optional, != prev) receives this epoch's carry
  // state; it is valid only when the build returns Ok. With a valid `prev`
  // from the same (theta, seed, max_rank) on a same-sized graph, plus the
  // `dirty` bitmap of vertices incident to any edge changed since prev's
  // epoch, each sample takes the cheapest sound tier:
  //
  //   1. resample — some visited vertex is dirty; redraw from the sample's
  //      own seed and re-walk (exactly what a build without `prev` does);
  //   2. replay  — the RR bytes are clean but the source's ancestor chain
  //      changed at a referenced position; reuse the bytes, re-run the
  //      hierarchical-first walk against the new dendrogram;
  //   3. reuse   — bytes clean and every chain position the sample's tags
  //      reference is member-set-preserved at a consecutively shifted new
  //      position; the cached (pos, node) pairs are emitted directly.
  //
  // Set fingerprints carry a ~2^-60 collision risk (DESIGN.md Sec. 15). A
  // SUCCESSFUL reuse build consumes prev->rows (the bucket carry is moved,
  // not copied; the caller's double buffer retires prev anyway); a failed
  // build leaves `prev` fully reusable. Reuse needs all of prev, next and
  // dirty; anything less builds without it. `stats` (optional) receives
  // the per-tier sample counts.
  const std::vector<char>* dirty = nullptr;
  HimorSampleCache* prev = nullptr;
  HimorSampleCache* next = nullptr;
  HimorDeltaStats* stats = nullptr;
  // Coverage-sketch co-build: with sketch_bits > 0 and `sketch` non-null,
  // *sketch receives a CoverageSketchIndex built from the very same RR
  // samples and bucket runs, at the schedule seed above.
  uint32_t sketch_bits = 0;
  std::optional<CoverageSketchIndex>* sketch = nullptr;
};

class HimorIndex {
 public:
  struct Entry {
    CommunityId community;
    uint32_t rank;  // number of members with strictly larger influence
  };

  // The one HIMOR builder (paper Sec. IV-B, Theorem 6); see HimorBuildSpec
  // for every input. Returns either the full deterministic index or an
  // error, never a partial index:
  //
  //  * an exhausted spec.budget returns kTimeout / kCancelled (the budget is
  //    polled once per source; parallel batches share an abort flag, so one
  //    batch's miss stops the rest within a source);
  //  * an armed "himor/build" failpoint returns kIoError;
  //  * an armed "influence/sketch_build" failpoint (or sketch_bits == 0)
  //    leaves *spec.sketch empty while the index itself still builds —
  //    sketch loss degrades pruning, never correctness.
  //
  // The result is a pure function of (graph, dendrogram, theta, seed,
  // max_rank, comp_size_of_node): identical with or without a scheduler,
  // for any worker count, and with or without a previous-epoch cache.
  static Result<HimorIndex> Build(const HimorBuildSpec& spec);

  uint32_t max_rank() const { return max_rank_; }

  // v's stored (community, rank) pairs along its ancestor chain, deepest
  // first (only ancestors where v's rank < max_rank appear).
  std::span<const Entry> RanksOf(NodeId v) const {
    COD_DCHECK(v + 1 < offsets_.size());
    return {entries_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  // Algorithm 3, lines 1-2: the largest community that (a) contains
  // `c_ell` (ancestor-or-equal on q's chain) and (b) has q in its top-k.
  // Returns nullptr if none qualifies. Requires k <= max_rank().
  const Entry* FindTopKAncestor(NodeId q, CommunityId c_ell, uint32_t k,
                                const Dendrogram& dendrogram) const;

  size_t NumEntries() const { return entries_.size(); }
  size_t NumNodes() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t MemoryBytes() const {
    return entries_.size() * sizeof(Entry) + offsets_.size() * sizeof(size_t);
  }

  // Payload codec for the epoch snapshot's kHimor section
  // (storage/epoch_snapshot.h), whose CRC guards integrity. Deserialize
  // checks the CSR shape only; an index is valid only together with the
  // hierarchy it was built over, and EngineCore::FromPrebuilt checks every
  // entry against that hierarchy.
  void SerializeTo(BinaryBufferWriter& out) const;
  static Result<HimorIndex> Deserialize(BinarySpanReader& in);

 private:
  // The two stage-1 strategies behind Build: draw and walk every sample
  // (inline or in fixed batches on spec.scheduler), or reuse what
  // spec.prev proves safe. Both end in MergeBuckets.
  static Result<HimorIndex> BuildCold(const HimorBuildSpec& spec);
  static Result<HimorIndex> BuildReusing(const HimorBuildSpec& spec);

  // Stage 2: bottom-up merging of the tree-structured buckets.
  // `items_of(c, emit)` supplies the aggregated bucket items of non-leaf
  // community c in any order (a CSR bucket table for cold builds, the
  // fingerprint-keyed carried rows for reuse builds). With
  // spec.comp_size_of_node set, only pure communities get per-node entries.
  // The coverage sketch, when spec asks for one, observes every community's
  // bucket run, merged run, and (for materialized communities) member
  // counts: its build rides stage 2 instead of re-walking anything.
  template <typename ItemsOf>
  static HimorIndex MergeBuckets(const HimorBuildSpec& spec,
                                 ItemsOf&& items_of);

  uint32_t max_rank_ = 0;
  std::vector<size_t> offsets_;  // per node, into entries_
  std::vector<Entry> entries_;
};

}  // namespace cod

#endif  // COD_CORE_HIMOR_H_
