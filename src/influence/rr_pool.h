// Pooled RR-sample storage and deterministic intra-query parallel sampling.
//
// Two pieces, both in service of the compressed evaluator's hot path:
//
//  * RrSlabPool — a structure-of-arrays arena holding every RR graph of one
//    query's shared pool in three contiguous slabs (nodes / offsets /
//    neighbors) plus a per-sample extent table. Chain evaluation walks the
//    slabs linearly instead of chasing per-sample vector-of-vectors, and
//    Clear() keeps capacity so a warmed workspace samples with zero heap
//    allocations per query.
//
//  * ParallelRrPool — builds the full pool for a chain evaluation, either
//    serially or sharded into contiguous sample-index chunks on a *borrowed*
//    TaskScheduler. The j-th sample of source `s` always draws from
//    Rng(RrSampleSeed(pool_seed, s * theta + j)) — keyed by the SOURCE NODE,
//    not the position in the source list — regardless of which thread runs
//    it, and chunks merge back in sample order, so the slab contents are
//    bit-identical for any worker count and any stealing interleaving, and a
//    pool built over a filtered source subset draws exactly the samples the
//    full pool would for those sources (what sketch pruning relies on). Same
//    schedule as every HimorIndex builder.
//
// The borrowing rule: ParallelRrPool never owns a scheduler; chunks are
// interactive-priority tasks tracked by a private TaskGroup. Calling from a
// scheduler worker (the usual case: a QueryBatch chunk fanning out sampling
// on the same scheduler) is fine — the group wait helps run queued tasks
// inline, so there is no self-pool deadlock and no serial fallback path.

#ifndef COD_INFLUENCE_RR_POOL_H_
#define COD_INFLUENCE_RR_POOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/deadline.h"
#include "common/random.h"
#include "influence/rr_graph.h"

namespace cod {

class TaskScheduler;

// The counter-based per-sample seed schedule: sample `index` of a pool
// seeded `pool_seed` is drawn from Rng(RrSampleSeed(pool_seed, index)),
// independent of sampling order and thread placement. Same mixing as
// BatchQuerySeed (golden-ratio stride into SplitMix64), so distinct indices
// land in decorrelated xoshiro streams.
inline uint64_t RrSampleSeed(uint64_t pool_seed, uint64_t index) {
  uint64_t state = pool_seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  return SplitMix64(state);
}

// Structure-of-arrays arena of RR graphs. Append copies a sample's rows into
// the shared slabs; Clear drops the samples but keeps slab capacity.
class RrSlabPool {
 public:
  // Read view of one stored sample; mirrors RrGraph's accessors but indexes
  // into the shared slabs. `offsets` has node_count + 1 entries and is
  // relative to `neighbors` (offsets[0] == 0).
  struct View {
    NodeId source;
    const NodeId* nodes;
    const uint32_t* offsets;
    const uint32_t* neighbors;
    uint32_t node_count;

    size_t NumNodes() const { return node_count; }
    std::span<const uint32_t> NeighborsOf(uint32_t local) const {
      return {neighbors + offsets[local], offsets[local + 1] - offsets[local]};
    }
  };

  size_t NumSamples() const { return extents_.size(); }
  // Total RR-graph nodes across all samples (|R| in the paper's analysis).
  size_t TotalNodes() const { return nodes_.size(); }

  View Sample(size_t i) const {
    const Extent& e = extents_[i];
    return View{e.source, nodes_.data() + e.node_begin,
                offsets_.data() + e.off_begin, neighbors_.data() + e.edge_begin,
                e.node_count};
  }

  // Appends `g` as the next sample. `g.offsets` must be self-relative
  // (offsets[0] == 0), which is what RrSampler produces.
  void Append(const RrGraph& g);
  // Appends a stored sample (typically from another pool, e.g. carrying a
  // still-valid RR graph across epochs).
  void Append(const View& v);
  // Appends every sample of `other` in order (chunk merge).
  void AppendPool(const RrSlabPool& other);
  // Appends samples [begin, end) of `other` in order. Samples are stored in
  // append order, so the range occupies one contiguous stretch of each slab
  // and copies as three bulk inserts — the delta rebuild's whole-source
  // reuse path leans on this.
  void AppendRange(const RrSlabPool& other, size_t begin, size_t end);

  // Drops all samples, keeping slab capacity for reuse.
  void Clear() {
    nodes_.clear();
    offsets_.clear();
    neighbors_.clear();
    extents_.clear();
  }

  // Number of times any slab had to grow beyond its capacity. Stable across
  // calls = the zero-steady-state-allocation contract holds (pinned by
  // tests/sampling_pool_test.cc).
  uint64_t growth_events() const { return growth_events_; }

 private:
  struct Extent {
    NodeId source;
    uint32_t node_begin;
    uint32_t node_count;
    uint32_t edge_begin;
    uint32_t off_begin;
  };

  template <typename T>
  void NoteGrowth(const std::vector<T>& v, size_t required) {
    if (required > v.capacity()) ++growth_events_;
  }

  std::vector<NodeId> nodes_;
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> neighbors_;
  std::vector<Extent> extents_;
  uint64_t growth_events_ = 0;
};

// Builds one query's RR pool: sources.size() * theta samples, sample i
// drawing source sources[i / theta] under
// Rng(RrSampleSeed(pool_seed, sources[i / theta] * theta + i % theta)).
// Owns per-chunk sampler scratch (grown lazily to the thread count seen), so
// it is not thread-safe itself — one instance per workspace.
class ParallelRrPool {
 public:
  explicit ParallelRrPool(const DiffusionModel& model);

  // Re-targets at a (possibly different) model, keeping every chunk's
  // sampler scratch and slab capacity across epoch swaps.
  void Rebind(const DiffusionModel& model);

  struct BuildStats {
    uint64_t samples = 0;         // samples actually drawn (partial on abort)
    size_t explored_nodes = 0;    // total RR-graph nodes across samples
    size_t chunks = 0;            // parallel chunks used; 0 = serial path
    double sample_seconds = 0.0;
    double merge_seconds = 0.0;   // chunk-merge wall time (parallel only)
  };

  // Fills `out` (cleared first) with the full pool. `scheduler` may be null
  // or single-threaded, in which case sampling is serial; results are
  // bit-identical either way. The budget (and, in the parallel chunk loop,
  // the "influence/parallel_pool" failpoint; "rr/sample" on the serial path)
  // is polled between samples; on exhaustion the first failing code is
  // returned, `out` is cleared, and all scratch is left reusable.
  StatusCode Build(std::span<const NodeId> sources, uint32_t theta,
                   const std::vector<char>& allowed, uint64_t pool_seed,
                   const Budget& budget, TaskScheduler* scheduler,
                   RrSlabPool* out, BuildStats* stats);

  // Growth events summed over the output-independent chunk slabs (the main
  // pool's counter lives on the RrSlabPool the caller owns).
  uint64_t chunk_growth_events() const;

 private:
  struct ChunkScratch {
    explicit ChunkScratch(const DiffusionModel& model) : sampler(model) {}
    RrSampler sampler;
    RrGraph rr;
    RrSlabPool slab;
    uint64_t samples = 0;
    size_t explored_nodes = 0;
  };

  StatusCode BuildSerial(std::span<const NodeId> sources, uint32_t theta,
                         const std::vector<char>& allowed, uint64_t pool_seed,
                         const Budget& budget, RrSlabPool* out,
                         BuildStats* stats);

  ChunkScratch& Chunk(size_t i);

  const DiffusionModel* model_;
  std::vector<std::unique_ptr<ChunkScratch>> chunks_;
};

}  // namespace cod

#endif  // COD_INFLUENCE_RR_POOL_H_
