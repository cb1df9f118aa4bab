// Durable epoch snapshots: the on-disk container for one published
// EngineCore epoch, and the crash-safe file protocol around it. This is the
// repo's one persistence format: services write and recover it, and
// `cod_cli index` writes one snapshot per offline index build.
//
// Container layout (version 3, little-endian; see DESIGN.md Sec. 13; v2
// added options_fingerprint to the kMeta section, v3 the kSketch section):
//
//   u32 magic "CODS" | u32 version
//   u64 epoch | u64 build_index | u64 seed | u32 flags | u32 section_count
//   section_count x { u32 id | u32 reserved | u64 offset | u64 length
//                   | u32 crc32c | u32 reserved }
//   u32 header_crc          (CRC32C over every byte above)
//   ...section payloads...  (at the offsets the table declares)
//
// Sections: kMeta (engine-option and topology fingerprint), kGraph,
// kAttributes, kHierarchy, and — unless the epoch was published
// index-absent degraded (flags bit 0) — kHimor, plus kSketch (v3) when the
// core carries a coverage-sketch index (requires kHimor: the sketch is
// co-built with the index and meaningless without it). Each section's CRC32C
// covers its exact payload bytes, so a bit flip anywhere in the file is
// caught either by the header CRC (metadata damage) or by one section CRC
// (payload damage) before any of the payload is interpreted. The payload
// decoders (graph_io.h, dendrogram_io.h, himor.h) then re-validate
// structure on top, and EngineCore::FromPrebuilt checks every HIMOR entry
// against the decoded hierarchy, so even a corruption that forges both CRCs
// cannot crash the process or materialize an invalid core.
//
// Crash-safe publication: WriteEpochSnapshotFile writes a temp file in the
// target directory, fsyncs it, atomically renames it over the final path,
// and fsyncs the parent directory. A crash at ANY point leaves either the
// complete old state or the complete new file — never a partially visible
// snapshot (a leftover temp file is ignored by loaders and cleaned by
// SnapshotStore).
//
// Failpoints: "storage/snapshot_write" (before the temp file is written),
// "storage/snapshot_fsync" (at the data fsync), "storage/snapshot_load"
// (before a file is read).

#ifndef COD_STORAGE_EPOCH_SNAPSHOT_H_
#define COD_STORAGE_EPOCH_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/engine_core.h"
#include "graph/attributes.h"
#include "graph/graph.h"
#include "hierarchy/dendrogram.h"

namespace cod {

// Epoch identity plus the compatibility fingerprint of the core that wrote
// the snapshot. Recovery refuses a snapshot whose fingerprint disagrees
// with the recovering service's options — a core restored under different
// engine parameters would silently answer differently.
struct EpochSnapshotMeta {
  uint64_t epoch = 0;
  uint64_t build_index = 0;  // rebuild ticket (bookkeeping only)
  uint64_t seed = 0;         // ServiceOptions::seed
  bool degraded = false;     // published index-absent (no kHimor section)
  // ServiceOptions::Fingerprint() of the service that wrote the snapshot
  // (container v2+). Covers everything that shapes answers INCLUDING the
  // sharding layout (num_shards, partitioner, component_scoped), so a mono
  // snapshot never warm-restores into a sharded service or vice versa.
  // Caller-set, like the identity fields above; 0 on legacy callers.
  uint64_t options_fingerprint = 0;

  // Engine fingerprint (the options that shape answers and index bytes).
  uint32_t engine_k = 0;
  uint32_t engine_theta = 0;
  uint32_t himor_max_rank = 0;
  uint8_t diffusion = 0;  // DiffusionKind

  // Topology fingerprint, cross-checked against the decoded sections.
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;
};

// A fully decoded and validated snapshot. `himor` is empty exactly when
// meta.degraded — the index-absent epoch restores index-absent. `sketch` is
// present only when the writing core carried one (which implies himor);
// absence is normal (sketch_bits == 0, or the co-build was failpointed) and
// only disables pruning and the sketch rung, never answers.
struct DecodedEpochSnapshot {
  EpochSnapshotMeta meta;
  Graph graph;
  AttributeTable attributes;
  std::optional<Dendrogram> hierarchy;  // engaged on every successful decode
  std::optional<HimorIndex> himor;
  std::optional<CoverageSketchIndex> sketch;
};

// Per-section payload cache for delta snapshots. A section whose source
// object is the SAME OBJECT the cache serialized last time (pointer
// identity) has byte-identical payload and CRC — EngineCore parts are
// immutable once published — so the encoder copies the cached bytes
// instead of re-serializing and re-checksumming them. `holder` pins the
// core the cached pointers point into, so an address can never be
// recycled by a later epoch while its entry is still live (ABA). In the
// serving tier the attributes table is shared by every epoch of a
// service, so that section — typically the largest stable one — hits on
// every delta snapshot.
struct SnapshotSectionCache {
  struct Entry {
    const void* source = nullptr;
    std::string payload;
    uint32_t crc = 0;
  };
  std::shared_ptr<const EngineCore> holder;
  Entry graph;
  Entry attributes;
  Entry hierarchy;
  Entry himor;
  Entry sketch;
};

// Serializes `core` (graph, attributes, hierarchy, HIMOR when present) and
// `meta` into the container byte format. Pure in-memory encoding — no I/O.
// meta's fingerprint fields are filled from the core; callers set only the
// identity fields (epoch / build_index / seed / degraded).
std::string EncodeEpochSnapshot(EpochSnapshotMeta meta, const EngineCore& core);

// Cache-aware form: reuses and refreshes `cache` (which must outlive the
// call; pass the SAME cache across epochs of the same service), and adds
// the number of sections served from it to *sections_reused when set. The
// caller owns updating cache->holder to the shared_ptr of `core` AFTER
// encoding — the entries written here point into `core`.
std::string EncodeEpochSnapshot(EpochSnapshotMeta meta, const EngineCore& core,
                                SnapshotSectionCache* cache,
                                uint64_t* sections_reused);

// Decodes and validates `bytes`: header CRC, section table geometry, every
// section CRC, then the payload decoders' structural validation. Any
// corruption — bad magic, version skew, truncation, over-long lengths, CRC
// mismatch, inconsistent sections — produces a clean Status naming
// `origin` and what broke. Never crashes, never returns a partial object.
Result<DecodedEpochSnapshot> DecodeEpochSnapshot(std::string_view bytes,
                                                 const std::string& origin);

// Crash-safe write of `bytes` to `path`: temp file (same directory) ->
// fsync -> atomic rename -> fsync parent directory.
Status WriteEpochSnapshotFile(const std::string& path, std::string_view bytes);

// Reads and decodes one snapshot file. IoError when unreadable,
// InvalidArgument when corrupt (the caller decides whether to quarantine).
Result<DecodedEpochSnapshot> LoadEpochSnapshotFile(const std::string& path);

}  // namespace cod

#endif  // COD_STORAGE_EPOCH_SNAPSHOT_H_
