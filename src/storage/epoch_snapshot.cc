#include "storage/epoch_snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/binary_io.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "graph/graph_io.h"
#include "hierarchy/dendrogram_io.h"

namespace cod {
namespace {

constexpr uint32_t kMagic = 0x434F4453;  // "CODS"
// v2: kMeta section gained options_fingerprint (the ServiceOptions
// fingerprint, which covers the sharding layout). v3: optional kSketch
// section (the coverage-sketch index co-built with HIMOR). Older files fail
// the version check and recover via quarantine + cold rebuild.
constexpr uint32_t kVersion = 3;

constexpr uint32_t kFlagDegraded = 1u << 0;

enum SectionId : uint32_t {
  kMeta = 1,
  kGraph = 2,
  kAttributes = 3,
  kHierarchy = 4,
  kHimor = 5,
  kSketch = 6,
};

const char* SectionName(uint32_t id) {
  switch (id) {
    case kMeta:
      return "meta";
    case kGraph:
      return "graph";
    case kAttributes:
      return "attributes";
    case kHierarchy:
      return "hierarchy";
    case kHimor:
      return "himor";
    case kSketch:
      return "sketch";
  }
  return "unknown";
}

// One section-table row; 32 bytes on disk (explicit padding so the struct
// can be memcpy'd as a POD without layout surprises).
struct SectionEntry {
  uint32_t id = 0;
  uint32_t reserved0 = 0;
  uint64_t offset = 0;
  uint64_t length = 0;
  uint32_t crc = 0;
  uint32_t reserved1 = 0;
};
static_assert(sizeof(SectionEntry) == 32);

// Bytes before the payloads: fixed header + table + header CRC.
size_t HeaderSize(size_t section_count) {
  return 2 * sizeof(uint32_t)        // magic, version
         + 3 * sizeof(uint64_t)      // epoch, build_index, seed
         + 2 * sizeof(uint32_t)      // flags, section_count
         + section_count * sizeof(SectionEntry) + sizeof(uint32_t);  // crc
}

void SerializeMeta(const EpochSnapshotMeta& meta, BinaryBufferWriter& out) {
  out.WritePod<uint32_t>(meta.engine_k);
  out.WritePod<uint32_t>(meta.engine_theta);
  out.WritePod<uint32_t>(meta.himor_max_rank);
  out.WritePod<uint8_t>(meta.diffusion);
  out.WritePod<uint64_t>(meta.num_nodes);
  out.WritePod<uint64_t>(meta.num_edges);
  out.WritePod<uint64_t>(meta.options_fingerprint);  // v2
}

bool DeserializeMeta(BinarySpanReader& in, EpochSnapshotMeta* meta) {
  if (!in.ReadPod(&meta->engine_k) || !in.ReadPod(&meta->engine_theta) ||
      !in.ReadPod(&meta->himor_max_rank) || !in.ReadPod(&meta->diffusion) ||
      !in.ReadPod(&meta->num_nodes) || !in.ReadPod(&meta->num_edges) ||
      !in.ReadPod(&meta->options_fingerprint)) {
    return false;
  }
  if (meta->diffusion > 1) return in.Fail("unknown diffusion kind");
  return true;
}

// Reads the whole file at `path`. IoError when it cannot be opened or read:
// the bytes were never seen, so nothing is proven corrupt.
Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  if (size < 0 || !in) return Status::IoError("cannot size " + path);
  std::string bytes(static_cast<size_t>(size), '\0');
  if (!in.read(bytes.data(), size)) {
    return Status::IoError("read from " + path + " failed");
  }
  return bytes;
}

Status CloseAndFail(int fd, const std::string& tmp, const std::string& why) {
  if (fd >= 0) ::close(fd);
  ::unlink(tmp.c_str());
  return Status::IoError(why);
}

}  // namespace

std::string EncodeEpochSnapshot(EpochSnapshotMeta meta,
                                const EngineCore& core) {
  return EncodeEpochSnapshot(std::move(meta), core, /*cache=*/nullptr,
                             /*sections_reused=*/nullptr);
}

std::string EncodeEpochSnapshot(EpochSnapshotMeta meta, const EngineCore& core,
                                SnapshotSectionCache* cache,
                                uint64_t* sections_reused) {
  // The fingerprint always reflects the core actually being persisted.
  const EngineOptions& opts = core.options();
  meta.engine_k = opts.k;
  meta.engine_theta = opts.theta;
  meta.himor_max_rank = opts.himor_max_rank;
  meta.diffusion = static_cast<uint8_t>(opts.diffusion);
  meta.num_nodes = core.graph().NumNodes();
  meta.num_edges = core.graph().NumEdges();
  meta.degraded = !core.index_present();

  struct Section {
    uint32_t id;
    std::string payload;
    uint32_t crc;
  };
  std::vector<Section> sections;
  uint64_t reused = 0;
  // One section: from the cache when the source object is the one the cache
  // was filled from (the published parts of a core are immutable, so pointer
  // identity implies byte identity), serialized and checksummed fresh — and
  // cached for the next epoch — otherwise.
  const auto add = [&](uint32_t id, const void* source,
                       SnapshotSectionCache::Entry* slot,
                       const auto& serialize) {
    if (slot != nullptr && slot->source == source && source != nullptr) {
      ++reused;
      sections.push_back(Section{id, slot->payload, slot->crc});
      return;
    }
    BinaryBufferWriter w;
    serialize(w);
    Section s{id, std::move(w).TakeBytes(), 0};
    s.crc = Crc32c(s.payload);
    if (slot != nullptr) {
      slot->source = source;
      slot->payload = s.payload;
      slot->crc = s.crc;
    }
    sections.push_back(std::move(s));
  };
  const auto slot = [&](SnapshotSectionCache::Entry SnapshotSectionCache::* m)
      -> SnapshotSectionCache::Entry* {
    return cache != nullptr ? &(cache->*m) : nullptr;
  };

  // Meta is a few dozen bytes and changes every epoch (epoch number,
  // ticket): always fresh, never cached.
  add(kMeta, nullptr, nullptr,
      [&](BinaryBufferWriter& w) { SerializeMeta(meta, w); });
  add(kGraph, &core.graph(), slot(&SnapshotSectionCache::graph),
      [&](BinaryBufferWriter& w) { SerializeGraph(core.graph(), w); });
  add(kAttributes, &core.attributes(), slot(&SnapshotSectionCache::attributes),
      [&](BinaryBufferWriter& w) { SerializeAttributes(core.attributes(), w); });
  add(kHierarchy, &core.base_hierarchy(), slot(&SnapshotSectionCache::hierarchy),
      [&](BinaryBufferWriter& w) {
        SerializeDendrogram(core.base_hierarchy(), w);
      });
  if (core.himor() != nullptr) {
    add(kHimor, core.himor(), slot(&SnapshotSectionCache::himor),
        [&](BinaryBufferWriter& w) { core.himor()->SerializeTo(w); });
  } else if (cache != nullptr) {
    // No HIMOR section this epoch, so nothing overwrites the slot: clear it
    // explicitly. Once cache->holder moves on, a later core's index could
    // be allocated at the stale address and alias the entry.
    cache->himor = SnapshotSectionCache::Entry{};
  }
  if (core.sketch() != nullptr) {
    add(kSketch, core.sketch(), slot(&SnapshotSectionCache::sketch),
        [&](BinaryBufferWriter& w) { core.sketch()->SerializeTo(w); });
  } else if (cache != nullptr) {
    cache->sketch = SnapshotSectionCache::Entry{};  // same ABA guard as himor
  }
  if (sections_reused != nullptr) *sections_reused += reused;

  BinaryBufferWriter header;
  header.WritePod<uint32_t>(kMagic);
  header.WritePod<uint32_t>(kVersion);
  header.WritePod<uint64_t>(meta.epoch);
  header.WritePod<uint64_t>(meta.build_index);
  header.WritePod<uint64_t>(meta.seed);
  header.WritePod<uint32_t>(meta.degraded ? kFlagDegraded : 0);
  header.WritePod<uint32_t>(static_cast<uint32_t>(sections.size()));
  uint64_t offset = HeaderSize(sections.size());
  for (const Section& s : sections) {
    SectionEntry entry;
    entry.id = s.id;
    entry.offset = offset;
    entry.length = s.payload.size();
    entry.crc = s.crc;
    header.WritePod(entry);
    offset += entry.length;
  }
  header.WritePod<uint32_t>(Crc32c(header.bytes()));

  std::string file = std::move(header).TakeBytes();
  file.reserve(offset);
  for (Section& s : sections) file += s.payload;
  return file;
}

Result<DecodedEpochSnapshot> DecodeEpochSnapshot(std::string_view bytes,
                                                 const std::string& origin) {
  BinarySpanReader in(bytes, origin);
  uint32_t magic = 0;
  uint32_t version = 0;
  if (!in.ReadPod(&magic) || magic != kMagic) {
    return Status::InvalidArgument(origin +
                                   ": not a codlib epoch snapshot file");
  }
  if (!in.ReadPod(&version) || version != kVersion) {
    return Status::InvalidArgument(origin +
                                   ": unsupported epoch snapshot version");
  }
  DecodedEpochSnapshot snap;
  uint32_t flags = 0;
  uint32_t section_count = 0;
  if (!in.ReadPod(&snap.meta.epoch) || !in.ReadPod(&snap.meta.build_index) ||
      !in.ReadPod(&snap.meta.seed) || !in.ReadPod(&flags) ||
      !in.ReadPod(&section_count)) {
    return in.status();
  }
  if ((flags & ~kFlagDegraded) != 0) {
    in.Fail("unknown snapshot flags");
    return in.status();
  }
  snap.meta.degraded = (flags & kFlagDegraded) != 0;
  // v3 writes at most 6 sections; a larger count is corruption, not growth
  // (growth bumps the version).
  if (section_count == 0 || section_count > 8) {
    in.Fail("implausible section count");
    return in.status();
  }
  std::vector<SectionEntry> table(section_count);
  for (SectionEntry& entry : table) {
    if (!in.ReadPod(&entry)) return in.status();
  }
  const size_t header_end = HeaderSize(section_count);
  uint32_t stored_header_crc = 0;
  if (!in.ReadPod(&stored_header_crc)) return in.status();
  COD_CHECK_EQ(in.offset(), header_end);
  if (Crc32c(bytes.substr(0, header_end - sizeof(uint32_t))) !=
      stored_header_crc) {
    return Status::InvalidArgument(origin + ": snapshot header CRC mismatch");
  }

  // Geometry and integrity of every section before interpreting any of
  // them; ids must be unique so "first match" below is unambiguous.
  for (size_t i = 0; i < table.size(); ++i) {
    const SectionEntry& entry = table[i];
    if (entry.offset < header_end || entry.offset > bytes.size() ||
        entry.length > bytes.size() - entry.offset) {
      return Status::InvalidArgument(
          origin + ": section " + SectionName(entry.id) +
          " extends past the end of the file");
    }
    for (size_t j = 0; j < i; ++j) {
      if (table[j].id == entry.id) {
        return Status::InvalidArgument(origin + ": duplicate section " +
                                       SectionName(entry.id));
      }
    }
    if (Crc32c(bytes.substr(entry.offset, entry.length)) != entry.crc) {
      return Status::InvalidArgument(origin + ": section " +
                                     SectionName(entry.id) +
                                     " CRC mismatch");
    }
  }
  const auto find_section = [&](uint32_t id) -> const SectionEntry* {
    for (const SectionEntry& entry : table) {
      if (entry.id == id) return &entry;
    }
    return nullptr;
  };
  const auto section_reader = [&](const SectionEntry& entry) {
    return BinarySpanReader(bytes.substr(entry.offset, entry.length),
                            origin + " section " + SectionName(entry.id));
  };
  for (uint32_t id : {kMeta, kGraph, kAttributes, kHierarchy}) {
    if (find_section(id) == nullptr) {
      return Status::InvalidArgument(origin + ": missing section " +
                                     SectionName(id));
    }
  }
  const SectionEntry* himor_entry = find_section(kHimor);
  if ((himor_entry != nullptr) == snap.meta.degraded) {
    return Status::InvalidArgument(
        origin + ": HIMOR section presence contradicts the degraded flag");
  }
  const SectionEntry* sketch_entry = find_section(kSketch);
  if (sketch_entry != nullptr && himor_entry == nullptr) {
    return Status::InvalidArgument(
        origin + ": sketch section without the HIMOR index it belongs to");
  }

  // Decode, requiring each decoder to consume its section exactly.
  {
    BinarySpanReader meta_in = section_reader(*find_section(kMeta));
    if (!DeserializeMeta(meta_in, &snap.meta)) return meta_in.status();
    if (!meta_in.exhausted()) {
      meta_in.Fail("trailing bytes");
      return meta_in.status();
    }
  }
  {
    BinarySpanReader graph_in = section_reader(*find_section(kGraph));
    Result<Graph> graph = DeserializeGraph(graph_in);
    if (!graph.ok()) return graph.status();
    if (!graph_in.exhausted()) {
      graph_in.Fail("trailing bytes");
      return graph_in.status();
    }
    snap.graph = std::move(graph).value();
  }
  {
    BinarySpanReader attrs_in = section_reader(*find_section(kAttributes));
    Result<AttributeTable> attrs = DeserializeAttributes(attrs_in);
    if (!attrs.ok()) return attrs.status();
    if (!attrs_in.exhausted()) {
      attrs_in.Fail("trailing bytes");
      return attrs_in.status();
    }
    snap.attributes = std::move(attrs).value();
  }
  {
    BinarySpanReader tree_in = section_reader(*find_section(kHierarchy));
    Result<Dendrogram> tree = DeserializeDendrogram(tree_in);
    if (!tree.ok()) return tree.status();
    if (!tree_in.exhausted()) {
      tree_in.Fail("trailing bytes");
      return tree_in.status();
    }
    snap.hierarchy.emplace(std::move(tree).value());
  }
  if (himor_entry != nullptr) {
    BinarySpanReader himor_in = section_reader(*himor_entry);
    Result<HimorIndex> himor = HimorIndex::Deserialize(himor_in);
    if (!himor.ok()) return himor.status();
    if (!himor_in.exhausted()) {
      himor_in.Fail("trailing bytes");
      return himor_in.status();
    }
    snap.himor.emplace(std::move(himor).value());
  }
  if (sketch_entry != nullptr) {
    BinarySpanReader sketch_in = section_reader(*sketch_entry);
    Result<CoverageSketchIndex> sketch =
        CoverageSketchIndex::Deserialize(sketch_in);
    if (!sketch.ok()) return sketch.status();
    if (!sketch_in.exhausted()) {
      sketch_in.Fail("trailing bytes");
      return sketch_in.status();
    }
    snap.sketch.emplace(std::move(sketch).value());
  }

  // Cross-section consistency: the fingerprint and every decoded part must
  // describe the same world.
  const uint64_t num_nodes = snap.graph.NumNodes();
  if (snap.meta.num_nodes != num_nodes ||
      snap.meta.num_edges != snap.graph.NumEdges() ||
      snap.attributes.NumNodes() != num_nodes ||
      snap.hierarchy->NumLeaves() != num_nodes ||
      (snap.himor.has_value() && snap.himor->NumNodes() != num_nodes) ||
      (snap.sketch.has_value() &&
       (snap.sketch->NumNodes() != num_nodes ||
        snap.sketch->theta() != snap.meta.engine_theta))) {
    return Status::InvalidArgument(origin +
                                   ": sections describe different graphs");
  }
  return snap;
}

Status WriteEpochSnapshotFile(const std::string& path,
                              std::string_view bytes) {
  if (COD_FAILPOINT("storage/snapshot_write")) {
    return Status::IoError("failpoint storage/snapshot_write armed");
  }
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return CloseAndFail(fd, tmp,
                          "write to " + tmp + " failed: " +
                              std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  // The fsync failpoint models a crash/disk failure between writing the
  // bytes and making them durable: the temp file is discarded, the final
  // path untouched.
  if (COD_FAILPOINT("storage/snapshot_fsync")) {
    return CloseAndFail(fd, tmp, "failpoint storage/snapshot_fsync armed");
  }
  if (::fsync(fd) != 0) {
    return CloseAndFail(fd, tmp,
                        "fsync " + tmp + " failed: " + std::strerror(errno));
  }
  if (::close(fd) != 0) {
    return CloseAndFail(-1, tmp,
                        "close " + tmp + " failed: " + std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return CloseAndFail(-1, tmp,
                        "rename " + tmp + " -> " + path + " failed: " +
                            std::strerror(errno));
  }
  // Make the rename itself durable: fsync the parent directory.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    return Status::IoError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const bool dir_synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!dir_synced) {
    return Status::IoError("fsync directory " + dir + " failed");
  }
  return Status::Ok();
}

Result<DecodedEpochSnapshot> LoadEpochSnapshotFile(const std::string& path) {
  if (COD_FAILPOINT("storage/snapshot_load")) {
    return Status::IoError("failpoint storage/snapshot_load armed");
  }
  Result<std::string> bytes = ReadFileBytes(path);
  if (!bytes.ok()) return bytes.status();
  return DecodeEpochSnapshot(*bytes, path);
}

}  // namespace cod
