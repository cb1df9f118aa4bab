// Payload codecs of the epoch snapshot sections (hierarchy and HIMOR) and
// the restore boundary behind them: round trips, hostile bytes, and
// EngineCore::FromPrebuilt's check of a decoded index against its
// hierarchy. The snapshot container's own CRCs are tested in
// snapshot_test.cc; here the bytes reach the decoders with no CRC in front,
// so every flip exercises the structural checks.

#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "common/binary_io.h"
#include "core/engine_core.h"
#include "core/himor.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "hierarchy/agglomerative.h"
#include "hierarchy/dendrogram_io.h"
#include "hierarchy/lca.h"
#include "storage/epoch_snapshot.h"
#include "tests/test_util.h"

namespace cod {
namespace {

std::string DendrogramBytes(const Dendrogram& dendrogram) {
  BinaryBufferWriter out;
  SerializeDendrogram(dendrogram, out);
  return std::move(out).TakeBytes();
}

std::string HimorBytes(const HimorIndex& index) {
  BinaryBufferWriter out;
  index.SerializeTo(out);
  return std::move(out).TakeBytes();
}

// Decodes one payload the way the snapshot decoder does: the codec must
// succeed and consume every byte.
Result<Dendrogram> DecodeDendrogram(std::string_view bytes) {
  BinarySpanReader in(bytes, "dendrogram");
  Result<Dendrogram> dendrogram = DeserializeDendrogram(in);
  if (dendrogram.ok() && !in.exhausted()) in.Fail("trailing bytes");
  if (!in.ok()) return in.status();
  return dendrogram;
}

Result<HimorIndex> DecodeHimor(std::string_view bytes) {
  BinarySpanReader in(bytes, "himor");
  Result<HimorIndex> index = HimorIndex::Deserialize(in);
  if (index.ok() && !in.exhausted()) in.Fail("trailing bytes");
  if (!in.ok()) return in.status();
  return index;
}

// A connected random graph with two attributes, shared so FromPrebuilt can
// restore cores over it.
struct World {
  std::shared_ptr<const Graph> graph;
  std::shared_ptr<const AttributeTable> attrs;
};

World MakeWorld(uint64_t seed, size_t n, size_t m) {
  Rng rng(seed);
  World w;
  w.graph = std::make_shared<const Graph>(
      EnsureConnected(ErdosRenyi(n, m, rng), rng));
  AttributeTableBuilder ab;
  for (NodeId v = 0; v < n; ++v) ab.Add(v, v % 3 == 0 ? "X" : "Y");
  w.attrs = std::make_shared<const AttributeTable>(std::move(ab).Build(n));
  return w;
}

// Restores a core over `built`'s graph, attributes and hierarchy with the
// HIMOR index decoded from `himor_bytes`; the decode or the restore may
// refuse it.
Result<std::unique_ptr<EngineCore>> RestoreWithIndex(
    const World& w, const EngineCore& built, std::string_view himor_bytes) {
  Result<HimorIndex> index = DecodeHimor(himor_bytes);
  if (!index.ok()) return index.status();
  return EngineCore::FromPrebuilt(
      w.graph, w.attrs, built.options(),
      DecodeDendrogram(DendrogramBytes(built.base_hierarchy())).value(),
      std::move(index).value(), std::nullopt,
      /*index_absent_degraded=*/false);
}

TEST(DendrogramIoTest, RoundTripPreservesStructure) {
  Rng rng(1);
  const Graph g = EnsureConnected(ErdosRenyi(150, 400, rng), rng);
  const Dendrogram original = AgglomerativeCluster(g);
  Result<Dendrogram> loaded = DecodeDendrogram(DendrogramBytes(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->NumVertices(), original.NumVertices());
  ASSERT_EQ(loaded->NumLeaves(), original.NumLeaves());
  EXPECT_EQ(loaded->Root(), original.Root());
  for (CommunityId c = 0; c < original.NumVertices(); ++c) {
    EXPECT_EQ(loaded->Parent(c), original.Parent(c));
    EXPECT_EQ(loaded->Depth(c), original.Depth(c));
    EXPECT_EQ(loaded->LeafCount(c), original.LeafCount(c));
  }
  for (NodeId v = 0; v < original.NumLeaves(); ++v) {
    EXPECT_EQ(loaded->PathToRoot(v), original.PathToRoot(v));
  }
}

TEST(DendrogramIoTest, MultiWayVerticesSurvive) {
  const auto ex = testing::MakePaperExample();  // C0 has 4 children
  Result<Dendrogram> loaded = DecodeDendrogram(DendrogramBytes(ex.dendrogram));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Children(ex.c0).size(), 4u);
}

TEST(DendrogramIoTest, RejectsGarbage) {
  Result<Dendrogram> r = DecodeDendrogram("this is not a dendrogram");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DendrogramIoTest, RejectsTruncatedPayload) {
  Rng rng(2);
  const Graph g = EnsureConnected(ErdosRenyi(40, 120, rng), rng);
  const std::string bytes = DendrogramBytes(AgglomerativeCluster(g));
  Result<Dendrogram> r = DecodeDendrogram(bytes.substr(0, bytes.size() / 2));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(HimorIoTest, RoundTripAnswersIdentically) {
  Rng rng(3);
  const Graph g = EnsureConnected(ErdosRenyi(100, 300, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  const HimorIndex original = testing::BuildHimorIndex(m, d, lca, 10, rng);
  Result<HimorIndex> loaded = DecodeHimor(HimorBytes(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->max_rank(), original.max_rank());
  EXPECT_EQ(loaded->NumEntries(), original.NumEntries());
  EXPECT_EQ(loaded->NumNodes(), original.NumNodes());
  for (NodeId v = 0; v < 100; ++v) {
    const auto a = original.RanksOf(v);
    const auto b = loaded->RanksOf(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].community, b[i].community);
      EXPECT_EQ(a[i].rank, b[i].rank);
    }
  }
}

TEST(HimorIoTest, RejectsGarbage) {
  Result<HimorIndex> r = DecodeHimor("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// The whole snapshot path a restart takes: encode the core, decode the
// container, reassemble with FromPrebuilt. The restored core answers
// exactly as the one that built the index.
TEST(EngineSnapshotTest, RestoredCoreServesQueriesIdentically) {
  Rng gen_rng(4);
  HppParams params;
  params.num_nodes = 300;
  params.num_edges = 1200;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, gen_rng);
  const AttributeTable attrs =
      AssignCorrelatedAttributes(gen.block, 5, 0.8, 0.1, gen_rng);

  EngineCore writer(gen.graph, attrs, {});
  Rng rng(5);
  writer.BuildHimor(rng);
  Result<DecodedEpochSnapshot> snap = DecodeEpochSnapshot(
      EncodeEpochSnapshot(EpochSnapshotMeta{}, writer), "engine-roundtrip");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  Result<std::unique_ptr<EngineCore>> reader = EngineCore::FromPrebuilt(
      std::make_shared<const Graph>(std::move(snap->graph)),
      std::make_shared<const AttributeTable>(std::move(snap->attributes)),
      writer.options(), std::move(*snap->hierarchy), std::move(snap->himor),
      std::move(snap->sketch), snap->meta.degraded);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();

  QueryWorkspace ws_a(writer, 6);
  QueryWorkspace ws_b(**reader, 6);
  for (NodeId q = 0; q < 20; ++q) {
    const auto node_attrs = attrs.AttributesOf(q);
    if (node_attrs.empty()) continue;
    const QuerySpec spec{.variant = CodVariant::kCodL, .node = q, .k = 5,
                         .attrs = {node_attrs[0]}};
    const CodResult a = writer.Query(spec, ws_a);
    const CodResult b = (*reader)->Query(spec, ws_b);
    EXPECT_TRUE(testing::SameResult(a, b)) << "node " << q;
  }
}

TEST(HimorIoTest, FromPrebuiltRejectsIndexOfAnotherGraph) {
  const World w1 = MakeWorld(7, 50, 150);
  const World w2 = MakeWorld(8, 60, 180);
  EngineCore e1(w1.graph, w1.attrs, {});
  EngineCore e2(w2.graph, w2.attrs, {});
  Rng build_rng(8);
  e1.BuildHimor(build_rng);
  Result<std::unique_ptr<EngineCore>> r =
      RestoreWithIndex(w2, e2, HimorBytes(*e1.himor()));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A HIMOR payload whose CSR shape is intact but whose entries lie about the
// hierarchy: Deserialize cannot tell, FromPrebuilt must. Each forgery below
// decodes; restoring it is refused.
TEST(HimorIoTest, ForgedEntriesDecodeButFromPrebuiltRefusesThem) {
  const World w = MakeWorld(9, 80, 240);
  EngineCore core(w.graph, w.attrs, {});
  Rng rng(10);
  core.BuildHimor(rng);
  const HimorIndex& index = *core.himor();
  const Dendrogram& tree = core.base_hierarchy();
  const std::string pristine = HimorBytes(index);
  ASSERT_TRUE(RestoreWithIndex(w, core, pristine).ok());

  // Payload layout: u32 max_rank | u64 n+1 | offsets | u64 count | entries.
  const size_t entries_at =
      sizeof(uint32_t) + 2 * sizeof(uint64_t) +
      (index.NumNodes() + 1) * sizeof(uint64_t);
  NodeId v = 0;
  while (index.RanksOf(v).size() < 2) ++v;  // a node with two entries
  const size_t first = static_cast<size_t>(index.RanksOf(v).data() -
                                           index.RanksOf(0).data());
  const auto entry_at = [&](size_t j) {
    return entries_at + j * sizeof(HimorIndex::Entry);
  };
  const auto forge = [&](size_t j, HimorIndex::Entry entry) {
    std::string bytes = pristine;
    std::memcpy(bytes.data() + entry_at(j), &entry, sizeof(entry));
    return bytes;
  };
  const HimorIndex::Entry e0 = index.RanksOf(v)[0];
  const HimorIndex::Entry e1 = index.RanksOf(v)[1];
  const struct {
    const char* what;
    std::string bytes;
  } forgeries[] = {
      {"community past the hierarchy",
       forge(first, {static_cast<CommunityId>(tree.NumVertices()), e0.rank})},
      {"community = the node's own leaf",
       forge(first, {tree.LeafOf(v), e0.rank})},
      {"community off the node's chain",
       forge(first, {tree.LeafOf(v == 0 ? 1 : 0), e0.rank})},
      {"rank at max_rank", forge(first, {e0.community, index.max_rank()})},
      {"entries root-first", [&] {
         std::string bytes = forge(first, e1);
         std::memcpy(bytes.data() + entry_at(first + 1), &e0, sizeof(e0));
         return bytes;
       }()},
  };
  for (const auto& forged : forgeries) {
    ASSERT_TRUE(DecodeHimor(forged.bytes).ok()) << forged.what;
    Result<std::unique_ptr<EngineCore>> r =
        RestoreWithIndex(w, core, forged.bytes);
    ASSERT_FALSE(r.ok()) << forged.what << " was restored";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << forged.what;
  }
}

// ---------------------------------------------------------------------------
// Corruption properties, with no CRC in front of the decoders. A damaged
// hierarchy payload must fail with a clean InvalidArgument — never a crash,
// never a silently different structure. A damaged HIMOR payload must be
// refused by Deserialize or FromPrebuilt, or else restore into a core that
// answers without touching memory it does not own (some flips, e.g. in
// max_rank, leave a well-formed index). CI runs this suite under
// ASan/UBSan, which turns "never a crash" into a memory-safety proof.
// ---------------------------------------------------------------------------

TEST(DendrogramIoTest, EverySingleByteFlipFailsCleanly) {
  Rng rng(11);
  const Graph g = EnsureConnected(ErdosRenyi(60, 180, rng), rng);
  const std::string pristine = DendrogramBytes(AgglomerativeCluster(g));
  // Exhaustive over the header and the first children lists, strided over
  // the rest.
  for (size_t off = 0; off < pristine.size(); off += (off < 32 ? 1 : 13)) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ (1u << (off % 8)));
    Result<Dendrogram> r = DecodeDendrogram(damaged);
    ASSERT_FALSE(r.ok()) << "flip at offset " << off << " loaded";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "offset " << off << ": " << r.status().ToString();
  }
}

TEST(DendrogramIoTest, EveryTruncationFailsCleanly) {
  Rng rng(12);
  const Graph g = EnsureConnected(ErdosRenyi(50, 140, rng), rng);
  const std::string pristine = DendrogramBytes(AgglomerativeCluster(g));
  for (size_t len = 0; len < pristine.size(); len += (len < 32 ? 1 : 17)) {
    Result<Dendrogram> r = DecodeDendrogram(pristine.substr(0, len));
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " loaded";
  }
}

TEST(HimorIoTest, FlipsAndTruncationsAreRefusedOrHarmless) {
  const World w = MakeWorld(13, 60, 180);
  EngineOptions options;
  options.theta = 6;
  EngineCore core(w.graph, w.attrs, options);
  Rng rng(14);
  core.BuildHimor(rng);
  const std::string pristine = HimorBytes(*core.himor());
  size_t refused = 0;
  size_t flips = 0;
  for (size_t off = 0; off < pristine.size(); off += (off < 32 ? 1 : 29)) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x80);
    ++flips;
    Result<std::unique_ptr<EngineCore>> r =
        RestoreWithIndex(w, core, damaged);
    if (!r.ok()) {
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
      ++refused;
      continue;
    }
    // Restored: every index-reading path must run clean.
    const EngineCore& restored = **r;
    QueryWorkspace ws(restored, off);
    for (NodeId q = 0; q < w.graph->NumNodes(); q += 7) {
      (void)restored.Query({.variant = CodVariant::kCodUIndexed, .node = q},
                           ws);
      (void)restored.ExplainCodL(q, 0, 0, ws);
    }
    (void)restored.FindTopPromoters(0, 5, 0);
  }
  // Most flips hit offsets or entries and are refused outright.
  EXPECT_GT(refused * 2, flips);
  for (size_t len = 0; len < pristine.size(); len += (len < 32 ? 1 : 31)) {
    Result<HimorIndex> r = DecodeHimor(pristine.substr(0, len));
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " loaded";
  }
}

TEST(SnapshotFileTest, MissingFileIsIoError) {
  Result<DecodedEpochSnapshot> r = LoadEpochSnapshotFile("/no/such/file.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace cod
