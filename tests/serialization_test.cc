#include <fstream>

#include <gtest/gtest.h>

#include "core/engine_core.h"
#include "core/himor.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "hierarchy/agglomerative.h"
#include "hierarchy/dendrogram_io.h"
#include "hierarchy/lca.h"
#include "tests/test_util.h"

namespace cod {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(DendrogramIoTest, RoundTripPreservesStructure) {
  Rng rng(1);
  const Graph g = EnsureConnected(ErdosRenyi(150, 400, rng), rng);
  const Dendrogram original = AgglomerativeCluster(g);
  const std::string path = TempPath("dendrogram.bin");
  ASSERT_TRUE(SaveDendrogram(original, path).ok());
  Result<Dendrogram> loaded = LoadDendrogram(path);
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
  const std::string path = TempPath("paper_dendrogram.bin");
  ASSERT_TRUE(SaveDendrogram(ex.dendrogram, path).ok());
  Result<Dendrogram> loaded = LoadDendrogram(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Children(ex.c0).size(), 4u);
}

TEST(DendrogramIoTest, RejectsGarbage) {
  const std::string path = TempPath("garbage.bin");
  std::ofstream(path, std::ios::binary) << "this is not a dendrogram";
  Result<Dendrogram> r = LoadDendrogram(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DendrogramIoTest, RejectsMissingFile) {
  Result<Dendrogram> r = LoadDendrogram("/no/such/file.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(DendrogramIoTest, RejectsTruncatedFile) {
  Rng rng(2);
  const Graph g = EnsureConnected(ErdosRenyi(40, 120, rng), rng);
  const Dendrogram original = AgglomerativeCluster(g);
  const std::string path = TempPath("full.bin");
  ASSERT_TRUE(SaveDendrogram(original, path).ok());
  // Truncate to half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  const std::string cut = TempPath("truncated.bin");
  std::ofstream(cut, std::ios::binary)
      << bytes.substr(0, bytes.size() / 2);
  Result<Dendrogram> r = LoadDendrogram(cut);
  ASSERT_FALSE(r.ok());
}

TEST(HimorIoTest, RoundTripAnswersIdentically) {
  Rng rng(3);
  const Graph g = EnsureConnected(ErdosRenyi(100, 300, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  const HimorIndex original =
      testing::BuildHimorIndex(m, d, lca, 10, rng);
  const std::string path = TempPath("himor.bin");
  ASSERT_TRUE(original.Save(path).ok());
  Result<HimorIndex> loaded = HimorIndex::Load(path);
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
  const std::string path = TempPath("bad_himor.bin");
  std::ofstream(path, std::ios::binary) << "nope";
  Result<HimorIndex> r = HimorIndex::Load(path);
  ASSERT_FALSE(r.ok());
}

TEST(EngineHimorIoTest, SaveLoadServesQueries) {
  Rng gen_rng(4);
  HppParams params;
  params.num_nodes = 300;
  params.num_edges = 1200;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, gen_rng);
  const AttributeTable attrs =
      AssignCorrelatedAttributes(gen.block, 5, 0.8, 0.1, gen_rng);

  EngineCore writer_engine(gen.graph, attrs, {});
  Rng rng(5);
  writer_engine.BuildHimor(rng);
  const std::string path = TempPath("engine_himor.bin");
  ASSERT_TRUE(writer_engine.SaveHimor(path).ok());

  EngineCore reader_engine(gen.graph, attrs, {});
  ASSERT_TRUE(reader_engine.LoadHimor(path).ok());
  // Same graph + same seed: the loaded-index engine must answer exactly as
  // the builder engine.
  QueryWorkspace ws_a(writer_engine, 6);
  QueryWorkspace ws_b(reader_engine, 6);
  for (NodeId q = 0; q < 20; ++q) {
    const auto node_attrs = attrs.AttributesOf(q);
    if (node_attrs.empty()) continue;
    const CodResult a = writer_engine.Query(
        {.variant = CodVariant::kCodL, .node = q, .k = 5,
         .attrs = {node_attrs[0]}},
        ws_a);
    const CodResult b = reader_engine.Query(
        {.variant = CodVariant::kCodL, .node = q, .k = 5,
         .attrs = {node_attrs[0]}},
        ws_b);
    EXPECT_EQ(a.found, b.found);
    EXPECT_EQ(a.members, b.members);
  }
}

TEST(EngineHimorIoTest, SaveWithoutBuildFails) {
  const auto ex = testing::MakePaperExample();
  AttributeTableBuilder ab;
  ab.Add(0, "X");
  const AttributeTable attrs = std::move(ab).Build(10);
  EngineCore engine(ex.graph, attrs, {});
  EXPECT_EQ(engine.SaveHimor(TempPath("never.bin")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(EngineHimorIoTest, LoadRejectsWrongGraph) {
  Rng rng(7);
  const Graph g1 = EnsureConnected(ErdosRenyi(50, 150, rng), rng);
  const Graph g2 = EnsureConnected(ErdosRenyi(60, 180, rng), rng);
  AttributeTableBuilder a1;
  a1.Add(0, "X");
  const AttributeTable attrs1 = std::move(a1).Build(50);
  AttributeTableBuilder a2;
  a2.Add(0, "X");
  const AttributeTable attrs2 = std::move(a2).Build(60);
  EngineCore e1(g1, attrs1, {});
  EngineCore e2(g2, attrs2, {});
  Rng build_rng(8);
  e1.BuildHimor(build_rng);
  const std::string path = TempPath("mismatch.bin");
  ASSERT_TRUE(e1.SaveHimor(path).ok());
  EXPECT_EQ(e2.LoadHimor(path).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Corruption properties. The checksummed file envelope (magic | version |
// size | payload | CRC32C) covers every byte, so ANY single-byte flip and
// ANY truncation must fail with a clean InvalidArgument — never a crash,
// never a silently different structure. CI runs this suite under
// ASan/UBSan, which turns "never a crash" into a memory-safety proof.
// ---------------------------------------------------------------------------

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary).write(
      bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DendrogramIoTest, EverySingleByteFlipFailsCleanly) {
  Rng rng(11);
  const Graph g = EnsureConnected(ErdosRenyi(60, 180, rng), rng);
  const Dendrogram original = AgglomerativeCluster(g);
  const std::string path = TempPath("flip_base.bin");
  ASSERT_TRUE(SaveDendrogram(original, path).ok());
  const std::string pristine = ReadBytes(path);
  ASSERT_FALSE(pristine.empty());
  const std::string damaged_path = TempPath("flip_damaged.bin");
  // Exhaustive over the envelope header, strided over the payload.
  for (size_t off = 0; off < pristine.size();
       off += (off < 32 ? 1 : 13)) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ (1u << (off % 8)));
    WriteBytes(damaged_path, damaged);
    Result<Dendrogram> r = LoadDendrogram(damaged_path);
    ASSERT_FALSE(r.ok()) << "flip at offset " << off << " loaded";
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << "offset " << off << ": " << r.status().ToString();
  }
}

TEST(DendrogramIoTest, EveryTruncationFailsCleanly) {
  Rng rng(12);
  const Graph g = EnsureConnected(ErdosRenyi(50, 140, rng), rng);
  const Dendrogram original = AgglomerativeCluster(g);
  const std::string path = TempPath("cut_base.bin");
  ASSERT_TRUE(SaveDendrogram(original, path).ok());
  const std::string pristine = ReadBytes(path);
  const std::string cut_path = TempPath("cut_damaged.bin");
  for (size_t len = 0; len < pristine.size();
       len += (len < 32 ? 1 : 17)) {
    WriteBytes(cut_path, pristine.substr(0, len));
    Result<Dendrogram> r = LoadDendrogram(cut_path);
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " loaded";
  }
}

TEST(HimorIoTest, FlipsAndTruncationsFailCleanly) {
  Rng rng(13);
  const Graph g = EnsureConnected(ErdosRenyi(60, 180, rng), rng);
  const Dendrogram d = AgglomerativeCluster(g);
  const LcaIndex lca(d);
  const DiffusionModel m = DiffusionModel::WeightedCascadeIc(g);
  const HimorIndex original =
      testing::BuildHimorIndex(m, d, lca, 6, rng);
  const std::string path = TempPath("himor_base.bin");
  ASSERT_TRUE(original.Save(path).ok());
  const std::string pristine = ReadBytes(path);
  const std::string damaged_path = TempPath("himor_damaged.bin");
  for (size_t off = 0; off < pristine.size();
       off += (off < 32 ? 1 : 29)) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x80);
    WriteBytes(damaged_path, damaged);
    Result<HimorIndex> r = HimorIndex::Load(damaged_path);
    ASSERT_FALSE(r.ok()) << "flip at offset " << off << " loaded";
  }
  for (size_t len = 0; len < pristine.size();
       len += (len < 32 ? 1 : 31)) {
    WriteBytes(damaged_path, pristine.substr(0, len));
    Result<HimorIndex> r = HimorIndex::Load(damaged_path);
    ASSERT_FALSE(r.ok()) << "truncation to " << len << " loaded";
  }
}

}  // namespace
}  // namespace cod
