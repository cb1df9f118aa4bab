// Durable epoch snapshots: container integrity, crash-safe publication,
// corruption quarantine + fallback, and bit-identical warm restart.
//
// The corruption suite leans on the format's total CRC coverage: every byte
// of a snapshot file is covered by either the header CRC or exactly one
// section CRC, so ANY single-byte flip (and any truncation) must produce a
// clean decode error — never a crash, never a silently different engine.
// CI shards shift the fuzz offsets via COD_FUZZ_SEED; failing corruption
// cases copy the offending bytes to COD_SNAPSHOT_ARTIFACT_DIR when set.

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/task_scheduler.h"
#include "serving/dynamic_service.h"
#include "core/query_workspace.h"
#include "graph/generators.h"
#include "storage/epoch_snapshot.h"
#include "storage/snapshot_store.h"
#include "tests/test_util.h"

namespace cod {
namespace {

namespace fs = std::filesystem;

uint64_t FuzzSeed() {
  const char* env = std::getenv("COD_FUZZ_SEED");
  return env == nullptr ? 0 : std::strtoull(env, nullptr, 10);
}

// Copies a snapshot that misbehaved (plus its quarantined twin, if any) to
// the CI artifact directory so the exact failing bytes ship with the run.
void SaveArtifact(const std::string& path) {
  const char* dir = std::getenv("COD_SNAPSHOT_ARTIFACT_DIR");
  if (dir == nullptr) return;
  std::error_code ec;
  fs::create_directories(dir, ec);
  for (const std::string& p : {path, path + ".corrupt"}) {
    if (fs::exists(p, ec)) {
      fs::copy_file(p, std::string(dir) + "/" + fs::path(p).filename().string(),
                    fs::copy_options::overwrite_existing, ec);
    }
  }
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/snapshot_test-" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct World {
  Graph graph;
  AttributeTable attrs;
};

World MakeWorld(uint64_t seed) {
  Rng rng(seed);
  HppParams params;
  params.num_nodes = 120;
  params.num_edges = 450;
  params.levels = 2;
  params.fanout = 3;
  GeneratedGraph gen = HierarchicalPlantedPartition(params, rng);
  World w;
  w.attrs = AssignCorrelatedAttributes(gen.block, 4, 0.8, 0.1, rng);
  w.graph = std::move(gen.graph);
  return w;
}

ServiceOptions SnapshotOptions(const std::string& dir) {
  ServiceOptions options;
  options.rebuild_threshold = 0.5;
  options.seed = 7;
  options.snapshot_dir = dir;
  options.snapshots_keep = 2;
  return options;
}

// The determinism probe: CODL + CODU answers for every attributed node,
// from a fresh workspace with a fixed seed. Two cores that answer this
// probe identically (same seed) are serving the same world.
struct ProbeAnswer {
  bool found;
  std::vector<NodeId> members;
  uint32_t rank;
  bool answered_from_index;
  bool degraded;

  bool operator==(const ProbeAnswer& o) const {
    return found == o.found && members == o.members && rank == o.rank &&
           answered_from_index == o.answered_from_index &&
           degraded == o.degraded;
  }
};

std::vector<ProbeAnswer> Probe(const EngineCore& core, uint64_t seed) {
  QueryWorkspace ws(core, seed);
  std::vector<ProbeAnswer> out;
  for (NodeId q = 0; q < core.graph().NumNodes(); q += 3) {
    const auto attrs = core.attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    for (const CodResult& r :
         {core.Query({.variant = CodVariant::kCodL,
                      .node = q,
                      .k = 5,
                      .attrs = {attrs[0]}},
                     ws),
          core.Query({.variant = CodVariant::kCodU, .node = q, .k = 5}, ws)}) {
      out.push_back(ProbeAnswer{r.found, r.members, r.rank,
                                r.answered_from_index, r.degraded});
    }
  }
  return out;
}

uint64_t QuarantinedCount() {
  return MetricsRegistry::Instance()
      .GetCounter("cod_snapshot_corrupt_quarantined_total")
      ->Value();
}

// ---------------------------------------------------------------------------
// Container round trip and service integration.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, FirstEpochIsSnapshottedAndDecodes) {
  const std::string dir = FreshDir("first_epoch");
  World w = MakeWorld(1);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SnapshotOptions(dir));
  SnapshotStore store({dir, 2});
  const auto paths = store.ListSnapshots();
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0], store.PathForEpoch(1));

  Result<DecodedEpochSnapshot> snap = LoadEpochSnapshotFile(paths[0]);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->meta.epoch, 1u);
  EXPECT_EQ(snap->meta.build_index, 0u);
  EXPECT_EQ(snap->meta.seed, 7u);
  EXPECT_FALSE(snap->meta.degraded);
  const EngineCore& live = service.engine();
  EXPECT_EQ(snap->graph.NumNodes(), live.graph().NumNodes());
  EXPECT_EQ(snap->graph.NumEdges(), live.graph().NumEdges());
  EXPECT_EQ(snap->attributes.NumAttributes(),
            live.attributes().NumAttributes());
  EXPECT_EQ(snap->hierarchy->NumVertices(),
            live.base_hierarchy().NumVertices());
  ASSERT_TRUE(snap->himor.has_value());
  EXPECT_EQ(snap->himor->NumEntries(), live.himor()->NumEntries());
}

TEST(SnapshotTest, EveryPublishSnapshotsAndPrunesToKeep) {
  const std::string dir = FreshDir("prune");
  World w = MakeWorld(2);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SnapshotOptions(dir));
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(service.AddEdge(0, static_cast<NodeId>(60 + round)));
    ASSERT_TRUE(service.Refresh().ok());
  }
  EXPECT_EQ(service.epoch(), 4u);
  SnapshotStore store({dir, 2});
  const auto paths = store.ListSnapshots();
  ASSERT_EQ(paths.size(), 2u);  // keep=2: epochs 3 and 4 survive
  EXPECT_EQ(paths[0], store.PathForEpoch(3));
  EXPECT_EQ(paths[1], store.PathForEpoch(4));
}

// ---------------------------------------------------------------------------
// Warm restart.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, WarmRestartServesBitIdenticalAnswers) {
  const std::string dir = FreshDir("warm_restart");
  const ServiceOptions options = SnapshotOptions(dir);
  std::vector<ProbeAnswer> cold_answers;
  uint64_t cold_epoch = 0;
  {
    World w = MakeWorld(3);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_TRUE(service.AddEdge(1, 100, 2.0));
    ASSERT_TRUE(service.RemoveEdge(1, 100));
    ASSERT_TRUE(service.AddEdge(2, 90));
    ASSERT_TRUE(service.Refresh().ok());
    cold_epoch = service.epoch();
    cold_answers = Probe(*service.Snapshot().core, /*seed=*/99);
  }  // service destroyed: only the disk remains

  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  DynamicCodService& service = **recovered;
  EXPECT_EQ(service.epoch(), cold_epoch);
  EXPECT_FALSE(service.epoch_degraded());
  const std::vector<ProbeAnswer> warm_answers =
      Probe(*service.Snapshot().core, /*seed=*/99);
  ASSERT_EQ(warm_answers.size(), cold_answers.size());
  for (size_t i = 0; i < cold_answers.size(); ++i) {
    EXPECT_TRUE(warm_answers[i] == cold_answers[i]) << "probe " << i;
  }
}

TEST(SnapshotTest, WarmRestartDoesNotRewriteTheRecoveredEpoch) {
  // A warm restart serves the epoch it loaded; re-snapshotting it would be
  // a byte-identical duplicate write (and, with snapshots_keep pruning,
  // could evict an older epoch for nothing). Recovery must initialize the
  // dedupe watermark to the recovered epoch so no write happens until a
  // NEW epoch publishes.
  const std::string dir = FreshDir("warm_restart_dedupe");
  const ServiceOptions options = SnapshotOptions(dir);
  {
    World w = MakeWorld(6);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_TRUE(service.AddEdge(2, 90));
    ASSERT_TRUE(service.Refresh().ok());
  }  // crash: only the disk remains

  const auto list_files = [&dir] {
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const std::vector<std::string> files_before = list_files();
  Counter* writes =
      MetricsRegistry::Instance().GetCounter("cod_snapshot_writes_total");
  const uint64_t writes_before = writes->Value();

  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  DynamicCodService& service = **recovered;
  // Serving traffic must not trigger a write either.
  Probe(*service.Snapshot().core, /*seed=*/99);
  EXPECT_EQ(writes->Value(), writes_before);
  EXPECT_EQ(list_files(), files_before);

  // The next real publish resumes snapshotting as usual.
  ASSERT_TRUE(service.AddEdge(3, 80));
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(writes->Value(), writes_before + 1);
}

TEST(SnapshotTest, DeltaSnapshotsReuseUnchangedSections) {
  // Consecutive epochs of one service share the attribute table (and often
  // more) by pointer; the store's section cache must skip re-serializing
  // those sections while producing byte-identical files — reuse is an
  // encode-time shortcut, never a format change.
  const std::string dir = FreshDir("section_reuse");
  World w = MakeWorld(8);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SnapshotOptions(dir));
  Counter* reused = MetricsRegistry::Instance().GetCounter(
      "cod_snapshot_sections_reused_total");
  const uint64_t before = reused->Value();
  ASSERT_TRUE(service.AddEdge(2, 90));
  ASSERT_TRUE(service.Refresh().ok());
  // The attribute table is shared across epochs, so the second write
  // reuses at least that section's cached bytes.
  EXPECT_GT(reused->Value(), before);

  // Reuse is invisible in the bytes: the file decodes cleanly and carries
  // the same world the live core serves.
  SnapshotStore store({dir, 2});
  Result<DecodedEpochSnapshot> snap =
      LoadEpochSnapshotFile(store.PathForEpoch(2));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->meta.epoch, 2u);
  EXPECT_EQ(snap->graph.NumEdges(), service.engine().graph().NumEdges());
  EXPECT_EQ(snap->attributes.NumAttributes(),
            service.engine().attributes().NumAttributes());
}

TEST(SnapshotTest, RecoveredServiceKeepsRebuildDeterminism) {
  // Two histories: (a) one service applies updates U1 then U2 with a
  // rebuild after each; (b) a service applies U1, rebuilds, is destroyed,
  // recovers from its snapshot, then applies U2 and rebuilds. The final
  // epochs must answer identically — every build draws the same schedule
  // seed, so the second build's bytes depend on its graph alone.
  const auto u1 = [](DynamicCodService& s) {
    ASSERT_TRUE(s.AddEdge(3, 77));
    ASSERT_TRUE(s.AddEdge(5, 91));
  };
  const auto u2 = [](DynamicCodService& s) {
    ASSERT_TRUE(s.RemoveEdge(3, 77));
    ASSERT_TRUE(s.AddEdge(8, 64, 1.5));
  };

  const std::string dir_a = FreshDir("determinism_a");
  std::vector<ProbeAnswer> answers_a;
  {
    World w = MakeWorld(4);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              SnapshotOptions(dir_a));
    u1(service);
    ASSERT_TRUE(service.Refresh().ok());
    u2(service);
    ASSERT_TRUE(service.Refresh().ok());
    EXPECT_EQ(service.epoch(), 3u);
    answers_a = Probe(*service.Snapshot().core, 55);
  }

  const std::string dir_b = FreshDir("determinism_b");
  const ServiceOptions options_b = SnapshotOptions(dir_b);
  {
    World w = MakeWorld(4);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options_b);
    u1(service);
    ASSERT_TRUE(service.Refresh().ok());
  }
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options_b);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  u2(**recovered);
  ASSERT_TRUE((*recovered)->Refresh().ok());
  EXPECT_EQ((*recovered)->epoch(), 3u);
  const std::vector<ProbeAnswer> answers_b =
      Probe(*(*recovered)->Snapshot().core, 55);
  ASSERT_EQ(answers_b.size(), answers_a.size());
  for (size_t i = 0; i < answers_a.size(); ++i) {
    EXPECT_TRUE(answers_b[i] == answers_a[i]) << "probe " << i;
  }
}

TEST(SnapshotTest, RecoverRejectsMismatchedOptions) {
  const std::string dir = FreshDir("mismatch");
  ServiceOptions options = SnapshotOptions(dir);
  {
    World w = MakeWorld(5);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
  }
  options.seed = 8;  // different sampling stream: answers would change
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SnapshotTest, RecoverFromEmptyDirectoryIsNotFound) {
  const std::string dir = FreshDir("empty");
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(SnapshotOptions(dir));
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, DegradedEpochRoundTripsIndexAbsent) {
  const std::string dir = FreshDir("degraded");
  ServiceOptions options = SnapshotOptions(dir);
  {
    World w = MakeWorld(6);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_TRUE(service.AddEdge(0, 70));
    ScopedFailpoint fp("himor/build", 1);
    ASSERT_TRUE(service.Refresh().ok());  // publishes index-absent
    ASSERT_TRUE(service.epoch_degraded());
  }
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->epoch_degraded());
  const EngineCore& core = *(*recovered)->Snapshot().core;
  EXPECT_FALSE(core.index_present());
  EXPECT_TRUE(core.index_absent_degraded());
  // Degraded epochs still answer CODL via the compressed fallback.
  Rng rng(9);
  int found = 0;
  for (NodeId q = 0; q < 30; ++q) {
    const auto attrs = core.attributes().AttributesOf(q);
    if (attrs.empty()) continue;
    const CodResult r = (*recovered)->Query(
        {.variant = CodVariant::kCodL, .node = q, .k = 5, .attrs = {attrs[0]}},
        rng);
    EXPECT_EQ(r.code, StatusCode::kOk);
    EXPECT_TRUE(r.degraded);
    found += r.found;
  }
  EXPECT_GT(found, 0);
}

TEST(SnapshotTest, AsyncRebuildSnapshotsInBackground) {
  const std::string dir = FreshDir("async");
  {
    TaskScheduler scheduler(2);
    ServiceOptions options = SnapshotOptions(dir);
    options.async_rebuild = true;
    options.scheduler = &scheduler;
    World w = MakeWorld(7);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              options);
    ASSERT_TRUE(service.AddEdge(4, 80));
    ASSERT_TRUE(service.RefreshAsync());
    service.WaitForRebuild();
    EXPECT_EQ(service.epoch(), 2u);
  }  // dtor joins the maintenance-priority snapshot tasks
  // Strict priority means the epoch-1 snapshot may still have been queued
  // when epoch 2 published; the write for a superseded epoch is skipped by
  // design. The invariant is: the NEWEST epoch is always on disk.
  SnapshotStore store({dir, 2});
  const auto paths = store.ListSnapshots();
  ASSERT_GE(paths.size(), 1u);
  EXPECT_EQ(paths.back(), store.PathForEpoch(2));
  Result<DecodedEpochSnapshot> snap = LoadEpochSnapshotFile(paths.back());
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->meta.epoch, 2u);
}

// ---------------------------------------------------------------------------
// Crash safety.
// ---------------------------------------------------------------------------

TEST(SnapshotTest, FailedWriteLeavesNoPartialSnapshot) {
  const std::string dir = FreshDir("failed_write");
  Counter* failures = MetricsRegistry::Instance().GetCounter(
      "cod_snapshot_write_failures_total");
  const uint64_t failures_before = failures->Value();
  World w = MakeWorld(8);
  DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                            SnapshotOptions(dir));
  {
    // The fsync failpoint models a crash between write and durability: the
    // publish must still succeed, and the directory must show either the
    // old state or nothing — never a partial file.
    ScopedFailpoint fp("storage/snapshot_fsync", 1);
    ASSERT_TRUE(service.AddEdge(0, 88));
    ASSERT_TRUE(service.Refresh().ok());
  }
  EXPECT_EQ(service.epoch(), 2u);  // publication unaffected
  EXPECT_EQ(failures->Value(), failures_before + 1);
  SnapshotStore store({dir, 2});
  const auto paths = store.ListSnapshots();
  ASSERT_EQ(paths.size(), 1u);  // only epoch 1; epoch 2's write died
  EXPECT_EQ(paths[0], store.PathForEpoch(1));
  // No temp debris either: the failed write unlinked its temp file.
  size_t stray = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    stray += entry.path().extension() == ".tmp";
  }
  EXPECT_EQ(stray, 0u);
  // The next publish snapshots normally again.
  ASSERT_TRUE(service.AddEdge(1, 89));
  ASSERT_TRUE(service.Refresh().ok());
  EXPECT_EQ(store.ListSnapshots().size(), 2u);
}

TEST(SnapshotTest, InterruptedWriteDebrisIsInvisibleAndCleaned) {
  const std::string dir = FreshDir("debris");
  World w = MakeWorld(9);
  {
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              SnapshotOptions(dir));
  }
  // Simulate a crash mid-write: a half-written temp file next to the good
  // snapshot.
  WriteFile(dir + "/epoch-00000000000000000002.cods.tmp", "partial bytes");
  SnapshotStore store({dir, 2});  // construction sweeps ".tmp" leftovers
  EXPECT_FALSE(fs::exists(dir + "/epoch-00000000000000000002.cods.tmp"));
  const auto paths = store.ListSnapshots();
  ASSERT_EQ(paths.size(), 1u);  // the debris never counted as a snapshot
  EXPECT_TRUE(LoadEpochSnapshotFile(paths[0]).ok());
}

// ---------------------------------------------------------------------------
// Corruption: quarantine and fallback.
// ---------------------------------------------------------------------------

// A snapshot file for corruption experiments, written once per suite run.
std::string PristineSnapshot() {
  static const std::string bytes = [] {
    const std::string dir = FreshDir("pristine");
    World w = MakeWorld(10);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              SnapshotOptions(dir));
    return ReadFile(SnapshotStore({dir, 2}).PathForEpoch(1));
  }();
  return bytes;
}

// Expects `bytes` (a damaged snapshot) to fail decoding cleanly AND to be
// quarantined with fallback by a store that holds only this file.
void ExpectQuarantine(const std::string& bytes, const std::string& label) {
  const std::string dir = FreshDir("quarantine");
  SnapshotStore store({dir, 2});
  const std::string path = store.PathForEpoch(1);
  WriteFile(path, bytes);
  const uint64_t before = QuarantinedCount();
  Result<SnapshotStore::LoadedSnapshot> loaded = store.LoadNewest();
  if (loaded.ok()) {
    SaveArtifact(path);
    ADD_FAILURE() << label << ": corrupt snapshot decoded successfully";
    return;
  }
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound) << label;
  EXPECT_EQ(QuarantinedCount(), before + 1) << label;
  EXPECT_FALSE(fs::exists(path)) << label;
  EXPECT_TRUE(fs::exists(path + ".corrupt")) << label;
}

TEST(SnapshotCorruptionTest, EverySingleByteFlipFailsCleanly) {
  const std::string pristine = PristineSnapshot();
  ASSERT_FALSE(pristine.empty());
  // Decoding the pristine bytes works — the baseline for the flips below.
  ASSERT_TRUE(DecodeEpochSnapshot(pristine, "pristine").ok());
  // Exhaustive over the header region (magic, version, identity, section
  // table — every field gets hit), strided over the payloads, with the
  // stride phase shifted per CI shard so the fleet covers different bytes.
  const uint64_t fuzz = FuzzSeed();
  const size_t stride = 97;
  std::vector<size_t> offsets;
  for (size_t i = 0; i < std::min<size_t>(240, pristine.size()); ++i) {
    offsets.push_back(i);
  }
  for (size_t i = 240 + fuzz % stride; i < pristine.size(); i += stride) {
    offsets.push_back(i);
  }
  offsets.push_back(pristine.size() - 1);
  for (const size_t off : offsets) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ (1u << (off % 8)));
    const Result<DecodedEpochSnapshot> snap =
        DecodeEpochSnapshot(damaged, "flip");
    EXPECT_FALSE(snap.ok()) << "flip at offset " << off << " decoded";
    if (!snap.ok()) {
      EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument)
          << "offset " << off << ": " << snap.status().ToString();
    }
  }
}

TEST(SnapshotCorruptionTest, FlippedSnapshotIsQuarantined) {
  const std::string pristine = PristineSnapshot();
  // One representative flip per region: magic, identity, section table,
  // each payload quarter.
  const uint64_t fuzz = FuzzSeed();
  const std::vector<size_t> offsets = {
      1,  // magic
      9,  // epoch
      60 + fuzz % 32,  // section table
      pristine.size() / 4,
      pristine.size() / 2,
      (3 * pristine.size()) / 4,
      pristine.size() - 2,
  };
  for (const size_t off : offsets) {
    std::string damaged = pristine;
    damaged[off] = static_cast<char>(damaged[off] ^ 0x40);
    ExpectQuarantine(damaged, "flip@" + std::to_string(off));
  }
}

TEST(SnapshotCorruptionTest, EveryTruncationFailsCleanly) {
  const std::string pristine = PristineSnapshot();
  const uint64_t fuzz = FuzzSeed();
  std::vector<size_t> cuts = {0, 1, 3, 7, 19, 43,
                              pristine.size() / 3, pristine.size() / 2,
                              pristine.size() - 1};
  cuts.push_back(1 + fuzz % (pristine.size() - 1));
  for (const size_t cut : cuts) {
    const Result<DecodedEpochSnapshot> snap =
        DecodeEpochSnapshot(std::string_view(pristine).substr(0, cut),
                            "truncated");
    EXPECT_FALSE(snap.ok()) << "truncation to " << cut << " decoded";
  }
  ExpectQuarantine(pristine.substr(0, pristine.size() / 2), "truncated-half");
}

TEST(SnapshotCorruptionTest, CorruptNewestFallsBackToOlderSnapshot) {
  const std::string dir = FreshDir("fallback");
  {
    World w = MakeWorld(11);
    DynamicCodService service(std::move(w.graph), std::move(w.attrs),
                              SnapshotOptions(dir));
    ASSERT_TRUE(service.AddEdge(0, 66));
    ASSERT_TRUE(service.Refresh().ok());
  }
  SnapshotStore store({dir, 2});
  ASSERT_EQ(store.ListSnapshots().size(), 2u);
  // Damage the newest (epoch 2) snapshot's payload.
  const std::string newest = store.PathForEpoch(2);
  std::string bytes = ReadFile(newest);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  WriteFile(newest, bytes);

  const uint64_t before = QuarantinedCount();
  Result<SnapshotStore::LoadedSnapshot> loaded = store.LoadNewest();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->snapshot.meta.epoch, 1u);  // fell back one epoch
  EXPECT_EQ(QuarantinedCount(), before + 1);
  EXPECT_TRUE(fs::exists(newest + ".corrupt"));
  EXPECT_FALSE(fs::exists(newest));

  // Recover() serves from the fallback epoch.
  Result<std::unique_ptr<DynamicCodService>> recovered =
      DynamicCodService::Recover(SnapshotOptions(dir));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->epoch(), 1u);
}

TEST(SnapshotCorruptionTest, FuzzedDamageNeverCrashesRecovery) {
  // Chaos pass: random multi-byte damage (flips, truncations, garbage
  // splices) driven by the CI shard seed. The invariant is strictly "no
  // crash, clean Status" — the specific error text varies with the damage.
  const std::string pristine = PristineSnapshot();
  uint64_t state = 0x9E3779B97F4A7C15ull + FuzzSeed();
  const auto next = [&state] {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (int round = 0; round < 200; ++round) {
    std::string damaged = pristine;
    const int kind = static_cast<int>(next() % 3);
    if (kind == 0) {  // up to 8 random flips
      const size_t flips = 1 + next() % 8;
      for (size_t i = 0; i < flips; ++i) {
        const size_t off = next() % damaged.size();
        damaged[off] = static_cast<char>(damaged[off] ^ (next() % 255 + 1));
      }
    } else if (kind == 1) {  // truncate
      damaged.resize(next() % damaged.size());
    } else {  // splice garbage over a random window
      const size_t off = next() % damaged.size();
      const size_t len = std::min(damaged.size() - off, next() % 64 + 1);
      for (size_t i = 0; i < len; ++i) {
        damaged[off + i] = static_cast<char>(next());
      }
    }
    const Result<DecodedEpochSnapshot> snap =
        DecodeEpochSnapshot(damaged, "fuzz");
    EXPECT_FALSE(snap.ok()) << "fuzz round " << round << " decoded";
  }
}

}  // namespace
}  // namespace cod
