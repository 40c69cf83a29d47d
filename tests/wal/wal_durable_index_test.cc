/// Facade-level durability: the WAL-backed brep::Index life cycle
/// (build -> checkpoint -> logged writes -> recovery), proven
/// byte-identical against a LinearScanOracle, with zero rebuild work
/// (internal::BuildCounters) and zero redundant replay after a checkpoint.
/// Plus every log-vs-checkpoint mismatch the recovery path must refuse
/// with a clean Status: duplicated LSNs (applied once), LSN gaps, stale
/// index files, checkpoint records pointing past the durable state, and
/// deletes of ids that are not live.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/index.h"
#include "common/build_counters.h"
#include "common/rng.h"
#include "core/brepartition.h"
#include "storage/file_pager.h"
#include "storage/serial.h"
#include "update/update_test_util.h"
#include "wal/wal_test_util.h"

namespace brep {
namespace {

using testing::CrashPlan;
using testing::GeneratePlan;
using testing::GeneratorTestName;
using testing::LinearScanOracle;
using testing::PlanOp;
using testing::PlanPool;

uint64_t BuildWork() {
  const auto& c = internal::GetBuildCounters();
  return c.fit_cost_model.load() + c.pccp.load() + c.dataset_transform.load() +
         c.forest_builds.load();
}

void ExpectIdentical(const std::vector<Neighbor>& got,
                     const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
}

void ExpectMatchesOracle(const Index& index, const LinearScanOracle& oracle,
                         const Matrix& pool, uint64_t query_seed) {
  ASSERT_EQ(index.num_points(), oracle.size());
  if (oracle.size() == 0) return;
  Rng rng(query_seed);
  for (size_t q = 0; q < 5; ++q) {
    const auto y = pool.Row(rng.NextBelow(pool.rows()));
    const size_t k = std::min<size_t>(10, oracle.size());
    const auto got = index.Knn(y, k);
    ASSERT_TRUE(got.ok()) << got.status().message();
    ExpectIdentical(*got, oracle.Knn(y, k));
  }
  // One all-points query: the full live id set, ranked.
  const auto y = pool.Row(0);
  const auto got = index.Knn(y, oracle.size());
  ASSERT_TRUE(got.ok()) << got.status().message();
  ExpectIdentical(*got, oracle.Knn(y, oracle.size()));
}

/// Applies ops [begin, end) to the index AND the oracle, asserting the
/// index assigns exactly the plan's ids (the determinism recovery relies
/// on).
void ApplyOps(Index& index, LinearScanOracle* oracle,
              const std::vector<PlanOp>& ops, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const PlanOp& op = ops[i];
    if (op.is_insert) {
      const auto id = index.Insert(op.point);
      ASSERT_TRUE(id.ok()) << "op " << i << ": " << id.status().message();
      ASSERT_EQ(*id, op.id) << "op " << i;
      oracle->Insert(op.id, op.point);
    } else {
      const Status s = index.Delete(op.id);
      ASSERT_TRUE(s.ok()) << "op " << i << ": " << s.message();
      oracle->Delete(op.id);
    }
  }
}

class DurableIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string stem = ::testing::TempDir() + "brep_dur_" +
                       info->test_suite_name() + "_" + info->name();
    // Parameterized test names carry '/' separators; flatten them.
    std::replace(stem.begin() + ::testing::TempDir().size(), stem.end(), '/',
                 '_');
    std::replace(stem.begin(), stem.end(), ':', '_');
    idx_path_ = stem + ".idx";
    wal_path_ = stem + ".wal";
    Cleanup();
  }
  void TearDown() override { Cleanup(); }
  void Cleanup() {
    std::remove(idx_path_.c_str());
    std::remove((idx_path_ + ".tmp").c_str());
    std::remove(wal_path_.c_str());
  }

  DurabilityOptions Durability(FsyncMode mode = FsyncMode::kAlways,
                               double window_ms = 2.0) const {
    DurabilityOptions d;
    d.wal_path = wal_path_;
    d.fsync_mode = mode;
    d.group_window_ms = window_ms;
    return d;
  }

  StatusOr<Index> BuildPlanIndex(const CrashPlan& plan, const Matrix& pool,
                                 const DurabilityOptions& durability) {
    const Matrix initial(
        plan.initial, plan.dim,
        std::vector<double>(pool.data().begin(),
                            pool.data().begin() + plan.initial * plan.dim));
    return IndexBuilder(plan.generator)
        .Partitions(3)
        .PageSize(1024)
        .MaxLeafSize(16)
        .Seed(plan.seed)
        .Durability(durability)
        .Build(initial);
  }

  std::string idx_path_;
  std::string wal_path_;
};

TEST_F(DurableIndexTest, WritesRequireACheckpointFirst) {
  CrashPlan plan;
  const Matrix pool = PlanPool(plan);
  auto built = BuildPlanIndex(plan, pool, Durability());
  ASSERT_TRUE(built.ok()) << built.status().message();
  const auto refused = built->Insert(pool.Row(plan.initial));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(built->Delete(0).code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(built->Save(idx_path_).ok());
  const auto id = built->Insert(pool.Row(plan.initial));
  ASSERT_TRUE(id.ok()) << id.status().message();
  EXPECT_EQ(*id, plan.initial);
}

TEST_F(DurableIndexTest, BuildRefusesAWalHoldingRecoverableWrites) {
  CrashPlan plan;
  plan.ops = 30;
  const Matrix pool = PlanPool(plan);
  const auto ops = GeneratePlan(plan, pool);
  {
    auto built = BuildPlanIndex(plan, pool, Durability());
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built->Save(idx_path_).ok());
    LinearScanOracle oracle(built->divergence());
    ApplyOps(*built, &oracle, ops, 0, ops.size());
  }  // clean close: the log still holds 30 recoverable operations
  auto rebuilt = BuildPlanIndex(plan, pool, Durability());
  ASSERT_FALSE(rebuilt.ok());
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(rebuilt.status().message().find("recover"), std::string::npos)
      << rebuilt.status().message();
}

class DurableIndexGeneratorTest
    : public DurableIndexTest,
      public ::testing::WithParamInterface<std::string> {};

TEST_P(DurableIndexGeneratorTest, ReopenReplaysLoggedWritesByteIdentically) {
  CrashPlan plan;
  plan.generator = GetParam();
  plan.seed = 0xD0C5 + std::hash<std::string>{}(plan.generator) % 997;
  plan.ops = 160;
  const Matrix pool = PlanPool(plan);
  const auto ops = GeneratePlan(plan, pool);
  LinearScanOracle oracle(BregmanDivergence(
      MakeGenerator(plan.generator), plan.dim));
  {
    auto built = BuildPlanIndex(plan, pool, Durability());
    ASSERT_TRUE(built.ok()) << built.status().message();
    ASSERT_TRUE(built->Save(idx_path_).ok());
    for (uint32_t id = 0; id < plan.initial; ++id) {
      oracle.Insert(id, pool.Row(id));
    }
    ApplyOps(*built, &oracle, ops, 0, ops.size());
    const SearchIndex::Stats us = built->UpdateStats();
    EXPECT_EQ(us.wal_appends, ops.size());
    EXPECT_GE(us.wal_fsyncs, ops.size());  // kAlways: one barrier per op
  }  // destroyed WITHOUT a checkpoint: everything lives only in the log

  const uint64_t work_before = BuildWork();
  auto reopened = Index::Open(idx_path_, Durability());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(BuildWork(), work_before) << "recovery must not rebuild";
  const WalRecoveryStats& rec = reopened->recovery();
  EXPECT_EQ(rec.replayed_inserts + rec.replayed_deletes, ops.size());
  EXPECT_EQ(rec.last_lsn, ops.size());
  EXPECT_EQ(rec.dropped_tail_bytes, 0u);
  ExpectMatchesOracle(*reopened, oracle, pool, plan.seed ^ 0x51);
  reopened->impl().DebugCheckInvariants();

  // The recovered index keeps accepting logged writes.
  LinearScanOracle oracle2 = oracle;
  CrashPlan more = plan;
  more.ops = plan.ops + 40;
  const auto more_ops = GeneratePlan(more, pool);
  ApplyOps(*reopened, &oracle2, more_ops, plan.ops, more.ops);
  ExpectMatchesOracle(*reopened, oracle2, pool, plan.seed ^ 0x52);
}

TEST_P(DurableIndexGeneratorTest, CheckpointTruncatesReplayToZero) {
  CrashPlan plan;
  plan.generator = GetParam();
  plan.ops = 120;
  const Matrix pool = PlanPool(plan);
  const auto ops = GeneratePlan(plan, pool);
  LinearScanOracle oracle(
      BregmanDivergence(MakeGenerator(plan.generator), plan.dim));
  {
    auto built = BuildPlanIndex(plan, pool, Durability());
    ASSERT_TRUE(built.ok()) << built.status().message();
    ASSERT_TRUE(built->Save(idx_path_).ok());
    for (uint32_t id = 0; id < plan.initial; ++id) {
      oracle.Insert(id, pool.Row(id));
    }
    ApplyOps(*built, &oracle, ops, 0, ops.size());
    ASSERT_TRUE(built->Save(idx_path_).ok());  // checkpoint: resets the log
  }
  const uint64_t work_before = BuildWork();
  auto reopened = Index::Open(idx_path_, Durability());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  // Zero redundant work: nothing rebuilt, nothing replayed.
  EXPECT_EQ(BuildWork(), work_before);
  EXPECT_EQ(reopened->recovery().replayed_inserts, 0u);
  EXPECT_EQ(reopened->recovery().replayed_deletes, 0u);
  EXPECT_EQ(reopened->recovery().last_lsn, ops.size());
  EXPECT_EQ(reopened->UpdateStats().wal_replayed, 0u);
  ExpectMatchesOracle(*reopened, oracle, pool, plan.seed ^ 0x53);
  reopened->impl().DebugCheckInvariants();
}

INSTANTIATE_TEST_SUITE_P(Generators, DurableIndexGeneratorTest,
                         ::testing::ValuesIn(testing::PartitionSafeGenerators()),
                         [](const auto& info) {
                           return GeneratorTestName(info.param);
                         });

TEST_F(DurableIndexTest, AllFsyncModesRecoverAfterCleanClose) {
  for (const FsyncMode mode :
       {FsyncMode::kNone, FsyncMode::kGroup, FsyncMode::kAlways}) {
    SCOPED_TRACE(FsyncModeName(mode));
    Cleanup();
    CrashPlan plan;
    plan.seed = 0xA11 + static_cast<uint64_t>(mode);
    plan.ops = 80;
    const Matrix pool = PlanPool(plan);
    const auto ops = GeneratePlan(plan, pool);
    LinearScanOracle oracle(
        BregmanDivergence(MakeGenerator(plan.generator), plan.dim));
    {
      auto built = BuildPlanIndex(plan, pool, Durability(mode, 1.0));
      ASSERT_TRUE(built.ok()) << built.status().message();
      ASSERT_TRUE(built->Save(idx_path_).ok());
      for (uint32_t id = 0; id < plan.initial; ++id) {
        oracle.Insert(id, pool.Row(id));
      }
      ApplyOps(*built, &oracle, ops, 0, ops.size());
    }  // clean close flushes whatever the mode left unsynced
    auto reopened = Index::Open(idx_path_, Durability(mode, 1.0));
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    ExpectMatchesOracle(*reopened, oracle, pool, plan.seed ^ 0x54);
  }
}

TEST_F(DurableIndexTest, SaveElsewhereSnapshotsWithoutTouchingTheLog) {
  CrashPlan plan;
  plan.ops = 60;
  const Matrix pool = PlanPool(plan);
  const auto ops = GeneratePlan(plan, pool);
  const std::string other = idx_path_ + ".backup";
  LinearScanOracle oracle(
      BregmanDivergence(MakeGenerator(plan.generator), plan.dim));
  {
    auto built = BuildPlanIndex(plan, pool, Durability());
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built->Save(idx_path_).ok());
    for (uint32_t id = 0; id < plan.initial; ++id) {
      oracle.Insert(id, pool.Row(id));
    }
    ApplyOps(*built, &oracle, ops, 0, ops.size());
    ASSERT_TRUE(built->Save(other).ok());  // snapshot, NOT a checkpoint
  }
  // The snapshot alone already holds everything (plain, WAL-less open)...
  auto snapshot = Index::Open(other);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().message();
  ExpectMatchesOracle(*snapshot, oracle, pool, plan.seed ^ 0x55);
  // ...and replaying the home log against it is a stamped no-op.
  DurabilityOptions d = Durability();
  auto snapshot_wal = Index::Open(other, d);
  ASSERT_TRUE(snapshot_wal.ok()) << snapshot_wal.status().message();
  EXPECT_EQ(snapshot_wal->recovery().replayed_inserts +
                snapshot_wal->recovery().replayed_deletes,
            0u);
  snapshot_wal = Status::NotFound("drop");  // release before the next open
  // The home file + log still recover to the same state.
  auto home = Index::Open(idx_path_, Durability());
  ASSERT_TRUE(home.ok()) << home.status().message();
  EXPECT_EQ(home->recovery().replayed_inserts +
                home->recovery().replayed_deletes,
            ops.size());
  ExpectMatchesOracle(*home, oracle, pool, plan.seed ^ 0x56);
  std::remove(other.c_str());
  std::remove((other + ".tmp").c_str());
}

// ----------------------------------------------------------------- crafted
// logs: every mismatch recovery must refuse (or absorb) without aborting.

/// Raw record append in the documented format (see wal_test.cc).
void AppendRawRecord(const std::string& path, uint8_t type, uint64_t lsn,
                     const std::vector<uint8_t>& payload) {
  ByteWriter body;
  body.Value<uint8_t>(type);
  body.Value<uint64_t>(lsn);
  body.Raw(payload.data(), payload.size());
  ByteWriter rec;
  rec.Value<uint32_t>(static_cast<uint32_t>(payload.size()));
  rec.Value<uint8_t>(type);
  rec.Value<uint64_t>(lsn);
  rec.Value<uint32_t>(static_cast<uint32_t>(
      Fnv1a64(std::span<const uint8_t>(rec.bytes().data(), 13))));
  rec.Raw(payload.data(), payload.size());
  rec.Value<uint64_t>(Fnv1a64(body.bytes()));
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(rec.bytes().data(), 1, rec.size(), f), rec.size());
  std::fclose(f);
}

std::vector<uint8_t> InsertPayload(uint32_t id, std::span<const double> x) {
  ByteWriter w;
  w.Value<uint32_t>(id);
  w.Value<uint32_t>(static_cast<uint32_t>(x.size()));
  w.Raw(x.data(), x.size() * sizeof(double));
  return w.Take();
}

std::vector<uint8_t> DeletePayload(uint32_t id) {
  ByteWriter w;
  w.Value<uint32_t>(id);
  return w.Take();
}

class CraftedWalTest : public DurableIndexTest {
 protected:
  /// A checkpointed base index at idx_path_ with an empty fresh log, plus
  /// the pool/oracle to extend it.
  void MakeBase() {
    plan_.ops = 0;
    pool_ = PlanPool(plan_);
    auto built = BuildPlanIndex(plan_, pool_, Durability());
    ASSERT_TRUE(built.ok()) << built.status().message();
    ASSERT_TRUE(built->Save(idx_path_).ok());
  }

  CrashPlan plan_;
  Matrix pool_;
};

TEST_F(CraftedWalTest, DuplicatedLsnReplaysExactlyOnce) {
  MakeBase();
  const auto row = pool_.Row(plan_.initial);
  const uint32_t id = static_cast<uint32_t>(plan_.initial);
  const auto payload = InsertPayload(id, row);
  AppendRawRecord(wal_path_, 1, 1, payload);
  AppendRawRecord(wal_path_, 1, 1, payload);  // duplicated append
  auto reopened = Index::Open(idx_path_, Durability());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened->recovery().replayed_inserts, 1u);
  EXPECT_GE(reopened->recovery().skipped_records, 1u);
  EXPECT_EQ(reopened->num_points(), plan_.initial + 1);
  LinearScanOracle oracle(reopened->divergence());
  for (uint32_t i = 0; i < plan_.initial; ++i) oracle.Insert(i, pool_.Row(i));
  oracle.Insert(id, row);
  ExpectMatchesOracle(*reopened, oracle, pool_, 0x57);
  reopened->impl().DebugCheckInvariants();
}

TEST_F(CraftedWalTest, LsnGapIsDataLoss) {
  MakeBase();
  const auto row = pool_.Row(plan_.initial);
  AppendRawRecord(wal_path_, 1, 1,
                  InsertPayload(static_cast<uint32_t>(plan_.initial), row));
  AppendRawRecord(wal_path_, 2, 3, DeletePayload(0));  // lsn 2 is missing
  const auto reopened = Index::Open(idx_path_, Durability());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("gap"), std::string::npos)
      << reopened.status().message();
}

TEST_F(CraftedWalTest, CheckpointRecordPastTheDurableStateIsDataLoss) {
  MakeBase();
  ByteWriter p;
  p.Value<uint64_t>(99);  // vouches for operations that never existed
  AppendRawRecord(wal_path_, 3, 99, p.Take());
  const auto reopened = Index::Open(idx_path_, Durability());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("points past"), std::string::npos)
      << reopened.status().message();
}

TEST_F(CraftedWalTest, DeleteOfANonLiveIdIsDataLoss) {
  MakeBase();
  AppendRawRecord(wal_path_, 2, 1, DeletePayload(99999));
  const auto reopened = Index::Open(idx_path_, Durability());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("not live"), std::string::npos)
      << reopened.status().message();
}

TEST_F(CraftedWalTest, InsertIdMismatchIsDataLoss) {
  MakeBase();
  const auto row = pool_.Row(plan_.initial);
  // Logged id 7 is already live; replay would assign plan_.initial.
  AppendRawRecord(wal_path_, 1, 1, InsertPayload(7, row));
  const auto reopened = Index::Open(idx_path_, Durability());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("id"), std::string::npos)
      << reopened.status().message();
}

TEST_F(CraftedWalTest, StaleIndexFileBehindTheLogIsDataLoss) {
  MakeBase();
  // Rewrite the log as if a checkpoint at lsn 7 had happened: the index
  // file (durable to lsn 0) is now an older snapshot than the log expects.
  std::remove(wal_path_.c_str());
  {
    auto wal = WalWriter::Attach(wal_path_, FsyncMode::kNone, 0.0, 0,
                                 /*next_lsn=*/8, /*fresh_base_lsn=*/7);
    ASSERT_TRUE(wal.ok()) << wal.status().message();
  }
  const auto reopened = Index::Open(idx_path_, Durability());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(reopened.status().message().find("stale"), std::string::npos)
      << reopened.status().message();
}

TEST_F(CraftedWalTest, OutOfDomainInsertRecordIsDataLoss) {
  plan_.generator = "itakura_saito";  // strictly positive domain
  MakeBase();
  std::vector<double> bad(plan_.dim, -1.0);
  AppendRawRecord(wal_path_, 1, 1,
                  InsertPayload(static_cast<uint32_t>(plan_.initial), bad));
  const auto reopened = Index::Open(idx_path_, Durability());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kDataLoss);
}

TEST_F(DurableIndexTest, PreV4SuperblockFilesAreCleanlyRejected) {
  // v4 switched tree-leaf payloads to the column-major (SoA) layout, so a
  // pre-v4 file's leaf pages would decode transposed -- silently wrong
  // distances. Open must reject old versions with a clean error (with and
  // without durability), never serve them.
  CrashPlan plan;
  plan.ops = 0;
  const Matrix pool = PlanPool(plan);
  {
    auto built = BuildPlanIndex(plan, pool, DurabilityOptions{});  // no WAL
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built->Save(idx_path_).ok());
  }
  // Demote the superblock to the v3 layout: same fields, version 3,
  // checksum recomputed over everything before the trailing sum (64 bytes).
  {
    std::FILE* f = std::fopen(idx_path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> block(4096);
    ASSERT_EQ(std::fread(block.data(), 1, block.size(), f), block.size());
    const uint32_t v3 = 3;
    std::memcpy(block.data() + 8, &v3, 4);
    const uint64_t sum =
        Fnv1a64(std::span<const uint8_t>(block.data(), 64));
    std::memcpy(block.data() + 64, &sum, 8);
    ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(block.data(), 1, block.size(), f), block.size());
    std::fclose(f);
  }
  auto plain = Index::Open(idx_path_);
  ASSERT_FALSE(plain.ok());
  EXPECT_NE(plain.status().message().find("unsupported index format version"),
            std::string::npos)
      << plain.status().message();
  auto durable_open = Index::Open(idx_path_, Durability());
  ASSERT_FALSE(durable_open.ok());
  EXPECT_NE(
      durable_open.status().message().find("unsupported index format version"),
      std::string::npos)
      << durable_open.status().message();
}

TEST_F(DurableIndexTest, WalLanesFlowThroughTheStatsSurface) {
  CrashPlan plan;
  const Matrix pool = PlanPool(plan);
  auto built = BuildPlanIndex(plan, pool, Durability());
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->Save(idx_path_).ok());
  SearchIndex::Stats stats;
  ASSERT_TRUE(built->Insert(pool.Row(plan.initial), &stats).ok());
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.wal_appends, 1u);
  EXPECT_GE(stats.wal_fsyncs, 1u);  // kAlways: the append's barrier
  SearchIndex::Stats del;
  ASSERT_TRUE(built->Delete(0, &del).ok());
  EXPECT_EQ(del.deletes, 1u);
  EXPECT_EQ(del.wal_appends, 1u);
  const SearchIndex::Stats us = built->UpdateStats();
  EXPECT_EQ(us.inserts, 1u);
  EXPECT_EQ(us.deletes, 1u);
  EXPECT_EQ(us.wal_appends, 2u);
  EXPECT_GE(us.wal_fsyncs, 2u);
}

TEST_F(DurableIndexTest, UpdateStatsIsOneSnapshotUnderConcurrentWrites) {
  // Regression: UpdateStats() read the insert/delete totals and the WAL
  // lanes under two writer-mutex acquisitions, so a write landing between
  // them tore the snapshot. A write appends and applies under one
  // acquisition, so every consistent snapshot of this index satisfies
  // inserts + deletes == wal_appends + wal_replayed.
  CrashPlan plan;
  const Matrix pool = PlanPool(plan);
  auto built = BuildPlanIndex(plan, pool, Durability(FsyncMode::kNone));
  ASSERT_TRUE(built.ok()) << built.status().message();
  ASSERT_TRUE(built->Save(idx_path_).ok());

  constexpr uint64_t kPairs = 20000;
  std::atomic<bool> done{false};
  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    const auto point = pool.Row(plan.initial);
    for (uint64_t i = 0; i < kPairs && writer_ok.load(); ++i) {
      const auto id = built->Insert(point);
      writer_ok.store(id.ok() && built->Delete(*id).ok());
    }
    done.store(true);
  });
  uint64_t snapshots = 0, torn = 0;
  while (!done.load()) {
    const SearchIndex::Stats s = built->UpdateStats();
    ++snapshots;
    if (s.inserts + s.deletes != s.wal_appends + s.wal_replayed) ++torn;
  }
  writer.join();
  ASSERT_TRUE(writer_ok.load());
  EXPECT_EQ(torn, 0u) << "torn snapshots out of " << snapshots;
  const SearchIndex::Stats last = built->UpdateStats();
  EXPECT_EQ(last.inserts, kPairs);
  EXPECT_EQ(last.deletes, kPairs);
  EXPECT_EQ(last.wal_appends, 2 * kPairs);
}

TEST_F(DurableIndexTest, GroupCommitWriterRacesParallelReadersCleanly) {
  // TSan coverage: the group flusher thread, Parallel readers (shared
  // lock) and the logging writer (exclusive lock) all run concurrently.
  CrashPlan plan;
  // Small op count: this test exists for TSan coverage of the
  // flusher-thread/reader/writer interleaving, and runs ~10-20x slower
  // under instrumentation; the crash and fuzz suites carry the volume.
  plan.ops = 40;
  const Matrix pool = PlanPool(plan);
  const auto ops = GeneratePlan(plan, pool);
  LinearScanOracle oracle(
      BregmanDivergence(MakeGenerator(plan.generator), plan.dim));
  auto built = BuildPlanIndex(plan, pool, Durability(FsyncMode::kGroup, 5.0));
  ASSERT_TRUE(built.ok()) << built.status().message();
  ASSERT_TRUE(built->Save(idx_path_).ok());
  for (uint32_t id = 0; id < plan.initial; ++id) {
    oracle.Insert(id, pool.Row(id));
  }
  // One Parallel handle per reader thread: a QueryEngine parallelizes
  // internally and is not a concurrent entry point itself.
  std::vector<ParallelIndex> handles;
  for (int t = 0; t < 2; ++t) {
    auto parallel = built->Parallel(2);
    ASSERT_TRUE(parallel.ok());
    handles.push_back(*std::move(parallel));
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> reader_ok{true};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0x4EAD + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto y = pool.Row(rng.NextBelow(pool.rows()));
        if (!handles[t].Knn(y, 5).ok()) {
          reader_ok.store(false);
          return;
        }
        std::this_thread::yield();  // let the writer take the exclusive lock
      }
    });
  }
  ApplyOps(*built, &oracle, ops, 0, ops.size());
  stop.store(true);
  for (auto& r : readers) r.join();
  EXPECT_TRUE(reader_ok.load());
  ExpectMatchesOracle(*built, oracle, pool, 0x58);
  built->impl().DebugCheckInvariants();
}

}  // namespace
}  // namespace brep
