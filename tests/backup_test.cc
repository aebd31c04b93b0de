// Backup/restore substrate tests (§3's backup service dependency):
// archive round-trips, restore safety, and the end-to-end provisioning
// flow — a new member joining from a backup after the ring purged its
// old binlog files.

#include "tools/backup.h"

#include <gtest/gtest.h>

#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"

namespace myraft::tools {
namespace {

constexpr uint64_t kSecond = 1'000'000;

TEST(BackupTest, ArchiveRoundTripsFiles) {
  auto src = NewMemEnv();
  ManualClock clock;
  clock.SetMicros(777);
  ASSERT_TRUE(src->CreateDirIfMissing("/d").ok());
  ASSERT_TRUE(src->CreateDirIfMissing("/d/log").ok());
  ASSERT_TRUE(src->CreateDirIfMissing("/d/engine").ok());
  ASSERT_TRUE(src->WriteStringToFile("binlog-bytes", "/d/log/binlog.000001").ok());
  ASSERT_TRUE(src->WriteStringToFile("index", "/d/log/log.index").ok());
  ASSERT_TRUE(src->WriteStringToFile("wal-bytes", "/d/engine/engine.wal").ok());

  auto archive = BackupDataDir(src.get(), "/d", &clock);
  ASSERT_TRUE(archive.ok()) << archive.status();
  EXPECT_EQ(archive->files.size(), 3u);
  EXPECT_EQ(archive->taken_at_micros, 777u);
  EXPECT_EQ(archive->total_bytes,
            strlen("binlog-bytes") + strlen("index") + strlen("wal-bytes"));

  auto dst = NewMemEnv();
  ASSERT_TRUE(RestoreDataDir(*archive, dst.get(), "/restored").ok());
  EXPECT_EQ(*dst->ReadFileToString("/restored/log/binlog.000001"),
            "binlog-bytes");
  EXPECT_EQ(*dst->ReadFileToString("/restored/engine/engine.wal"),
            "wal-bytes");

  // Restoring over existing data is refused.
  EXPECT_TRUE(
      RestoreDataDir(*archive, dst.get(), "/restored").IsAlreadyPresent());
}

TEST(BackupTest, EmptySourceIsNotFound) {
  auto env = NewMemEnv();
  ManualClock clock;
  EXPECT_TRUE(BackupDataDir(env.get(), "/nothing", &clock)
                  .status()
                  .IsNotFound());
}

TEST(BackupTest, NewMemberJoinsFromBackupAfterPurge) {
  sim::ClusterOptions options;
  options.seed = 71;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  sim::ClusterHarness cluster(options, flexiraft::SingleRegionDynamic());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.SyncWrite("k" + std::to_string(i), "v").status.ok());
  }
  cluster.loop()->RunFor(3 * kSecond);

  // Rotate, then purge old files on EVERY member (fleet-wide log
  // reclamation): afterwards no member retains the early entries.
  server::MySqlServer* leader = cluster.node(primary)->server();
  ASSERT_TRUE(leader->FlushBinaryLogs().ok());
  ASSERT_TRUE(cluster.SyncWrite("post-rotate", "v").status.ok());
  cluster.loop()->RunFor(3 * kSecond);
  for (const MemberId& id : cluster.ids()) {
    server::MySqlServer* server = cluster.node(id)->server();
    const auto files = server->ShowBinaryLogs();
    ASSERT_GE(files.size(), 2u) << id;
    ASSERT_TRUE(server->PurgeLogsTo(files.back().name).ok()) << id;
    EXPECT_GT(server->binlog_manager()->FirstIndex(), 1u) << id;
  }

  // Take a backup from a quiesced follower (crash = consistent disk).
  MemberId source;
  for (const MemberId& id : cluster.database_ids()) {
    if (id != primary) {
      source = id;
      break;
    }
  }
  cluster.Crash(source);
  auto archive = BackupDataDir(cluster.node(source)->env(), "/" + source,
                               cluster.loop()->clock());
  ASSERT_TRUE(archive.ok()) << archive.status();
  ASSERT_TRUE(cluster.Restart(source).ok());
  cluster.loop()->RunFor(2 * kSecond);

  // Provision the new member from the backup; it joins above the purge
  // horizon and catches the tail from the leader.
  MemberInfo member{"dbrestored", "region1", MemberKind::kMySql,
                    RaftMemberType::kNonVoter};
  ASSERT_TRUE(cluster.admin()
                  ->AddMember(member,
                              [&archive](Env* env, const std::string& dir) {
                                return RestoreDataDir(*archive, env, dir);
                              })
                  .ok());
  ASSERT_TRUE(cluster.SyncWrite("post-join", "v").status.ok());
  cluster.loop()->RunFor(5 * kSecond);

  server::MySqlServer* joined = cluster.node("dbrestored")->server();
  EXPECT_EQ(joined->Read("bench.kv", "k5"), "k5=v");          // from backup
  EXPECT_EQ(joined->Read("bench.kv", "post-join"), "post-join=v");  // caught up
  EXPECT_GT(joined->binlog_manager()->FirstIndex(), 1u);
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

}  // namespace
}  // namespace myraft::tools
