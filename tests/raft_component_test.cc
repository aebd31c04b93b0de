// Unit tests for the Raft building blocks: MemLog, LogCache,
// ConsensusMetadataStore and the majority quorum engine.

#include <gtest/gtest.h>

#include "metric_value.h"
#include "raft/consensus_metadata.h"
#include "raft/log_abstraction.h"
#include "raft/log_cache.h"
#include "raft/quorum.h"
#include "util/compression.h"
#include "util/random.h"

namespace myraft::raft {
namespace {

LogEntry E(uint64_t term, uint64_t index, std::string payload = "p") {
  return LogEntry::Make({term, index}, EntryType::kTransaction,
                        std::move(payload));
}

TEST(MemLogTest, AppendReadTruncate) {
  MemLog log;
  EXPECT_EQ(log.LastOpId(), kZeroOpId);
  ASSERT_TRUE(log.Append(E(1, 1)).ok());
  ASSERT_TRUE(log.Append(E(1, 2)).ok());
  ASSERT_TRUE(log.Append(E(2, 3)).ok());
  EXPECT_FALSE(log.Append(E(2, 5)).ok());  // gap
  EXPECT_EQ(log.LastOpId(), (OpId{2, 3}));
  EXPECT_EQ(log.FirstIndex(), 1u);
  EXPECT_EQ((*log.OpIdAt(2)).term, 1u);

  auto batch = log.ReadBatch(2, 10, UINT64_MAX);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->size(), 2u);

  ASSERT_TRUE(log.TruncateAfter(1).ok());
  EXPECT_EQ(log.LastOpId(), (OpId{1, 1}));
  EXPECT_FALSE(log.Read(2).ok());
}

TEST(LogCacheTest, PutGetRoundTrip) {
  LogCache cache(1 << 20);
  const LogEntry e = E(1, 1, std::string(1000, 'x'));
  cache.Put(e);
  auto got = cache.Get(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, e);
  EXPECT_TRUE(cache.Get(2).status().IsNotFound());
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.hits"), 1u);
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.misses"), 1u);
}

TEST(LogCacheTest, CompressionShrinksRepetitivePayloads) {
  LogCache cache(1 << 20);
  cache.Put(E(1, 1, std::string(100'000, 'z')));
  auto span = cache.GetCompressed(1);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->uncompressed_size, 100'000u);
  EXPECT_LT(span->compressed->size(), 10'000u);
  EXPECT_LT(MetricValue(cache.metrics(), "log_cache.compressed_bytes"),
            MetricValue(cache.metrics(), "log_cache.uncompressed_bytes"));
}

TEST(LogCacheTest, CompressesOnceOnFirstCompressedSend) {
  LogCache cache(1 << 20);
  cache.Put(E(1, 1, std::string(4'000, 'c')));
  // Put, Get and Peek leave the entry raw.
  ASSERT_TRUE(cache.Get(1).ok());
  ASSERT_TRUE(cache.Peek(1).has_value());
  EXPECT_EQ(cache.Peek(1)->payload_size, 4'000u);
  EXPECT_FALSE(cache.Peek(2).has_value());
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.compressions"), 0u);
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.compressed_bytes"), 0u);
  EXPECT_EQ(cache.size_bytes(), 4'000u);
  // Peek is not a lookup.
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.hits"), 1u);

  auto first = cache.GetCompressed(1);
  auto second = cache.GetCompressed(1);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->compressed, second->compressed);  // memoized span
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.compressions"), 1u);
  EXPECT_EQ(cache.size_bytes(), 4'000u + first->compressed->size());
  EXPECT_FALSE(cache.GetCompressed(2).has_value());

  // The borrowed span outlives the slot.
  cache.Clear();
  std::string inflated;
  ASSERT_TRUE(LzDecompress(*first->compressed, &inflated).ok());
  EXPECT_EQ(inflated, std::string(4'000, 'c'));
}

TEST(LogCacheTest, EvictsFromHeadWhenOverCapacity) {
  LogCache cache(4000);
  Random rng(3);
  // Random payloads resist compression, forcing evictions.
  for (uint64_t i = 1; i <= 10; ++i) {
    std::string payload(1000, '\0');
    for (char& c : payload) c = static_cast<char>(rng.Next());
    cache.Put(LogEntry::Make({1, i}, EntryType::kTransaction, payload));
  }
  EXPECT_LE(cache.size_bytes(), 4100u);
  EXPECT_GT(MetricValue(cache.metrics(), "log_cache.evictions"), 0u);
  EXPECT_FALSE(cache.Contains(1));  // oldest evicted
  EXPECT_TRUE(cache.Contains(10));  // newest kept
}

TEST(LogCacheTest, OverwriteRetiresReplacedBytes) {
  // Regression: Put over an existing index used to account the new
  // payload without retiring the old one, so overwrites (leader
  // re-proposals, truncate-then-refill) inflated the byte counters
  // without bound.
  // Both the raw bytes and the memoized compressed span are retired.
  LogCache cache(1 << 20);
  cache.Put(E(1, 1, std::string(10'000, 'a')));
  ASSERT_TRUE(cache.GetCompressed(1).has_value());
  const uint64_t compressed_once =
      MetricValue(cache.metrics(), "log_cache.compressed_bytes");
  const uint64_t uncompressed_once =
      MetricValue(cache.metrics(), "log_cache.uncompressed_bytes");
  ASSERT_GT(compressed_once, 0u);
  for (int i = 0; i < 5; ++i) {
    cache.Put(E(2, 1, std::string(10'000, 'a')));
    ASSERT_TRUE(cache.GetCompressed(1).has_value());
  }
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.compressed_bytes"),
            compressed_once);
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.uncompressed_bytes"),
            uncompressed_once);
  EXPECT_EQ(cache.size_bytes(), compressed_once + uncompressed_once);
  // The surviving entry is the replacement.
  auto got = cache.Get(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->id.term, 2u);
}

TEST(LogCacheTest, ClearResetsByteCounters) {
  // Regression: Clear() dropped the entries but left the byte counters
  // at their pre-clear values.
  LogCache cache(1 << 20);
  for (uint64_t i = 1; i <= 4; ++i) {
    cache.Put(E(1, i, std::string(5'000, 'q')));
    ASSERT_TRUE(cache.GetCompressed(i).has_value());
  }
  ASSERT_GT(MetricValue(cache.metrics(), "log_cache.compressed_bytes"), 0u);
  ASSERT_GT(MetricValue(cache.metrics(), "log_cache.uncompressed_bytes"), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size_bytes(), 0u);
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.compressed_bytes"), 0u);
  EXPECT_EQ(MetricValue(cache.metrics(), "log_cache.uncompressed_bytes"), 0u);
  // The cumulative counters survive Clear(); only resident gauges reset.
  cache.Get(1);  // miss
  EXPECT_GE(MetricValue(cache.metrics(), "log_cache.misses"), 1u);
}

TEST(LogCacheTest, SharedRegistryAccumulatesAcrossInstances) {
  // A sim node's registry outlives crash/restart cycles: cumulative
  // counters keep accumulating, resident gauges restart from zero.
  metrics::MetricRegistry registry;
  {
    LogCache cache(1 << 20, &registry);
    cache.Put(E(1, 1, std::string(2'000, 'x')));
    cache.Get(1);
    cache.Get(99);
    cache.GetCompressed(1);
  }
  EXPECT_EQ(registry.FindCounter("log_cache.hits")->value(), 2u);
  EXPECT_EQ(registry.FindCounter("log_cache.misses")->value(), 1u);
  EXPECT_EQ(registry.FindCounter("log_cache.compressions")->value(), 1u);
  EXPECT_GT(registry.FindGauge("log_cache.compressed_bytes")->value(), 0);
  LogCache reborn(1 << 20, &registry);
  EXPECT_EQ(registry.FindGauge("log_cache.compressed_bytes")->value(), 0);
  EXPECT_EQ(registry.FindGauge("log_cache.uncompressed_bytes")->value(), 0);
  reborn.Get(1);  // miss: new instance starts empty
  EXPECT_EQ(registry.FindCounter("log_cache.misses")->value(), 2u);
}

TEST(LogCacheTest, TruncateAfterDropsSuffix) {
  LogCache cache(1 << 20);
  for (uint64_t i = 1; i <= 5; ++i) cache.Put(E(1, i));
  cache.TruncateAfter(3);
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_FALSE(cache.Contains(4));
  cache.EvictBefore(3);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(ConsensusMetadataTest, SaveLoadRoundTrip) {
  auto env = NewMemEnv();
  ConsensusMetadataStore store(env.get(), "/cmeta");
  ConsensusMetadata meta;
  meta.current_term = 42;
  meta.voted_for = "db1";
  meta.last_known_leader = "db0";
  meta.last_leader_region = "r0";
  meta.config.config_term = 3;
  meta.config.config_version = 7;
  meta.config.members.push_back(
      MemberInfo{"db0", "r0", MemberKind::kMySql, RaftMemberType::kVoter});
  meta.config.members.push_back(MemberInfo{"lt0", "r0", MemberKind::kLogtailer,
                                           RaftMemberType::kVoter});
  ASSERT_TRUE(store.Save(meta).ok());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, meta);
}

TEST(ConsensusMetadataTest, MissingFileLoadsDefaults) {
  auto env = NewMemEnv();
  ConsensusMetadataStore store(env.get(), "/cmeta");
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->current_term, 0u);
  EXPECT_TRUE(loaded->config.members.empty());
}

TEST(ConsensusMetadataTest, CorruptionDetected) {
  auto env = NewMemEnv();
  ConsensusMetadataStore store(env.get(), "/cmeta");
  ConsensusMetadata meta;
  meta.current_term = 1;
  ASSERT_TRUE(store.Save(meta).ok());
  auto contents = env->ReadFileToString("/cmeta");
  ASSERT_TRUE(contents.ok());
  std::string corrupted = *contents;
  corrupted[0] ^= 0x01;
  ASSERT_TRUE(env->WriteStringToFile(corrupted, "/cmeta").ok());
  EXPECT_TRUE(store.Load().status().IsCorruption());
}

MembershipConfig SixVoters() {
  MembershipConfig config;
  for (int i = 0; i < 6; ++i) {
    config.members.push_back(MemberInfo{"m" + std::to_string(i),
                                        i < 3 ? "r0" : "r1",
                                        MemberKind::kMySql,
                                        RaftMemberType::kVoter});
  }
  // A learner never counts toward quorums.
  config.members.push_back(MemberInfo{"learner", "r2", MemberKind::kMySql,
                                      RaftMemberType::kNonVoter});
  return config;
}

TEST(MajorityQuorumTest, RequiresStrictMajorityOfVoters) {
  MajorityQuorumEngine quorum;
  const MembershipConfig config = SixVoters();
  QuorumContext context;
  context.config = &config;
  context.subject = "m0";

  EXPECT_FALSE(quorum.IsCommitQuorumSatisfied(context, {"m0", "m1", "m2"}));
  EXPECT_TRUE(
      quorum.IsCommitQuorumSatisfied(context, {"m0", "m1", "m2", "m3"}));
  // Learners do not count.
  EXPECT_FALSE(quorum.IsCommitQuorumSatisfied(
      context, {"m0", "m1", "m2", "learner"}));
  // Unknown ids do not count.
  EXPECT_FALSE(
      quorum.IsCommitQuorumSatisfied(context, {"m0", "m1", "m2", "ghost"}));

  EXPECT_TRUE(quorum.IsElectionQuorumSatisfied(
      context, {"m0", "m1", "m2", "m3"}));
  EXPECT_FALSE(quorum.IsElectionQuorumSatisfied(context, {"m0", "m1", "m2"}));
}

TEST(MajorityQuorumTest, DoomDetection) {
  MajorityQuorumEngine quorum;
  const MembershipConfig config = SixVoters();
  QuorumContext context;
  context.config = &config;
  context.subject = "m0";

  // 3 denials out of 6 voters: 3 remain, candidate has 1 -> max 4 >= 4,
  // not doomed yet.
  EXPECT_FALSE(
      quorum.IsElectionDoomed(context, {"m0"}, {"m0", "m1", "m2"}));
  // 4 denials: only 2 outstanding, max 3 < 4 -> doomed.
  EXPECT_TRUE(
      quorum.IsElectionDoomed(context, {"m0"}, {"m0", "m1", "m2", "m3"}));
}

}  // namespace
}  // namespace myraft::raft
