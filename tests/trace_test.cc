// Causal-tracing tests: ring-buffer overflow accounting, deterministic
// same-seed journals, the cross-node span tree of a single traced write
// (client -> leader commit stages -> follower append/ack -> follower
// apply), trace-context wire/GTID round trips with backward-compatible
// decode, the TraceAnalyzer failover decomposition against the downtime
// probe, the slow-transaction log, and sim-clock-stamped log contexts.

#include "util/trace.h"

#include <gtest/gtest.h>

#include "binlog/binlog_event.h"
#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"
#include "util/clock.h"
#include "util/logging.h"
#include "wire/messages.h"

namespace myraft::trace {
namespace {

using flexiraft::FlexiRaftQuorumEngine;
using flexiraft::QuorumMode;
using sim::ClusterHarness;
using sim::ClusterOptions;
constexpr uint64_t kSecond = 1'000'000;

const raft::QuorumEngine* FlexiEngine() {
  static FlexiRaftQuorumEngine* engine =
      new FlexiRaftQuorumEngine({QuorumMode::kSingleRegionDynamic});
  return engine;
}

ClusterOptions SmallCluster(uint64_t seed) {
  ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  return options;
}

// --- Tracer unit behaviour ----------------------------------------------------

TEST(TracerTest, RingOverflowDropsOldestAndCounts) {
  ManualClock clock;
  metrics::MetricRegistry registry;
  TracerOptions options;
  options.node = "n1";
  options.id_salt = 1;
  options.capacity = 8;
  options.clock = &clock;
  options.metrics = &registry;
  Tracer tracer(options);

  for (int i = 0; i < 12; ++i) {
    clock.AdvanceMicros(10);
    tracer.Instant("test", "e" + std::to_string(i));
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 4u);
  EXPECT_EQ(registry.GetCounter("trace.dropped")->value(), 4u);
  const auto snapshot = tracer.Snapshot();
  ASSERT_EQ(snapshot.size(), 8u);
  EXPECT_EQ(snapshot.front().name, "e4");  // oldest four gone
  EXPECT_EQ(snapshot.back().name, "e11");
}

TEST(TracerTest, SpanIdsAreSaltedCounters) {
  ManualClock clock;
  TracerOptions options;
  options.node = "n2";
  options.id_salt = 3;
  options.clock = &clock;
  Tracer tracer(options);
  const uint64_t a = tracer.BeginSpan("c", "s", 0, 0);
  const uint64_t b = tracer.BeginSpan("c", "s", 0, 0);
  EXPECT_EQ(a >> 40, 3u);
  EXPECT_EQ(b, a + 1);
  tracer.EndSpan(b);
  tracer.EndSpan(a);
  // A zero id is a no-op; an unmatched id still records its end.
  tracer.EndSpan(0);
  tracer.EndSpan(0xdead);
  EXPECT_EQ(tracer.size(), 5u);
}

// --- Wire / GTID-body trace context -------------------------------------------

TEST(TraceWireTest, AppendEntriesContextRoundTrips) {
  AppendEntriesRequest request;
  request.leader = "db0";
  request.dest = "db1";
  request.trace_id = 77;
  request.trace_span_id = 88;
  std::string traced;
  request.EncodeTo(&traced);
  auto decoded = AppendEntriesRequest::DecodeFrom(traced);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(*decoded, request);

  // Untraced requests decode to 0/0.
  AppendEntriesRequest untraced = request;
  untraced.trace_id = 0;
  untraced.trace_span_id = 0;
  std::string untraced_wire;
  untraced.EncodeTo(&untraced_wire);
  auto untraced_decoded = AppendEntriesRequest::DecodeFrom(untraced_wire);
  ASSERT_TRUE(untraced_decoded.ok()) << untraced_decoded.status();
  EXPECT_EQ(untraced_decoded->trace_id, 0u);
  EXPECT_EQ(untraced_decoded->trace_span_id, 0u);

  AppendEntriesResponse response;
  response.from = "db1";
  response.dest = "db0";
  response.trace_id = 77;
  response.trace_span_id = 88;
  std::string response_wire;
  response.EncodeTo(&response_wire);
  auto response_decoded = AppendEntriesResponse::DecodeFrom(response_wire);
  ASSERT_TRUE(response_decoded.ok()) << response_decoded.status();
  EXPECT_EQ(*response_decoded, response);
}

TEST(TraceWireTest, GtidBodyContextRoundTripsAndStaysCompatible) {
  binlog::GtidBody body;
  body.gtid.server_uuid = Uuid::FromIndex(5);
  body.gtid.txn_no = 9;
  body.last_committed = 3;
  body.sequence_number = 7;
  body.trace_id = 123;
  body.trace_span_id = 456;
  auto decoded = binlog::GtidBody::Decode(body.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->trace_id, 123u);
  EXPECT_EQ(decoded->trace_span_id, 456u);
  EXPECT_EQ(decoded->last_committed, 3u);
  EXPECT_EQ(decoded->sequence_number, 7u);

  binlog::GtidBody untraced = body;
  untraced.trace_id = 0;
  untraced.trace_span_id = 0;
  EXPECT_LT(untraced.Encode().size(), body.Encode().size());
  auto old_decoded = binlog::GtidBody::Decode(untraced.Encode());
  ASSERT_TRUE(old_decoded.ok()) << old_decoded.status();
  EXPECT_EQ(old_decoded->trace_id, 0u);
  EXPECT_EQ(old_decoded->gtid.txn_no, 9u);
}

// --- Cross-node span tree of one traced write ---------------------------------

struct FlatRecord {
  std::string node;
  TraceRecord record;
};

std::vector<FlatRecord> AllRecords(const ClusterHarness& cluster) {
  std::vector<FlatRecord> out;
  for (const auto& journal : cluster.TraceJournals()) {
    for (const auto& record : journal.records) {
      out.push_back(FlatRecord{journal.node, record});
    }
  }
  return out;
}

const FlatRecord* FindBegin(const std::vector<FlatRecord>& all,
                            const std::string& category,
                            const std::string& name, uint64_t trace_id,
                            const std::string& node = "") {
  for (const auto& flat : all) {
    if (flat.record.kind != RecordKind::kSpanBegin) continue;
    if (flat.record.category != category || flat.record.name != name) continue;
    if (trace_id != 0 && flat.record.trace_id != trace_id) continue;
    if (!node.empty() && flat.node != node) continue;
    return &flat;
  }
  return nullptr;
}

bool HasEnd(const std::vector<FlatRecord>& all, uint64_t span_id) {
  for (const auto& flat : all) {
    if (flat.record.kind == RecordKind::kSpanEnd &&
        flat.record.span_id == span_id) {
      return true;
    }
  }
  return false;
}

TEST(TraceClusterTest, SingleWriteYieldsCrossNodeSpanTree) {
  ClusterHarness cluster(SmallCluster(11), FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(60 * kSecond);
  ASSERT_FALSE(primary.empty());

  auto result = cluster.SyncWrite("key", "value");
  ASSERT_TRUE(result.status.ok()) << result.status;
  cluster.loop()->RunFor(2 * kSecond);  // let followers append and apply

  const auto all = AllRecords(cluster);

  // Root: the client span.
  const FlatRecord* client = FindBegin(all, "client", "write", 0, "client");
  ASSERT_NE(client, nullptr);
  const uint64_t trace = client->record.trace_id;
  ASSERT_NE(trace, 0u);
  EXPECT_TRUE(HasEnd(all, client->record.span_id));

  // Leader commit pipeline, parented under the client span.
  const FlatRecord* total =
      FindBegin(all, "server", "commit.total", trace, primary);
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->record.parent_span_id, client->record.span_id);
  EXPECT_TRUE(HasEnd(all, total->record.span_id));
  for (const char* stage :
       {"commit.flush", "commit.consensus_wait", "commit.engine_commit"}) {
    const FlatRecord* span = FindBegin(all, "server", stage, trace, primary);
    ASSERT_NE(span, nullptr) << stage;
    EXPECT_EQ(span->record.parent_span_id, total->record.span_id) << stage;
    EXPECT_TRUE(HasEnd(all, span->record.span_id)) << stage;
  }

  // Replication: a leader-side batch span carrying the trace, and on a
  // different node a follower append span parented under that batch.
  const FlatRecord* batch =
      FindBegin(all, "raft", "replicate.batch", trace, primary);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->record.parent_span_id, total->record.span_id);

  bool follower_append = false;
  bool follower_apply = false;
  for (const auto& flat : all) {
    if (flat.node == primary || flat.node == "client") continue;
    if (flat.record.kind != RecordKind::kSpanBegin) continue;
    if (flat.record.trace_id != trace) continue;
    if (flat.record.category == "raft" &&
        flat.record.name == "follower.append" &&
        flat.record.parent_span_id != 0) {
      follower_append = true;
    }
    if (flat.record.category == "applier" && flat.record.name == "apply" &&
        flat.record.parent_span_id == total->record.span_id) {
      follower_apply = true;
      EXPECT_TRUE(HasEnd(all, flat.record.span_id));
    }
  }
  EXPECT_TRUE(follower_append);
  EXPECT_TRUE(follower_apply);

  // Quorum ack instant on the leader.
  bool quorum_ack = false;
  for (const auto& flat : all) {
    if (flat.node == primary && flat.record.kind == RecordKind::kInstant &&
        flat.record.category == "raft" && flat.record.name == "quorum_ack" &&
        flat.record.trace_id == trace) {
      quorum_ack = true;
    }
  }
  EXPECT_TRUE(quorum_ack);

  // The Chrome export contains the whole tree (process metadata per node,
  // the commit stages, and the follower apply).
  const std::string chrome = cluster.TraceChromeJson();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("process_name"), std::string::npos);
  EXPECT_NE(chrome.find("commit.total"), std::string::npos);
  EXPECT_NE(chrome.find("follower.append"), std::string::npos);
  EXPECT_NE(chrome.find("apply"), std::string::npos);
}

// --- Determinism ---------------------------------------------------------------

std::string RunTracedScenario(uint64_t seed) {
  ClusterHarness cluster(SmallCluster(seed), FlexiEngine());
  if (!cluster.Bootstrap().ok()) return "bootstrap-failed";
  const MemberId primary = cluster.WaitForPrimary(60 * kSecond);
  if (primary.empty()) return "no-primary";
  (void)cluster.SyncWrite("a", "1");
  (void)cluster.SyncWrite("b", "2");
  cluster.Crash(primary);
  const MemberId next = cluster.WaitForPrimary(120 * kSecond);
  if (next.empty()) return "no-failover";
  (void)cluster.SyncWrite("c", "3");
  cluster.loop()->RunFor(2 * kSecond);
  return cluster.TraceJsonl();
}

TEST(TraceClusterTest, SameSeedRunsEmitByteIdenticalJournals) {
  const std::string first = RunTracedScenario(21);
  const std::string second = RunTracedScenario(21);
  ASSERT_GT(first.size(), 1000u);
  EXPECT_EQ(first, second);
}

// --- Failover decomposition vs the downtime probe -------------------------------

TEST(TraceClusterTest, FailoverBreakdownMatchesDowntimeProbe) {
  constexpr uint64_t kProbeInterval = 10'000;
  ClusterHarness cluster(SmallCluster(31), FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(60 * kSecond);
  ASSERT_FALSE(primary.empty());
  (void)cluster.SyncWrite("warm", "up");
  cluster.loop()->RunFor(3 * kSecond);

  auto downtime = cluster.MeasureWriteDowntime(
      [&]() { cluster.Crash(primary); }, kProbeInterval);
  ASSERT_TRUE(downtime.recovered);

  TraceAnalyzer analyzer(cluster.TraceJournals());
  const auto phases = analyzer.FailoverBreakdown();
  ASSERT_TRUE(phases.complete);
  EXPECT_NE(phases.winner, primary);
  EXPECT_FALSE(phases.winner.empty());
  EXPECT_EQ(phases.total_micros,
            phases.detect_micros + phases.election_micros +
                phases.promotion_micros + phases.first_write_micros);
  EXPECT_GT(phases.detect_micros, 0u);
  EXPECT_GT(phases.promotion_micros, 0u);

  // The trace-derived outage and the client-observed outage measure the
  // same window from two vantage points; they may differ by at most one
  // probe interval (probe issue quantisation + client network latency).
  const uint64_t probe = downtime.downtime_micros;
  const uint64_t traced = phases.total_micros;
  const uint64_t diff = probe > traced ? probe - traced : traced - probe;
  EXPECT_LE(diff, kProbeInterval)
      << "probe=" << probe << " traced=" << traced;

  // The analyzer's JSON emitters produce non-trivial output.
  EXPECT_NE(TraceAnalyzer::FailoverJson(phases).find("\"total_us\""),
            std::string::npos);
  EXPECT_NE(analyzer.StageBreakdownJson().find("server.commit.total"),
            std::string::npos);
}

// --- Slow-transaction log -------------------------------------------------------

TEST(TraceClusterTest, SlowTxnThresholdEmitsStructuredLine) {
  ClusterOptions options = SmallCluster(41);
  options.slow_txn_threshold_micros = 1;  // every commit is "slow"
  ClusterHarness cluster(options, FlexiEngine());

  std::vector<std::string> warnings;
  SetLogSink([&warnings](LogLevel level, const std::string& message) {
    if (level >= LogLevel::kWarning) warnings.push_back(message);
  });
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(60 * kSecond);
  EXPECT_FALSE(primary.empty());
  auto result = cluster.SyncWrite("key", "value");
  SetLogSink(nullptr);
  ASSERT_TRUE(result.status.ok()) << result.status;

  bool found = false;
  for (const std::string& line : warnings) {
    if (line.find("slow-txn") == std::string::npos) continue;
    found = true;
    EXPECT_NE(line.find("gtid="), std::string::npos);
    EXPECT_NE(line.find("total_us="), std::string::npos);
    EXPECT_NE(line.find("flush_us="), std::string::npos);
    EXPECT_NE(line.find("wait_us="), std::string::npos);
    EXPECT_NE(line.find("commit_us="), std::string::npos);
    EXPECT_NE(line.find("straggler="), std::string::npos);
    break;
  }
  EXPECT_TRUE(found) << "no slow-txn line among " << warnings.size()
                     << " warnings";
}

// --- Sim-clock-stamped logging --------------------------------------------------

TEST(LogContextTest, StructuredSinkSeesSimClockStamp) {
  ManualClock clock;
  clock.SetMicros(4321);
  std::vector<LogRecord> records;
  SetStructuredLogSink(
      [&records](const LogRecord& record) { records.push_back(record); });
  SetLogSink([](LogLevel, const std::string&) {});  // silence stderr

  {
    ScopedLogContext context("nodeX", &clock);
    MYRAFT_LOG(Warning) << "inside";
  }
  MYRAFT_LOG(Warning) << "outside";

  SetStructuredLogSink(nullptr);
  SetLogSink(nullptr);

  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].node, "nodeX");
  EXPECT_EQ(records[0].timestamp_micros, 4321u);
  EXPECT_NE(records[0].message.find("inside"), std::string::npos);
  EXPECT_NE(records[0].message.find("4321"), std::string::npos);
  EXPECT_NE(records[0].message.find("nodeX"), std::string::npos);
  EXPECT_TRUE(records[1].node.empty());
  EXPECT_EQ(records[1].timestamp_micros, 0u);
}

}  // namespace
}  // namespace myraft::trace
