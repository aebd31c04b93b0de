// Causal-tracing tests: journal overflow accounting, the byte-packed
// journal against a std::deque reference, its steady-state allocations and
// bytes per record, the exporters' pinned bytes, deterministic same-seed journals, the cross-node span tree
// of a single traced write (client -> leader commit stages -> follower
// append/ack -> follower apply), trace-context wire/GTID round trips with backward-compatible
// decode, the TraceAnalyzer failover decomposition against the downtime
// probe, the slow-transaction log, and sim-clock-stamped log contexts.

#include "util/trace.h"

#include <gtest/gtest.h>

#include <deque>
#include <random>

#include "binlog/binlog_event.h"
#include "counting_new.h"
#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"
#include "util/clock.h"
#include "util/logging.h"
#include "wire/messages.h"

namespace myraft::trace {
namespace {

using sim::ClusterHarness;
using sim::ClusterOptions;
constexpr uint64_t kSecond = 1'000'000;

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
    tracer.Instant("test", "e", 0, std::to_string(i));
  }
  EXPECT_EQ(tracer.size(), 8u);
  EXPECT_EQ(tracer.dropped(), 4u);
  EXPECT_EQ(registry.GetCounter("trace.dropped")->value(), 4u);
  const auto snapshot = tracer.Snapshot();
  ASSERT_EQ(snapshot.size(), 8u);
  EXPECT_EQ(snapshot.front().args, "4");  // oldest four gone
  EXPECT_EQ(snapshot.back().args, "11");
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

// The journal as it was before it became a byte stream: a deque of whole
// records, capped by count.
struct ReferenceJournal {
  size_t capacity = 0;
  std::deque<TraceRecord> records;
  uint64_t next_seq = 0;
  uint64_t dropped = 0;

  void Push(TraceRecord record) {
    record.seq = ++next_seq;
    while (records.size() >= capacity && !records.empty()) {
      records.pop_front();
      ++dropped;
    }
    if (capacity == 0) {
      ++dropped;
      return;
    }
    records.push_back(std::move(record));
  }
};

void ExpectSameJournal(const Tracer& tracer, const ReferenceJournal& ref) {
  ASSERT_EQ(tracer.size(), ref.records.size());
  ASSERT_EQ(tracer.dropped(), ref.dropped);
  const std::vector<TraceRecord> snapshot = tracer.Snapshot();
  ASSERT_EQ(snapshot.size(), ref.records.size());
  for (size_t i = 0; i < snapshot.size(); ++i) {
    const TraceRecord& got = snapshot[i];
    const TraceRecord& want = ref.records[i];
    ASSERT_EQ(got.kind, want.kind) << "record " << i;
    ASSERT_EQ(got.seq, want.seq) << "record " << i;
    ASSERT_EQ(got.ts_micros, want.ts_micros) << "record " << i;
    ASSERT_EQ(got.trace_id, want.trace_id) << "record " << i;
    ASSERT_EQ(got.span_id, want.span_id) << "record " << i;
    ASSERT_EQ(got.parent_span_id, want.parent_span_id) << "record " << i;
    ASSERT_EQ(got.category, want.category) << "record " << i;
    ASSERT_EQ(got.name, want.name) << "record " << i;
    ASSERT_EQ(got.args, want.args) << "record " << i;
  }
}

// Random spans, ends and instants, with arbitrary args bytes and an
// occasional record larger than any block, a clock that stands still,
// jumps and steps back, and Clear() mid-stream: after every batch the
// journal must read back exactly what the reference holds.
TEST(TracerTest, JournalMatchesDequeReference) {
  for (const size_t capacity : {0, 1, 7, 128, 65'536}) {
    SCOPED_TRACE(testing::Message() << "capacity " << capacity);
    ManualClock clock;
    TracerOptions options;
    options.node = "n";
    options.id_salt = 5;
    options.capacity = capacity;
    options.clock = &clock;
    Tracer tracer(options);
    ReferenceJournal ref;
    ref.capacity = capacity;
    std::mt19937_64 rng(capacity + 1);
    auto pick = [&rng](uint64_t n) { return rng() % n; };
    auto random_args = [&] {
      std::string args(pick(500) == 0 ? 70 * 1024 : pick(301), '\0');
      for (char& c : args) c = static_cast<char>(pick(256));
      return args;
    };

    std::vector<uint64_t> spans;
    const size_t ops = std::max<size_t>(2'000, capacity * 5 / 2);
    const size_t batch = ops / 20;
    for (size_t op = 1; op <= ops; ++op) {
      switch (pick(8)) {
        case 0: clock.AdvanceMicros(pick(200)); break;
        case 1: clock.AdvanceMicros(pick(uint64_t{1} << 40)); break;
        case 2: clock.SetMicros(clock.NowMicros() - std::min<uint64_t>(
                                    clock.NowMicros(), pick(1'000)));
                break;
        default: break;  // same microsecond
      }
      if (op == ops / 5 || pick(std::max<size_t>(1'000, 4 * capacity)) == 0) {
        tracer.Clear();
        ref.records.clear();
      }
      TraceRecord want;
      want.ts_micros = clock.NowMicros();
      want.trace_id = pick(3) == 0 ? 0 : rng();
      switch (pick(4)) {
        case 0: {
          want.kind = RecordKind::kSpanBegin;
          want.parent_span_id = pick(2) == 0 ? 0 : rng();
          want.args = random_args();
          if (pick(2) == 0) {
            want.category = "raft";
            want.name = "replicate.batch";
            want.span_id = tracer.BeginSpan("raft", "replicate.batch",
                                            want.trace_id, want.parent_span_id,
                                            want.args);
          } else {
            want.category = "server";
            want.name = "commit.total";
            want.span_id = tracer.BeginSpan("server", "commit.total",
                                            want.trace_id, want.parent_span_id,
                                            want.args);
          }
          spans.push_back(want.span_id);
          break;
        }
        case 1: {
          want.kind = RecordKind::kSpanEnd;
          want.trace_id = 0;
          const uint64_t choice = pick(8);
          want.span_id = choice == 0   ? 0  // no record at all
                         : choice == 1 ? rng()
                         : spans.empty()
                             ? 0xdead
                             : spans[pick(spans.size())];
          if (pick(2) == 0) {
            want.args = random_args();
            tracer.EndSpan(want.span_id, want.args);
          } else {
            want.args = Args("acked_by", "db1", "durable", op);
            tracer.EndSpan(want.span_id, "acked_by", "db1", "durable", op);
          }
          if (want.span_id == 0) continue;
          break;
        }
        default: {
          want.kind = RecordKind::kInstant;
          want.category = "proxy";
          want.name = "relayed";
          if (pick(2) == 0) {
            want.args = random_args();
            tracer.Instant("proxy", "relayed", want.trace_id, want.args);
          } else {
            want.args = Args("dest", "db2", "n", op % 17);
            tracer.Instant("proxy", "relayed", want.trace_id, "dest", "db2",
                           "n", op % 17);
          }
          break;
        }
      }
      ref.Push(std::move(want));
      if (op % batch == 0) {
        ExpectSameJournal(tracer, ref);
        if (HasFatalFailure()) return;
      }
    }
    EXPECT_GT(ref.dropped, 0u);  // every capacity cycled
  }
}

// Once the journal has cycled at capacity, dropped records' blocks take
// the new ones: 10,000 pushes, key/value args included, allocate nothing.
TEST(TracerTest, CycledJournalPushesWithoutAllocating) {
  ManualClock clock;
  TracerOptions options;
  options.node = "n";
  options.capacity = 1'024;
  options.clock = &clock;
  Tracer tracer(options);
  const std::string note(200, 'x');
  uint64_t span = 0;
  auto push = [&](int i) {
    clock.AdvanceMicros(i % 4 == 0 ? 0 : 37);
    switch (i % 3) {
      case 0:
        span = tracer.BeginSpan("raft", "replicate.batch", 77, 0, "peer",
                                "db1", "first", i, "last", i + 7, "window",
                                i % 8);
        break;
      case 1:
        tracer.Instant("raft", "quorum_ack", 77,
                       std::string_view(note).substr(0, i % 200));
        break;
      default:
        tracer.EndSpan(span, "acked_by", "db2", "durable", i);
    }
  };
  for (int i = 0; i < 10'000; ++i) push(i);  // fill, then cycle
  ASSERT_EQ(tracer.size(), 1'024u);

  news_counted = 0;
  count_news = true;
  for (int i = 0; i < 10'000; ++i) push(i);
  count_news = false;
  EXPECT_EQ(news_counted, 0u);
  EXPECT_EQ(tracer.size(), 1'024u);
  EXPECT_EQ(tracer.dropped(), 20'000u - 1'024u);
}

// The records one traced commit leaves across a leader's journal in the
// failover workload, with its replication to two peers, a follower's
// append and an apply.
void PushCommitRecords(Tracer* tracer, ManualClock* clock, uint64_t n) {
  binlog::Gtid gtid;
  gtid.server_uuid = Uuid::FromIndex(3);
  gtid.txn_no = n;
  const OpId opid{4, 100 + n};
  const uint64_t trace = tracer->NextTraceId();
  const uint64_t total =
      tracer->BeginSpan("server", "commit.total", trace, 0x1234567890);
  const uint64_t flush =
      tracer->BeginSpan("server", "commit.flush", trace, total);
  clock->AdvanceMicros(12);
  tracer->EndSpan(flush, "gtid", gtid, "opid", opid);
  const uint64_t wait =
      tracer->BeginSpan("server", "commit.consensus_wait", trace, total);
  for (const char* peer : {"rs0.db1", "rs0.db2"}) {
    const uint64_t batch = tracer->BeginSpan(
        "raft", "replicate.batch", trace, total, "peer",
        std::string_view(peer), "first", opid.index, "last", opid.index,
        "window", n % 8 + 1);
    clock->AdvanceMicros(300);
    tracer->EndSpan(batch, "acked_by", std::string_view(peer), "durable",
                    opid.index);
  }
  const uint64_t append = tracer->BeginSpan(
      "raft", "follower.append", trace, total, "leader", "rs0.db0", "n",
      size_t{1}, "first", opid.index);
  tracer->EndSpan(append, "ok last=1234 durable=1234");
  tracer->Instant("raft", "quorum_ack", trace, "index", opid.index,
                  "completed_by", "rs0.db1");
  tracer->EndSpan(wait);
  const uint64_t engine =
      tracer->BeginSpan("server", "commit.engine_commit", trace, total);
  tracer->EndSpan(engine);
  tracer->EndSpan(total, "gtid", gtid, "opid", opid);
  const uint64_t apply = tracer->BeginSpan("applier", "apply", trace, total,
                                           "opid", opid, "slot", n % 4);
  clock->AdvanceMicros(40);
  tracer->EndSpan(apply);
}

// A cycled journal of that mix holds its records in under 64 bytes each,
// blocks and scratch included (a deque record was 112 bytes plus a heap
// string for args past 15 bytes).
TEST(TracerTest, FailoverMixCostsUnder64BytesPerRecord) {
  ManualClock clock;
  TracerOptions options;
  options.node = "rs0.db0";
  options.id_salt = 1;
  options.capacity = 16'384;
  options.clock = &clock;
  Tracer tracer(options);
  for (uint64_t n = 0; tracer.dropped() < 3 * options.capacity; ++n) {
    PushCommitRecords(&tracer, &clock, n);
  }
  const double per_record =
      static_cast<double>(tracer.memory_bytes()) / tracer.size();
  EXPECT_LT(per_record, 64.0);
  EXPECT_GT(per_record, 16.0);
}

// Names must be string literals: a std::string or a pointer does not
// convert, and a non-static array fails Literal's consteval constructor.
static_assert(std::is_constructible_v<Literal, const char (&)[5]>);
static_assert(!std::is_constructible_v<Literal, std::string>);
static_assert(!std::is_constructible_v<Literal, const char*>);

// --- Exporter bytes -------------------------------------------------------------

// A fixed two-node journal: begin/end pairs (one across nodes, one never
// closed), instants, an unmatched end, same-timestamp ties, JSON escapes in
// a node name and in args, and integer, OpId, GTID and member-id args. The
// expected strings pin every exporter's bytes.
TEST(TraceTest, ExportsArePinned) {
  ManualClock clock;
  TracerOptions a;
  a.node = "db0";
  a.id_salt = 1;
  a.clock = &clock;
  Tracer db0(a);
  TracerOptions b;
  b.node = "lt\"1";
  b.id_salt = 2;
  b.clock = &clock;
  Tracer lt1(b);

  binlog::Gtid gtid;
  gtid.server_uuid = Uuid::FromIndex(5);
  gtid.txn_no = 9;
  const MemberId follower = "lt\"1";
  const uint64_t five = 5;
  const uint64_t seven = 7;

  clock.AdvanceMicros(100);
  const uint64_t total = db0.BeginSpan("server", "commit.total", 11, 0,
                                       Args("gtid", gtid, "opid", OpId{2, 5}));
  clock.AdvanceMicros(20);
  const uint64_t append =
      lt1.BeginSpan("raft", "follower.append", 11, total,
                    Args("leader", "db0", "n", size_t{3}, "first", five));
  clock.AdvanceMicros(30);
  std::string end_args = "ok";
  AppendArgs(&end_args, "last", seven, "durable", seven);
  lt1.EndSpan(append, end_args);
  db0.Instant("raft", "quorum_ack", 11,
              Args("index", five, "completed_by", follower));
  lt1.Instant("proxy", "relayed", 11,
              "note=\"q\\\" nl=\n tab=\t ctl=\x01 end");
  clock.AdvanceMicros(50);
  db0.EndSpan(total, "ok");
  lt1.EndSpan(0xdead);
  clock.AdvanceMicros(10);
  db0.BeginSpan("server", "promotion", 0, 0, Args("term", 3));
  db0.Instant("fault", "crash", 0, "node=db0 mode=lose_unsynced");
  lt1.Instant("raft", "election_started", 0,
              Args("term", 4, "slot", long{-2}));

  const std::vector<JournalView> journals{
      JournalView{db0.node(), db0.Snapshot()},
      JournalView{lt1.node(), lt1.Snapshot()}};
  EXPECT_EQ(ExportJsonl(journals), R"pin({"node":"db0","seq":1,"ts":100,"ph":"B","cat":"server","name":"commit.total","trace":11,"span":1099511627777,"args":"gtid=abcd0000-0000-0000-0000-000000000005:9 opid=2.5"}
{"node":"lt\"1","seq":1,"ts":120,"ph":"B","cat":"raft","name":"follower.append","trace":11,"span":2199023255553,"parent":1099511627777,"args":"leader=db0 n=3 first=5"}
{"node":"db0","seq":2,"ts":150,"ph":"I","cat":"raft","name":"quorum_ack","trace":11,"args":"index=5 completed_by=lt\"1"}
{"node":"lt\"1","seq":2,"ts":150,"ph":"E","span":2199023255553,"args":"ok last=7 durable=7"}
{"node":"lt\"1","seq":3,"ts":150,"ph":"I","cat":"proxy","name":"relayed","trace":11,"args":"note=\"q\\\" nl=\n tab=\t ctl=\u0001 end"}
{"node":"db0","seq":3,"ts":200,"ph":"E","span":1099511627777,"args":"ok"}
{"node":"lt\"1","seq":4,"ts":200,"ph":"E","span":57005}
{"node":"db0","seq":4,"ts":210,"ph":"B","cat":"server","name":"promotion","span":1099511627778,"args":"term=3"}
{"node":"db0","seq":5,"ts":210,"ph":"I","cat":"fault","name":"crash","args":"node=db0 mode=lose_unsynced"}
{"node":"lt\"1","seq":5,"ts":210,"ph":"I","cat":"raft","name":"election_started","args":"term=4 slot=-2"}
)pin");
  EXPECT_EQ(ExportChromeJson(journals), R"pin({"traceEvents":[
{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"db0"}},
{"ph":"i","s":"t","pid":1,"tid":1,"ts":150,"cat":"raft","name":"quorum_ack","args":{"trace":"11","span":"0","parent":"0","begin":"index=5 completed_by=lt\"1"}},
{"ph":"X","pid":1,"tid":2,"ts":100,"dur":100,"cat":"server","name":"commit.total","args":{"trace":"11","span":"1099511627777","parent":"0","begin":"gtid=abcd0000-0000-0000-0000-000000000005:9 opid=2.5","end":"ok"}},
{"ph":"i","s":"t","pid":1,"tid":3,"ts":210,"cat":"fault","name":"crash","args":{"trace":"0","span":"0","parent":"0","begin":"node=db0 mode=lose_unsynced"}},
{"ph":"X","pid":1,"tid":2,"ts":210,"dur":0,"cat":"server","name":"promotion","args":{"trace":"0","span":"1099511627778","parent":"0","begin":"term=3","end":"unclosed"}},
{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{"name":"raft"}},
{"ph":"M","pid":1,"tid":2,"name":"thread_name","args":{"name":"server"}},
{"ph":"M","pid":1,"tid":3,"name":"thread_name","args":{"name":"fault"}},
{"ph":"M","pid":2,"tid":0,"name":"process_name","args":{"name":"lt\"1"}},
{"ph":"X","pid":2,"tid":1,"ts":120,"dur":30,"cat":"raft","name":"follower.append","args":{"trace":"11","span":"2199023255553","parent":"1099511627777","begin":"leader=db0 n=3 first=5","end":"ok last=7 durable=7"}},
{"ph":"i","s":"t","pid":2,"tid":2,"ts":150,"cat":"proxy","name":"relayed","args":{"trace":"11","span":"0","parent":"0","begin":"note=\"q\\\" nl=\n tab=\t ctl=\u0001 end"}},
{"ph":"i","s":"t","pid":2,"tid":1,"ts":210,"cat":"raft","name":"election_started","args":{"trace":"0","span":"0","parent":"0","begin":"term=4 slot=-2"}},
{"ph":"M","pid":2,"tid":1,"name":"thread_name","args":{"name":"raft"}},
{"ph":"M","pid":2,"tid":2,"name":"thread_name","args":{"name":"proxy"}}
]}
)pin");
  EXPECT_EQ(ExportJsonArrayTail(journals, 3), R"pin([{"node":"db0","seq":4,"ts":210,"ph":"B","cat":"server","name":"promotion","span":1099511627778,"args":"term=3"},{"node":"db0","seq":5,"ts":210,"ph":"I","cat":"fault","name":"crash","args":"node=db0 mode=lose_unsynced"},{"node":"lt\"1","seq":5,"ts":210,"ph":"I","cat":"raft","name":"election_started","args":"term=4 slot=-2"}])pin");
  EXPECT_EQ(TraceAnalyzer(journals).StageBreakdownJson(), R"pin({"raft.follower.append":{"count":1,"mean_us":30.0,"p50_us":30.0,"p95_us":30.0,"p99_us":30.0,"max_us":30},"server.commit.total":{"count":1,"mean_us":100.0,"p50_us":100.0,"p95_us":100.0,"p99_us":100.0,"max_us":100}})pin");
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
  ClusterHarness cluster(SmallCluster(11), flexiraft::SingleRegionDynamic());
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
  ClusterHarness cluster(SmallCluster(seed), flexiraft::SingleRegionDynamic());
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
  ClusterHarness cluster(SmallCluster(31), flexiraft::SingleRegionDynamic());
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
  ClusterHarness cluster(options, flexiraft::SingleRegionDynamic());

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
