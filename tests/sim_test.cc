// Simulator substrate tests: event-loop ordering/cancellation, network
// latency/fault/accounting behaviour, and the downtime probe.

#include <gtest/gtest.h>

#include "metric_value.h"
#include "sim/downtime_probe.h"
#include "sim/event_loop.h"
#include "sim/network.h"

namespace myraft::sim {
namespace {

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop(1);
  std::vector<int> order;
  loop.Schedule(300, [&]() { order.push_back(3); });
  loop.Schedule(100, [&]() { order.push_back(1); });
  loop.Schedule(200, [&]() { order.push_back(2); });
  loop.RunUntil(1'000);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 1'000u);
}

TEST(EventLoopTest, EqualTimesRunInScheduleOrder) {
  EventLoop loop(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.Schedule(50, [&order, i]() { order.push_back(i); });
  }
  loop.RunFor(100);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoopTest, KeyedEventTakesAPlainEventsPlace) {
  // Two loops run the same script; in the second, the event the first
  // schedules plainly at loop time 50 (its seq reserved there) is keyed in
  // later, from loop time 80. Both must run everything in one order.
  auto run = [](bool keyed) {
    EventLoop loop(1);
    std::vector<std::string> order;
    auto note = [&order](const char* name) {
      return [&order, name]() { order.push_back(name); };
    };
    loop.Schedule(100, note("from0"));  // key (100, 0, 1)
    loop.RunUntil(50);
    loop.Schedule(50, note("from50.first"));  // key (100, 50, 2)
    uint64_t reserved = 0;
    if (keyed) {
      reserved = loop.ReserveSeq();  // the seq a plain event would take
    } else {
      loop.Schedule(50, note("target"));  // key (100, 50, 3)
    }
    loop.Schedule(50, note("from50.last"));  // key (100, 50, 4)
    loop.RunUntil(80);
    loop.Schedule(20, note("from80"));  // key (100, 80, 5)
    if (keyed) {
      EXPECT_FALSE(loop.HasRun(EventKey{100, 50, reserved}));
      loop.ScheduleAt(EventKey{100, 50, reserved}, note("target"));
    }
    loop.RunUntil(99);
    EXPECT_FALSE(loop.HasRun(EventKey{100, 50, reserved}));
    loop.RunUntil(100);
    if (keyed) {
      EXPECT_TRUE(loop.HasRun(EventKey{100, 50, reserved}));
      EXPECT_TRUE(loop.HasRun(EventKey{100, 100, UINT64_MAX}));
    }
    return order;
  };
  const std::vector<std::string> want{"from0", "from50.first", "target",
                                      "from50.last", "from80"};
  EXPECT_EQ(run(false), want);
  EXPECT_EQ(run(true), want);
}

TEST(EventLoopTest, KeyedEventSortsByScheduledAtBeforeSeq) {
  // A sequence number reserved early keeps a keyed event's place among
  // events scheduled at its own scheduled-at time; it does not move it
  // ahead of an event scheduled earlier than that.
  EventLoop loop(1);
  std::vector<std::string> order;
  const uint64_t reserved = loop.ReserveSeq();
  loop.RunUntil(60);
  loop.Schedule(40, [&]() { order.push_back("from60"); });  // (100, 60, 2)
  loop.ScheduleAt(EventKey{100, 80, reserved},
                  [&]() { order.push_back("keyed80"); });
  loop.RunUntil(100);
  EXPECT_EQ(order, (std::vector<std::string>{"from60", "keyed80"}));
}

TEST(EventLoopTest, HasRunFollowsThePoppedKey) {
  EventLoop loop(1);
  bool checked = false;
  loop.Schedule(10, [&]() {
    // Inside the event at (10, 0, 1): earlier keys have run, later not.
    EXPECT_TRUE(loop.HasRun(EventKey{10, 0, 1}));
    EXPECT_TRUE(loop.HasRun(EventKey{5, 5, 99}));
    EXPECT_FALSE(loop.HasRun(EventKey{10, 0, 2}));
    EXPECT_FALSE(loop.HasRun(EventKey{10, 5, 0}));
    checked = true;
  });
  loop.RunOne();
  EXPECT_TRUE(checked);
  EXPECT_EQ(loop.events_run(), 1u);
}

TEST(EventLoopTest, NestedSchedulingAdvancesClock) {
  EventLoop loop(1);
  std::vector<uint64_t> times;
  std::function<void(int)> chain = [&](int remaining) {
    times.push_back(loop.now());
    if (remaining > 0) {
      loop.Schedule(10, [&, remaining]() { chain(remaining - 1); });
    }
  };
  loop.Schedule(0, [&]() { chain(4); });
  loop.RunUntil(1'000);
  EXPECT_EQ(times, (std::vector<uint64_t>{0, 10, 20, 30, 40}));
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop(1);
  bool ran = false;
  const uint64_t id = loop.Schedule(100, [&]() { ran = true; });
  loop.Cancel(id);
  loop.RunFor(1'000);
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, CancelAfterRunIsANoOp) {
  EventLoop loop(1);
  const uint64_t ran = loop.Schedule(10, []() {});
  loop.RunFor(100);
  loop.Cancel(ran);         // already ran
  loop.Cancel(ran + 1000);  // never issued
  EXPECT_EQ(loop.pending_events(), 0u);
  bool later = false;
  loop.Schedule(10, [&]() { later = true; });
  EXPECT_EQ(loop.pending_events(), 1u);
  loop.RunFor(100);
  EXPECT_TRUE(later);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(EventLoopTest, RunUntilStopsBeforeLaterEvents) {
  EventLoop loop(1);
  bool early = false, late = false;
  loop.Schedule(100, [&]() { early = true; });
  loop.Schedule(900, [&]() { late = true; });
  loop.RunUntil(500);
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(loop.now(), 500u);
  loop.RunUntil(1'000);
  EXPECT_TRUE(late);
}

TEST(EventLoopTest, DeterministicForSameSeed) {
  auto run = [](uint64_t seed) {
    EventLoop loop(seed);
    std::vector<uint64_t> samples;
    for (int i = 0; i < 10; ++i) samples.push_back(loop.rng()->Next());
    return samples;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

Message MakeHeartbeat(const MemberId& from, const MemberId& to) {
  AppendEntriesRequest request;
  request.leader = from;
  request.dest = to;
  request.term = 1;
  return request;
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : loop_(7), network_(&loop_, WithMetrics(&metrics_)) {
    a_ = Register("a", "r0");
    Register("b", "r0");
    Register("c", "r1");
  }

  static NetworkOptions WithMetrics(metrics::MetricRegistry* metrics) {
    NetworkOptions options;
    options.metrics = metrics;
    return options;
  }

  uint32_t Register(const MemberId& id, const RegionId& region) {
    return network_.RegisterNode(
        id, region, [this, id](const MemberId& from, const Message& m) {
          deliveries_.push_back({id, from});
          if (const auto* request = std::get_if<AppendEntriesRequest>(&m)) {
            delivered_terms_.push_back(request->term);
          }
        });
  }

  metrics::MetricRegistry metrics_;
  EventLoop loop_;
  SimNetwork network_;
  uint32_t a_ = 0;  // member a's slot: every test sends from a
  std::vector<std::pair<MemberId, MemberId>> deliveries_;  // (to, from)
  std::vector<uint64_t> delivered_terms_;  // AppendEntries only

  /// Sends `n` heartbeats a -> c (cross-region, 2 ms latency jitter),
  /// numbered by term, 100 us apart, and returns how many arrived after a
  /// later-numbered one.
  size_t SendNumberedAndCountInversions(int n) {
    delivered_terms_.clear();
    for (int i = 1; i <= n; ++i) {
      auto request = std::get<AppendEntriesRequest>(MakeHeartbeat("a", "c"));
      request.term = static_cast<uint64_t>(i);
      network_.Send(a_, Message(request));
      loop_.RunFor(100);
    }
    loop_.RunFor(200'000);
    EXPECT_EQ(delivered_terms_.size(), static_cast<size_t>(n));
    size_t inversions = 0;
    for (size_t i = 1; i < delivered_terms_.size(); ++i) {
      if (delivered_terms_[i] < delivered_terms_[i - 1]) ++inversions;
    }
    return inversions;
  }
};

TEST_F(NetworkTest, SameRegionFasterThanCrossRegion) {
  network_.Send(a_, MakeHeartbeat("a", "b"));
  loop_.RunFor(1'000);  // same-region: 150-250us
  ASSERT_EQ(deliveries_.size(), 1u);
  deliveries_.clear();

  network_.Send(a_, MakeHeartbeat("a", "c"));
  loop_.RunFor(1'000);
  EXPECT_TRUE(deliveries_.empty());  // cross-region: ~15ms
  loop_.RunFor(20'000);
  EXPECT_EQ(deliveries_.size(), 1u);
}

TEST_F(NetworkTest, DownNodesAndCutLinksDrop) {
  network_.SetNodeUp("b", false);
  network_.Send(a_, MakeHeartbeat("a", "b"));
  loop_.RunFor(10'000);
  EXPECT_TRUE(deliveries_.empty());
  EXPECT_EQ(network_.dropped_messages(), 1u);

  network_.SetNodeUp("b", true);
  network_.SetLinkCut("a", "b", true);
  network_.Send(a_, MakeHeartbeat("a", "b"));
  loop_.RunFor(10'000);
  EXPECT_TRUE(deliveries_.empty());

  network_.SetLinkCut("a", "b", false);
  network_.Send(a_, MakeHeartbeat("a", "b"));
  loop_.RunFor(10'000);
  EXPECT_EQ(deliveries_.size(), 1u);
}

TEST_F(NetworkTest, RegionPartitionCutsOnlyCrossRegion) {
  network_.SetRegionPartitioned("r1", true);
  network_.Send(a_, MakeHeartbeat("a", "b"));  // within r0: fine
  network_.Send(a_, MakeHeartbeat("a", "c"));  // into r1: dropped
  loop_.RunFor(50'000);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].first, "b");
}

TEST_F(NetworkTest, CrashMidFlightDropsAtDelivery) {
  network_.Send(a_, MakeHeartbeat("a", "c"));  // ~15ms in flight
  loop_.RunFor(1'000);
  network_.SetNodeUp("c", false);  // crashes while the message flies
  loop_.RunFor(30'000);
  EXPECT_TRUE(deliveries_.empty());
}

TEST_F(NetworkTest, RestartMidFlightDropsTheOldRegistrationsMessage) {
  // A restart is a new registration on the member's old slot: a message
  // sent to the crashed process dies with its connection.
  network_.Send(a_, MakeHeartbeat("a", "c"));  // ~15ms in flight
  loop_.RunFor(1'000);
  network_.SetNodeUp("c", false);
  network_.UnregisterNode("c");
  Register("c", "r1");
  network_.SetNodeUp("c", true);
  network_.Send(a_, MakeHeartbeat("a", "c"));  // to the new process
  loop_.RunFor(30'000);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].first, "c");
  EXPECT_EQ(MetricValue(&metrics_, "net.dropped.in_flight"), 1u);
  EXPECT_EQ(MetricValue(&metrics_, "net.dropped"), 1u);
  // The member's traffic is still one pair across both registrations.
  EXPECT_EQ(network_.member_link_stats().at({"a", "c"}).messages, 2u);
}

TEST_F(NetworkTest, RestartedSenderStartsNewConnections) {
  // The old process's message is slow; the restarted process's first
  // message is not queued behind it.
  network_.SetNodeExtraDelay("a", 100'000);
  auto first = std::get<AppendEntriesRequest>(MakeHeartbeat("a", "c"));
  first.term = 1;
  network_.Send(a_, Message(first));
  network_.UnregisterNode("a");
  Register("a", "r0");
  network_.SetNodeExtraDelay("a", 0);
  auto second = std::get<AppendEntriesRequest>(MakeHeartbeat("a", "c"));
  second.term = 2;
  network_.Send(a_, Message(second));
  loop_.RunFor(200'000);
  EXPECT_EQ(delivered_terms_, (std::vector<uint64_t>{2, 1}));
}

TEST_F(NetworkTest, ByteAccountingPerRegionAndMember) {
  network_.Send(a_, MakeHeartbeat("a", "c"));
  network_.Send(a_, MakeHeartbeat("a", "b"));
  loop_.RunFor(30'000);
  EXPECT_GT(network_.CrossRegionBytes(), 0u);
  EXPECT_GT(network_.TotalBytes(), network_.CrossRegionBytes());
  const auto& member_stats = network_.member_link_stats();
  EXPECT_EQ(member_stats.at({"a", "c"}).messages, 1u);
  EXPECT_EQ(member_stats.at({"a", "b"}).messages, 1u);
  network_.ResetStats();
  EXPECT_EQ(network_.TotalBytes(), 0u);
}

TEST_F(NetworkTest, ReplicationLagDelaysOnlyDataAppends) {
  network_.SetNodeReplicationLag("b", 500'000);
  // Heartbeat (no entries): fast.
  network_.Send(a_, MakeHeartbeat("a", "b"));
  loop_.RunFor(5'000);
  EXPECT_EQ(deliveries_.size(), 1u);
  deliveries_.clear();
  // Data-carrying append: +500ms.
  AppendEntriesRequest data;
  data.leader = "a";
  data.dest = "b";
  data.term = 1;
  data.entries.push_back(LogEntry::Make({1, 1}, EntryType::kNoOp, "x"));
  network_.Send(a_, Message(data));
  loop_.RunFor(100'000);
  EXPECT_TRUE(deliveries_.empty());
  loop_.RunFor(500'000);
  EXPECT_EQ(deliveries_.size(), 1u);
}

TEST_F(NetworkTest, LatencyJitterNeverReordersALink) {
  // Links are FIFO, as TCP is: the 2 ms cross-region latency jitter
  // would reorder messages sent 100 us apart if arrivals were drawn
  // independently, but each one waits for its predecessor instead.
  EXPECT_EQ(SendNumberedAndCountInversions(200), 0u);
}

TEST_F(NetworkTest, ChaosJitterStillReordersALink) {
  // Reordering is a fault: the chaos jitter sits outside the FIFO order.
  network_.SetChaosJitter(20'000);
  EXPECT_GT(SendNumberedAndCountInversions(200), 10u);
  network_.HealAllFaults();
  EXPECT_EQ(SendNumberedAndCountInversions(200), 0u);
}

TEST_F(NetworkTest, RoutedMessageDeliversToNextHop) {
  AppendEntriesRequest routed;
  routed.leader = "a";
  routed.dest = "c";
  routed.route = {"b"};
  routed.term = 1;
  network_.Send(a_, Message(routed));
  loop_.RunFor(5'000);  // in-region to the relay, not cross-region
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].first, "b");
  EXPECT_EQ(deliveries_[0].second, "a");
}

TEST(DowntimeProbeTest, MeasuresLongestOutageWindow) {
  EventLoop loop(3);
  // Writes fail between t=100ms and t=400ms.
  bool down = false;
  loop.Schedule(100'000, [&]() { down = true; });
  loop.Schedule(400'000, [&]() { down = false; });

  DowntimeProbe::Options options;
  options.probe_interval_micros = 10'000;
  options.timeout_micros = 2'000'000;
  auto result = DowntimeProbe::Measure(
      &loop,
      [&loop, &down](const std::string&, std::function<void(bool)> report) {
        const bool ok = !down;
        loop.Schedule(1'000, [report, ok]() { report(ok); });
      },
      []() {}, []() { return true; }, options);

  EXPECT_TRUE(result.completed);
  EXPECT_TRUE(result.saw_outage);
  EXPECT_EQ(result.outages, 1);
  EXPECT_NEAR(static_cast<double>(result.downtime_micros), 300'000.0,
              30'000.0);
}

TEST(DowntimeProbeTest, NoOutageReportsZeroWhenNotExpected) {
  EventLoop loop(4);
  DowntimeProbe::Options options;
  options.probe_interval_micros = 10'000;
  options.timeout_micros = 500'000;
  options.expect_outage = false;
  auto result = DowntimeProbe::Measure(
      &loop,
      [&loop](const std::string&, std::function<void(bool)> report) {
        loop.Schedule(1'000, [report]() { report(true); });
      },
      []() {}, []() { return true; }, options);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.saw_outage);
  EXPECT_EQ(result.downtime_micros, 0u);
}

}  // namespace
}  // namespace myraft::sim
