// Observability-plane tests (DESIGN.md §14): sampler windowing and series
// export, flight-recorder triggers/cooldown/bundle shape, health-detector
// scoring and outage windows, the raftstat DebugStatus surface, and the
// cross-checks the plane is built around — the HealthMonitor's outage
// measurement must agree with DowntimeProbe's client-side view of the
// same failover, chaos bundles must be byte-identical for the same seed,
// every registered metric must appear in the static catalog, and a node's
// metric registration stays within an allocation bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "chaos/nemesis.h"
#include "chaos/runner.h"
#include "flexiraft/flexiraft.h"
#include "obs/catalog.h"
#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/time_series.h"
#include "sim/cluster.h"
#include "util/clock.h"
#include "util/metrics.h"

// Counts operator new calls while armed, so a test can bound the
// allocations of one scope.
namespace {
bool count_news = false;
size_t news_counted = 0;
}  // namespace

void* operator new(size_t size) {
  if (count_news) ++news_counted;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's temporary buffer uses it), so
// every block the replaced deletes free came from malloc.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  if (count_news) ++news_counted;
  return std::malloc(size == 0 ? 1 : size);
}
// Not inlined: GCC would otherwise see free() of a new-expression's block
// at every delete-expression and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace myraft::obs {
namespace {

constexpr uint64_t kSecond = 1'000'000;

const raft::QuorumEngine* FlexiEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

// --- TimeSeriesSampler -------------------------------------------------------

TEST(TimeSeriesSamplerTest, WindowsCarryPerTickDeltas) {
  ManualClock clock;
  metrics::MetricRegistry registry;
  metrics::Counter* writes = registry.GetCounter("raft.writes");

  TimeSeriesOptions options;
  options.clock = &clock;
  options.interval_micros = 1'000;
  TimeSeriesSampler sampler(options);
  sampler.AddSource("db0", &registry);

  // First sight of a source: the window is its full accumulated state, so
  // pre-sampling activity is not lost.
  writes->Increment(5);
  sampler.Sample();
  ASSERT_EQ(sampler.window_count(), 1u);
  const metrics::MetricSnapshot* w = sampler.LastWindow("db0");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->counters.at("raft.writes"), 5u);

  // Subsequent windows are deltas, not totals.
  clock.AdvanceMicros(1'000);
  writes->Increment(3);
  sampler.Sample();
  EXPECT_EQ(sampler.LastWindow("db0")->counters.at("raft.writes"), 3u);

  // An idle window deltas to zero.
  clock.AdvanceMicros(1'000);
  sampler.Sample();
  EXPECT_EQ(sampler.LastWindow("db0")->counters.at("raft.writes"), 0u);
  EXPECT_EQ(sampler.LastWindow("missing"), nullptr);
}

TEST(TimeSeriesSamplerTest, RingDropsOldestWindows) {
  ManualClock clock;
  metrics::MetricRegistry registry;
  TimeSeriesOptions options;
  options.clock = &clock;
  options.capacity = 3;
  TimeSeriesSampler sampler(options);
  sampler.AddSource("n", &registry);
  for (int i = 0; i < 5; ++i) {
    sampler.Sample();
    clock.AdvanceMicros(1'000);
  }
  EXPECT_EQ(sampler.window_count(), 3u);
  EXPECT_EQ(sampler.windows_dropped(), 2u);
  // The retained windows are the newest ones.
  EXPECT_EQ(sampler.windows().front().ts_micros, 2'000u);
  EXPECT_EQ(sampler.windows().back().ts_micros, 4'000u);
}

TEST(TimeSeriesSamplerTest, SeriesJsonIsDeterministicAndDense) {
  auto run = []() {
    ManualClock clock;
    metrics::MetricRegistry a;
    metrics::MetricRegistry b;
    TimeSeriesOptions options;
    options.clock = &clock;
    TimeSeriesSampler sampler(options);
    sampler.AddSource("db0", &a);
    sampler.AddSource("net", &b);
    for (int tick = 0; tick < 4; ++tick) {
      if (tick == 1) a.GetCounter("c")->Increment(7);
      if (tick == 2) a.GetGauge("g")->Set(-4);
      if (tick == 2) b.GetHistogram("h")->Record(100);
      sampler.Sample();
      clock.AdvanceMicros(5'000);
    }
    return sampler.SeriesJson();
  };
  const std::string json = run();
  EXPECT_EQ(json, run());  // byte-identical for identical runs
  EXPECT_NE(json.find("\"windows\":4"), std::string::npos);
  // Counter delta lands in its window, zero elsewhere (dense arrays).
  EXPECT_NE(json.find("\"db0.c\":[0,7,0,0]"), std::string::npos);
  // Gauges export their level at each tick; the level persists.
  EXPECT_NE(json.find("\"db0.g\":[0,0,-4,-4]"), std::string::npos);
  // Histograms export a window count and a window p99.
  EXPECT_NE(json.find("\"net.h.count\":[0,0,1,0]"), std::string::npos);
  EXPECT_NE(json.find("\"net.h.p99\""), std::string::npos);
}

// --- FlightRecorder ----------------------------------------------------------

TEST(FlightRecorderTest, BundleHasAllSectionsAndCooldownSuppresses) {
  ManualClock clock;
  FlightRecorderOptions options;
  options.clock = &clock;
  options.cooldown_micros = 10'000;
  FlightRecorder recorder(options);
  EXPECT_EQ(recorder.LastBundleJson(), "");

  recorder.SetRaftstatProvider([]() { return std::string("{\"r\":1}"); });
  recorder.SetTraceTailProvider([]() { return std::string("[\"t\"]"); });
  recorder.SetMetricsSeriesProvider([]() { return std::string("{\"s\":2}"); });

  ASSERT_TRUE(recorder.Trigger(TriggerKind::kManual, "first \"failure\""));
  const std::string bundle = recorder.LastBundleJson();
  EXPECT_NE(bundle.find("\"kind\":\"manual\""), std::string::npos);
  EXPECT_NE(bundle.find("first \\\"failure\\\""), std::string::npos);
  EXPECT_NE(bundle.find("\"raftstat\":{\"r\":1}"), std::string::npos);
  EXPECT_NE(bundle.find("\"trace_tail\":[\"t\"]"), std::string::npos);
  EXPECT_NE(bundle.find("\"metrics_series\":{\"s\":2}"), std::string::npos);

  // Same kind within the cooldown: counted, not captured — the
  // first-failure bundle survives its own aftershocks.
  clock.AdvanceMicros(5'000);
  EXPECT_FALSE(recorder.Trigger(TriggerKind::kManual, "aftershock"));
  EXPECT_EQ(recorder.captured(), 1u);
  EXPECT_EQ(recorder.suppressed(), 1u);
  // A different kind is on its own cooldown track.
  EXPECT_TRUE(recorder.Trigger(TriggerKind::kCrashInjection, "crash db0"));
  // Past the cooldown the original kind captures again.
  clock.AdvanceMicros(10'000);
  EXPECT_TRUE(recorder.Trigger(TriggerKind::kManual, "later"));
  EXPECT_EQ(recorder.captured(), 3u);
}

TEST(FlightRecorderTest, UnsetProvidersSerialiseAsNullAndRingBounds) {
  ManualClock clock;
  FlightRecorderOptions options;
  options.clock = &clock;
  options.max_bundles = 2;
  options.cooldown_micros = 0;  // capture everything
  FlightRecorder recorder(options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(recorder.Trigger(TriggerKind::kManual, std::to_string(i)));
  }
  EXPECT_EQ(recorder.bundles().size(), 2u);
  EXPECT_NE(recorder.LastBundleJson().find("\"detail\":\"4\""),
            std::string::npos);
  EXPECT_NE(recorder.LastBundleJson().find("\"raftstat\":null"),
            std::string::npos);
}

// --- HealthMonitor -----------------------------------------------------------

HealthInputs HealthyLeader(const std::string& id) {
  HealthInputs in;
  in.node = id;
  in.up = true;
  in.is_leader = true;
  in.writes_enabled = true;
  in.lease_renewals_delta = 1;
  return in;
}

HealthInputs HealthyFollower(const std::string& id) {
  HealthInputs in;
  in.node = id;
  in.up = true;
  return in;
}

TEST(HealthMonitorTest, DetectorScoresDegradeIndependently) {
  ManualClock clock;
  HealthMonitor monitor(&clock);

  HealthInputs leader = HealthyLeader("db0");
  HealthInputs lagger = HealthyFollower("db1");
  // Saturates the lag detector.
  lagger.replication_lag_entries = HealthMonitor::kLagFloorEntries;
  monitor.Observe({leader, lagger});

  EXPECT_DOUBLE_EQ(monitor.NodeScore("db0"), 1.0);
  // Node score is the minimum across detectors: the saturated lag
  // detector drags db1 to 0 even though every other detector is clean.
  EXPECT_DOUBLE_EQ(monitor.NodeScore("db1"), 0.0);
  EXPECT_DOUBLE_EQ(monitor.node_health().at("db1").availability, 1.0);
  EXPECT_DOUBLE_EQ(monitor.node_health().at("db1").lag, 0.0);
  // Half the floor scores half.
  lagger.replication_lag_entries = HealthMonitor::kLagFloorEntries / 2;
  monitor.Observe({leader, lagger});
  EXPECT_NEAR(monitor.NodeScore("db1"), 0.5, 1e-9);
  // The roll-up only needs a writable healthy leader.
  EXPECT_TRUE(monitor.ClusterHealthy());
  // A node never observed scores 0.
  EXPECT_DOUBLE_EQ(monitor.NodeScore("ghost"), 0.0);
}

TEST(HealthMonitorTest, OutageWindowsTrackLeaderlessTicks) {
  ManualClock clock;
  HealthMonitor monitor(&clock);

  std::vector<std::pair<bool, uint64_t>> transitions;
  monitor.SetTransitionCallback([&](bool healthy, uint64_t ts) {
    transitions.push_back({healthy, ts});
  });

  monitor.Observe({HealthyLeader("db0"), HealthyFollower("db1")});
  EXPECT_TRUE(monitor.ClusterHealthy());
  EXPECT_TRUE(monitor.outages().empty());

  // Leader down, no successor yet: ticks at 10/20/30 ms are an outage.
  HealthInputs down;
  down.node = "db0";
  for (int tick = 0; tick < 3; ++tick) {
    clock.AdvanceMicros(10'000);
    monitor.Observe({down, HealthyFollower("db1")});
    EXPECT_FALSE(monitor.ClusterHealthy());
  }
  ASSERT_EQ(monitor.outages().size(), 1u);
  EXPECT_TRUE(monitor.outages()[0].open);

  // db1 promoted: the outage closes at the last unhealthy tick.
  clock.AdvanceMicros(10'000);
  monitor.Observe({down, HealthyLeader("db1")});
  EXPECT_TRUE(monitor.ClusterHealthy());
  ASSERT_EQ(monitor.outages().size(), 1u);
  EXPECT_FALSE(monitor.outages()[0].open);
  EXPECT_EQ(monitor.outages()[0].start_micros, 10'000u);
  EXPECT_EQ(monitor.outages()[0].end_micros, 30'000u);
  EXPECT_EQ(monitor.LongestOutageMicros(), 20'000u);
  // Exactly one unhealthy and one healthy transition, in order.
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_FALSE(transitions[0].first);
  EXPECT_EQ(transitions[0].second, 10'000u);
  EXPECT_TRUE(transitions[1].first);
  EXPECT_EQ(transitions[1].second, 40'000u);
}

// --- Metric catalog ----------------------------------------------------------

TEST(MetricCatalogTest, SortedLookupAndMarkdown) {
  const auto& catalog = MetricCatalog();
  ASSERT_FALSE(catalog.empty());
  for (size_t i = 1; i < catalog.size(); ++i) {
    EXPECT_LT(std::string(catalog[i - 1].name), catalog[i].name);
  }
  const MetricInfo* info = FindMetricInfo("raft.pipeline_stalls");
  ASSERT_NE(info, nullptr);
  EXPECT_STREQ(info->kind, "counter");
  EXPECT_STREQ(info->layer, "raft");
  EXPECT_EQ(FindMetricInfo("no.such_metric"), nullptr);
  const std::string markdown = MetricCatalogMarkdown();
  EXPECT_NE(markdown.find("| `raft.pipeline_stalls` |"), std::string::npos);
}

// --- Full-cluster integration ------------------------------------------------

sim::ClusterOptions ObsClusterOptions(uint64_t seed) {
  sim::ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 1;
  options.obs.sample_interval_micros = 10'000;
  return options;
}

TEST(ObsClusterTest, CatalogCoversEveryRegisteredMetric) {
  sim::ClusterHarness cluster(ObsClusterOptions(7), FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_FALSE(cluster.WaitForPrimary(30 * kSecond).empty());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.SyncWrite("k" + std::to_string(i), "v").status.ok());
  }
  cluster.loop()->RunFor(2 * kSecond);

  auto check_registry = [](const std::string& where,
                           const metrics::MetricRegistry* registry) {
    for (const std::string& name : registry->Names()) {
      EXPECT_NE(FindMetricInfo(name), nullptr)
          << where << " registers undocumented metric '" << name
          << "' — add it to src/obs/catalog.cc (and DESIGN.md §14)";
    }
  };
  for (const MemberId& id : cluster.ids()) {
    check_registry(id, cluster.node(id)->metrics());
  }
  check_registry("network", cluster.net_metrics());
}

TEST(ObsClusterTest, NodeRegistryBootstrapAllocationBound) {
  // Replays the registrations of the cluster's largest node registry into
  // a fresh registry, as every node after the first does in a fleet (the
  // names are already interned), and counts the allocations.
  sim::ClusterHarness cluster(ObsClusterOptions(7), FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const metrics::MetricRegistry* largest = nullptr;
  for (const MemberId& id : cluster.ids()) {
    const metrics::MetricRegistry* registry = cluster.node(id)->metrics();
    if (largest == nullptr ||
        registry->MetricCount() > largest->MetricCount()) {
      largest = registry;
    }
  }
  ASSERT_TRUE(largest->prefix().empty());
  const metrics::MetricSnapshot node = largest->Snapshot();
  ASSERT_GE(largest->MetricCount(), 50u);

  metrics::MetricRegistry fresh;
  count_news = true;
  news_counted = 0;
  for (const auto& [name, _] : node.counters) fresh.GetCounter(name);
  for (const auto& [name, _] : node.gauges) fresh.GetGauge(name);
  for (const auto& [name, _] : node.histograms) fresh.GetHistogram(name);
  count_news = false;
  EXPECT_EQ(fresh.MetricCount(), largest->MetricCount());
  // A map node, a boxed value and often a name string per metric came to
  // about three allocations per metric; chunked slots and a flat index
  // need about one per 16 metrics of a kind, plus the chunk tables.
  EXPECT_LE(news_counted, 24u) << "for " << largest->MetricCount()
                               << " metrics";
}

TEST(ObsClusterTest, RaftstatReportsRolesAndPeers) {
  sim::ClusterHarness cluster(ObsClusterOptions(11), FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("k", "v").status.ok());
  cluster.loop()->RunFor(1 * kSecond);

  const std::string json = cluster.RaftstatJson();
  EXPECT_NE(json.find("\"nodes\":{"), std::string::npos);
  EXPECT_NE(json.find("\"" + primary + "\""), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"leader\""), std::string::npos);
  EXPECT_NE(json.find("\"peers\":["), std::string::npos);
  EXPECT_NE(json.find("\"executed_gtids\""), std::string::npos);

  const std::string text = cluster.RaftstatText();
  EXPECT_NE(text.find(primary), std::string::npos);
  EXPECT_NE(text.find("leader"), std::string::npos);

  // The sampler ran on the bootstrap cadence and saw raft activity.
  ASSERT_TRUE(cluster.observability_enabled());
  EXPECT_GT(cluster.sampler()->window_count(), 0u);
  EXPECT_NE(cluster.sampler()->SeriesJson().find("window_ts_us"),
            std::string::npos);
}

TEST(ObsClusterTest, HealthOutageAgreesWithDowntimeProbe) {
  sim::ClusterOptions options = ObsClusterOptions(13);
  // Fast failure detection so the failover resolves quickly (the chaos
  // runner's settings).
  options.raft.heartbeat_interval_micros = 100'000;
  options.raft.election_jitter_micros = 150'000;
  options.raft.election_round_timeout_micros = 600'000;
  sim::ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("warm", "up").status.ok());
  cluster.loop()->RunFor(2 * kSecond);
  ASSERT_TRUE(cluster.health()->ClusterHealthy());

  constexpr uint64_t kProbeInterval = 10'000;
  // The monitor watched the bootstrap election too; only windows opened
  // after this point belong to the measured failover.
  const size_t outages_before = cluster.health()->outages().size();
  const auto result = cluster.MeasureWriteDowntime(
      [&]() { cluster.Crash(primary); }, kProbeInterval);
  ASSERT_TRUE(result.recovered);
  ASSERT_GT(result.downtime_micros, 0u);

  // The health plane saw the same failover from the inside: its longest
  // outage window must agree with the client-side probe to within one
  // probe interval on each edge (both views are tick-quantised).
  ASSERT_GT(cluster.health()->outages().size(), outages_before);
  uint64_t outage = 0;
  for (size_t i = outages_before; i < cluster.health()->outages().size();
       ++i) {
    outage = std::max(outage,
                      cluster.health()->outages()[i].duration_micros());
  }
  const uint64_t tolerance =
      kProbeInterval + options.obs.sample_interval_micros;
  EXPECT_LE(outage, result.downtime_micros + tolerance)
      << "health outage " << outage << "us vs probe "
      << result.downtime_micros << "us";
  EXPECT_GE(outage + tolerance, result.downtime_micros)
      << "health outage " << outage << "us vs probe "
      << result.downtime_micros << "us";

  // The healthy->unhealthy transition tripped the flight recorder.
  ASSERT_NE(cluster.flight_recorder(), nullptr);
  EXPECT_GT(cluster.flight_recorder()->captured(), 0u);
  EXPECT_NE(
      cluster.flight_recorder()->LastBundleJson().find("health_transition"),
      std::string::npos);
}

// --- Chaos-runner bundles ----------------------------------------------------

chaos::ChaosOptions ChaosTopology() {
  chaos::ChaosOptions options;
  options.cluster.topology.db_regions = 3;
  options.cluster.topology.logtailers_per_db = 2;
  options.cluster.topology.learners = 1;
  return options;
}

TEST(ChaosObsTest, SameSeedProducesByteIdenticalBundle) {
  chaos::NemesisOptions nemesis;
  nemesis.duration_micros = 8'000'000;
  nemesis.quiesce_interval_micros = 4'000'000;
  const std::vector<MemberId> members =
      chaos::TopologyMemberIds(ChaosTopology().cluster);
  // Scan a few seeds for a schedule that injects at least one crash (the
  // guaranteed trigger); generated schedules almost always have one.
  chaos::Schedule schedule;
  bool found = false;
  for (uint64_t seed = 1; seed <= 8 && !found; ++seed) {
    schedule = chaos::GenerateSchedule(seed, members, nemesis);
    for (const chaos::FaultStep& step : schedule.steps) {
      if (step.action == chaos::FaultAction::kCrash ||
          step.action == chaos::FaultAction::kCrashTorn) {
        found = true;
        break;
      }
    }
  }
  ASSERT_TRUE(found) << "no generated schedule with a crash step";

  chaos::ChaosRunner runner(ChaosTopology(), FlexiEngine());
  const chaos::ChaosReport report_a = runner.Run(schedule);
  const std::string bundle_a = runner.LastBundleJson();
  const chaos::ChaosReport report_b = runner.Run(schedule);
  const std::string bundle_b = runner.LastBundleJson();

  // The obs plane is read-only: the report's byte-identity contract
  // still holds with the recorder armed, and the bundle itself is
  // deterministic.
  EXPECT_EQ(report_a.ToText(), report_b.ToText());
  ASSERT_FALSE(bundle_a.empty());
  EXPECT_EQ(bundle_a, bundle_b);

  // The bundle is self-contained: all four sections present.
  EXPECT_NE(bundle_a.find("\"trigger\":{"), std::string::npos);
  EXPECT_NE(bundle_a.find("\"raftstat\":{"), std::string::npos);
  EXPECT_NE(bundle_a.find("\"trace_tail\":["), std::string::npos);
  EXPECT_NE(bundle_a.find("\"metrics_series\":{"), std::string::npos);
  // And raftstat text is available for --raftstat.
  EXPECT_NE(runner.RaftstatText().find("term"), std::string::npos);
}

TEST(ChaosObsTest, InvariantViolationEmitsBundle) {
  // The chaos self-test's seeded durability bug (followers that ack a
  // durable index without fsyncing) must leave a forensic bundle
  // whose trigger names the violation — the `--bundle-out` artifact an
  // investigator starts from.
  chaos::ChaosOptions options;
  options.cluster.topology.db_regions = 1;
  options.cluster.topology.logtailers_per_db = 2;
  options.cluster.topology.learners = 0;
  options.write_interval_micros = 5'000;
  options.cluster.raft.unsafe_follower_skips_fsync = true;

  chaos::Schedule schedule;
  schedule.seed = 7;
  schedule.duration_micros = 2'000'000;
  schedule.quiesce_interval_micros = 2'000'000;
  auto step = [](uint64_t at, chaos::FaultAction action,
                 std::vector<std::string> targets) {
    chaos::FaultStep s;
    s.at_micros = at;
    s.action = action;
    s.targets = std::move(targets);
    return s;
  };
  schedule.steps = {
      step(250'000, chaos::FaultAction::kCrashTorn, {"db0"}),
      step(250'000, chaos::FaultAction::kCrashTorn, {"lt0a"}),
      step(250'000, chaos::FaultAction::kCrashTorn, {"lt0b"}),
      step(300'000, chaos::FaultAction::kRestart, {"lt0a"}),
      step(300'000, chaos::FaultAction::kRestart, {"lt0b"}),
  };

  chaos::ChaosRunner runner(options, FlexiEngine());
  const chaos::ChaosReport report = runner.Run(schedule);
  ASSERT_FALSE(report.passed) << report.ToText();

  const std::string bundle = runner.LastBundleJson();
  ASSERT_FALSE(bundle.empty());
  EXPECT_NE(bundle.find("\"kind\":\"invariant_violation\""),
            std::string::npos)
      << bundle.substr(0, 200);
  EXPECT_NE(bundle.find("\"raftstat\":{"), std::string::npos);
  EXPECT_NE(bundle.find("\"trace_tail\":["), std::string::npos);
  EXPECT_NE(bundle.find("\"metrics_series\":{"), std::string::npos);
}

}  // namespace
}  // namespace myraft::obs
