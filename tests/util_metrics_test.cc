// Unit tests for the metrics registry: find-or-create semantics, pointer
// stability, snapshot accessors, and the text/JSON exposition formats the
// sim harness and bench drivers consume.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/metrics.h"

namespace myraft::metrics {
namespace {

TEST(MetricRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("raft.heartbeats_sent");
  c->Increment(3);
  // Re-resolving the same name (e.g. a component restarting on a
  // long-lived registry) returns the same metric, history intact.
  EXPECT_EQ(registry.GetCounter("raft.heartbeats_sent"), c);
  EXPECT_EQ(c->value(), 3u);

  Gauge* g = registry.GetGauge("log_cache.compressed_bytes");
  g->Set(100);
  g->Add(-40);
  EXPECT_EQ(registry.GetGauge("log_cache.compressed_bytes"), g);
  EXPECT_EQ(g->value(), 60);

  HistogramMetric* h = registry.GetHistogram("server.commit_latency_us");
  h->Record(250);
  h->Record(750);
  EXPECT_EQ(registry.GetHistogram("server.commit_latency_us"), h);
  EXPECT_EQ(h->histogram().count(), 2u);
  EXPECT_EQ(h->histogram().max(), 750u);
}

TEST(MetricRegistryTest, PointersStayStableAcrossManyRegistrations) {
  // Values live in fixed chunks that never move, so a pointer handed out
  // early survives every later registration.
  MetricRegistry registry;
  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  std::vector<HistogramMetric*> histograms;
  auto name = [](const char* kind, int i) {
    return std::string("stable.") + kind + std::to_string(i);
  };
  for (int i = 0; i < 1'000; ++i) {
    switch (i % 3) {
      case 0:
        counters.push_back(registry.GetCounter(name("c", i)));
        counters.back()->Increment(i);
        break;
      case 1:
        gauges.push_back(registry.GetGauge(name("g", i)));
        gauges.back()->Set(-i);
        break;
      default:
        histograms.push_back(registry.GetHistogram(name("h", i)));
        histograms.back()->Record(i);
        break;
    }
  }
  ASSERT_EQ(registry.MetricCount(), 1'000u);
  for (int i = 0; i < 1'000; ++i) {
    switch (i % 3) {
      case 0: {
        Counter* c = counters[i / 3];
        EXPECT_EQ(registry.GetCounter(name("c", i)), c) << i;
        EXPECT_EQ(registry.FindCounter(name("c", i)), c) << i;
        EXPECT_EQ(c->value(), static_cast<uint64_t>(i));
        break;
      }
      case 1: {
        Gauge* g = gauges[i / 3];
        EXPECT_EQ(registry.GetGauge(name("g", i)), g) << i;
        EXPECT_EQ(registry.FindGauge(name("g", i)), g) << i;
        EXPECT_EQ(g->value(), -i);
        break;
      }
      default: {
        HistogramMetric* h = histograms[i / 3];
        EXPECT_EQ(registry.GetHistogram(name("h", i)), h) << i;
        EXPECT_EQ(registry.FindHistogram(name("h", i)), h) << i;
        EXPECT_EQ(h->histogram().max(), static_cast<uint64_t>(i));
        break;
      }
    }
  }
  // Re-resolving registered nothing new.
  EXPECT_EQ(registry.MetricCount(), 1'000u);
  EXPECT_EQ(registry.Snapshot().counters.size(), counters.size());
}

TEST(MetricRegistryTest, SameNameInTwoRegistriesIsTwoMetrics) {
  // Names are interned process-wide; values stay per registry.
  MetricRegistry a;
  MetricRegistry b;
  a.GetCounter("shared.name")->Increment(2);
  b.GetCounter("shared.name")->Increment(5);
  EXPECT_NE(a.GetCounter("shared.name"), b.GetCounter("shared.name"));
  EXPECT_EQ(a.FindCounter("shared.name")->value(), 2u);
  EXPECT_EQ(b.FindCounter("shared.name")->value(), 5u);
}

TEST(MetricRegistryDeathTest, KindMismatchChecks) {
  MetricRegistry registry;
  registry.GetCounter("kind.clash");
  registry.GetGauge("kind.level");
  EXPECT_DEATH(registry.GetGauge("kind.clash"), "Check failed");
  EXPECT_DEATH(registry.GetHistogram("kind.clash"), "Check failed");
  EXPECT_DEATH(registry.GetCounter("kind.level"), "Check failed");
}

TEST(MetricRegistryTest, FindReturnsNullForUnregisteredNames) {
  MetricRegistry registry;
  registry.GetCounter("a.counter");
  EXPECT_NE(registry.FindCounter("a.counter"), nullptr);
  EXPECT_EQ(registry.FindCounter("a.other"), nullptr);
  EXPECT_EQ(registry.FindGauge("a.counter"), nullptr);  // wrong kind
  EXPECT_EQ(registry.FindHistogram("a.counter"), nullptr);
}

TEST(MetricRegistryTest, CountAndSortedNames) {
  MetricRegistry registry;
  registry.GetGauge("b.gauge");
  registry.GetCounter("c.counter");
  registry.GetHistogram("a.histogram");
  EXPECT_EQ(registry.MetricCount(), 3u);
  const std::vector<std::string> names = registry.Names();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "a.histogram");
  EXPECT_EQ(names[1], "b.gauge");
  EXPECT_EQ(names[2], "c.counter");
}

TEST(MetricRegistryTest, ToTextOneLinePerMetric) {
  MetricRegistry registry;
  registry.GetCounter("raft.elections_won")->Increment(2);
  registry.GetGauge("server.applier_lag_entries")->Set(-5);
  registry.GetHistogram("raft.commit_latency_us")->Record(100);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("raft.elections_won counter 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("server.applier_lag_entries gauge -5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("raft.commit_latency_us"), std::string::npos) << text;
}

TEST(MetricRegistryTest, ToJsonShapes) {
  MetricRegistry registry;
  registry.GetCounter("binlog.rotations")->Increment(7);
  registry.GetGauge("log_cache.uncompressed_bytes")->Set(4096);
  HistogramMetric* h = registry.GetHistogram("proxy.relay_latency_us");
  h->Record(10);
  h->Record(30);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"binlog.rotations\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"log_cache.uncompressed_bytes\":4096"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"proxy.relay_latency_us\":{\"count\":2"),
            std::string::npos)
      << json;
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST(MetricRegistryTest, EmptyRegistrySerialises) {
  MetricRegistry registry;
  EXPECT_EQ(registry.MetricCount(), 0u);
  EXPECT_EQ(registry.ToJson(), "{}");
  EXPECT_EQ(registry.ToText(), "");
}

TEST(MetricSnapshotTest, SnapshotIsDetachedFromLiveMetrics) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("raft.entries_appended");
  Gauge* g = registry.GetGauge("server.applier_lag_entries");
  HistogramMetric* h = registry.GetHistogram("server.commit_latency_us");
  c->Increment(10);
  g->Set(3);
  h->Record(500);

  const MetricSnapshot snap = registry.Snapshot();
  c->Increment(90);  // must not show up in the detached copy
  g->Set(-1);
  h->Record(9'999);
  EXPECT_EQ(snap.counters.at("raft.entries_appended"), 10u);
  EXPECT_EQ(snap.gauges.at("server.applier_lag_entries"), 3);
  EXPECT_EQ(snap.histograms.at("server.commit_latency_us").count(), 1u);
  EXPECT_NE(snap.ToJson().find("\"raft.entries_appended\":10"),
            std::string::npos);
}

TEST(MetricSnapshotTest, DeltaSinceWindowsCountersAndKeepsGaugeLevels) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("raft.heartbeats_sent");
  Gauge* g = registry.GetGauge("log_cache.compressed_bytes");
  HistogramMetric* h = registry.GetHistogram("raft.append_batch_entries");
  c->Increment(4);
  g->Set(100);
  h->Record(8);
  const MetricSnapshot earlier = registry.Snapshot();

  c->Increment(6);
  g->Set(250);
  h->Record(16);
  h->Record(32);
  const MetricSnapshot window = registry.Snapshot().DeltaSince(earlier);
  // Counters and histograms carry only the between-snapshot activity;
  // gauges keep their instantaneous level.
  EXPECT_EQ(window.counters.at("raft.heartbeats_sent"), 6u);
  EXPECT_EQ(window.gauges.at("log_cache.compressed_bytes"), 250);
  EXPECT_EQ(window.histograms.at("raft.append_batch_entries").count(), 2u);
  EXPECT_EQ(window.histograms.at("raft.append_batch_entries").min(), 16u);
}

TEST(MetricSnapshotTest, MergeFromRollsUpAcrossNodes) {
  MetricRegistry node_a;
  MetricRegistry node_b;
  node_a.GetCounter("server.txns_applied")->Increment(30);
  node_b.GetCounter("server.txns_applied")->Increment(12);
  node_a.GetGauge("server.applier_lag_entries")->Set(5);
  node_b.GetGauge("server.applier_lag_entries")->Set(7);
  node_a.GetHistogram("server.apply_txn_us")->Record(100);
  node_b.GetHistogram("server.apply_txn_us")->Record(300);
  node_b.GetCounter("server.reads_served")->Increment(2);  // b-only metric

  MetricSnapshot rollup = node_a.Snapshot();
  rollup.MergeFrom(node_b.Snapshot());
  EXPECT_EQ(rollup.counters.at("server.txns_applied"), 42u);
  EXPECT_EQ(rollup.gauges.at("server.applier_lag_entries"), 12);
  EXPECT_EQ(rollup.histograms.at("server.apply_txn_us").count(), 2u);
  EXPECT_EQ(rollup.histograms.at("server.apply_txn_us").max(), 300u);
  EXPECT_EQ(rollup.counters.at("server.reads_served"), 2u);
}

TEST(MetricRegistryTest, PrefixNamespacesSnapshotsAndSerialisation) {
  MetricRegistry registry;
  registry.SetPrefix("shard.rs3.");
  // Hot-path lookups keep using the bare name; only reporting is
  // namespaced.
  registry.GetCounter("raft.commits")->Increment(7);
  EXPECT_NE(registry.FindCounter("raft.commits"), nullptr);
  EXPECT_EQ(registry.FindCounter("shard.rs3.raft.commits"), nullptr);

  const MetricSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("shard.rs3.raft.commits"), 7u);
  EXPECT_EQ(snap.counters.count("raft.commits"), 0u);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{
                                  "shard.rs3.raft.commits"});
  EXPECT_NE(registry.ToJson().find("\"shard.rs3.raft.commits\":7"),
            std::string::npos);
  EXPECT_NE(registry.ToText().find("shard.rs3.raft.commits counter 7"),
            std::string::npos);
}

TEST(MetricSnapshotTest, PrefixedRegistriesMergeWithoutCollisions) {
  // Two shards host the same counter family; at fleet scope the merged
  // roll-up must keep them apart instead of summing them ambiguously.
  MetricRegistry shard_a;
  MetricRegistry shard_b;
  shard_a.SetPrefix("shard.rs0.");
  shard_b.SetPrefix("shard.rs1.");
  shard_a.GetCounter("raft.commits")->Increment(30);
  shard_b.GetCounter("raft.commits")->Increment(12);

  MetricSnapshot fleet = shard_a.Snapshot();
  fleet.MergeFrom(shard_b.Snapshot());
  EXPECT_EQ(fleet.counters.at("shard.rs0.raft.commits"), 30u);
  EXPECT_EQ(fleet.counters.at("shard.rs1.raft.commits"), 12u);
  EXPECT_EQ(fleet.counters.count("raft.commits"), 0u);
}

}  // namespace
}  // namespace myraft::metrics
