// fleet_storm: bench_fleet's shape on one loop. 256 rings × 9 members
// over 3 regions with multi-region commit quorums bootstrap, take waves of
// one write per shard every 50 ms, lose region0 to a partition until every
// shard serves outside it, then heal, read back and verify.

#include <algorithm>
#include <memory>

#include "binlog/binlog_manager.h"
#include "fleet/fleet.h"
#include "flexiraft/flexiraft.h"
#include "perf.h"
#include "server/mysql_server.h"
#include "util/random.h"
#include "util/string_util.h"

namespace myraft::perf {
namespace {

constexpr int kShards = 256;
constexpr int kRegions = 3;
constexpr int kWaves = 10;
constexpr uint64_t kWaveIntervalMicros = 50'000;
/// Set-up and storm phases run for fixed sim spans (extended only if the
/// fleet has not converged by then), so host time does not swing with how
/// fast a seed's elections happen to settle.
constexpr uint64_t kSetupMicros = 5 * kSecond;
constexpr uint64_t kStormMicros = 8 * kSecond;
constexpr uint64_t kPollMicros = 10'000;
constexpr size_t kRowBytes = 100;
constexpr size_t kTracedTraceCapacity = size_t{1} << 24;

// A region0 leader cut off by the partition loses its commit quorum, so
// the outage is a mass automatic failover (bench/bench_fleet.cc).
const raft::QuorumEngine* MultiRegion() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kMultiRegion});
  return engine;
}

ClusterCounters FleetCounters(fleet::FleetHarness& fleet) {
  ClusterCounters counters;
  AddRegistryRollup(fleet.MetricsRollup(), &counters);
  AddNetworkTotals(*fleet.network(), &counters);
  return counters;
}

}  // namespace

RepResult RunFleetStorm(const WorkloadOptions& o) {
  RepResult result;
  const int shards =
      o.scale < 1.0 ? std::max(8, static_cast<int>(kShards * o.scale))
                    : kShards;
  result.rings = shards;
  fleet::FleetOptions options;
  options.shards = shards;
  options.regions = kRegions;
  options.seed = o.seed;
  // One applier worker per ring, shared process budget.
  options.worker_budget = static_cast<uint32_t>(shards);
  options.trace_capacity = o.traced ? kTracedTraceCapacity : 128;

  const uint64_t rss_before_kb = PeakRssKb();
  CpuStopwatch setup;
  fleet::FleetHarness fleet(options, MultiRegion());
  const bool up = fleet.Bootstrap().ok() &&
                  fleet.WaitForAllPrimaries(120 * kSecond) == shards;
  if (up && fleet.loop()->now() < kSetupMicros) {
    fleet.loop()->RunUntil(kSetupMicros);
  }
  result.setup_s = setup.Seconds();
  result.rss_kb_per_ring =
      static_cast<double>(PeakRssKb() - std::min(PeakRssKb(), rss_before_kb)) /
      shards;
  if (!up) {
    result.violations.push_back("Setup: not every shard elected a primary");
    return result;
  }
  if (o.setup_only) return result;

  sim::EventLoop* loop = fleet.loop();
  LoopDriver driver(loop, o.traced);
  chaos::InvariantChecker checker;
  Random rng(GeneratorSeed(o.seed, 3));
  uint64_t outstanding = 0;
  // Acked row image per (shard, key); every key is written once.
  std::vector<std::map<std::string, std::string>> acked(shards);

  const ClusterCounters before = FleetCounters(fleet);
  const uint64_t measure_start = loop->now();
  const uint64_t start_position = LoopPosition(loop);
  CpuStopwatch measured;

  // --- Waves: one write per shard every 50 ms (open loop) -----------------
  const uint64_t waves_begin = loop->now();
  uint64_t last_ack = waves_begin;
  for (int w = 0; w < kWaves; ++w) {
    for (int s = 0; s < shards; ++s) {
      const std::string key = "k" + std::to_string(w);
      std::string value = RowValue(&rng, kRowBytes);
      ++outstanding;
      ++result.attempted;
      fleet.client(s)->ClientWrite(
          key, value,
          [&, s, key, value](const sim::ClientWriteResult& r) {
            --outstanding;
            if (!r.status.ok()) {
              ++result.failed;
              return;
            }
            acked[s][key] = key + "=" + value;
            result.commit_us.Add(static_cast<double>(r.latency_micros));
            ++result.writes_acked;
            last_ack = loop->now();
          });
    }
    driver.RunFor(kWaveIntervalMicros);
  }
  driver.RunUntilDone([&]() { return outstanding == 0; },
                      loop->now() + 60 * kSecond);
  result.write_sim_seconds =
      static_cast<double>(last_ack - waves_begin) / kSecond;

  // --- Storm: partition region0 until every shard serves outside it ------
  // A storm-hit shard is down until it publishes a primary outside region0
  // with writes enabled: the first instant a write would be accepted.
  // Polled every 10 sim-ms instead of probed with writes, so the storm's
  // host cost does not depend on how many probes each seed's outage needs.
  std::vector<int> hit;
  for (int s = 0; s < shards; ++s) {
    if (fleet.shard(s)->PrimaryRegion() == "region0") hit.push_back(s);
  }
  result.tally.failovers += hit.size();
  std::vector<uint64_t> recovered_at(shards, 0);
  const uint64_t storm_begin = loop->now();
  fleet.network()->SetRegionPartitioned("region0", true);
  uint64_t all_serving_at = 0;
  const uint64_t storm_deadline = storm_begin + 180 * kSecond;
  while (loop->now() < storm_deadline) {
    int serving_outside = 0;
    for (int s = 0; s < shards; ++s) {
      const RegionId region = fleet.shard(s)->PrimaryRegion();
      if (region.empty() || region == "region0") continue;
      ++serving_outside;
      if (recovered_at[s] == 0) recovered_at[s] = loop->now();
    }
    if (all_serving_at == 0 && serving_outside == shards) {
      all_serving_at = loop->now();
    }
    if (all_serving_at != 0 && loop->now() >= storm_begin + kStormMicros) {
      break;
    }
    driver.RunFor(kPollMicros);
  }
  if (all_serving_at == 0) {
    result.violations.push_back("Storm: some shard never left region0");
  } else {
    for (int s : hit) {
      result.downtime_ms.Add((recovered_at[s] - storm_begin) / 1000.0);
    }
    result.sim_extra["storm_recovery_ms"] =
        (all_serving_at - storm_begin) / 1000.0;
  }

  // --- Heal, then read one acked row back from every shard -----------------
  fleet.network()->SetRegionPartitioned("region0", false);
  const uint64_t heal_deadline = loop->now() + 120 * kSecond;
  while (fleet.ShardsWithPrimary() < shards && loop->now() < heal_deadline) {
    driver.RunFor(kPollMicros);
  }
  for (int s = 0; s < shards; ++s) {
    if (acked[s].empty()) continue;
    auto it = acked[s].begin();
    std::advance(it, rng.Uniform(acked[s].size()));
    const std::string key = it->first;
    const std::string expected = it->second;
    ++outstanding;
    ++result.attempted;
    fleet.client(s)->ClientRead(
        key, sim::ClientReadOptions{},
        [&, key, expected](const sim::ClientReadResult& r) {
          --outstanding;
          if (!r.status.ok()) {
            ++result.failed;
            return;
          }
          result.read_us.Add(static_cast<double>(r.latency_micros));
          ++result.reads_ok;
          checker.ObserveRead(key, expected, r.value, r.served_by_lease,
                              r.served_by);
        });
  }
  driver.RunUntilDone([&]() { return outstanding == 0; },
                      loop->now() + 60 * kSecond);

  result.measured_s = measured.Seconds();
  result.events = LoopPosition(loop) - start_position;
  result.timed_events = driver.events();
  result.timed_event_ns = driver.timed_ns();
  const ClusterCounters after = FleetCounters(fleet);
  LayerTally& tally = result.tally;
  tally.AddDelta(before, after);
  const fleet::FleetOptions& fo = fleet.options();
  const int members =
      fo.db_regions_per_shard * (1 + fo.logtailers_per_db) + fo.learners;
  const uint64_t committed = after.Counter("server.writes_committed") -
                             before.Counter("server.writes_committed");
  tally.committed_times_followers +=
      static_cast<double>(committed) * (members - 1);
  tally.node_sim_seconds += static_cast<double>(members) * shards *
                            static_cast<double>(loop->now() - measure_start) /
                            kSecond;

  // --- Verify: every shard's caught-up engines agree ------------------------
  driver.RunFor(2 * kSecond);
  for (int s = 0; s < shards; ++s) {
    if (!fleet.shard(s)->CheckReplicaConsistency()) {
      result.violations.push_back(
          StringPrintf("ReplicaConsistency: shard %d diverged", s));
    }
  }
  for (const chaos::Violation& v : checker.violations()) {
    result.violations.push_back(v.ToString());
  }

  if (o.traced) {
    for (int s = 0; s < shards; ++s) {
      sim::Shard* shard = fleet.shard(s);
      std::vector<trace::JournalView> journals{trace::JournalView{
          fleet.client(s)->tracer()->node(),
          fleet.client(s)->tracer()->Snapshot()}};
      uint64_t dropped = fleet.client(s)->tracer()->dropped();
      for (const MemberId& id : shard->ids()) {
        dropped += shard->node(id)->tracer()->dropped();
      }
      for (trace::JournalView& view : shard->TraceJournals()) {
        journals.push_back(std::move(view));
      }
      tally.AddTrace(std::move(journals), dropped, false);
    }
    const MemberId primary = fleet.shard(0)->CurrentPrimary();
    if (!primary.empty()) {
      binlog::BinlogManager* log =
          fleet.shard(0)->node(primary)->server()->binlog_manager();
      auto entries = log->ReadEntries(log->FirstIndex(), 1024, 64ull << 20);
      if (entries.ok()) {
        for (LogEntry& entry : *entries) {
          if (entry.type == EntryType::kTransaction) {
            tally.sample_entries.push_back(std::move(entry));
          }
        }
      }
    }
  }
  return result;
}

}  // namespace myraft::perf
