// Fleet scale-out bench: hundreds of Raft rings in one process on the
// shared discrete-event loop (the paper's §5.2 deployment shape, MyRaft
// per shard across the fleet). Three phases, one BENCH_fleet.json:
//
//   1. bootstrap  — provision + elect N rings; reports wall/sim time and
//                   resident-memory cost per ring;
//   2. throughput — open-loop writes fanned over every shard; reports
//                   aggregate committed txns per simulated second;
//   3. storm      — partition region0 away (every ring homed there loses
//                   its leader simultaneously), measure the failover
//                   storm's recovery: time until every shard serves
//                   writes again, then heal and re-verify.
//
// Usage:
//   bench_fleet                    256 shards (the baseline shape)
//   bench_fleet --shards=64        smaller fleet
//   bench_fleet --smoke            64 shards, reduced write volume (CI)
//   bench_fleet --seed=7           different deterministic universe

#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fleet/fleet.h"
#include "flexiraft/flexiraft.h"

namespace myraft {
namespace {

constexpr uint64_t kSecond = 1'000'000;

struct FleetArgs {
  int shards = 256;
  int regions = 3;
  uint64_t seed = 1;
  bool smoke = false;
  int writes_per_shard = 20;
};

FleetArgs ParseFleetArgs(int argc, char** argv) {
  FleetArgs args;
  for (int i = 1; i < argc; ++i) {
    uint64_t value;
    if (strncmp(argv[i], "--shards=", 9) == 0 &&
        ParseUint64(argv[i] + 9, &value)) {
      args.shards = static_cast<int>(value);
    } else if (strncmp(argv[i], "--regions=", 10) == 0 &&
               ParseUint64(argv[i] + 10, &value)) {
      args.regions = static_cast<int>(value);
    } else if (strncmp(argv[i], "--seed=", 7) == 0 &&
               ParseUint64(argv[i] + 7, &value)) {
      args.seed = value;
    } else if (strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (strncmp(argv[i], "--writes=", 9) == 0 &&
               ParseUint64(argv[i] + 9, &value)) {
      args.writes_per_shard = static_cast<int>(value);
    }
  }
  if (args.smoke) {
    args.shards = std::min(args.shards, 64);
    args.writes_per_shard = std::min(args.writes_per_shard, 10);
  }
  return args;
}

/// VmRSS from /proc/self/status, in KiB (0 if unavailable — the bench
/// still runs, memory numbers just read 0).
uint64_t ResidentKb() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "VmRSS:", 6) == 0) {
      kb = strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  fclose(f);
  return kb;
}

// Multi-region commit quorums: losing one region is survivable, so the
// region-outage storm is a mass automatic failover instead of §5.3
// shattered-quorum surgery (and a region0 leader cut off by the
// partition genuinely loses its commit quorum — under
// kSingleRegionDynamic it would keep serving from inside region0).
const raft::QuorumEngine* MultiRegionEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kMultiRegion});
  return engine;
}

fleet::FleetOptions MakeFleetOptions(const FleetArgs& args) {
  fleet::FleetOptions options;
  options.shards = args.shards;
  options.regions = args.regions;
  options.seed = args.seed;
  // A bounded worker budget shared by the whole process: one applier
  // worker per ring once the fleet is large.
  options.worker_budget = static_cast<uint32_t>(args.shards);
  // Small per-node trace rings; the fleet hosts shards*9 nodes.
  options.trace_capacity = 128;
  return options;
}

int RunFleetBench(const FleetArgs& args) {
  bench::PrintHeader(
      "Fleet scale-out: " + std::to_string(args.shards) +
          " Raft rings, one process, one event loop",
      "§5.2 MyRaft per shard across the fleet; §6.1 ring topology");

  const uint64_t rss_before_kb = ResidentKb();

  // --- Phase 1: bootstrap -------------------------------------------------------
  fleet::FleetHarness fleet(MakeFleetOptions(args), MultiRegionEngine());
  Status status = fleet.Bootstrap();
  if (!status.ok()) {
    fprintf(stderr, "fleet bootstrap failed: %s\n",
            status.ToString().c_str());
    return 1;
  }
  const int with_primary = fleet.WaitForAllPrimaries(120 * kSecond);
  const uint64_t elected_at = fleet.loop()->now();
  const uint64_t rss_after_kb = ResidentKb();
  const uint64_t fleet_kb =
      rss_after_kb > rss_before_kb ? rss_after_kb - rss_before_kb : 0;
  printf("bootstrap: %d/%d shards elected a primary by t=%llums\n",
         with_primary, args.shards,
         (unsigned long long)(elected_at / 1000));
  printf("memory: %llu KiB RSS for the fleet (%.1f KiB per ring)\n",
         (unsigned long long)fleet_kb,
         args.shards > 0 ? (double)fleet_kb / args.shards : 0.0);
  if (with_primary < args.shards) {
    fprintf(stderr, "FAIL: %d shard(s) never elected\n",
            args.shards - with_primary);
    return 1;
  }

  // --- Phase 2: aggregate throughput ---------------------------------------------
  const uint64_t writes_begin = fleet.loop()->now();
  const int total_writes = args.shards * args.writes_per_shard;
  int acked = 0, failed = 0, outstanding = 0;
  Histogram write_latency;
  for (int w = 0; w < args.writes_per_shard; ++w) {
    for (int s = 0; s < args.shards; ++s) {
      ++outstanding;
      fleet.client(s)->ClientWrite(
          "k" + std::to_string(w), "v",
          [&](const sim::ClientWriteResult& r) {
            --outstanding;
            if (r.status.ok()) {
              ++acked;
              write_latency.Add(r.latency_micros);
            } else {
              ++failed;
            }
          });
    }
    // Open loop: next wave every 50ms of simulated time.
    fleet.loop()->RunFor(50'000);
  }
  const uint64_t drain_deadline = fleet.loop()->now() + 60 * kSecond;
  while (outstanding > 0 && fleet.loop()->now() < drain_deadline) {
    fleet.loop()->RunFor(10'000);
  }
  const double sim_seconds =
      (double)(fleet.loop()->now() - writes_begin) / kSecond;
  const double commits_per_sim_sec =
      sim_seconds > 0 ? acked / sim_seconds : 0;
  printf("throughput: %d/%d writes acked over %.2f sim-s "
         "(%.0f commits/sim-s aggregate, p50=%.0fus p99=%.0fus)\n",
         acked, total_writes, sim_seconds, commits_per_sim_sec,
         write_latency.Percentile(50), write_latency.Percentile(99));

  // --- Phase 3: region-outage failover storm ---------------------------------------
  // Every ring whose leader sits in region0 fails over at once. A shard
  // has recovered once it publishes a serving primary OUTSIDE the dead
  // region (the cut-off region0 leader stays in discovery until a new
  // leader overwrites it).
  std::map<RegionId, int> before = fleet.LeadersByRegion();
  const int storm_shards = before["region0"];
  const uint64_t storm_begin = fleet.loop()->now();
  fleet.network()->SetRegionPartitioned("region0", true);
  auto shards_failed_over = [&fleet, &args]() {
    int count = 0;
    for (int s = 0; s < args.shards; ++s) {
      const RegionId region = fleet.shard(s)->PrimaryRegion();
      if (!region.empty() && region != "region0") ++count;
    }
    return count;
  };
  int recovered = shards_failed_over();
  const uint64_t storm_deadline = fleet.loop()->now() + 180 * kSecond;
  while (recovered < args.shards && fleet.loop()->now() < storm_deadline) {
    fleet.loop()->RunFor(10'000);
    recovered = shards_failed_over();
  }
  const uint64_t storm_recovery_micros = fleet.loop()->now() - storm_begin;
  printf("storm: region0 partition hit %d leader(s); %d/%d shards "
         "serving again after %llums\n",
         storm_shards, recovered, args.shards,
         (unsigned long long)(storm_recovery_micros / 1000));
  fleet.network()->SetRegionPartitioned("region0", false);
  const int healed = fleet.WaitForAllPrimaries(120 * kSecond);
  bool consistent = true;
  for (int s = 0; s < args.shards; ++s) {
    if (!fleet.shard(s)->CheckReplicaConsistency()) consistent = false;
  }
  printf("heal: %d/%d shards serving, consistency %s\n", healed,
         args.shards, consistent ? "OK" : "VIOLATED");

  const bool pass = recovered == args.shards && healed == args.shards &&
                    consistent && failed == 0;

  // --- Report ----------------------------------------------------------------------
  const metrics::MetricSnapshot rollup = fleet.MetricsRollup();
  auto rollup_counter = [&rollup](const std::string& name) -> uint64_t {
    uint64_t sum = 0;
    for (const auto& [key, value] : rollup.counters) {
      // Per-shard namespaces: match the family across every shard.
      if (key == name ||
          (key.size() > name.size() &&
           key.compare(key.size() - name.size(), name.size(), name) == 0)) {
        sum += value;
      }
    }
    return sum;
  };
  // Periodic ticks over every node: run in full vs skipped by the
  // idle-tick gate (DESIGN.md §18).
  uint64_t ticks_run = 0;
  uint64_t ticks_gated = 0;
  for (int s = 0; s < args.shards; ++s) {
    sim::Shard* shard = fleet.shard(s);
    for (const MemberId& id : shard->ids()) {
      ticks_run += shard->node(id)->ticks_run();
      ticks_gated += shard->node(id)->ticks_gated();
    }
  }
  const uint64_t ticks = ticks_run + ticks_gated;
  const fleet::FleetOptions& fo = fleet.options();
  const int nodes_per_shard =
      fo.db_regions_per_shard * (1 + fo.logtailers_per_db) + fo.learners;
  const std::string summary = StringPrintf(
      "{\"shards\":%d,\"regions\":%d,\"nodes\":%d,"
      "\"bootstrap\":{\"elected\":%d,\"sim_ms\":%llu},"
      "\"memory\":{\"fleet_rss_kb\":%llu,\"per_ring_kb\":%.1f},"
      "\"throughput\":{\"writes\":%d,\"acked\":%d,\"failed\":%d,"
      "\"sim_seconds\":%.2f,\"commits_per_sim_sec\":%.0f,"
      "\"latency\":%s},"
      "\"storm\":{\"leaders_in_region0\":%d,\"recovered\":%d,"
      "\"recovery_ms\":%llu,\"healed\":%d,\"consistent\":%s},"
      "\"fleet_counters\":{\"elections_won\":%llu,"
      "\"leader_transfers\":%llu},"
      "\"ticks\":{\"run\":%llu,\"gated\":%llu,\"gated_share\":%.4f},"
      "\"pass\":%s}",
      args.shards, args.regions, args.shards * nodes_per_shard,
      with_primary, (unsigned long long)(elected_at / 1000),
      (unsigned long long)fleet_kb,
      args.shards > 0 ? (double)fleet_kb / args.shards : 0.0, total_writes,
      acked, failed, sim_seconds, commits_per_sim_sec,
      bench::HistogramJson(write_latency).c_str(), storm_shards, recovered,
      (unsigned long long)(storm_recovery_micros / 1000), healed,
      consistent ? "true" : "false",
      (unsigned long long)rollup_counter("raft.elections_won"),
      (unsigned long long)rollup_counter("fleet.leader_transfers"),
      (unsigned long long)ticks_run, (unsigned long long)ticks_gated,
      ticks > 0 ? (double)ticks_gated / ticks : 0.0,
      pass ? "true" : "false");
  bench::WriteBenchJson("fleet", summary, "null");
  printf("%s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace myraft

int main(int argc, char** argv) {
  return myraft::RunFleetBench(myraft::ParseFleetArgs(argc, argv));
}
