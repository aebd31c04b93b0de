// Read-path latency/throughput on the paper's 5-region topology (§13):
//
//   leader_quorum   leases disabled; every linearizable read waits for a
//                   commit barrier (a no-op the leader replicates and
//                   commits, shared by concurrent reads, §13.2) before
//                   serving locally — the baseline.
//   leader_lease    LeaseGuard leases on; reads under a valid lease are
//                   served from local applied state with zero quorum
//                   round-trips.
//   follower_gtid   reads steered to the client-region follower behind
//                   the GTID-wait gate, carrying the client's last-seen
//                   index (read-your-writes, not linearizable).
//
// Writes BENCH_reads.json; CI gates p50/p99 per mode against the
// committed baseline in bench/baselines/ (>15% regression fails) and
// asserts lease reads stay >= 5x faster than quorum reads at p50.

#include "bench_util.h"
#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"
#include "util/histogram.h"

namespace myraft {
namespace {

constexpr uint64_t kSecond = 1'000'000;

// Vanilla-majority quorums: with 5 regions a commit barrier must hear
// from members outside the leader's region, so the baseline pays the
// cross-region RTT the lease elides. (kSingleRegionDynamic would satisfy
// the read quorum in-region and mask the contrast this bench measures.)
const raft::QuorumEngine* ReadBenchEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kVanillaMajority});
  return engine;
}

struct ReadModeConfig {
  const char* name;
  bool leases;
  sim::ReadMode mode;
  /// Follower mode: where the reading client sits (its reads steer to
  /// the same-region database replica).
  const char* client_region;
};

struct ReadModeResult {
  Histogram latency;
  int acked = 0;
  int lease_served = 0;
  uint64_t elapsed_micros = 0;
  std::string internals_json;  // the mode's raft.reads_* / server.read_* counters
};

uint64_t SumCounter(sim::ClusterHarness* harness, const std::string& name) {
  uint64_t total = 0;
  for (const MemberId& id : harness->ids()) {
    const auto* counter = harness->node(id)->metrics()->FindCounter(name);
    if (counter != nullptr) total += counter->value();
  }
  return total;
}

std::string ModeInternalsJson(sim::ClusterHarness* harness) {
  static const char* kCounters[] = {
      "raft.reads_lease",           "raft.reads_quorum",
      "raft.lease_renewals",        "server.reads_served",
      "server.reads_gated",         "proxy.reads_routed_follower",
      "proxy.reads_routed_leader",
  };
  std::string json = "{\"counters\":{";
  bool first = true;
  for (const char* name : kCounters) {
    if (!first) json += ",";
    first = false;
    json += StringPrintf("\"%s\":%llu", name,
                         (unsigned long long)SumCounter(harness, name));
  }
  json += "},\"time_series\":";
  json += harness->observability_enabled() ? harness->sampler()->SeriesJson()
                                           : "null";
  json += "}";
  return json;
}

/// Drives `reads` client reads at `clients` concurrency (bursts issued at
/// one virtual instant) over a pre-populated key set and measures the
/// client-observed read latency.
ReadModeResult RunReadMode(uint64_t seed, const ReadModeConfig& config,
                           int clients, int reads, int keys) {
  sim::ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 5;  // the paper's 5-region deployment
  options.topology.logtailers_per_db = 2;
  options.raft.enable_leader_leases = config.leases;
  // Observability plane: 10 ms windows show the read-path counters as a
  // rate series (lease vs quorum) rather than only end totals.
  options.obs.sample_interval_micros = 10'000;
  sim::ClusterHarness harness(options, ReadBenchEngine());
  ReadModeResult result;
  if (!harness.Bootstrap().ok()) return result;
  const MemberId primary = harness.WaitForPrimary(30 * kSecond);
  if (primary.empty()) return result;

  // Populate the working set; the last write's index is the follower
  // gate's read-your-writes floor.
  uint64_t last_index = 0;
  for (int k = 0; k < keys; ++k) {
    const auto w =
        harness.SyncWrite("k" + std::to_string(k), "v" + std::to_string(k));
    if (!w.status.ok()) return result;
    last_index = w.opid.index;
  }
  // Let heartbeats circulate so the lease (when enabled) is established
  // and followers drain their apply queues before timing starts.
  harness.loop()->RunFor(3 * kSecond);

  const uint64_t started = harness.loop()->now();
  int issued = 0;
  while (issued < reads) {
    int outstanding = 0;
    for (int c = 0; c < clients && issued < reads; ++c, ++issued) {
      ++outstanding;
      sim::ClientReadOptions read_options;
      read_options.mode = config.mode;
      read_options.min_index = last_index;
      read_options.client_region = config.client_region;
      harness.ClientRead(
          "k" + std::to_string(issued % keys), read_options,
          [&result, &outstanding](
              const sim::ClientReadResult& r) {
            --outstanding;
            if (r.status.ok()) {
              result.latency.Add(r.latency_micros);
              ++result.acked;
              if (r.served_by_lease) ++result.lease_served;
            }
          });
    }
    const uint64_t deadline = harness.loop()->now() + 10 * kSecond;
    while (outstanding > 0 && harness.loop()->now() < deadline) {
      harness.loop()->RunFor(1'000);
    }
  }
  result.elapsed_micros = harness.loop()->now() - started;
  result.internals_json = ModeInternalsJson(&harness);
  return result;
}

int RunReads(const bench::BenchArgs& args) {
  bench::PrintHeader(
      "Linearizable reads: quorum round vs leader lease vs follower gate",
      "LeaseGuard §13; MyRaft §6.1 5-region topology");
  const ReadModeConfig configs[] = {
      {"leader_quorum", false, sim::ReadMode::kLeader,
       "region0"},
      {"leader_lease", true, sim::ReadMode::kLeader,
       "region0"},
      {"follower_gtid", false, sim::ReadMode::kFollower,
       "region1"},
  };
  const int clients = 8;
  const int keys = 32;
  const int reads = args.quick ? 200 : 800;

  bench::PrintPercentileHeaderMs();
  std::string summary = "{";
  std::string internals = "{";
  double quorum_p50 = 0.0, lease_p50 = 0.0;
  bool failed = false;
  for (const ReadModeConfig& config : configs) {
    const ReadModeResult result =
        RunReadMode(args.seed, config, clients, reads, keys);
    if (result.acked < reads) failed = true;
    const double throughput =
        result.elapsed_micros == 0
            ? 0.0
            : result.acked * 1e6 / result.elapsed_micros;
    bench::PrintPercentileRowMs(config.name, "read", result.latency);
    printf("  %-22s %.0f reads/s, %d/%d ok, %d lease-served\n", config.name,
           throughput, result.acked, reads, result.lease_served);
    if (std::string(config.name) == "leader_quorum") {
      quorum_p50 = result.latency.Percentile(50);
    } else if (std::string(config.name) == "leader_lease") {
      lease_p50 = result.latency.Percentile(50);
    }
    if (summary.size() > 1) summary += ",";
    summary += StringPrintf(
        "\"%s\":{\"latency\":%s,\"throughput_rps\":%.1f,\"acked\":%d,"
        "\"lease_served\":%d}",
        config.name, bench::HistogramJson(result.latency).c_str(), throughput,
        result.acked, result.lease_served);
    if (internals.size() > 1) internals += ",";
    internals += StringPrintf("\"%s\":%s", config.name,
                              result.internals_json.c_str());
  }
  summary += "}";
  internals += "}";
  if (quorum_p50 > 0 && lease_p50 > 0) {
    printf("\nlease speedup at p50: %.1fx (quorum %.0fus -> lease %.0fus)\n",
           quorum_p50 / lease_p50, quorum_p50, lease_p50);
  }
  if (!bench::WriteBenchJson("reads", summary, internals)) return 1;
  if (failed) {
    fprintf(stderr, "some reads failed or timed out\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace myraft

int main(int argc, char** argv) {
  return myraft::RunReads(myraft::bench::ParseArgs(argc, argv));
}
