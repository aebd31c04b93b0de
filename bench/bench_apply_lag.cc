// Pipelined replication + parallel applier benchmark. Two arms:
//
//  A) Replication throughput on a slow network (>= 5 ms one-way): the same
//     open-loop write burst against lock-step (in-flight window of one
//     batch) and pipelined (default window) leaders, measuring entries
//     committed per second.
//     Lock-step is ack-bound at max_entries_per_rpc per RTT; pipelining
//     should clear >= 2x.
//
//  B) Follower apply lag at a fixed write rate with a modelled per-
//     transaction apply cost: serial (applier_workers = 1) vs parallel
//     (= 4) appliers, sampling ShowReplicaStatus().lag_entries. The
//     dependency-tracked scheduler should hold lag strictly below serial.
//
// Emits BENCH_apply_lag.json.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"
#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"
#include "util/logging.h"

namespace myraft::bench {
namespace {

constexpr uint64_t kSecond = 1'000'000;

const raft::QuorumEngine* Engine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

// --- Arm A: replication throughput, lock-step vs pipelined --------------------

struct ReplicationResult {
  uint64_t entries = 0;
  uint64_t elapsed_micros = 0;
  double per_sec = 0;
  std::string internals_json;
  /// TraceAnalyzer per-stage latency breakdown of this arm's journals.
  std::string stages_json;
};

ReplicationResult RunReplicationArm(bool lockstep, int writes, uint64_t seed,
                                    const std::string& trace_out = "") {
  sim::ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  // Slow links everywhere: 5-5.5 ms one way, ~10.5 ms RTT. With 8-entry
  // batches, a lock-step leader commits at most ~760 entries/s.
  options.network.same_region = {5'000, 500};
  options.network.cross_region = {5'000, 500};
  options.raft.max_entries_per_rpc = 8;
  if (lockstep) options.raft.max_inflight_batches = 1;
  // Observability plane: 100 ms windows so the BENCH json carries the
  // throughput trajectory, not just the end-of-run totals.
  options.obs.sample_interval_micros = 100'000;
  // Acks are measured at the raft layer; keep clients from timing out
  // and spamming retned errors while the lock-step arm saturates.
  options.client.timeout_micros = 120 * kSecond;

  sim::ClusterHarness cluster(options, Engine());
  MYRAFT_CHECK(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(60 * kSecond);
  MYRAFT_CHECK(!primary.empty());
  cluster.loop()->RunFor(2 * kSecond);

  raft::RaftConsensus* consensus = cluster.node(primary)->server()->consensus();
  const uint64_t base = consensus->commit_marker().index;
  const uint64_t start = cluster.loop()->now();

  // Open-loop submission at 5000/s: far faster than lock-step can commit,
  // so the wire bounds that arm. The pipelined arm keeps up with it and is
  // bounded by the submitter instead (writes / 5000 s plus about one RTT).
  for (int i = 0; i < writes; ++i) {
    cluster.loop()->Schedule(
        static_cast<uint64_t>(i) * 200, [&cluster, i]() {
          cluster.ClientWrite("w" + std::to_string(i), "v",
                              [](const sim::ClientWriteResult&) {});
        });
  }

  const uint64_t target = base + static_cast<uint64_t>(writes);
  const uint64_t deadline = cluster.loop()->now() + 300 * kSecond;
  while (consensus->commit_marker().index < target &&
         cluster.loop()->now() < deadline) {
    cluster.loop()->RunFor(10'000);
  }
  MYRAFT_CHECK(consensus->commit_marker().index >= target)
      << "replication arm did not finish (lockstep=" << lockstep << ")";

  ReplicationResult result;
  result.entries = static_cast<uint64_t>(writes);
  result.elapsed_micros = cluster.loop()->now() - start;
  result.per_sec = static_cast<double>(writes) /
                   (static_cast<double>(result.elapsed_micros) / 1e6);
  result.internals_json = ClusterInternalsJson(cluster);
  result.stages_json =
      trace::TraceAnalyzer(cluster.TraceJournals()).StageBreakdownJson();
  if (!trace_out.empty()) {
    WriteTextFile(trace_out, cluster.TraceChromeJson());
  }
  return result;
}

// --- Arm B: follower apply lag, serial vs parallel applier --------------------

struct LagResult {
  double mean_lag = 0;
  uint64_t max_lag = 0;
  uint64_t final_lag = 0;
  uint64_t samples = 0;
};

LagResult RunLagArm(uint32_t workers, uint64_t duration_micros,
                    double rate_per_sec, uint64_t seed) {
  sim::ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.applier_workers = workers;
  // 700 us of modelled engine work per transaction: a serial applier
  // saturates at ~1400/s; four workers ride the overlapping commit
  // intervals of concurrent client writes well past the offered rate.
  options.applier_txn_cost_micros = 700;
  options.client.processing_jitter_micros = 300;
  options.client.timeout_micros = 30 * kSecond;

  sim::ClusterHarness cluster(options, Engine());
  MYRAFT_CHECK(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(60 * kSecond);
  MYRAFT_CHECK(!primary.empty());
  cluster.loop()->RunFor(2 * kSecond);

  const uint64_t interval = static_cast<uint64_t>(1e6 / rate_per_sec);
  const int writes = static_cast<int>(duration_micros / interval);
  for (int i = 0; i < writes; ++i) {
    cluster.loop()->Schedule(
        static_cast<uint64_t>(i) * interval, [&cluster, i]() {
          cluster.ClientWrite("r" + std::to_string(i), "v",
                              [](const sim::ClientWriteResult&) {});
        });
  }

  // Sample the worst follower lag every 100 ms for the duration of the
  // write stream (skipping the first second of ramp-up).
  LagResult result;
  double lag_sum = 0;
  const uint64_t sample_start = cluster.loop()->now() + 1 * kSecond;
  const uint64_t sample_end = cluster.loop()->now() + duration_micros;
  while (cluster.loop()->now() < sample_end) {
    cluster.loop()->RunFor(100'000);
    if (cluster.loop()->now() < sample_start) continue;
    uint64_t worst = 0;
    for (const MemberId& id : cluster.database_ids()) {
      if (id == primary) continue;
      worst = std::max(
          worst,
          cluster.node(id)->server()->ShowReplicaStatus().lag_entries);
    }
    lag_sum += static_cast<double>(worst);
    result.max_lag = std::max(result.max_lag, worst);
    ++result.samples;
  }
  result.mean_lag = result.samples > 0 ? lag_sum / result.samples : 0;

  // Final snapshot after a short drain window (catch-up speed).
  cluster.loop()->RunFor(1 * kSecond);
  for (const MemberId& id : cluster.database_ids()) {
    if (id == primary) continue;
    result.final_lag = std::max(
        result.final_lag,
        cluster.node(id)->server()->ShowReplicaStatus().lag_entries);
  }
  MYRAFT_CHECK(cluster.CheckReplicaConsistency());
  return result;
}

}  // namespace
}  // namespace myraft::bench

int main(int argc, char** argv) {
  using namespace myraft;
  using namespace myraft::bench;
  SetMinLogLevel(LogLevel::kError);
  BenchArgs args = ParseArgs(argc, argv);

  PrintHeader("Pipelined replication + parallel applier",
              "§3.4/§3.5: dissemination must not be ack-bound on WAN RTTs; "
              "followers apply independent transactions concurrently");

  const int writes = args.quick ? 600 : 2000;
  printf("\n--- Arm A: replication throughput, 5 ms one-way links, "
         "%d writes ---\n", writes);
  ReplicationResult lockstep = RunReplicationArm(true, writes, args.seed);
  ReplicationResult pipelined =
      RunReplicationArm(false, writes, args.seed, args.trace_out);
  const double speedup =
      lockstep.per_sec > 0 ? pipelined.per_sec / lockstep.per_sec : 0;
  printf("lock-step (window=1): %6.0f entries/s  (%.2f s)\n",
         lockstep.per_sec, lockstep.elapsed_micros / 1e6);
  printf("pipelined (window=%zu): %6.0f entries/s  (%.2f s)\n",
         raft::RaftOptions().max_inflight_batches, pipelined.per_sec,
         pipelined.elapsed_micros / 1e6);
  printf("speedup: %.2fx (acceptance: >= 2x)\n", speedup);

  const uint64_t lag_duration = (args.quick ? 4 : 8) * kSecond;
  const double rate = 2'500;
  printf("\n--- Arm B: follower apply lag at %.0f writes/s, 700 us/txn "
         "apply cost ---\n", rate);
  LagResult serial = RunLagArm(1, lag_duration, rate, args.seed + 7);
  LagResult parallel = RunLagArm(4, lag_duration, rate, args.seed + 7);
  printf("serial   (workers=1): mean lag %8.1f  max %6llu  final %6llu "
         "(n=%llu)\n",
         serial.mean_lag, (unsigned long long)serial.max_lag,
         (unsigned long long)serial.final_lag,
         (unsigned long long)serial.samples);
  printf("parallel (workers=4): mean lag %8.1f  max %6llu  final %6llu "
         "(n=%llu)\n",
         parallel.mean_lag, (unsigned long long)parallel.max_lag,
         (unsigned long long)parallel.final_lag,
         (unsigned long long)parallel.samples);
  printf("parallel mean below serial: %s (acceptance: strictly below)\n",
         parallel.mean_lag < serial.mean_lag ? "yes" : "NO");

  const std::string summary = StringPrintf(
      "{\"replication\":{\"lockstep_per_sec\":%.1f,"
      "\"pipelined_per_sec\":%.1f,\"speedup\":%.2f},"
      "\"apply_lag\":{\"serial\":{\"mean\":%.1f,\"max\":%llu,\"final\":%llu},"
      "\"parallel\":{\"mean\":%.1f,\"max\":%llu,\"final\":%llu}},"
      "\"traced_stages\":%s}",
      lockstep.per_sec, pipelined.per_sec, speedup, serial.mean_lag,
      (unsigned long long)serial.max_lag,
      (unsigned long long)serial.final_lag, parallel.mean_lag,
      (unsigned long long)parallel.max_lag,
      (unsigned long long)parallel.final_lag,
      pipelined.stages_json.empty() ? "null" : pipelined.stages_json.c_str());
  WriteBenchJson("apply_lag", summary, pipelined.internals_json);
  return 0;
}
