// Shared A/B harness for the Figure 5 experiments (§6.1): runs the same
// workload against a MyRaft cluster and a semi-sync ("prior setup")
// cluster with identical topology, network and client model, returning
// both recorders.
//
// Calibration constants (documented in EXPERIMENTS.md):
//  * production A/B: client<->primary RTT ~10 ms (5 ms one way);
//    execute+prepare cost 3.3-7.3 ms (multi-statement transactions);
//  * sysbench: client co-located (10 us one way); execute cost
//    275-525 us;
//  * MyRaft adds ~15 us of leader-thread work per transaction
//    (payload compression for the entry cache, checksums, OpId
//    stamping) — the source of the paper's ~1-2% latency delta.

#ifndef MYRAFT_BENCH_FIG5_COMMON_H_
#define MYRAFT_BENCH_FIG5_COMMON_H_

#include <memory>

#include "bench_util.h"
#include "flexiraft/flexiraft.h"
#include "semisync/cluster.h"
#include "sim/cluster.h"
#include "util/logging.h"
#include "workload/workload.h"

namespace myraft::bench {

inline constexpr uint64_t kFig5Second = 1'000'000;
/// Extra leader-thread work per transaction under Raft (entry-cache
/// compression, checksumming, OpId stamping). Scales with payload size:
/// sysbench rows are ~100 B (~15 us, cf. BM_LzCompress/BM_Crc32c);
/// production RBR payloads average a few KB (~120 us).
inline constexpr uint64_t kRaftOverheadSysbenchMicros = 15;
inline constexpr uint64_t kRaftOverheadProductionMicros = 120;

struct Fig5Setup {
  bool sysbench = false;  // false = production-like A/B
  uint64_t duration_micros = 30 * kFig5Second;
  double production_rate_per_sec = 200.0;
  int sysbench_workers = 8;
  uint64_t seed = 1;
};

struct Fig5ArmResult {
  workload::WorkloadRecorder recorder;
  /// Per-node metric registry snapshot (ClusterHarness::MetricsSnapshotJson),
  /// captured before the cluster is torn down. Empty for the semi-sync arm,
  /// which predates the instrumented stack.
  std::string internals_json;
};

inline const raft::QuorumEngine* Fig5FlexiEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

inline workload::WorkloadOptions MakeWorkloadOptions(const Fig5Setup& setup) {
  workload::WorkloadOptions options;
  options.kind = setup.sysbench ? workload::WorkloadKind::kSysbenchWrite
                                : workload::WorkloadKind::kProductionLike;
  options.duration_micros = setup.duration_micros;
  options.arrival_rate_per_sec = setup.production_rate_per_sec;
  options.closed_loop_workers = setup.sysbench_workers;
  options.seed = setup.seed + 17;
  return options;
}

/// Client-path constants per §6.1.
inline void ApplyClientModel(const Fig5Setup& setup, uint64_t* one_way,
                             uint64_t* processing, uint64_t* jitter) {
  if (setup.sysbench) {
    *one_way = 10;        // same machine as the primary
    *processing = 180;
    *jitter = 200;
  } else {
    *one_way = 5'000;     // ~10 ms client<->primary RTT
    *processing = 3'300;  // multi-statement execute/prepare
    *jitter = 4'000;
  }
}

inline Fig5ArmResult RunMyRaftArm(const Fig5Setup& setup) {
  sim::ClusterOptions options;
  options.seed = setup.seed;
  options.topology.db_regions = 6;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 2;
  ApplyClientModel(setup, &options.client.one_way_micros,
                   &options.client.processing_micros,
                   &options.client.processing_jitter_micros);
  options.client.processing_micros += setup.sysbench
                                          ? kRaftOverheadSysbenchMicros
                                          : kRaftOverheadProductionMicros;
  // Observability plane: the exported time series is the latency/rate
  // trajectory behind the Figure-5 percentiles.
  options.obs.sample_interval_micros = 100'000;

  sim::ClusterHarness cluster(options, Fig5FlexiEngine());
  MYRAFT_CHECK(cluster.Bootstrap().ok());
  MYRAFT_CHECK(!cluster.WaitForPrimary(60 * kFig5Second).empty());
  cluster.loop()->RunFor(3 * kFig5Second);

  workload::WorkloadDriver driver(
      cluster.loop(), MakeWorkloadOptions(setup),
      [&cluster](const std::string& key, const std::string& value,
                 std::function<void(bool, uint64_t)> done) {
        cluster.ClientWrite(
            key, value,
            [done](const sim::ClientWriteResult& r) {
              done(r.status.ok(), r.latency_micros);
            });
      });
  driver.RunToCompletion();
  Fig5ArmResult result;
  result.recorder = driver.recorder();
  result.internals_json = ClusterInternalsJson(cluster);
  return result;
}

inline Fig5ArmResult RunSemiSyncArm(const Fig5Setup& setup) {
  semisync::SemiSyncClusterOptions options;
  options.seed = setup.seed;
  options.db_regions = 6;
  options.logtailers_per_db = 2;
  options.learners = 2;
  ApplyClientModel(setup, &options.client_one_way_micros,
                   &options.server_processing_micros,
                   &options.server_processing_jitter_micros);

  semisync::SemiSyncCluster cluster(options);
  MYRAFT_CHECK(cluster.Bootstrap().ok());
  cluster.loop()->RunFor(3 * kFig5Second);

  workload::WorkloadDriver driver(
      cluster.loop(), MakeWorkloadOptions(setup),
      [&cluster](const std::string& key, const std::string& value,
                 std::function<void(bool, uint64_t)> done) {
        cluster.ClientWrite(
            key, value,
            [done](const semisync::SemiSyncCluster::ClientWriteResult& r) {
              done(r.status.ok(), r.latency_micros);
            });
      });
  driver.RunToCompletion();
  Fig5ArmResult result;
  result.recorder = driver.recorder();
  return result;
}

inline void PrintLatencyComparison(const char* experiment,
                                   const workload::WorkloadRecorder& myraft,
                                   const workload::WorkloadRecorder& prior,
                                   double paper_myraft_us,
                                   double paper_prior_us) {
  printf("\n--- %s: commit latency (us) ---\n", experiment);
  printf("MyRaft      : %s", myraft.latency().ToString().c_str());
  printf("Prior setup : %s", prior.latency().ToString().c_str());
  printf("\nAverages: MyRaft %.1f us vs prior %.1f us (%.2f%% delta; paper: "
         "%.1f vs %.1f = %.2f%%)\n",
         myraft.latency().Mean(), prior.latency().Mean(),
         PercentDiff(myraft.latency().Mean(), prior.latency().Mean()),
         paper_myraft_us, paper_prior_us,
         PercentDiff(paper_myraft_us, paper_prior_us));
}

}  // namespace myraft::bench

#endif  // MYRAFT_BENCH_FIG5_COMMON_H_
