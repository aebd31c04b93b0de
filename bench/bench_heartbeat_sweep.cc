// Design-point ablation for §6.2: dead-primary failover downtime as a
// function of the heartbeat interval and the missed-heartbeat threshold.
// The paper's production config (500 ms x 3 misses => ~1.5 s detection)
// sits on the knee of this curve: faster heartbeats shave detection time
// but raise the risk of spurious elections under jitter; slower ones
// stretch every failover.

#include "bench_util.h"
#include "flexiraft/flexiraft.h"
#include "sim/cluster.h"
#include "util/logging.h"

namespace {

using namespace myraft;
using namespace myraft::bench;
constexpr uint64_t kSecond = 1'000'000;

struct SweepPoint {
  uint64_t heartbeat_micros;
  int misses;
  Histogram downtime;
  uint64_t spurious_elections = 0;
};

void RunPoint(SweepPoint* point, uint64_t seed, int trials) {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  for (int t = 0; t < trials; ++t) {
    sim::ClusterOptions options;
    options.seed = seed + static_cast<uint64_t>(t);
    options.topology.db_regions = 3;
    options.topology.logtailers_per_db = 2;
    options.raft.heartbeat_interval_micros = point->heartbeat_micros;
    options.raft.missed_heartbeats_before_election = point->misses;
    options.raft.election_jitter_micros = point->heartbeat_micros;
    sim::ClusterHarness cluster(options, engine);
    if (!cluster.Bootstrap().ok()) continue;
    const MemberId primary = cluster.WaitForPrimary(120 * kSecond);
    if (primary.empty()) continue;
    (void)cluster.SyncWrite("warm", "up");
    cluster.loop()->RunFor(3 * kSecond);
    auto downtime =
        cluster.MeasureWriteDowntime([&]() { cluster.Crash(primary); });
    if (downtime.recovered) point->downtime.Add(downtime.downtime_micros);

    // Count disruptive elections during a healthy quiet period.
    uint64_t term_before = 0, term_after = 0;
    const MemberId now_primary = cluster.CurrentPrimary();
    if (!now_primary.empty()) {
      term_before =
          cluster.node(now_primary)->server()->consensus()->term();
      cluster.loop()->RunFor(20 * kSecond);
      const MemberId later = cluster.CurrentPrimary();
      if (!later.empty()) {
        term_after = cluster.node(later)->server()->consensus()->term();
        point->spurious_elections += term_after - term_before;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace myraft;
  using namespace myraft::bench;
  SetMinLogLevel(LogLevel::kError);
  BenchArgs args = ParseArgs(argc, argv);
  const int trials = args.trials > 0 ? args.trials : (args.quick ? 3 : 15);

  PrintHeader("§6.2 ablation: heartbeat interval vs failover downtime",
              "production config: 500 ms heartbeats, 3 misses (~1.5 s "
              "detection, ~2 s failover)");

  SweepPoint points[] = {
      {100'000, 3, {}, 0},  {250'000, 3, {}, 0}, {500'000, 3, {}, 0},
      {1'000'000, 3, {}, 0}, {2'000'000, 3, {}, 0}, {500'000, 6, {}, 0},
  };
  for (size_t i = 0; i < sizeof(points) / sizeof(points[0]); ++i) {
    RunPoint(&points[i], args.seed + 1000 * i, trials);
  }

  printf("\n%12s %8s %14s %14s %14s %18s\n", "heartbeat", "misses",
         "p50 (ms)", "avg (ms)", "p99 (ms)", "quiet-period terms");
  for (const SweepPoint& point : points) {
    printf("%9llu ms %8d %14.0f %14.0f %14.0f %18llu\n",
           (unsigned long long)(point.heartbeat_micros / 1000), point.misses,
           point.downtime.Median() / 1000.0, point.downtime.Mean() / 1000.0,
           point.downtime.Percentile(99) / 1000.0,
           (unsigned long long)point.spurious_elections);
  }
  printf("\nShape check: downtime scales ~linearly with heartbeat x misses; "
         "the paper's 500 ms x 3 keeps failover ~2 s with a stable quiet "
         "period.\n");
  return 0;
}
