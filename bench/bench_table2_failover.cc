// Reproduces Table 2: "MyRaft vs. Semi-sync Promotion Downtime (ms)".
//
// Paper values (30 days of production metrics):
//   Mode       Operation    pct99    pct95   Median      Avg
//   Semi-Sync  Failover    180291    98012    55039    59133
//   Semi-Sync  Promotion     1968     1676      897      956
//   Raft       Failover      6632     5030     1887     2389
//   Raft       Promotion      357      322      202      218
//
// Headline claims: ~24x faster dead-primary failover, ~4x faster manual
// promotion. Raft failover includes ~1.5 s of detection (500 ms
// heartbeats, three misses). We reproduce each cell by repeated trials on
// the simulator with the paper's topology: a primary with two in-region
// logtailers, five followers (two logtailers each) in other regions, and
// two learners.

#include "bench_util.h"
#include "flexiraft/flexiraft.h"
#include "semisync/cluster.h"
#include "sim/cluster.h"
#include "util/logging.h"

namespace myraft::bench {
namespace {

constexpr uint64_t kSecond = 1'000'000;

sim::ClusterOptions RaftOptions(uint64_t seed) {
  sim::ClusterOptions options;
  options.seed = seed;
  options.topology = sim::PaperRingTopology();  // primary + five followers
  // Production-scale election jitter: with 17 voters spread over WAN
  // links, candidates de-synchronise over a wider window.
  options.raft.election_jitter_micros = 1'500'000;
  return options;
}

semisync::SemiSyncClusterOptions SemiSyncOptions(uint64_t seed) {
  semisync::SemiSyncClusterOptions options;
  options.seed = seed;
  options.topology = sim::PaperRingTopology();
  return options;
}

bool RaftTrial(uint64_t seed, bool graceful, Histogram* downtime_hist) {
  sim::ClusterHarness cluster(RaftOptions(seed),
                              flexiraft::SingleRegionDynamic());
  if (!cluster.Bootstrap().ok()) return false;
  const MemberId primary = cluster.WaitForPrimary(60 * kSecond);
  if (primary.empty()) return false;
  // Warm up: a write plus settle so every region is caught up.
  (void)cluster.SyncWrite("warm", "up");
  cluster.loop()->RunFor(3 * kSecond);

  sim::DowntimeResult result;
  if (graceful) {
    MemberId target;
    for (const MemberId& id : cluster.database_ids()) {
      if (id != primary && cluster.node(id)->region() !=
                               cluster.node(primary)->region()) {
        target = id;
        break;
      }
    }
    if (target.empty()) return false;
    result = cluster.MeasureWriteDowntime([&]() {
      Status s = cluster.node(primary)->server()->TransferLeadership(target);
      if (!s.ok()) MYRAFT_LOG(Warning) << "transfer: " << s;
    });
  } else {
    result = cluster.MeasureWriteDowntime([&]() { cluster.Crash(primary); });
  }
  if (!result.recovered) return false;
  downtime_hist->Add(result.downtime_micros);
  return true;
}

// One additional instrumented dead-primary trial: its drained trace
// journals feed TraceAnalyzer's Table-2 phase decomposition (detect ->
// election -> promotion -> first accepted write) and, with --trace-out,
// a Perfetto-loadable timeline of the whole failover.
struct TracedFailover {
  bool ok = false;
  uint64_t probe_downtime_micros = 0;
  std::string failover_json;
  std::string stages_json;
  std::string internals_json;
  std::string chrome_json;
};

TracedFailover RunTracedFailover(uint64_t seed) {
  TracedFailover out;
  sim::ClusterOptions options = RaftOptions(seed);
  // Observability plane on the instrumented trial: the 10 ms windows
  // bracket the failover dip in the exported time series.
  options.obs.sample_interval_micros = 10'000;
  sim::ClusterHarness cluster(options, flexiraft::SingleRegionDynamic());
  if (!cluster.Bootstrap().ok()) return out;
  const MemberId primary = cluster.WaitForPrimary(60 * kSecond);
  if (primary.empty()) return out;
  (void)cluster.SyncWrite("warm", "up");
  cluster.loop()->RunFor(3 * kSecond);

  auto result =
      cluster.MeasureWriteDowntime([&]() { cluster.Crash(primary); });
  if (!result.recovered) return out;

  trace::TraceAnalyzer analyzer(cluster.TraceJournals());
  out.failover_json =
      trace::TraceAnalyzer::FailoverJson(analyzer.FailoverBreakdown());
  out.stages_json = analyzer.StageBreakdownJson();
  out.internals_json = ClusterInternalsJson(cluster);
  out.chrome_json = cluster.TraceChromeJson();
  out.probe_downtime_micros = result.downtime_micros;
  out.ok = true;
  return out;
}

/// `internals_json`, when set, receives the trial's PriorInternalsJson.
bool SemiSyncTrial(uint64_t seed, bool graceful, Histogram* downtime_hist,
                   std::string* internals_json = nullptr) {
  semisync::SemiSyncCluster cluster(SemiSyncOptions(seed));
  if (!cluster.Bootstrap().ok()) return false;
  (void)cluster.SyncWrite("warm", "up");
  cluster.loop()->RunFor(2 * kSecond);

  sim::DowntimeResult result;
  if (graceful) {
    result = cluster.MeasureWriteDowntime([&]() {
      Status s = cluster.automation()->StartPromotion("db1");
      if (!s.ok()) MYRAFT_LOG(Warning) << "promotion: " << s;
    });
  } else {
    result = cluster.MeasureWriteDowntime([&]() { cluster.Crash("db0"); },
                                          10'000, 600 * kSecond);
  }
  if (internals_json != nullptr) *internals_json = PriorInternalsJson(cluster);
  if (!result.recovered) return false;
  downtime_hist->Add(result.downtime_micros);
  return true;
}

}  // namespace
}  // namespace myraft::bench

int main(int argc, char** argv) {
  using namespace myraft;
  using namespace myraft::bench;
  SetMinLogLevel(LogLevel::kError);

  BenchArgs args = ParseArgs(argc, argv);
  const int raft_trials = args.trials > 0 ? args.trials : (args.quick ? 5 : 60);
  const int semisync_promo_trials = raft_trials;
  const int semisync_failover_trials =
      args.trials > 0 ? args.trials : (args.quick ? 3 : 25);

  PrintHeader("Table 2 reproduction: promotion & failover downtime",
              "Table 2 (§6.2): Raft failover 2389 ms avg vs semi-sync "
              "59133 ms avg (24x); promotion 218 ms vs 956 ms (4x)");

  Histogram raft_failover, raft_promotion, ss_failover, ss_promotion;
  // The first semi-sync dead-primary trial's registries, the counterpart
  // of the traced MyRaft failover's internals.
  std::string prior_internals;
  for (int t = 0; t < raft_trials; ++t) {
    if (!RaftTrial(args.seed + 100 + t, /*graceful=*/false, &raft_failover)) {
      printf("  (raft failover trial %d skipped)\n", t);
    }
    if (!RaftTrial(args.seed + 10'000 + t, /*graceful=*/true,
                   &raft_promotion)) {
      printf("  (raft promotion trial %d skipped)\n", t);
    }
  }
  for (int t = 0; t < semisync_failover_trials; ++t) {
    if (!SemiSyncTrial(args.seed + 20'000 + t, /*graceful=*/false,
                       &ss_failover, t == 0 ? &prior_internals : nullptr)) {
      printf("  (semisync failover trial %d skipped)\n", t);
    }
  }
  for (int t = 0; t < semisync_promo_trials; ++t) {
    if (!SemiSyncTrial(args.seed + 30'000 + t, /*graceful=*/true,
                       &ss_promotion)) {
      printf("  (semisync promotion trial %d skipped)\n", t);
    }
  }

  printf("\nMeasured (ms):\n");
  PrintPercentileHeaderMs();
  PrintPercentileRowMs("Semi-Sync", "Failover", ss_failover);
  PrintPercentileRowMs("Semi-Sync", "Promotion", ss_promotion);
  PrintPercentileRowMs("Raft", "Failover", raft_failover);
  PrintPercentileRowMs("Raft", "Promotion", raft_promotion);

  printf("\nPaper (ms):\n");
  PrintPercentileHeaderMs();
  printf("%-10s %-10s %10d %10d %10d %10d\n", "Semi-Sync", "Failover",
         180291, 98012, 55039, 59133);
  printf("%-10s %-10s %10d %10d %10d %10d\n", "Semi-Sync", "Promotion", 1968,
         1676, 897, 956);
  printf("%-10s %-10s %10d %10d %10d %10d\n", "Raft", "Failover", 6632, 5030,
         1887, 2389);
  printf("%-10s %-10s %10d %10d %10d %10d\n", "Raft", "Promotion", 357, 322,
         202, 218);

  const double failover_speedup =
      ss_failover.Mean() / std::max(1.0, raft_failover.Mean());
  const double promotion_speedup =
      ss_promotion.Mean() / std::max(1.0, raft_promotion.Mean());
  printf("\nShape check:\n");
  printf("  dead-primary failover speedup: measured %.1fx (paper ~24x)\n",
         failover_speedup);
  printf("  manual promotion speedup:      measured %.1fx (paper ~4x)\n",
         promotion_speedup);
  printf("  raft failover detection floor: measured median %.0f ms "
         "(paper: ~1.5 s detection of 3 missed 500 ms heartbeats)\n",
         raft_failover.Median() / 1000.0);

  TracedFailover traced = RunTracedFailover(args.seed + 555);
  if (traced.ok) {
    printf("\nTraced failover decomposition (one instrumented trial):\n");
    printf("  %s\n", traced.failover_json.c_str());
    printf("  probe-observed downtime: %.1f ms\n",
           traced.probe_downtime_micros / 1000.0);
  } else {
    printf("\n(traced failover trial skipped)\n");
  }

  const std::string summary = StringPrintf(
      "{\"raft_failover_us\":%s,\"raft_promotion_us\":%s,"
      "\"semisync_failover_us\":%s,\"semisync_promotion_us\":%s,"
      "\"failover_speedup\":%.2f,\"promotion_speedup\":%.2f,"
      "\"traced_failover\":%s,\"traced_probe_downtime_us\":%llu,"
      "\"traced_stages\":%s}",
      HistogramJson(raft_failover).c_str(),
      HistogramJson(raft_promotion).c_str(), HistogramJson(ss_failover).c_str(),
      HistogramJson(ss_promotion).c_str(), failover_speedup,
      promotion_speedup,
      traced.ok ? traced.failover_json.c_str() : "null",
      (unsigned long long)traced.probe_downtime_micros,
      traced.ok ? traced.stages_json.c_str() : "null");
  WriteBenchJson("table2_failover", summary, traced.internals_json,
                 prior_internals);
  if (!args.trace_out.empty() && traced.ok) {
    WriteTextFile(args.trace_out, traced.chrome_json);
  }
  return 0;
}
