// Reproduces Figure 5d: sysbench OLTP write throughput over time. The
// paper's figure shows MyRaft and the prior setup tracking each other
// (closed-loop clients, so throughput = workers / commit latency).

#include "fig5_common.h"

int main(int argc, char** argv) {
  using namespace myraft;
  using namespace myraft::bench;
  SetMinLogLevel(LogLevel::kError);
  BenchArgs args = ParseArgs(argc, argv);

  Fig5Setup setup;
  setup.sysbench = true;
  setup.seed = args.seed + 13;
  setup.duration_micros = (args.quick ? 3 : 10) * kFig5Second;
  setup.sysbench_workers = 8;

  PrintHeader("Figure 5d reproduction: sysbench throughput",
              "Fig 5d (§6.1): throughput curves overlap; MyRaft "
              "slightly below (latency delta under a closed loop)");

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

  const std::string summary = StringPrintf(
      "{\"myraft\":{\"committed\":%llu,\"rate_per_sec\":%.1f},"
      "\"prior\":{\"committed\":%llu,\"rate_per_sec\":%.1f}}",
      (unsigned long long)myraft.recorder.committed(), myraft_rate,
      (unsigned long long)prior.recorder.committed(), prior_rate);
  WriteBenchJson("fig5d_sysbench_throughput", summary, myraft.internals_json,
                 prior.internals_json);
  return 0;
}
