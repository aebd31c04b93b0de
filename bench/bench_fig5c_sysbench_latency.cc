// Reproduces Figure 5c: commit latency histogram under the sysbench OLTP
// write workload, with clients running on the primary's machine (§6.1).
//
// Paper: "MyRaft has a higher latency distribution: average latency was
// 826.368us for MyRaft vs 811.178us for the prior setup, which is about a
// 1.9% difference."

#include "fig5_common.h"

int main(int argc, char** argv) {
  using namespace myraft;
  using namespace myraft::bench;
  SetMinLogLevel(LogLevel::kError);
  BenchArgs args = ParseArgs(argc, argv);

  Fig5Setup setup;
  setup.sysbench = true;
  setup.seed = args.seed + 9;
  setup.duration_micros = (args.quick ? 3 : 10) * kFig5Second;
  setup.sysbench_workers = 8;

  PrintHeader("Figure 5c reproduction: sysbench commit latency",
              "Fig 5c (§6.1): avg 826.368 us (MyRaft) vs 811.178 us "
              "(prior), ~1.9% difference");

  Fig5ArmResult myraft = RunMyRaftArm(setup);
  Fig5ArmResult prior = RunSemiSyncArm(setup);
  PrintLatencyComparison("Figure 5c (sysbench oltp write)", myraft.recorder,
                         prior.recorder, 826.368, 811.178);
  printf("\nShape check: sub-millisecond commits for both (in-region "
         "quorum), MyRaft ~1-2%% slower.\n");

  const std::string summary = StringPrintf(
      "{\"myraft\":{\"committed\":%llu,\"failed\":%llu,\"latency_us\":%s},"
      "\"prior\":{\"committed\":%llu,\"failed\":%llu,\"latency_us\":%s}}",
      (unsigned long long)myraft.recorder.committed(),
      (unsigned long long)myraft.recorder.failed(),
      HistogramJson(myraft.recorder.latency()).c_str(),
      (unsigned long long)prior.recorder.committed(),
      (unsigned long long)prior.recorder.failed(),
      HistogramJson(prior.recorder.latency()).c_str());
  WriteBenchJson("fig5c_sysbench_latency", summary, myraft.internals_json);
  return 0;
}
