// Reproduces Figure 5a: histogram of commit latency observed by clients
// under a production-representative workload, MyRaft vs the prior setup
// (A/B, §6.1). Topology: primary + 2 in-region logtailers, five follower
// regions (db + 2 logtailers each), two learners; client<->primary
// latency ~10 ms; FlexiRaft single-region commit quorum.
//
// Paper: "While MyRaft shifts a little towards higher latency, the
// average latency is very similar: 15758.4us for MyRaft vs. 15626.8us for
// the prior setup, representing a 0.8% win for the prior setup."

#include "fig5_common.h"

int main(int argc, char** argv) {
  using namespace myraft;
  using namespace myraft::bench;
  SetMinLogLevel(LogLevel::kError);
  BenchArgs args = ParseArgs(argc, argv);

  Fig5Setup setup;
  setup.sysbench = false;
  setup.seed = args.seed;
  setup.duration_micros = (args.quick ? 10 : 60) * kFig5Second;
  setup.production_rate_per_sec = args.quick ? 100 : 200;

  PrintHeader("Figure 5a reproduction: production A/B commit latency",
              "Fig 5a (§6.1): avg 15758.4 us (MyRaft) vs 15626.8 us "
              "(prior), 0.8% win for the prior setup");

  Fig5ArmResult myraft = RunMyRaftArm(setup);
  Fig5ArmResult prior = RunSemiSyncArm(setup);
  PrintLatencyComparison("Figure 5a (production workload)", myraft.recorder,
                         prior.recorder, 15758.4, 15626.8);

  printf("\nShape check: parity within a few percent, slight edge to the "
         "prior setup (Raft does more per-transaction work).\n");
  printf("MyRaft committed=%llu failed=%llu; prior committed=%llu "
         "failed=%llu\n",
         (unsigned long long)myraft.recorder.committed(),
         (unsigned long long)myraft.recorder.failed(),
         (unsigned long long)prior.recorder.committed(),
         (unsigned long long)prior.recorder.failed());

  const std::string summary = StringPrintf(
      "{\"myraft\":{\"committed\":%llu,\"failed\":%llu,\"latency_us\":%s},"
      "\"prior\":{\"committed\":%llu,\"failed\":%llu,\"latency_us\":%s}}",
      (unsigned long long)myraft.recorder.committed(),
      (unsigned long long)myraft.recorder.failed(),
      HistogramJson(myraft.recorder.latency()).c_str(),
      (unsigned long long)prior.recorder.committed(),
      (unsigned long long)prior.recorder.failed(),
      HistogramJson(prior.recorder.latency()).c_str());
  WriteBenchJson("fig5a_prod_latency", summary, myraft.internals_json,
                 prior.internals_json);
  return 0;
}
