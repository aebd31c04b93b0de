// Chaos driver (DESIGN.md §11): runs seed-generated or file-loaded fault
// schedules against the full stack and audits the cluster invariants at
// every quiescent window. Exit code 0 iff every run passed.
//
//   bench_chaos --seed=42                    one generated schedule
//   bench_chaos --seed=1 --corpus=50         seeds 1..50 (the CI corpus)
//   bench_chaos --schedule=repro.chaos       replay a schedule file
//   bench_chaos --seed=42 --minimize         ddmin a failure to a repro
//   bench_chaos ... --out=fail.chaos --trace-out=fail.jsonl
//   bench_chaos ... --bundle-out=fail.json   flight-recorder bundle on failure
//   bench_chaos ... --raftstat               cluster DebugStatus at exit
//   bench_chaos --seed=1 --corpus=25 --reconfig   add the membership nemesis
//
// Determinism contract: identical seeds produce byte-identical schedule
// text and checker reports across runs (asserted by chaos_test and the
// chaos-smoke CI job).

#include <cstdio>
#include <cstring>

#include "bench_util.h"
#include "chaos/minimizer.h"
#include "chaos/nemesis.h"
#include "chaos/runner.h"
#include "flexiraft/flexiraft.h"
#include "util/env.h"

namespace myraft::bench {
namespace {

const raft::QuorumEngine* FlexiEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

struct ChaosArgs {
  uint64_t seed = 1;
  int corpus = 1;
  std::string schedule_file;
  bool minimize = false;
  std::string out;
  std::string trace_out;
  uint64_t duration_ms = 20'000;
  uint64_t quiesce_ms = 5'000;
  bool quick = false;
  /// --bundle-out=<path>: on failure, write the flight-recorder bundle
  /// (raftstat + trace tail + metric time series) of the failing run.
  std::string bundle_out;
  /// --raftstat: print cluster-wide DebugStatus after every failing run
  /// and at exit for the last run.
  bool raftstat = false;
  /// --reconfig: enables the membership nemesis (remove/re-add,
  /// demote/promote through the live leader) in generated schedules, so
  /// the Config Safety invariant gets real work.
  bool reconfig = false;
};

bool ParseChaosArgs(int argc, char** argv, ChaosArgs* args) {
  for (int i = 1; i < argc; ++i) {
    uint64_t value;
    if (strncmp(argv[i], "--seed=", 7) == 0 &&
        ParseUint64(argv[i] + 7, &value)) {
      args->seed = value;
    } else if (strncmp(argv[i], "--corpus=", 9) == 0 &&
               ParseUint64(argv[i] + 9, &value)) {
      args->corpus = static_cast<int>(value);
    } else if (strncmp(argv[i], "--schedule=", 11) == 0) {
      args->schedule_file = argv[i] + 11;
    } else if (strcmp(argv[i], "--minimize") == 0) {
      args->minimize = true;
    } else if (strncmp(argv[i], "--out=", 6) == 0) {
      args->out = argv[i] + 6;
    } else if (strncmp(argv[i], "--trace-out=", 12) == 0) {
      args->trace_out = argv[i] + 12;
    } else if (strncmp(argv[i], "--duration-ms=", 14) == 0 &&
               ParseUint64(argv[i] + 14, &value)) {
      args->duration_ms = value;
    } else if (strncmp(argv[i], "--quiesce-ms=", 13) == 0 &&
               ParseUint64(argv[i] + 13, &value)) {
      args->quiesce_ms = value;
    } else if (strcmp(argv[i], "--quick") == 0) {
      args->quick = true;
    } else if (strncmp(argv[i], "--bundle-out=", 13) == 0) {
      args->bundle_out = argv[i] + 13;
    } else if (strcmp(argv[i], "--raftstat") == 0) {
      args->raftstat = true;
    } else if (strcmp(argv[i], "--reconfig") == 0) {
      args->reconfig = true;
    } else {
      fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

chaos::ChaosOptions RunnerOptions() {
  chaos::ChaosOptions options;
  options.cluster.topology.db_regions = 3;
  options.cluster.topology.logtailers_per_db = 2;
  options.cluster.topology.learners = 1;
  return options;
}

int RunChaos(const ChaosArgs& args) {
  const chaos::ChaosOptions runner_options = RunnerOptions();
  chaos::NemesisOptions nemesis_options;
  nemesis_options.reconfig_faults = args.reconfig;
  nemesis_options.duration_micros = args.duration_ms * 1'000;
  nemesis_options.quiesce_interval_micros = args.quiesce_ms * 1'000;
  if (args.quick) {
    nemesis_options.duration_micros = 8'000'000;
    nemesis_options.quiesce_interval_micros = 4'000'000;
  }
  const std::vector<MemberId> members =
      chaos::TopologyMemberIds(runner_options.cluster);

  std::vector<chaos::Schedule> schedules;
  if (!args.schedule_file.empty()) {
    auto text = GetPosixEnv()->ReadFileToString(args.schedule_file);
    if (!text.ok()) {
      fprintf(stderr, "cannot read %s: %s\n", args.schedule_file.c_str(),
              text.status().ToString().c_str());
      return 2;
    }
    auto parsed = chaos::Schedule::Parse(*text);
    if (!parsed.ok()) {
      fprintf(stderr, "cannot parse %s: %s\n", args.schedule_file.c_str(),
              parsed.status().ToString().c_str());
      return 2;
    }
    schedules.push_back(*parsed);
  } else {
    for (int i = 0; i < args.corpus; ++i) {
      schedules.push_back(chaos::GenerateSchedule(
          args.seed + static_cast<uint64_t>(i), members, nemesis_options));
    }
  }

  chaos::ChaosRunner runner(runner_options, FlexiEngine());
  int failures = 0;
  for (const chaos::Schedule& schedule : schedules) {
    chaos::ChaosReport report = runner.Run(schedule);
    printf("%s", report.ToText().c_str());
    fflush(stdout);
    if (report.passed) continue;
    ++failures;

    chaos::Schedule repro = schedule;
    if (args.minimize) {
      chaos::MinimizeResult minimized =
          chaos::MinimizeSchedule(runner_options, FlexiEngine(), schedule);
      printf("minimized to %zu steps in %d runs:\n%s",
             minimized.schedule.steps.size(), minimized.runs,
             minimized.report.ToText().c_str());
      repro = minimized.schedule;
      // Re-run the minimized schedule so the emitted trace matches it.
      (void)runner.Run(repro);
    }
    printf("=== repro schedule ===\n%s", repro.ToText().c_str());
    if (!args.out.empty()) {
      WriteTextFile(args.out, repro.ToText());
      printf("schedule written to %s\n", args.out.c_str());
    }
    if (!args.trace_out.empty()) {
      WriteTextFile(args.trace_out, runner.TraceJsonl());
      printf("trace written to %s\n", args.trace_out.c_str());
    }
    if (!args.bundle_out.empty()) {
      const std::string bundle = runner.LastBundleJson();
      WriteTextFile(args.bundle_out,
                    bundle.empty() ? "{\"trigger\":null}" : bundle);
      printf("flight-recorder bundle written to %s\n",
             args.bundle_out.c_str());
    }
    if (args.raftstat) {
      printf("=== raftstat (failing run) ===\n%s",
             runner.RaftstatText().c_str());
    }
  }
  if (args.raftstat && failures == 0) {
    printf("=== raftstat (last run) ===\n%s", runner.RaftstatText().c_str());
  }
  printf("chaos: %zu schedule(s), %d failure(s)\n", schedules.size(),
         failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace myraft::bench

int main(int argc, char** argv) {
  myraft::bench::ChaosArgs args;
  if (!myraft::bench::ParseChaosArgs(argc, argv, &args)) return 2;
  return myraft::bench::RunChaos(args);
}
