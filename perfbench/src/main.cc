// MyRaft end-to-end benchmark: command-line entry point.
//
//   myraft_perf --workload <name> --seed <n> --seconds <n> --trace <0|1>
//   myraft_perf --self-test
//
// Untraced runs (--trace 0) run every part of the workload once, then keep
// cycling through the parts until --seconds of host time have passed; a
// repeated part must reproduce its sim-time results byte for byte. They
// report the end-to-end metrics: sim-time ones pooled over the parts,
// host-time ones as medians over repetitions. Traced runs (--trace 1) run
// part 0 once untraced and once traced, require identical sim-time results
// and zero dropped trace records, and report the per-layer metrics.
//
// Every run prints its metrics with unit and clock, then, as the last
// stdout line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Any invariant violation, nondeterminism or dropped trace
// record makes "correct" false and the exit code 1; bad flags exit 2.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "perf.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::perf {
namespace {

constexpr int kMaxReps = 50;
/// setup_s is the median over the repetitions' own set-ups plus
/// set-up-only runs: at least kMinSetups, and more (up to kMaxSetups)
/// while the extra set-ups have cost less than kSetupBudgetSeconds.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 25;
constexpr double kSetupBudgetSeconds = 1.0;

/// A workload runs as `parts` independent parts, each on its own seed
/// derived from --seed; their sim-time samples are pooled. Splitting the
/// work lets host time be a median over several short repetitions (the
/// host is shared, so single long runs pick up its noise) while the
/// pooled sim-time sample stays large.
struct Workload {
  const char* name;
  WorkloadFn run;
  int parts;
};

const Workload kWorkloads[] = {
    {"sysbench_ring", RunSysbenchRing, 8},
    {"prod_mixed", RunProdMixed, 4},
    {"failover", RunFailover, 4},
    {"fleet_storm", RunFleetStorm, 2},
};

uint64_t PartSeed(uint64_t seed, int part) {
  return seed * 1000 + static_cast<uint64_t>(part);
}

/// The end-to-end metrics, in report order.
const char* const kEndToEnd[] = {
    "commit_p50_us", "commit_p99_us",  "commits_per_sim_s",
    "read_p50_us",   "read_p99_us",    "host_us_per_op",
    "setup_s",       "peak_rss_mb",
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  bool self_test = false;
};

/// Strict flag parsing: every flag must be known, given once, and carry
/// a well-formed value ("--name value" or "--name=value").
bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "flag --" + name + " needs a value";
      return false;
    }
    if (name != "workload" && name != "seed" && name != "seconds" &&
        name != "trace") {
      *error = "unknown flag --" + name;
      return false;
    }
    if (!values.emplace(name, value).second) {
      *error = "flag --" + name + " given twice";
      return false;
    }
  }
  if (args->self_test) {
    if (!values.empty()) *error = "--self-test takes no other flags";
    return values.empty();
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (values.count(required) == 0) {
      *error = std::string("missing --") + required;
      return false;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (values["workload"] == w.name) args->workload = &w;
  }
  if (args->workload == nullptr) {
    *error = "unknown workload '" + values["workload"] + "'";
    return false;
  }
  if (!ParseUint64(values["seed"], &args->seed)) {
    *error = "malformed --seed '" + values["seed"] + "'";
    return false;
  }
  if (!ParseUint64(values["seconds"], &args->seconds) || args->seconds < 1 ||
      args->seconds > 3600) {
    *error = "--seconds must be a whole number in [1, 3600]";
    return false;
  }
  if (!ParseUint64(values["trace"], &args->trace) || args->trace > 1) {
    *error = "--trace must be 0 or 1";
    return false;
  }
  return true;
}

/// Every sim-time result of a repetition, printed exactly. Host-time
/// fields are left out: they differ between any two runs.
std::string SimFingerprint(const RepResult& r) {
  std::string out;
  auto samples = [&out](const char* name, const Samples& s) {
    out += name;
    for (double v : s.values()) out += " " + FormatDouble(v);
    out += "\n";
  };
  samples("commit_us", r.commit_us);
  samples("read_us", r.read_us);
  samples("downtime_ms", r.downtime_ms);
  samples("promotion_ms", r.promotion_ms);
  out += StringPrintf("writes_acked %llu reads_ok %llu attempted %llu "
                      "failed %llu write_sim_s %s\n",
                      (unsigned long long)r.writes_acked,
                      (unsigned long long)r.reads_ok,
                      (unsigned long long)r.attempted,
                      (unsigned long long)r.failed,
                      FormatDouble(r.write_sim_seconds).c_str());
  for (const auto& [name, value] : r.sim_extra) {
    out += name + " " + FormatDouble(value) + "\n";
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double HostUsPerOp(const RepResult& r) {
  return r.attempted == 0 ? 0.0
                          : r.measured_s * 1e6 /
                                static_cast<double>(r.attempted);
}

/// Sim-time results and op counts of `parts` pooled.
RepResult Pool(const std::vector<RepResult>& parts) {
  RepResult pooled;
  for (const RepResult& part : parts) {
    pooled.commit_us.Append(part.commit_us);
    pooled.read_us.Append(part.read_us);
    pooled.downtime_ms.Append(part.downtime_ms);
    pooled.promotion_ms.Append(part.promotion_ms);
    pooled.writes_acked += part.writes_acked;
    pooled.reads_ok += part.reads_ok;
    pooled.write_sim_seconds += part.write_sim_seconds;
    pooled.attempted += part.attempted;
    pooled.failed += part.failed;
  }
  return pooled;
}

/// End-to-end metrics (JSON) plus the workload-specific ones that are
/// only printed. `r` holds the pooled sim-time results, `setups` one
/// sample per set-up.
void AddEndToEnd(const RepResult& r, double host_us_per_op,
                 const std::vector<double>& setups, Report* out) {
  const auto kSim = ClockKind::kSim;
  const auto kHost = ClockKind::kHost;
  out->Set("commit_p50_us", r.commit_us.Percentile(50), "us", kSim);
  out->Set("commit_p99_us", r.commit_us.Percentile(99), "us", kSim);
  out->Set("commits_per_sim_s",
           r.write_sim_seconds > 0 ? r.writes_acked / r.write_sim_seconds : 0,
           "txn/sim-s", kSim);
  out->Set("read_p50_us", r.read_us.Percentile(50), "us", kSim);
  out->Set("read_p99_us", r.read_us.Percentile(99), "us", kSim);
  out->Set("host_us_per_op", host_us_per_op, "us", kHost);
  out->Set("setup_s", Median(setups), "s", kHost);
  out->Set("peak_rss_mb", PeakRssKb() / 1024.0, "MiB", kHost);

  // Printed only: not every workload has faults, and none may fail ops.
  if (r.downtime_ms.size() > 0) {
    const auto [pct, value] = r.downtime_ms.Tail();
    out->Set("downtime_p50_ms", r.downtime_ms.Percentile(50), "ms", kSim);
    out->Set("downtime_tail_ms", value, "ms", kSim);
    out->Set("downtime_tail_percentile", pct, "pct", ClockKind::kNone);
    out->Set("downtime_samples", r.downtime_ms.size(), "count",
             ClockKind::kNone);
  }
  if (r.promotion_ms.size() > 0) {
    out->Set("promotion_p50_ms", r.promotion_ms.Percentile(50), "ms", kSim);
  }
  out->Set("failed_op_ratio",
           r.attempted == 0 ? 0.0
                            : static_cast<double>(r.failed) / r.attempted,
           "ratio", ClockKind::kNone);
  out->Set("commits", r.commit_us.size(), "count", ClockKind::kNone);
  out->Set("reads", r.read_us.size(), "count", ClockKind::kNone);
}

void PrintResult(bool correct, const RepResult& r, const std::string& json) {
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": %s}\n",
         correct ? "true" : "false", (unsigned long long)r.attempted,
         (unsigned long long)r.failed, json.c_str());
}

bool ReportViolations(const RepResult& r, const char* label) {
  for (const std::string& v : r.violations) {
    fprintf(stderr, "%s: violation: %s\n", label, v.c_str());
  }
  return r.violations.empty();
}

int RunUntraced(const Args& args) {
  const int parts = args.workload->parts;
  std::vector<RepResult> reps;
  bool correct = true;
  WallStopwatch total;
  // The reference runs before and after every repetition; the geometric
  // mean of the two sets the repetition's host_speed.
  double reference_ns = static_cast<double>(ReferenceCpuNanos());
  for (int i = 0; correct && (i < parts || (total.Seconds() < args.seconds &&
                                            i < kMaxReps));
       ++i) {
    reps.push_back(
        args.workload->run(WorkloadOptions{PartSeed(args.seed, i % parts)}));
    const double after_ns = static_cast<double>(ReferenceCpuNanos());
    reps.back().host_speed =
        kReferenceNominalNanos / std::sqrt(reference_ns * after_ns);
    reference_ns = after_ns;
    correct = ReportViolations(reps.back(), "repetition");
    if (correct && i >= parts &&
        SimFingerprint(reps.back()) != SimFingerprint(reps[i % parts])) {
      fprintf(stderr, "nondeterminism: part %d of seed %llu gave different "
                      "sim-time results when repeated\n",
              i % parts, (unsigned long long)args.seed);
      correct = false;
    }
  }
  std::vector<double> setups;
  for (const RepResult& rep : reps) setups.push_back(rep.setup_s);
  WallStopwatch extra_setups;
  while (correct && (setups.size() < kMinSetups ||
                     (setups.size() < kMaxSetups &&
                      extra_setups.Seconds() < kSetupBudgetSeconds))) {
    WorkloadOptions options{PartSeed(args.seed, setups.size() % parts)};
    options.setup_only = true;
    setups.push_back(args.workload->run(options).setup_s);
  }
  // Host metrics are scaled to the reference host speed: each
  // repetition by the reference measured around it, set-ups by the run's
  // median. host_us_per_op takes each part's median CPU time over
  // its repetitions (robust to host noise), then divides their sum by the
  // parts' ops (an op-weighted mean over the parts' seeds, which varies
  // less from seed to seed than a median over a few parts).
  double cpu_s = 0, scaled_cpu_s = 0, ops = 0;
  for (int part = 0; part < std::min<int>(parts, reps.size()); ++part) {
    std::vector<double> raw, scaled;
    for (size_t i = part; i < reps.size(); i += parts) {
      raw.push_back(reps[i].measured_s);
      scaled.push_back(reps[i].measured_s * reps[i].host_speed);
    }
    cpu_s += Median(raw);
    scaled_cpu_s += Median(scaled);
    ops += static_cast<double>(reps[part].attempted);
  }
  std::vector<double> speeds;
  for (const RepResult& rep : reps) speeds.push_back(rep.host_speed);
  const double run_speed = Median(speeds);
  std::vector<double> scaled_setups;
  for (double setup : setups) scaled_setups.push_back(setup * run_speed);
  const RepResult pooled = Pool(std::vector<RepResult>(
      reps.begin(), reps.begin() + std::min<size_t>(parts, reps.size())));
  Report report;
  AddEndToEnd(pooled, {ops > 0 ? scaled_cpu_s * 1e6 / ops : 0.0},
              scaled_setups, &report);
  report.Set("host_us_per_op_cpu", ops > 0 ? cpu_s * 1e6 / ops : 0.0, "us",
             ClockKind::kHost);
  report.Set("setup_s_cpu", Median(setups), "s", ClockKind::kHost);
  report.Set("host_speed", run_speed, "ratio", ClockKind::kHost);
  report.Set("repetitions", reps.size(), "count", ClockKind::kNone);
  std::vector<std::string> names(std::begin(kEndToEnd), std::end(kEndToEnd));
  for (const std::string& name : names) {
    if (report.Get(name) <= 0) {
      fprintf(stderr, "metric %s is not positive\n", name.c_str());
      correct = false;
    }
  }
  printf("workload %s seed %llu: %zu repetitions of %d parts in %.2f "
         "host-s\n",
         args.workload->name, (unsigned long long)args.seed, reps.size(),
         parts, total.Seconds());
  printf("%s", report.ToText().c_str());
  PrintResult(correct, pooled, report.ToJson(names));
  return correct ? 0 : 1;
}

int RunTraced(const Args& args) {
  const uint64_t seed = PartSeed(args.seed, 0);
  double reference_ns = static_cast<double>(ReferenceCpuNanos());
  auto run = [&](bool traced) {
    RepResult result = args.workload->run(WorkloadOptions{seed, traced});
    const double after_ns = static_cast<double>(ReferenceCpuNanos());
    result.host_speed =
        kReferenceNominalNanos / std::sqrt(reference_ns * after_ns);
    reference_ns = after_ns;
    return result;
  };
  const RepResult untraced = run(false);
  const RepResult traced = run(true);
  bool correct = ReportViolations(untraced, "untraced") &&
                 ReportViolations(traced, "traced");
  if (SimFingerprint(untraced) != SimFingerprint(traced)) {
    fprintf(stderr, "traced and untraced runs of seed %llu differ in "
                    "sim-time results\n",
            (unsigned long long)args.seed);
    correct = false;
  }
  Report report;
  AddLayerMetrics(untraced, traced, &report);
  if (report.Get("obs.trace_dropped") != 0) {
    fprintf(stderr, "traced run dropped trace records\n");
    correct = false;
  }
  Report end_to_end;
  AddEndToEnd(untraced, HostUsPerOp(untraced), {untraced.setup_s},
              &end_to_end);
  printf("workload %s seed %llu (traced)\n", args.workload->name,
         (unsigned long long)args.seed);
  printf("end to end (untraced repetition):\n%s",
         end_to_end.ToText().c_str());
  printf("per layer (traced repetition):\n%s", report.ToText().c_str());
  std::vector<std::string> names;
  for (const auto& entry : report.metrics()) names.push_back(entry.first);
  PrintResult(correct, traced, report.ToJson(names));
  return correct ? 0 : 1;
}

/// Self-test: the correctness checks must be able to fail, and sim-time
/// results must be a function of the seed alone.
int RunSelfTest() {
  bool ok = true;
  auto check = [&ok](bool passed, const std::string& what) {
    printf("%s %s\n", passed ? "PASS" : "FAIL", what.c_str());
    ok = ok && passed;
  };

  const std::vector<std::string> forged = ForgedAckViolations(1);
  check(!forged.empty(), "a forged acked write is reported");
  for (const std::string& v : forged) printf("  reported: %s\n", v.c_str());

  for (const Workload& w : kWorkloads) {
    const double scale = 0.1;
    const RepResult a = w.run(WorkloadOptions{1, false, scale});
    const RepResult b = w.run(WorkloadOptions{1, false, scale});
    const RepResult traced = w.run(WorkloadOptions{1, true, scale});
    const RepResult other = w.run(WorkloadOptions{2, false, scale});
    const std::string name = w.name;
    check(a.violations.empty() && traced.violations.empty() &&
              other.violations.empty(),
          name + ": no invariant violations");
    check(SimFingerprint(a) == SimFingerprint(b),
          name + ": same seed twice gives identical sim-time results");
    check(SimFingerprint(a) == SimFingerprint(traced),
          name + ": traced and untraced runs give identical sim-time results");
    check(SimFingerprint(a) != SimFingerprint(other),
          name + ": two seeds give different sim-time results");
    check(traced.tally.trace_dropped == 0,
          name + ": traced run drops no trace records");
  }
  printf("%s\n", ok ? "self-test passed" : "self-test FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace myraft::perf

int main(int argc, char** argv) {
  using namespace myraft::perf;
  myraft::SetMinLogLevel(myraft::LogLevel::kError);
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    fprintf(stderr, "myraft_perf: %s\n", error.c_str());
    fprintf(stderr,
            "usage: myraft_perf --workload <sysbench_ring|prod_mixed|"
            "failover|fleet_storm> --seed <n> --seconds <n> --trace <0|1>\n"
            "       myraft_perf --self-test\n");
    return 2;
  }
  if (args.self_test) return RunSelfTest();
  return args.trace == 1 ? RunTraced(args) : RunUntraced(args);
}
