// Shared helpers for the experiment-reproduction binaries: argument
// parsing (--trials=N, --quick), percentile table formatting and the
// standard "paper vs measured" framing.

#ifndef MYRAFT_BENCH_BENCH_UTIL_H_
#define MYRAFT_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstring>
#include <string>

#include "semisync/cluster.h"
#include "sim/cluster.h"
#include "util/histogram.h"
#include "util/string_util.h"

namespace myraft::bench {

struct BenchArgs {
  int trials = 0;     // 0 = binary default
  bool quick = false; // reduced workload for smoke runs
  uint64_t seed = 1;
  /// --trace-out=<path>: where to write the Chrome trace-event JSON of
  /// the bench's instrumented run (open in ui.perfetto.dev). Empty = off.
  std::string trace_out;
};

inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    uint64_t value;
    if (strncmp(argv[i], "--trials=", 9) == 0 &&
        ParseUint64(argv[i] + 9, &value)) {
      args.trials = static_cast<int>(value);
    } else if (strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (strncmp(argv[i], "--seed=", 7) == 0 &&
               ParseUint64(argv[i] + 7, &value)) {
      args.seed = value;
    } else if (strncmp(argv[i], "--trace-out=", 12) == 0) {
      args.trace_out = argv[i] + 12;
    }
  }
  return args;
}

/// Writes `content` verbatim (trace exports and other side artifacts).
inline bool WriteTextFile(const std::string& path,
                          const std::string& content) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "failed to open %s for writing\n", path.c_str());
    return false;
  }
  fwrite(content.data(), 1, content.size(), f);
  fclose(f);
  printf("wrote %s\n", path.c_str());
  return true;
}

inline void PrintHeader(const std::string& title, const std::string& paper) {
  printf("==============================================================\n");
  printf("%s\n", title.c_str());
  printf("paper reference: %s\n", paper.c_str());
  printf("==============================================================\n");
}

/// One row of a Table-2-style percentile table, in milliseconds.
inline void PrintPercentileRowMs(const char* mode, const char* operation,
                                 const Histogram& h) {
  printf("%-10s %-10s %10.0f %10.0f %10.0f %10.0f   (n=%llu)\n", mode,
         operation, h.Percentile(99) / 1000.0, h.Percentile(95) / 1000.0,
         h.Median() / 1000.0, h.Mean() / 1000.0,
         (unsigned long long)h.count());
}

inline void PrintPercentileHeaderMs() {
  printf("%-10s %-10s %10s %10s %10s %10s\n", "Mode", "Operation", "pct99",
         "pct95", "Median", "Avg");
}

inline double PercentDiff(double a, double b) {
  return b == 0 ? 0.0 : (a - b) / b * 100.0;
}

/// Latency histogram as a small JSON object (microsecond units).
inline std::string HistogramJson(const Histogram& h) {
  return StringPrintf(
      "{\"count\":%llu,\"min\":%llu,\"max\":%llu,\"mean\":%.1f,"
      "\"p50\":%.1f,\"p95\":%.1f,\"p99\":%.1f}",
      (unsigned long long)h.count(), (unsigned long long)h.min(),
      (unsigned long long)h.max(), h.Mean(), h.Percentile(50),
      h.Percentile(95), h.Percentile(99));
}

/// The standard "internals" value for BENCH_*.json: the cluster's final
/// metric snapshot plus — when the harness ran with the observability
/// plane on — the sampler's windowed time series, so bench artifacts
/// carry latency/throughput trajectories instead of only end totals.
inline std::string ClusterInternalsJson(sim::ClusterHarness& cluster) {
  std::string out = "{\"metrics\":";
  out += cluster.MetricsSnapshotJson();
  out += ",\"time_series\":";
  out += cluster.observability_enabled() ? cluster.sampler()->SeriesJson()
                                         : "null";
  out += '}';
  return out;
}

/// The "prior_internals" value for an A/B bench's semi-sync arm: every
/// member's registry by id, plus the automation's under "automation" (the
/// way the MyRaft arm's snapshot carries the network under "network").
inline std::string PriorInternalsJson(semisync::SemiSyncCluster& cluster) {
  std::string out = "{\"metrics\":{";
  for (const MemberId& id : cluster.ids()) {
    out += StringPrintf("\"%s\":", id.c_str());
    out += cluster.node_metrics(id)->ToJson();
    out += ',';
  }
  out += "\"automation\":";
  out += cluster.metrics()->ToJson();
  out += "}}";
  return out;
}

/// Writes BENCH_<name>.json next to the binary:
///   {"bench":"<name>","summary":<summary>,"internals":<internals>}
/// with a trailing "prior_internals":<prior> when the bench has a semi-sync
/// arm. The arguments must already be valid JSON values; pass "null" (or
/// "") for internals when the run has no cluster metrics, and "" for
/// prior_internals when there is no semi-sync arm.
inline bool WriteBenchJson(const std::string& name,
                           const std::string& summary_json,
                           const std::string& internals_json,
                           const std::string& prior_internals_json = "") {
  const std::string path = "BENCH_" + name + ".json";
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "failed to open %s for writing\n", path.c_str());
    return false;
  }
  fprintf(f, "{\"bench\":\"%s\",\"summary\":%s,\"internals\":%s",
          name.c_str(), summary_json.c_str(),
          internals_json.empty() ? "null" : internals_json.c_str());
  if (!prior_internals_json.empty()) {
    fprintf(f, ",\"prior_internals\":%s", prior_internals_json.c_str());
  }
  fprintf(f, "}\n");
  fclose(f);
  printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace myraft::bench

#endif  // MYRAFT_BENCH_BENCH_UTIL_H_
