// Shared vocabulary of the MyRaft end-to-end benchmark: exact sample
// percentiles, the metric report, a loop driver that counts (and in
// traced runs times) every simulator event it runs, and the per-layer
// tally a workload fills while it runs.
//
// Two clocks are measured. Sim-time metrics come from the discrete-event
// clock and are exact for a seed; host-time metrics are the CPU time this
// (single-threaded) process spends.

#ifndef MYRAFT_PERFBENCH_PERF_H_
#define MYRAFT_PERFBENCH_PERF_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "chaos/invariants.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "util/histogram.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/trace.h"
#include "wire/log_entry.h"

namespace myraft::perf {

inline constexpr uint64_t kSecond = 1'000'000;

/// Raw samples with exact percentiles (linear interpolation between the
/// closest ranks), so a reported value carries all its digits.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  const std::vector<double>& values() const { return values_; }
  /// p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  /// The highest whole percentile that still has at least `beyond`
  /// samples above it, with its value: {percentile, value}. {0, 0} when
  /// there are not enough samples.
  std::pair<double, double> Tail(size_t beyond = 10) const;

 private:
  std::vector<double> values_;
};

enum class ClockKind { kSim, kHost, kNone };

struct Metric {
  double value = 0.0;
  std::string unit;
  ClockKind clock = ClockKind::kNone;
};

/// Named metrics in insertion order.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           ClockKind clock);
  double Get(const std::string& name) const;
  const std::vector<std::pair<std::string, Metric>>& metrics() const {
    return metrics_;
  }
  /// "name value unit [clock]" lines for the human-readable part of the
  /// output.
  std::string ToText() const;
  /// {"name": {"value": v, "unit": "u"}, ...} over `names`, in that order.
  std::string ToJson(const std::vector<std::string>& names) const;

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
};

/// Formats a double with every significant digit (round-trip exact).
std::string FormatDouble(double value);

/// Host time of this thread: CPU time (CLOCK_THREAD_CPUTIME_ID), not wall
/// time, so time the shared host spends on other work while this thread
/// waits is not charged to the code under test. The whole benchmark runs
/// on one thread.
class CpuStopwatch {
 public:
  CpuStopwatch() : start_(Now()) {}
  uint64_t Nanos() const { return Now() - start_; }
  double Seconds() const { return static_cast<double>(Nanos()) / 1e9; }

 private:
  static uint64_t Now();
  uint64_t start_;
};

/// Wall-clock time (std::chrono::steady_clock): the run's time budget.
class WallStopwatch {
 public:
  WallStopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Peak resident set of this process (VmHWM), in KiB.
uint64_t PeakRssKb();

/// CPU ns of a fixed reference computation built only from the standard
/// library (map inserts and lookups, a sort): a gauge of how fast the
/// shared host runs right now, which no change to the repository's code
/// can move. Median of three runs.
uint64_t ReferenceCpuNanos();
/// The reference's cost on the host the benchmark was calibrated on;
/// host metrics are scaled by kReferenceNominalNanos / ReferenceCpuNanos().
inline constexpr double kReferenceNominalNanos = 20e6;

/// Runs an EventLoop one event at a time through EventLoop::RunOne,
/// counting events; when `timed`, every RunOne is wrapped in
/// steady-clock reads (wall time: a per-call CPU-clock read would cost
/// more than many events). Traced and untraced runs drive the loop through
/// this same code, so both see the same event sequence.
class LoopDriver {
 public:
  LoopDriver(sim::EventLoop* loop, bool timed) : loop_(loop), timed_(timed) {}

  /// Runs every event due at or before `deadline_micros` that was
  /// scheduled before this call, then leaves the clock at the deadline.
  void RunUntil(uint64_t deadline_micros);
  void RunFor(uint64_t duration_micros) {
    RunUntil(loop_->now() + duration_micros);
  }
  /// Runs until `done()` holds (checked after every event) or sim time
  /// passes `deadline_micros`.
  void RunUntilDone(const std::function<bool()>& done,
                    uint64_t deadline_micros);

  uint64_t events() const { return events_; }
  uint64_t timed_ns() const { return timed_ns_; }

 private:
  bool Step();

  sim::EventLoop* loop_;
  bool timed_;
  uint64_t events_ = 0;
  uint64_t timed_ns_ = 0;
};

/// Counter/histogram/network totals of one cluster, taken at the start
/// and end of its measured phase; the difference feeds the tally.
struct ClusterCounters {
  metrics::MetricSnapshot registry;  // bare metric names, summed over nodes
  uint64_t net_messages = 0;
  uint64_t net_bytes = 0;
  uint64_t net_cross_region_bytes = 0;

  uint64_t Counter(const std::string& name) const;
};

/// Id the loop's next scheduled event will get: a cancelled no-op marks
/// the position, so differences count events scheduled in between.
uint64_t LoopPosition(sim::EventLoop* loop);

/// Row value of `size` bytes, varied so payloads are not constant (the
/// shape workload::WorkloadDriver generates).
std::string RowValue(Random* rng, size_t size);

/// Seed of one input stream (keys, values, arrivals) of a workload run.
inline uint64_t GeneratorSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ull + stream;
}

/// Network totals from a SimNetwork's per-region-pair link stats.
void AddNetworkTotals(const sim::SimNetwork& network, ClusterCounters* out);
/// Merges a registry rollup into `out`, folding per-shard namespaces
/// ("shard.<rs>.raft.x") into the bare family name ("raft.x").
void AddRegistryRollup(const metrics::MetricSnapshot& rollup,
                       ClusterCounters* out);

/// Everything the per-layer report needs, accumulated over every cluster
/// of one repetition of a workload.
struct LayerTally {
  /// Measured-phase deltas, summed over clusters.
  ClusterCounters counters;
  /// Σ over clusters of (writes committed × followers): the denominator
  /// of the replication waste ratio.
  double committed_times_followers = 0;
  /// Σ over clusters of (members × measured sim seconds).
  double node_sim_seconds = 0;
  /// Leader failures the workload injected (crash trials or shards whose
  /// leader the storm cut off).
  uint64_t failovers = 0;

  // --- Traced runs only ---------------------------------------------------
  uint64_t trace_records = 0;
  uint64_t trace_dropped = 0;
  /// Entries proxy relays rebuilt from their LogCache (the
  /// "proxy.reconstituted" instants): in-situ LogCache::Get calls.
  /// The remaining cache lookups are GetCompressed.
  uint64_t reconstituted_entries = 0;
  /// TraceAnalyzer stage histograms ("server.commit.flush", ...).
  std::map<std::string, Histogram> stages;
  /// TraceAnalyzer failover phases of every crash trial, in ms.
  Samples failover_detect_ms, failover_election_ms, failover_promotion_ms,
      failover_first_write_ms;
  /// Committed log entries taken from a leader after the run: the inputs
  /// the host-timed layer calls replay.
  std::vector<LogEntry> sample_entries;

  void AddDelta(const ClusterCounters& before, const ClusterCounters& after);
  /// Drains `journals` into the trace tally (records, stage histograms
  /// and, when `crash_trial`, the failover phase decomposition).
  void AddTrace(std::vector<trace::JournalView> journals, uint64_t dropped,
                bool crash_trial);
  uint64_t Counter(const std::string& name) const {
    return counters.Counter(name);
  }
  const Histogram* FindHistogram(const std::string& name) const;
};

/// One repetition of a workload: its sim-time samples, host-time costs,
/// correctness verdicts and layer tally.
struct RepResult {
  // --- Sim clock (exact for a seed) ------------------------------------------
  Samples commit_us;      // acked writes, due time -> ack
  Samples read_us;        // successful reads, due time -> reply
  Samples downtime_ms;    // write downtime per crash / storm-hit shard
  Samples promotion_ms;   // write downtime per graceful transfer
  uint64_t writes_acked = 0;
  uint64_t reads_ok = 0;
  /// Sim seconds over which `writes_acked` were counted.
  double write_sim_seconds = 0;
  /// Workload-specific sim-time extras (e.g. storm recovery).
  std::map<std::string, double> sim_extra;

  // --- Client ops ---------------------------------------------------------------
  uint64_t attempted = 0;
  uint64_t failed = 0;

  // --- Host clock ---------------------------------------------------------------
  double setup_s = 0;      // building + bootstrapping clusters
  double measured_s = 0;   // the measured phases
  uint64_t events = 0;     // loop events scheduled in the measured phases
  /// Events LoopDriver ran in the measured phases, and (traced runs) the
  /// host ns their RunOne calls took.
  uint64_t timed_events = 0;
  uint64_t timed_event_ns = 0;
  /// kReferenceNominalNanos ÷ ReferenceCpuNanos() around this repetition
  /// (1 when not measured): scales host times to the reference speed.
  double host_speed = 1.0;
  /// Peak-RSS growth over the first cluster set-up, per ring (fleet).
  double rss_kb_per_ring = 0;
  int rings = 0;

  LayerTally tally;
  std::vector<std::string> violations;
};

struct WorkloadOptions {
  uint64_t seed = 1;
  /// Traced repetition: journals sized to drop nothing, every loop event
  /// timed, journals drained and analyzed afterwards.
  bool traced = false;
  /// Shrinks the measured phase (durations, trial counts) for the
  /// self-test; 1 = the benchmark's size.
  double scale = 1.0;
  /// Build and bootstrap the workload's clusters, then stop: extra
  /// set-up samples for the setup_s median.
  bool setup_only = false;
};

using WorkloadFn = RepResult (*)(const WorkloadOptions&);

RepResult RunSysbenchRing(const WorkloadOptions& options);
RepResult RunProdMixed(const WorkloadOptions& options);
RepResult RunFailover(const WorkloadOptions& options);
RepResult RunFleetStorm(const WorkloadOptions& options);

/// Self-test hook: a small sysbench ring whose acked-write ledger gets a
/// forged entry; returns the checker's violations.
std::vector<std::string> ForgedAckViolations(uint64_t seed);

/// Folds a ledger with repeated keys down to the highest-OpId write per
/// key (what the final state must show).
std::vector<chaos::AckedWrite> LatestPerKey(
    const std::vector<chaos::AckedWrite>& acked);

/// Per-layer report (traced run): counters of `traced.tally` turned into
/// per-op ratios, trace-derived stage latencies, and host-timed layer
/// calls replayed on the run's own entries. `untraced` supplies the
/// host_us_per_op the overhead ratio and unattributed time divide by.
void AddLayerMetrics(const RepResult& untraced, const RepResult& traced,
                     Report* out);

}  // namespace myraft::perf

#endif  // MYRAFT_PERFBENCH_PERF_H_
