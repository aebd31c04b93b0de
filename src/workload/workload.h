// Workload generators for the evaluation (§6.1): a production-
// representative workload (open-loop Poisson arrivals, skewed keys,
// heavy-tailed transaction sizes — the MyShadow-style traffic) and a
// sysbench-OLTP-write-like workload (closed loop, fixed-size rows,
// uniform keys, "much higher write rate"). Drivers are harness-agnostic:
// they submit through a WriteFn and record client-observed latency and a
// commit-throughput time series, which the Figure 5 benches print.

#ifndef MYRAFT_WORKLOAD_WORKLOAD_H_
#define MYRAFT_WORKLOAD_WORKLOAD_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "util/histogram.h"

namespace myraft::workload {

enum class WorkloadKind {
  kProductionLike = 0,
  kSysbenchWrite = 1,
};

struct WorkloadOptions {
  WorkloadKind kind = WorkloadKind::kProductionLike;
  uint64_t duration_micros = 10'000'000;

  // Open loop (production-like): Poisson arrivals.
  double arrival_rate_per_sec = 100.0;

  // Closed loop (sysbench): N client threads, next op on completion.
  int closed_loop_workers = 8;

  uint64_t seed = 1;
};

/// Latency + throughput recorder shared by drivers and benches.
class WorkloadRecorder {
 public:
  void RecordCommit(uint64_t now_micros, uint64_t latency_micros) {
    latency_.Add(latency_micros);
    commit_times_.push_back(now_micros);
    ++committed_;
  }
  void RecordFailure() { ++failed_; }
  void RecordIssued() { ++issued_; }

  const Histogram& latency() const { return latency_; }
  uint64_t issued() const { return issued_; }
  uint64_t committed() const { return committed_; }
  uint64_t failed() const { return failed_; }

  /// Commits per time bucket (Figure 5b/5d series).
  std::vector<std::pair<uint64_t, uint64_t>> ThroughputSeries(
      uint64_t bucket_micros) const;

 private:
  Histogram latency_;
  std::vector<uint64_t> commit_times_;
  uint64_t issued_ = 0;
  uint64_t committed_ = 0;
  uint64_t failed_ = 0;
};

class WorkloadDriver {
 public:
  /// Submits one write; must eventually call the completion callback with
  /// (ok, client-observed latency in micros).
  using WriteFn = std::function<void(
      const std::string& key, const std::string& value,
      std::function<void(bool ok, uint64_t latency_micros)>)>;

  WorkloadDriver(sim::EventLoop* loop, WorkloadOptions options,
                 WriteFn write);

  /// Schedules the whole run; completion is reached once virtual time
  /// passes start + duration (run the loop yourself or call RunToEnd).
  void Start();
  /// Runs the event loop until the workload window (plus drain time) has
  /// passed.
  void RunToCompletion(uint64_t drain_micros = 2'000'000);

  const WorkloadRecorder& recorder() const { return recorder_; }

 private:
  void ScheduleNextArrival();   // open loop
  void StartWorker(int worker); // closed loop
  void IssueOne(std::function<void()> on_complete);
  std::string NextKey();
  std::string NextValue();

  sim::EventLoop* loop_;
  WorkloadOptions options_;
  WriteFn write_;
  Random rng_;
  WorkloadRecorder recorder_;
  uint64_t end_micros_ = 0;
  bool started_ = false;
};

}  // namespace myraft::workload

#endif  // MYRAFT_WORKLOAD_WORKLOAD_H_
