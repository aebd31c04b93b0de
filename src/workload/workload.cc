#include "workload/workload.h"

#include <algorithm>

#include "util/string_util.h"

namespace myraft::workload {

namespace {

constexpr uint64_t kKeySpace = 100'000;
/// Production values are heavy-tailed; sysbench rows are fixed-size.
constexpr size_t kSysbenchValueBytes = 100;
constexpr double kProductionValueShape = 1.3;  // bounded Pareto
constexpr size_t kProductionValueMin = 64;
constexpr size_t kProductionValueMax = 8192;

}  // namespace

std::vector<std::pair<uint64_t, uint64_t>> WorkloadRecorder::ThroughputSeries(
    uint64_t bucket_micros) const {
  std::map<uint64_t, uint64_t> buckets;
  for (uint64_t t : commit_times_) {
    buckets[t / bucket_micros * bucket_micros] += 1;
  }
  return {buckets.begin(), buckets.end()};
}

WorkloadDriver::WorkloadDriver(sim::EventLoop* loop, WorkloadOptions options,
                               WriteFn write)
    : loop_(loop),
      options_(options),
      write_(std::move(write)),
      rng_(options.seed) {}

void WorkloadDriver::Start() {
  if (started_) return;
  started_ = true;
  end_micros_ = loop_->now() + options_.duration_micros;
  if (options_.kind == WorkloadKind::kProductionLike) {
    ScheduleNextArrival();
  } else {
    for (int w = 0; w < options_.closed_loop_workers; ++w) {
      // Stagger worker starts slightly, like thread ramp-up.
      loop_->Schedule(rng_.Uniform(1'000),
                      [this, w]() { StartWorker(w); });
    }
  }
}

void WorkloadDriver::RunToCompletion(uint64_t drain_micros) {
  Start();
  loop_->RunUntil(end_micros_ + drain_micros);
}

std::string WorkloadDriver::NextKey() {
  if (options_.kind == WorkloadKind::kSysbenchWrite) {
    // sysbench oltp_write: uniform key choice.
    return "sbtest" + std::to_string(rng_.Uniform(kKeySpace));
  }
  // Production-like: skewed access (80/20 via squared uniform).
  const double u = rng_.NextDouble();
  const uint64_t key = static_cast<uint64_t>(
      u * u * static_cast<double>(kKeySpace));
  return "prod" + std::to_string(key);
}

std::string WorkloadDriver::NextValue() {
  size_t size;
  if (options_.kind == WorkloadKind::kSysbenchWrite) {
    size = kSysbenchValueBytes;
  } else {
    size = static_cast<size_t>(rng_.BoundedPareto(
        kProductionValueShape,
        static_cast<double>(kProductionValueMin),
        static_cast<double>(kProductionValueMax)));
  }
  std::string value(size, 'x');
  // Vary content mildly so payloads aren't trivially constant.
  for (size_t i = 0; i < value.size(); i += 16) {
    value[i] = static_cast<char>('a' + (rng_.Next() % 26));
  }
  return value;
}

void WorkloadDriver::IssueOne(std::function<void()> on_complete) {
  recorder_.RecordIssued();
  const uint64_t issued_at = loop_->now();
  write_(NextKey(), NextValue(),
         [this, issued_at, on_complete = std::move(on_complete)](
             bool ok, uint64_t latency_micros) {
           if (ok) {
             recorder_.RecordCommit(loop_->now(),
                                    latency_micros != 0
                                        ? latency_micros
                                        : loop_->now() - issued_at);
           } else {
             recorder_.RecordFailure();
           }
           if (on_complete) on_complete();
         });
}

void WorkloadDriver::ScheduleNextArrival() {
  if (loop_->now() >= end_micros_) return;
  const double mean_gap_micros = 1e6 / options_.arrival_rate_per_sec;
  const uint64_t gap =
      std::max<uint64_t>(1, static_cast<uint64_t>(
                                rng_.Exponential(mean_gap_micros)));
  loop_->Schedule(gap, [this]() {
    if (loop_->now() >= end_micros_) return;
    IssueOne(nullptr);
    ScheduleNextArrival();
  });
}

void WorkloadDriver::StartWorker(int worker) {
  if (loop_->now() >= end_micros_) return;
  IssueOne([this, worker]() {
    if (loop_->now() < end_micros_) StartWorker(worker);
  });
}

}  // namespace myraft::workload
