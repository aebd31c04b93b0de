#include "sim/client_model.h"

namespace myraft::sim {

binlog::RowOperation ClientRow(const std::string& key,
                               const std::string& value) {
  return binlog::RowOperation{binlog::RowOperation::Kind::kInsert, "bench",
                              "kv", 2, "", key + "=" + value};
}

DowntimeResult MeasureDowntime(EventLoop* loop, DowntimeProbe::ProbeFn probe,
                               std::function<void()> disruption,
                               uint64_t probe_interval_micros,
                               uint64_t timeout_micros, bool expect_outage) {
  const DowntimeProbe::Result result = DowntimeProbe::Measure(
      loop, std::move(probe), std::move(disruption), []() { return true; },
      {probe_interval_micros, timeout_micros, expect_outage});
  return {result.completed,
          result.completed ? result.downtime_micros : timeout_micros};
}

}  // namespace myraft::sim
