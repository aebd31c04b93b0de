// Reads a counter or gauge by its catalog name (src/obs/catalog.cc): the
// metric registry is the one home of every counter.

#ifndef MYRAFT_TESTS_METRIC_VALUE_H_
#define MYRAFT_TESTS_METRIC_VALUE_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/metrics.h"

namespace myraft {

/// Value of the counter or gauge `name` in `registry`. Fails the calling
/// test when no such metric is registered (GetCounter would create it, and
/// a misspelt name would read as a quiet 0) and when a gauge is negative.
inline uint64_t MetricValue(const metrics::MetricRegistry* registry,
                            const std::string& name) {
  if (const metrics::Counter* counter = registry->FindCounter(name)) {
    return counter->value();
  }
  if (const metrics::Gauge* gauge = registry->FindGauge(name)) {
    if (gauge->value() >= 0) return static_cast<uint64_t>(gauge->value());
    ADD_FAILURE() << "gauge " << name << " is negative: " << gauge->value();
    return 0;
  }
  ADD_FAILURE() << "no counter or gauge named " << name;
  return 0;
}

}  // namespace myraft

#endif  // MYRAFT_TESTS_METRIC_VALUE_H_
