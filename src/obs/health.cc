#include "obs/health.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::obs {

namespace {

/// Rolling-window length, in ticks, for the rate detectors.
constexpr size_t kWindowTicks = 8;
/// Window fsync p99 at which the fsync detector bottoms out.
constexpr double kFsyncFloorMicros = 100'000;
/// Elections started across the rolling window at which churn bottoms out.
constexpr uint64_t kChurnFloorElections = 4;
/// Pipeline stalls across the rolling window at which the stall detector
/// bottoms out.
constexpr uint64_t kStallFloorCount = 8;
/// A leader that held a lease but renewed nothing for this many ticks
/// while its lease is invalid scores 0 on the lease detector.
constexpr size_t kLeaseMissTicks = 4;
/// Node score below this counts the node as unhealthy for the roll-up.
constexpr double kUnhealthyThreshold = 0.5;

std::string FormatDouble(double v) {
  std::string s = StringPrintf("%.3f", v);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s.empty() ? "0" : s;
}

// Linear ramp from 1 at zero load down to 0 at the floor.
double Ramp(double value, double floor) {
  if (floor <= 0) return 1.0;
  const double score = 1.0 - value / floor;
  return std::clamp(score, 0.0, 1.0);
}

uint64_t Sum(const std::deque<uint64_t>& window) {
  return std::accumulate(window.begin(), window.end(), uint64_t{0});
}

template <typename T>
void PushBounded(std::deque<T>* window, T value, size_t capacity) {
  window->push_back(value);
  while (window->size() > capacity) window->pop_front();
}

}  // namespace

HealthMonitor::HealthMonitor(const Clock* clock) : clock_(clock) {
  MYRAFT_CHECK(clock_ != nullptr);
}

HealthMonitor::NodeHealth HealthMonitor::ScoreNode(
    const HealthInputs& in, RollingCounts* rolling) const {
  NodeHealth h;
  if (!in.up) {
    // A down node contributes empty windows (its counters aren't moving)
    // and scores 0 outright.
    PushBounded<uint64_t>(&rolling->stalls, 0, kWindowTicks);
    PushBounded<uint64_t>(&rolling->elections, 0, kWindowTicks);
    PushBounded<uint64_t>(&rolling->renewals, 0, kWindowTicks);
    PushBounded<bool>(&rolling->lease_invalid, false, kLeaseMissTicks);
    h.availability = 0;
    h.score = 0;
    return h;
  }

  PushBounded(&rolling->stalls, in.pipeline_stalls_delta, kWindowTicks);
  PushBounded(&rolling->elections, in.elections_started_delta, kWindowTicks);
  PushBounded(&rolling->renewals, in.lease_renewals_delta, kWindowTicks);
  // Lease-renewal failure only means anything on a leader with leases on:
  // a live leader should either hold a valid lease or be actively
  // re-arming one. Followers always record "fine".
  const bool lease_miss =
      in.is_leader && in.lease_enabled && !in.lease_valid &&
      in.lease_renewals_delta == 0;
  PushBounded(&rolling->lease_invalid, lease_miss, kLeaseMissTicks);

  h.lag = Ramp(static_cast<double>(in.replication_lag_entries),
               static_cast<double>(kLagFloorEntries));
  h.stalls = Ramp(static_cast<double>(Sum(rolling->stalls)),
                  static_cast<double>(kStallFloorCount));
  h.churn = Ramp(static_cast<double>(Sum(rolling->elections)),
                 static_cast<double>(kChurnFloorElections));
  h.fsync = Ramp(in.fsync_p99_micros, kFsyncFloorMicros);
  const size_t misses = static_cast<size_t>(std::count(
      rolling->lease_invalid.begin(), rolling->lease_invalid.end(), true));
  h.lease = Ramp(static_cast<double>(misses),
                 static_cast<double>(kLeaseMissTicks));
  h.score = std::min({h.availability, h.lag, h.stalls, h.churn, h.fsync,
                      h.lease});
  return h;
}

void HealthMonitor::Observe(const std::vector<HealthInputs>& nodes) {
  const uint64_t now = clock_->NowMicros();
  ++ticks_;
  bool healthy = false;
  for (const auto& in : nodes) {
    NodeHealth h = ScoreNode(in, &rolling_[in.node]);
    if (in.up && in.is_leader && in.writes_enabled &&
        h.score >= kUnhealthyThreshold) {
      healthy = true;
    }
    health_[in.node] = h;
  }

  if (!healthy) {
    if (outages_.empty() || !outages_.back().open) {
      OutageWindow w;
      w.start_micros = now;
      w.end_micros = now;
      w.open = true;
      outages_.push_back(w);
    } else {
      outages_.back().end_micros = now;
    }
  } else if (!outages_.empty() && outages_.back().open) {
    outages_.back().open = false;
  }

  const bool was_healthy = cluster_healthy_;
  cluster_healthy_ = healthy;
  if (healthy != was_healthy && transition_callback_) {
    transition_callback_(healthy, now);
  }
}

double HealthMonitor::NodeScore(const std::string& node) const {
  auto it = health_.find(node);
  return it == health_.end() ? 0.0 : it->second.score;
}

uint64_t HealthMonitor::LongestOutageMicros() const {
  uint64_t longest = 0;
  for (const auto& w : outages_) {
    longest = std::max(longest, w.duration_micros());
  }
  return longest;
}

std::string HealthMonitor::ToJson() const {
  std::string out = StringPrintf("{\"healthy\":%s,\"ticks\":%llu,\"nodes\":{",
                                 cluster_healthy_ ? "true" : "false",
                                 (unsigned long long)ticks_);
  bool first = true;
  for (const auto& [node, h] : health_) {
    if (!first) out.push_back(',');
    first = false;
    out.append(StringPrintf(
        "\"%s\":{\"score\":%s,\"availability\":%s,\"lag\":%s,\"stalls\":%s,"
        "\"churn\":%s,\"fsync\":%s,\"lease\":%s}",
        node.c_str(), FormatDouble(h.score).c_str(),
        FormatDouble(h.availability).c_str(), FormatDouble(h.lag).c_str(),
        FormatDouble(h.stalls).c_str(), FormatDouble(h.churn).c_str(),
        FormatDouble(h.fsync).c_str(), FormatDouble(h.lease).c_str()));
  }
  out.append("},\"outages\":[");
  first = true;
  for (const auto& w : outages_) {
    if (!first) out.push_back(',');
    first = false;
    out.append(StringPrintf(
        "{\"start_us\":%llu,\"end_us\":%llu,\"open\":%s}",
        (unsigned long long)w.start_micros, (unsigned long long)w.end_micros,
        w.open ? "true" : "false"));
  }
  out.append("]}");
  return out;
}

}  // namespace myraft::obs
