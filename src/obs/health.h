// Per-node health scoring and cluster availability roll-up (DESIGN.md §14).
//
// The harness feeds the monitor one HealthInputs vector per sampling tick
// (same cadence as the TimeSeriesSampler, whose per-window deltas supply
// the rate-style inputs). A small set of detectors each score a node in
// [0, 1] from rolling windows over those inputs — replication lag,
// pipeline stalls, fsync latency, election churn, lease-renewal failures —
// and the node's score is the minimum across detectors, so a single sick
// subsystem is never averaged away.
//
// The cluster roll-up mirrors what a client sees: the cluster is healthy
// at a tick iff some node is up, leader, accepting writes, and scoring at
// least `unhealthy_threshold`. Contiguous unhealthy ticks form outage
// windows, which the obs tests cross-check against DowntimeProbe's
// client-side measurement of the same failover (they must agree to within
// one probe interval). A healthy<->unhealthy transition callback feeds the
// FlightRecorder trigger matrix.

#ifndef MYRAFT_OBS_HEALTH_H_
#define MYRAFT_OBS_HEALTH_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/clock.h"

namespace myraft::obs {

/// One node's observables at a sampling tick. Levels (up, lag) are read
/// directly; rates (*_delta) are the sampler's last-window deltas.
struct HealthInputs {
  std::string node;
  bool up = false;
  bool is_leader = false;
  bool writes_enabled = false;
  bool lease_enabled = false;  // leader leases configured on this node
  bool lease_valid = false;    // leader holds a live lease right now
  uint64_t replication_lag_entries = 0;  // applier lag behind commit
  uint64_t pipeline_stalls_delta = 0;    // raft.pipeline_stalls this window
  uint64_t elections_started_delta = 0;  // raft.elections_started this window
  uint64_t lease_renewals_delta = 0;     // raft.lease_renewals this window
  double fsync_p99_micros = 0;  // server.commit_stage_flush_us window p99
};

class HealthMonitor {
 public:
  /// Scores from the individual detectors plus their minimum. All in [0,1].
  struct NodeHealth {
    double score = 1.0;
    double availability = 1.0;  // 0 when the node is down
    double lag = 1.0;
    double stalls = 1.0;
    double churn = 1.0;
    double fsync = 1.0;
    double lease = 1.0;
  };

  /// One contiguous run of ticks with no writable healthy leader.
  struct OutageWindow {
    uint64_t start_micros = 0;
    uint64_t end_micros = 0;  // == last unhealthy tick while still open
    bool open = false;
    uint64_t duration_micros() const { return end_micros - start_micros; }
  };

  /// Applier lag at which the lag detector bottoms out at score 0.
  static constexpr uint64_t kLagFloorEntries = 512;

  explicit HealthMonitor(const Clock* clock);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Fired on every healthy<->unhealthy cluster transition, after the
  /// tick's state is fully recorded.
  void SetTransitionCallback(
      std::function<void(bool healthy, uint64_t ts_micros)> callback) {
    transition_callback_ = std::move(callback);
  }

  /// Ingests one sampling tick covering every node (down nodes included,
  /// with up=false).
  void Observe(const std::vector<HealthInputs>& nodes);

  /// Last-tick score for `node`; a node never observed scores 0.
  double NodeScore(const std::string& node) const;
  const std::map<std::string, NodeHealth>& node_health() const {
    return health_;
  }

  /// Cluster state as of the last Observe; true before any tick.
  bool ClusterHealthy() const { return cluster_healthy_; }
  size_t ticks() const { return ticks_; }

  /// All outage windows so far (the last may still be open).
  const std::vector<OutageWindow>& outages() const { return outages_; }
  /// Longest outage, measured across closed and still-open windows.
  uint64_t LongestOutageMicros() const;

  /// {"healthy":..,"ticks":..,"nodes":{"<id>":{"score":..,...}},
  ///  "outages":[{"start_us":..,"end_us":..,"open":..},..]}
  std::string ToJson() const;

 private:
  struct RollingCounts {
    std::deque<uint64_t> stalls;
    std::deque<uint64_t> elections;
    std::deque<uint64_t> renewals;
    std::deque<bool> lease_invalid;  // leader ticks with no valid lease
  };

  NodeHealth ScoreNode(const HealthInputs& in, RollingCounts* rolling) const;

  const Clock* clock_;
  std::function<void(bool, uint64_t)> transition_callback_;
  std::map<std::string, RollingCounts> rolling_;
  std::map<std::string, NodeHealth> health_;
  std::vector<OutageWindow> outages_;
  bool cluster_healthy_ = true;
  size_t ticks_ = 0;
};

}  // namespace myraft::obs

#endif  // MYRAFT_OBS_HEALTH_H_
