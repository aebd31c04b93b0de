// External control-plane automation of the prior setup (§1: "We relied on
// external processes for control plane operations, like failover and
// cluster membership changes"). This is what MyRaft replaced: failure
// detection by out-of-band health checks, and failover/promotion
// workflows orchestrated step by step over the replicaset, each step
// paying control-plane RTTs, lock acquisitions, fencing timeouts and
// occasional retries — the source of Table 2's 59-second average failover.

#ifndef MYRAFT_SEMISYNC_AUTOMATION_H_
#define MYRAFT_SEMISYNC_AUTOMATION_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "semisync/semisync_server.h"
#include "server/service_discovery.h"
#include "sim/event_loop.h"

namespace myraft::semisync {

/// Drives the legacy replicaset: health checks, dead-primary failover and
/// graceful promotions. Interacts with members through an accessor that
/// returns nullptr for crashed processes (connection refused).
class SemiSyncAutomation {
 public:
  using NodeAccessor = std::function<SemiSyncServer*(const MemberId&)>;

  struct Stats {
    uint64_t failovers_completed = 0;
    uint64_t promotions_completed = 0;
    uint64_t step_retries = 0;
    uint64_t detections = 0;
  };

  SemiSyncAutomation(sim::EventLoop* loop, std::string replicaset,
                     std::vector<MemberId> members,
                     std::map<MemberId, MemberKind> kinds,
                     std::map<MemberId, RegionId> regions,
                     NodeAccessor accessor,
                     server::ServiceDiscovery* discovery);

  /// Installs the initial primary (no downtime accounting) and starts the
  /// health-check loop.
  Status InstallPrimary(const MemberId& primary);

  /// Graceful promotion to `target` (maintenance). Asynchronous; progress
  /// visible via discovery / stats.
  Status StartPromotion(const MemberId& target);

  const MemberId& current_primary() const { return primary_; }
  const Stats& stats() const { return stats_; }
  bool failover_in_progress() const { return failover_in_progress_; }

 private:
  void ScheduleHealthCheck();
  void OnPrimaryUnhealthy();
  /// The multi-step failover workflow; each step schedules the next with
  /// its modelled cost, possibly retrying.
  void RunFailoverStep(int step, MemberId candidate);
  void RunPromotionStep(int step, MemberId target);
  /// Applies MakePrimary/MakeReplica across the ring for `new_primary`.
  Status Repoint(const MemberId& new_primary);
  /// In-region logtailers of `primary` = its semi-sync ackers (Table 1).
  std::set<MemberId> AckersFor(const MemberId& primary) const;
  std::vector<MemberId> ReceiversFor(const MemberId& primary) const;
  MemberId PickCandidate() const;
  /// True with kStepRetryProbability; counts the retry.
  bool StepFails();
  /// Samples a step cost in [0.5x, 2x) of `base`.
  uint64_t Jitter(uint64_t base);

  sim::EventLoop* loop_;
  std::string replicaset_;
  std::vector<MemberId> members_;
  std::map<MemberId, MemberKind> kinds_;
  std::map<MemberId, RegionId> regions_;
  NodeAccessor accessor_;
  server::ServiceDiscovery* discovery_;

  MemberId primary_;
  uint64_t generation_ = 1;
  int consecutive_failures_ = 0;
  bool failover_in_progress_ = false;
  bool promotion_in_progress_ = false;
  Stats stats_;
};

}  // namespace myraft::semisync

#endif  // MYRAFT_SEMISYNC_AUTOMATION_H_
