#include "semisync/automation.h"

#include <algorithm>

#include "util/logging.h"

namespace myraft::semisync {

namespace {

// Failure detection (out-of-band health checker).
constexpr uint64_t kHealthCheckIntervalMicros = 8'000'000;  // sweep every 8 s
constexpr uint64_t kHealthCheckTimeoutMicros = 5'000'000;  // dead-host probe
constexpr int kFailuresBeforeFailover = 3;

// Failover workflow step costs (control-plane RTTs, lock service, etc.).
constexpr uint64_t kLockAcquisitionMicros = 2'000'000;
/// Fencing waits out the dead primary's semi-sync session.
constexpr uint64_t kFencingTimeoutMicros = 10'000'000;
constexpr uint64_t kPositionQueryMicros = 300'000;  // per surviving member
constexpr uint64_t kDiscoveryUpdateMicros = 400'000;
/// Probability a workflow step fails and is retried after backoff
/// (worker-queue overload, transient control-plane errors).
constexpr double kStepRetryProbability = 0.05;
constexpr uint64_t kRetryBackoffMicros = 30'000'000;

// Graceful promotion step costs.
constexpr uint64_t kPromotionLockMicros = 300'000;
constexpr uint64_t kPromotionReadonlyMicros = 100'000;
constexpr uint64_t kPromotionCatchupPollMicros = 50'000;
constexpr uint64_t kPromotionSwitchMicros = 300'000;

}  // namespace

SemiSyncAutomation::SemiSyncAutomation(
    sim::EventLoop* loop, std::string replicaset,
    std::vector<MemberInfo> members, NodeAccessor accessor,
    server::ServiceDiscovery* discovery, metrics::MetricRegistry* metrics)
    : loop_(loop),
      replicaset_(std::move(replicaset)),
      members_(std::move(members)),
      accessor_(std::move(accessor)),
      discovery_(discovery),
      failovers_completed_(
          metrics->GetCounter("semisync.failovers_completed")),
      promotions_completed_(
          metrics->GetCounter("semisync.promotions_completed")),
      step_retries_(metrics->GetCounter("semisync.step_retries")),
      detections_(metrics->GetCounter("semisync.detections")) {}

const MemberInfo& SemiSyncAutomation::Member(const MemberId& id) const {
  auto it = std::find_if(members_.begin(), members_.end(),
                         [&id](const MemberInfo& m) { return m.id == id; });
  MYRAFT_CHECK(it != members_.end()) << "unknown member " << id;
  return *it;
}

std::set<MemberId> SemiSyncAutomation::AckersFor(
    const MemberId& primary) const {
  std::set<MemberId> ackers;
  const RegionId& region = Member(primary).region;
  for (const MemberInfo& member : members_) {
    if (member.id != primary && member.kind == MemberKind::kLogtailer &&
        member.region == region) {
      ackers.insert(member.id);
    }
  }
  return ackers;
}

std::vector<MemberId> SemiSyncAutomation::ReceiversFor(
    const MemberId& primary) const {
  std::vector<MemberId> receivers;
  for (const MemberInfo& member : members_) {
    if (member.id != primary) receivers.push_back(member.id);
  }
  return receivers;
}

Status SemiSyncAutomation::Repoint(const MemberId& new_primary) {
  SemiSyncServer* primary = accessor_(new_primary);
  if (primary == nullptr) {
    return Status::ServiceUnavailable("candidate unreachable");
  }
  ++generation_;
  MYRAFT_RETURN_NOT_OK(primary->MakePrimary(
      generation_, ReceiversFor(new_primary), AckersFor(new_primary)));
  for (const MemberInfo& member : members_) {
    if (member.id == new_primary) continue;
    SemiSyncServer* server = accessor_(member.id);
    if (server == nullptr) continue;  // down; re-pointed when it returns
    Status s = server->MakeReplica(new_primary);
    if (!s.ok()) {
      MYRAFT_LOG(Warning) << "repoint " << member.id << ": " << s;
    }
  }
  primary_ = new_primary;
  return Status::OK();
}

Status SemiSyncAutomation::InstallPrimary(const MemberId& primary) {
  MYRAFT_RETURN_NOT_OK(Repoint(primary));
  discovery_->PublishPrimary(replicaset_, primary, generation_);
  ScheduleHealthCheck();
  return Status::OK();
}

void SemiSyncAutomation::ScheduleHealthCheck() {
  loop_->Schedule(kHealthCheckIntervalMicros, [this]() {
    if (failover_in_progress_) {
      ScheduleHealthCheck();
      return;
    }
    SemiSyncServer* primary = accessor_(primary_);
    if (primary != nullptr) {
      consecutive_failures_ = 0;
      // Reconcile stragglers: restarted members come back unconfigured
      // and are re-pointed at the current primary.
      for (const MemberInfo& member : members_) {
        if (member.id == primary_) continue;
        SemiSyncServer* server = accessor_(member.id);
        if (server != nullptr && !server->is_primary() &&
            server->replication_source() != primary_) {
          Status s = server->MakeReplica(primary_);
          if (!s.ok()) MYRAFT_LOG(Warning) << "reconcile " << member.id << s;
        }
      }
      ScheduleHealthCheck();
      return;
    }
    // Dead primary: the probe burns its timeout before failing.
    loop_->Schedule(kHealthCheckTimeoutMicros, [this]() {
      if (accessor_(primary_) != nullptr) {
        consecutive_failures_ = 0;  // came back during the probe
      } else if (++consecutive_failures_ >=
                 kFailuresBeforeFailover) {
        detections_->Increment();
        OnPrimaryUnhealthy();
        return;  // health loop resumes after failover
      }
      ScheduleHealthCheck();
    });
  });
}

MemberId SemiSyncAutomation::PickCandidate() const {
  // Most-caught-up reachable database replica (by binlog position).
  MemberId best;
  OpId best_opid;
  for (const MemberInfo& member : members_) {
    if (member.id == primary_ || member.kind != MemberKind::kMySql) continue;
    SemiSyncServer* server = accessor_(member.id);
    if (server == nullptr) continue;
    const OpId last = server->LastLogged();
    if (best.empty() || last.IsLaterThan(best_opid)) {
      best = member.id;
      best_opid = last;
    }
  }
  return best;
}

bool SemiSyncAutomation::StepFails() {
  if (loop_->rng()->Bernoulli(kStepRetryProbability)) {
    step_retries_->Increment();
    return true;
  }
  return false;
}

uint64_t SemiSyncAutomation::Jitter(uint64_t base) {
  // Control-plane step costs vary with worker load: [0.5x, 2x).
  if (base == 0) return 0;
  return base / 2 + loop_->rng()->Uniform(base + base / 2);
}

void SemiSyncAutomation::OnPrimaryUnhealthy() {
  MYRAFT_LOG(Info) << "automation: primary " << primary_
                   << " declared dead; starting failover";
  failover_in_progress_ = true;
  consecutive_failures_ = 0;
  RunFailoverStep(0, "");
}

void SemiSyncAutomation::RunFailoverStep(int step, MemberId candidate) {
  auto retry_or = [this, step, candidate](uint64_t cost,
                                          std::function<void()> next) {
    if (StepFails()) {
      loop_->Schedule(kRetryBackoffMicros,
                      [this, step, candidate]() {
                        RunFailoverStep(step, candidate);
                      });
      return;
    }
    loop_->Schedule(Jitter(cost), std::move(next));
  };

  switch (step) {
    case 0:  // Acquire the replicaset's distributed lock.
      retry_or(kLockAcquisitionMicros,
               [this]() { RunFailoverStep(1, ""); });
      return;
    case 1: {  // Query surviving members' positions, pick the candidate.
      const uint64_t cost =
          kPositionQueryMicros * members_.size();
      retry_or(cost, [this]() {
        const MemberId picked = PickCandidate();
        if (picked.empty()) {
          // Nothing promotable yet; back off and retry.
          loop_->Schedule(kRetryBackoffMicros,
                          [this]() { RunFailoverStep(1, ""); });
          return;
        }
        RunFailoverStep(2, picked);
      });
      return;
    }
    case 2:  // Fence the dead primary (wait out its semi-sync session).
      retry_or(kFencingTimeoutMicros, [this, candidate]() {
        RunFailoverStep(3, candidate);
      });
      return;
    case 3:  // Re-point the replicaset.
      retry_or(kPositionQueryMicros, [this, candidate]() {
        Status s = Repoint(candidate);
        if (!s.ok()) {
          MYRAFT_LOG(Warning) << "failover repoint failed: " << s;
          loop_->Schedule(kRetryBackoffMicros,
                          [this]() { RunFailoverStep(1, ""); });
          return;
        }
        RunFailoverStep(4, candidate);
      });
      return;
    case 4:  // Publish to service discovery.
      loop_->Schedule(Jitter(kDiscoveryUpdateMicros), [this, candidate]() {
        discovery_->PublishPrimary(replicaset_, candidate,
                                   generation_);
        failover_in_progress_ = false;
        failovers_completed_->Increment();
        MYRAFT_LOG(Info) << "automation: failover to " << candidate
                         << " complete";
        ScheduleHealthCheck();
      });
      return;
  }
}

Status SemiSyncAutomation::StartPromotion(const MemberId& target) {
  if (failover_in_progress_ || promotion_in_progress_) {
    return Status::IllegalState("another workflow is in progress");
  }
  if (accessor_(target) == nullptr) {
    return Status::ServiceUnavailable("target unreachable");
  }
  if (Member(target).kind != MemberKind::kMySql) {
    return Status::InvalidArgument("target is not a database");
  }
  promotion_in_progress_ = true;
  RunPromotionStep(0, target);
  return Status::OK();
}

void SemiSyncAutomation::RunPromotionStep(int step, MemberId target) {
  switch (step) {
    case 0:  // Lock.
      loop_->Schedule(Jitter(kPromotionLockMicros), [this, target]() {
        RunPromotionStep(1, target);
      });
      return;
    case 1:  // Set the old primary read-only (downtime begins).
      loop_->Schedule(Jitter(kPromotionReadonlyMicros), [this, target]() {
        SemiSyncServer* old_primary = accessor_(primary_);
        if (old_primary != nullptr) old_primary->SetReadOnly(true);
        RunPromotionStep(2, target);
      });
      return;
    case 2: {  // Poll until the target has caught up to the old primary.
      SemiSyncServer* old_primary = accessor_(primary_);
      SemiSyncServer* new_primary = accessor_(target);
      if (old_primary == nullptr || new_primary == nullptr) {
        promotion_in_progress_ = false;  // a failover will take over
        return;
      }
      if (new_primary->LastLogged().index < old_primary->LastLogged().index) {
        loop_->Schedule(kPromotionCatchupPollMicros,
                        [this, target]() { RunPromotionStep(2, target); });
        return;
      }
      RunPromotionStep(3, target);
      return;
    }
    case 3:  // Switch roles.
      loop_->Schedule(Jitter(kPromotionSwitchMicros), [this, target]() {
        Status s = Repoint(target);
        if (!s.ok()) {
          MYRAFT_LOG(Warning) << "promotion repoint: " << s;
          SemiSyncServer* old_primary = accessor_(primary_);
          if (old_primary != nullptr) old_primary->SetReadOnly(false);
          promotion_in_progress_ = false;
          return;
        }
        RunPromotionStep(4, target);
      });
      return;
    case 4:  // Publish.
      loop_->Schedule(Jitter(kDiscoveryUpdateMicros), [this, target]() {
        discovery_->PublishPrimary(replicaset_, target, generation_);
        promotion_in_progress_ = false;
        promotions_completed_->Increment();
      });
      return;
  }
}

}  // namespace myraft::semisync
