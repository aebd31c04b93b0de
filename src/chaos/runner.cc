#include "chaos/runner.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace myraft::chaos {
namespace {

/// Granularity of fault application / role polling.
constexpr uint64_t kPollIntervalMicros = 5'000;
/// Budget for a quiescent window to converge before the runner records
/// a Convergence (liveness) violation.
constexpr uint64_t kQuiesceTimeoutMicros = 30'000'000;
/// Extra settle time at the start of each quiescent window so in-flight
/// client writes resolve (must exceed the client timeout).
constexpr uint64_t kQuiesceSettleMicros = 700'000;

}  // namespace

std::string ChaosReport::ToText() const {
  std::string out = StringPrintf("chaos seed=%llu %s\n",
                                 (unsigned long long)seed,
                                 passed ? "PASS" : "FAIL");
  out += StringPrintf("windows=%d steps applied=%llu skipped=%llu\n", windows,
                      (unsigned long long)steps_applied,
                      (unsigned long long)steps_skipped);
  out += StringPrintf("writes issued=%llu acked=%llu\n",
                      (unsigned long long)writes_issued,
                      (unsigned long long)writes_acked);
  out += StringPrintf("reads issued=%llu ok=%llu lease=%llu\n",
                      (unsigned long long)reads_issued,
                      (unsigned long long)reads_ok,
                      (unsigned long long)reads_lease);
  out += StringPrintf("violations=%zu\n", violations.size());
  for (const Violation& v : violations) {
    out += "  " + v.ToString() + "\n";
  }
  return out;
}

ChaosRunner::ChaosRunner(ChaosOptions options, const raft::QuorumEngine* quorum)
    : options_(std::move(options)), quorum_(quorum) {}

ChaosReport ChaosRunner::Run(const Schedule& schedule) {
  ChaosReport report;
  report.seed = schedule.seed;
  acked_.clear();
  violations_captured_ = 0;

  sim::ClusterOptions cluster_options = options_.cluster;
  cluster_options.seed = schedule.seed;
  // Observability plane on by default: the sampler/health/recorder path
  // is read-only (no RNG draws, no behaviour changes), so the report's
  // byte-identity contract holds, and a failing seed always carries a
  // flight-recorder bundle (LastBundleJson).
  if (cluster_options.obs.sample_interval_micros == 0) {
    cluster_options.obs.sample_interval_micros = 5'000;
  }
  // Chaos overrides (see ChaosOptions doc): fast failure detection keeps
  // failovers well inside a quiescent window.
  cluster_options.raft.heartbeat_interval_micros = 100'000;
  cluster_options.raft.election_jitter_micros = 150'000;
  cluster_options.raft.election_round_timeout_micros = 600'000;
  cluster_options.raft.rpc_timeout_micros = 300'000;
  cluster_ = std::make_unique<sim::ClusterHarness>(cluster_options, quorum_);

  InvariantChecker checker;
  const Status boot = cluster_->Bootstrap();
  if (!boot.ok()) {
    checker.AddViolation("Bootstrap", boot.ToString());
    report.violations = checker.violations();
    return report;
  }
  if (cluster_->WaitForPrimary(20'000'000).empty()) {
    checker.AddViolation("Convergence", "no primary after bootstrap");
    report.violations = checker.violations();
    return report;
  }

  std::vector<FaultStep> steps = schedule.steps;
  std::stable_sort(steps.begin(), steps.end(),
                   [](const FaultStep& a, const FaultStep& b) {
                     return a.at_micros < b.at_micros;
                   });

  sim::EventLoop* loop = cluster_->loop();
  const uint64_t start = loop->now();
  const uint64_t duration = schedule.duration_micros;
  const uint64_t quiesce_every = schedule.quiesce_interval_micros;
  uint64_t next_write_at = start;
  uint64_t next_read_at = start;
  size_t next_step = 0;

  uint64_t window_end_offset = 0;
  while (window_end_offset < duration) {
    window_end_offset = std::min(window_end_offset + quiesce_every, duration);
    const uint64_t window_end = start + window_end_offset;
    while (loop->now() < window_end) {
      while (next_step < steps.size() &&
             start + steps[next_step].at_micros <= loop->now()) {
        ApplyStep(steps[next_step], &checker, &report);
        ++next_step;
      }
      if (next_write_at <= loop->now()) {
        IssueWrite(&report);
        next_write_at = loop->now() + options_.write_interval_micros;
      }
      if (options_.read_interval_micros > 0 && next_read_at <= loop->now()) {
        IssueRead(&checker, &report);
        next_read_at = loop->now() + options_.read_interval_micros;
      }
      checker.ObserveRoles(*cluster_);
      checker.ObserveConfigs(*cluster_);
      CaptureOnNewViolations(&checker);
      loop->RunFor(kPollIntervalMicros);
    }
    Quiesce(&checker, &report);
    next_write_at = loop->now();
    next_read_at = loop->now();
  }

  report.violations = checker.violations();
  report.passed = report.violations.empty();
  return report;
}

std::string ChaosRunner::TraceJsonl() const {
  return cluster_ != nullptr ? cluster_->TraceJsonl() : std::string();
}

std::string ChaosRunner::LastBundleJson() const {
  if (cluster_ == nullptr || cluster_->flight_recorder() == nullptr) {
    return std::string();
  }
  return cluster_->flight_recorder()->LastBundleJson();
}

std::string ChaosRunner::RaftstatText() const {
  return cluster_ != nullptr ? cluster_->RaftstatText() : std::string();
}

void ChaosRunner::IssueWrite(ChaosReport* report) {
  const uint64_t seq = report->writes_issued++;
  // Unique key per write: "lost" is then unambiguous in the durability
  // audit (no later write can legitimately overwrite it).
  const std::string key = StringPrintf("c%llu", (unsigned long long)seq);
  const std::string value = StringPrintf("v%llu", (unsigned long long)seq);
  cluster_->ClientWrite(
      key, value,
      [this, report, key,
       value](const sim::ClientWriteResult& result) {
        if (!result.status.ok()) return;
        ++report->writes_acked;
        acked_.push_back(AckedWrite{key, value, result.gtid, result.opid});
      });
}

void ChaosRunner::IssueRead(InvariantChecker* checker, ChaosReport* report) {
  if (acked_.empty()) return;
  // Read back a uniformly chosen acked key. Keys are unique per run and
  // never overwritten, so the expected row image is exact: a successful
  // read observing anything else is a stale read (§13).
  const AckedWrite& w =
      acked_[cluster_->loop()->rng()->Uniform(acked_.size())];
  ++report->reads_issued;
  cluster_->ClientRead(
      w.key, sim::ClientReadOptions{},
      [checker, report, key = w.key, expected = w.key + "=" + w.value](
          const sim::ClientReadResult& r) {
        // Refusals/timeouts are availability, not staleness; the read
        // path is allowed to say no (invalid lease, no leader), never
        // to answer with old data.
        if (!r.status.ok()) return;
        ++report->reads_ok;
        if (r.served_by_lease) ++report->reads_lease;
        checker->ObserveRead(key, expected, r.value, r.served_by_lease,
                             r.served_by);
      });
}

void ChaosRunner::ApplyStep(const FaultStep& step, InvariantChecker* checker,
                            ChaosReport* report) {
  auto resolve = [this](const std::string& target) -> MemberId {
    return target == "@leader" ? cluster_->CurrentPrimary() : target;
  };
  auto known = [this](const MemberId& id) {
    return !id.empty() && cluster_->config().Contains(id);
  };
  auto restart = [this, checker](const MemberId& id) {
    const Status s = cluster_->Restart(id);
    if (!s.ok()) {
      // A node that cannot come back from its own disk is a real
      // crash-recovery bug, not a liveness hiccup.
      checker->AddViolation("Recovery", id + ": " + s.ToString());
    }
  };

  sim::SimNetwork* net = cluster_->network();
  bool applied = false;
  switch (step.action) {
    case FaultAction::kCrash:
    case FaultAction::kCrashTorn: {
      if (step.targets.size() != 1) break;
      const MemberId id = resolve(step.targets[0]);
      if (!known(id) || !cluster_->node(id)->up()) break;
      cluster_->TriggerFlightRecorder(
          obs::TriggerKind::kCrashInjection,
          (step.action == FaultAction::kCrashTorn ? "crash-torn "
                                                  : "crash ") +
              id);
      cluster_->Crash(id, step.action == FaultAction::kCrashTorn
                              ? sim::SimNode::CrashMode::kLoseUnsynced
                              : sim::SimNode::CrashMode::kKeepDisk);
      applied = true;
      break;
    }
    case FaultAction::kRestart: {
      if (step.targets.size() != 1) break;
      if (step.targets[0] == "*") {
        for (const MemberId& id : cluster_->ids()) {
          if (!cluster_->node(id)->up()) {
            restart(id);
            applied = true;
          }
        }
      } else {
        const MemberId id = resolve(step.targets[0]);
        if (known(id) && !cluster_->node(id)->up()) {
          restart(id);
          applied = true;
        }
      }
      break;
    }
    case FaultAction::kLinkCut:
    case FaultAction::kLinkHeal: {
      if (step.targets.size() != 2) break;
      const MemberId a = resolve(step.targets[0]);
      const MemberId b = resolve(step.targets[1]);
      if (!known(a) || !known(b) || a == b) break;
      net->SetLinkCut(a, b, step.action == FaultAction::kLinkCut);
      applied = true;
      break;
    }
    case FaultAction::kOneWayCut:
    case FaultAction::kOneWayHeal: {
      if (step.targets.size() != 2) break;
      const MemberId from = resolve(step.targets[0]);
      const MemberId to = resolve(step.targets[1]);
      if (!known(from) || !known(to) || from == to) break;
      net->SetLinkOneWayCut(from, to,
                            step.action == FaultAction::kOneWayCut);
      applied = true;
      break;
    }
    case FaultAction::kPartition:
    case FaultAction::kPartitionHeal: {
      std::set<MemberId> group;
      for (const std::string& target : step.targets) {
        const MemberId id = resolve(target);
        if (known(id)) group.insert(id);
      }
      if (group.empty()) break;
      const bool cut = step.action == FaultAction::kPartition;
      for (const MemberId& inside : group) {
        for (const MemberId& other : cluster_->ids()) {
          if (group.count(other) > 0) continue;
          net->SetLinkCut(inside, other, cut);
        }
      }
      applied = true;
      break;
    }
    case FaultAction::kLossRate:
      net->SetLossRate(static_cast<double>(step.param) / 1e6);
      applied = true;
      break;
    case FaultAction::kDuplicateRate:
      net->SetDuplicateRate(static_cast<double>(step.param) / 1e6);
      applied = true;
      break;
    case FaultAction::kJitter:
      net->SetChaosJitter(step.param);
      applied = true;
      break;
    case FaultAction::kHealAll:
      net->HealAllFaults();
      applied = true;
      break;
    case FaultAction::kClockSkew: {
      if (step.targets.size() != 1) break;
      const MemberId id = resolve(step.targets[0]);
      if (!known(id)) break;
      // Keep the current rate: a skew jump models an NTP step, not a
      // frequency change. The clock survives crashes, so a down node's
      // oscillator can be skewed too.
      sim::SimNode* node = cluster_->node(id);
      node->SetClockDrift(static_cast<int64_t>(step.param),
                          node->clock()->rate());
      applied = true;
      break;
    }
    case FaultAction::kClockRate: {
      if (step.targets.size() != 1) break;
      const MemberId id = resolve(step.targets[0]);
      if (!known(id)) break;
      cluster_->node(id)->SetClockDrift(
          0, static_cast<double>(step.param) / 1e6);
      applied = true;
      break;
    }
    case FaultAction::kClockHeal: {
      if (step.targets.size() != 1) break;
      if (step.targets[0] == "*") {
        for (const MemberId& id : cluster_->ids()) {
          cluster_->node(id)->HealClockDrift();
        }
        applied = true;
      } else {
        const MemberId id = resolve(step.targets[0]);
        if (!known(id)) break;
        cluster_->node(id)->HealClockDrift();
        applied = true;
      }
      break;
    }
    case FaultAction::kReconfig: {
      // Membership churn through the live leader (§15). Best-effort:
      // no primary, a self-targeting step, or a leader-side rejection
      // (change already in flight, no current-term commit yet) are all
      // legal outcomes under faults and count as skipped.
      if (step.targets.size() != 2) break;
      const std::string& subcmd = step.targets[0];
      const MemberId id = resolve(step.targets[1]);
      if (!known(id)) break;
      const MemberId primary = cluster_->CurrentPrimary();
      if (primary.empty() || id == primary) break;
      const MembershipConfig active =
          cluster_->node(primary)->server()->consensus()->config();
      Status s;
      if (subcmd == "remove") {
        if (active.Find(id) == nullptr) break;
        s = cluster_->admin()->RemoveMember(id).status;
      } else if (subcmd == "add") {
        if (active.Find(id) != nullptr) break;
        const MemberInfo* info = cluster_->config().Find(id);
        s = cluster_->node(primary)->server()->AddMember(*info);
      } else if (subcmd == "demote") {
        const MemberInfo* member = active.Find(id);
        if (member == nullptr || !member->is_voter()) break;
        s = cluster_->admin()
                ->SwapMemberType(id, RaftMemberType::kNonVoter)
                .status;
      } else if (subcmd == "promote") {
        const MemberInfo* member = active.Find(id);
        if (member == nullptr || member->is_voter()) break;
        s = cluster_->admin()->SwapMemberType(id, RaftMemberType::kVoter).status;
      } else {
        break;
      }
      applied = s.ok();
      break;
    }
  }
  if (applied) {
    ++report->steps_applied;
  } else {
    ++report->steps_skipped;
  }
}

void ChaosRunner::Quiesce(InvariantChecker* checker, ChaosReport* report) {
  sim::EventLoop* loop = cluster_->loop();
  cluster_->network()->HealAllFaults();
  for (const MemberId& id : cluster_->ids()) {
    // Clock rates back to nominal (accumulated offsets persist — only
    // durations matter to lease safety, so they are harmless).
    cluster_->node(id)->HealClockDrift();
    if (!cluster_->node(id)->up()) {
      const Status s = cluster_->Restart(id);
      if (!s.ok()) {
        checker->AddViolation("Recovery", id + ": " + s.ToString());
      }
    }
  }
  // Let in-flight client writes resolve (ack or timeout) so the acked
  // ledger is final before the audit reads it.
  const uint64_t settle_end = loop->now() + kQuiesceSettleMicros;
  while (loop->now() < settle_end) {
    checker->ObserveRoles(*cluster_);
    checker->ObserveConfigs(*cluster_);
    loop->RunFor(kPollIntervalMicros);
  }
  const uint64_t deadline = loop->now() + kQuiesceTimeoutMicros;
  while (loop->now() < deadline && !Converged()) {
    checker->ObserveRoles(*cluster_);
    checker->ObserveConfigs(*cluster_);
    loop->RunFor(kPollIntervalMicros);
  }
  if (Converged()) {
    checker->CheckQuiescent(*cluster_, acked_);
  } else {
    checker->AddViolation("Convergence", DescribeConvergence());
  }
  CaptureOnNewViolations(checker);
  ++report->windows;
}

void ChaosRunner::CaptureOnNewViolations(InvariantChecker* checker) {
  const std::vector<Violation>& violations = checker->violations();
  if (violations.size() <= violations_captured_) return;
  // The bundle is captured before the recorder's cooldown window closes
  // around follow-on violations, so the first failure's state survives.
  cluster_->TriggerFlightRecorder(obs::TriggerKind::kInvariantViolation,
                                  violations.back().ToString());
  violations_captured_ = violations.size();
}

bool ChaosRunner::Converged() {
  const MemberId primary = cluster_->CurrentPrimary();
  if (primary.empty()) return false;
  const server::InvariantSnapshot psnap =
      cluster_->node(primary)->server()->CaptureInvariantSnapshot();
  if (psnap.commit_marker.index != psnap.last_logged.index) return false;
  // Membership is judged against the primary's ACTIVE config, not the
  // bootstrap roster: a node the reconfig nemesis removed no longer
  // receives appends, so its frozen log must not block convergence.
  const MembershipConfig active =
      cluster_->node(primary)->server()->consensus()->config();
  for (const MemberId& id : cluster_->ids()) {
    sim::SimNode* node = cluster_->node(id);
    // A node whose restart failed stays down; the audit covers what's
    // live (the Recovery violation already failed the run).
    if (!node->up()) continue;
    if (active.Find(id) == nullptr) continue;  // removed from the ring
    const server::InvariantSnapshot snap =
        node->server()->CaptureInvariantSnapshot();
    if (snap.last_logged != psnap.last_logged) return false;
    const MemberInfo* info = cluster_->config().Find(id);
    // Engine catch-up is judged on executed GTID sets, not applied
    // indexes: trailing no-op/config entries never touch the engine, so
    // last_applied legitimately stays at the last *transaction* index.
    if (info != nullptr && info->has_engine() &&
        snap.executed_gtids != psnap.executed_gtids) {
      return false;
    }
  }
  return true;
}

std::string ChaosRunner::DescribeConvergence() {
  const MemberId primary = cluster_->CurrentPrimary();
  if (primary.empty()) return "no primary elected after heal";
  const server::InvariantSnapshot psnap =
      cluster_->node(primary)->server()->CaptureInvariantSnapshot();
  std::string out = StringPrintf(
      "stuck: primary %s marker=%s logged=%s executed=%s; lagging:",
      primary.c_str(), psnap.commit_marker.ToString().c_str(),
      psnap.last_logged.ToString().c_str(), psnap.executed_gtids.c_str());
  const MembershipConfig active =
      cluster_->node(primary)->server()->consensus()->config();
  for (const MemberId& id : cluster_->ids()) {
    if (active.Find(id) == nullptr) continue;
    sim::SimNode* node = cluster_->node(id);
    if (!node->up()) {
      out += " " + id + "=down";
      continue;
    }
    const server::InvariantSnapshot snap =
        node->server()->CaptureInvariantSnapshot();
    const MemberInfo* info = cluster_->config().Find(id);
    const bool log_lag = snap.last_logged != psnap.last_logged;
    const bool apply_lag = info != nullptr && info->has_engine() &&
                           snap.executed_gtids != psnap.executed_gtids;
    if (log_lag || apply_lag) {
      out += StringPrintf(" %s=logged:%s,applied:%s,executed:%s", id.c_str(),
                          snap.last_logged.ToString().c_str(),
                          snap.last_applied.ToString().c_str(),
                          snap.executed_gtids.c_str());
    }
  }
  return out;
}

}  // namespace myraft::chaos
