#include "tools/quorum_fixer.h"

#include <set>

#include "util/logging.h"

namespace myraft::tools {

namespace {

/// Votes required under the override: the chosen member + any reachable
/// peer that acked it (2 keeps a shred of redundancy; 1 is the big
/// hammer).
constexpr int kOverrideVotes = 2;
constexpr uint64_t kWriteProbeTimeoutMicros = 2'000'000;
constexpr uint64_t kElectionTimeoutMicros = 10'000'000;

}  // namespace

QuorumFixerReport RunQuorumFixer(sim::ClusterHarness* cluster) {
  QuorumFixerReport report;
  sim::EventLoop* loop = cluster->loop();

  // Step 1: confirm the ring is actually refusing writes.
  auto probe = cluster->SyncWrite("quorum-fixer-probe", "x",
                                  kWriteProbeTimeoutMicros);
  if (probe.status.ok()) {
    report.status = Status::IllegalState(
        "writes are flowing; refusing to force a quorum change");
    return report;
  }
  report.quorum_was_shattered = true;

  // Step 2: out-of-band inspection — longest log among reachable members,
  // plus the highest commit marker anyone has observed.
  MemberId best;
  OpId best_last;
  OpId max_commit;
  for (const MemberId& id : cluster->ids()) {
    sim::SimNode* node = cluster->node(id);
    if (!node->up()) continue;
    raft::RaftConsensus* consensus = node->server()->consensus();
    const OpId last = consensus->last_logged();
    if (consensus->commit_marker().index > max_commit.index) {
      max_commit = consensus->commit_marker();
    }
    // Only voters can be elected; prefer databases over logtailers at
    // equal positions (a logtailer winner would need a second transfer).
    const MemberInfo* info = consensus->config().Find(id);
    if (info == nullptr || !info->is_voter()) continue;
    const bool better =
        best.empty() || last.IsLaterThan(best_last) ||
        (last == best_last &&
         node->server()->options().kind == MemberKind::kMySql &&
         cluster->node(best)->server()->options().kind ==
             MemberKind::kLogtailer);
    if (better) {
      best = id;
      best_last = last;
    }
  }
  if (best.empty()) {
    report.status = Status::ServiceUnavailable("no electable member is up");
    return report;
  }
  report.chosen = best;
  report.chosen_last_log = best_last;

  if (max_commit.index > best_last.index) {
    report.status = Status::Aborted(
        "chosen log may miss committed entries (" +
        max_commit.ToString() + " > " + best_last.ToString() + ")");
    return report;
  }

  // Step 3: force the election.
  raft::RaftConsensus* chosen =
      cluster->node(best)->server()->consensus();
  chosen->SetElectionVotesOverride(kOverrideVotes);
  Status election = chosen->StartElection(raft::ElectionMode::kRealElection);
  if (!election.ok()) {
    chosen->SetElectionVotesOverride(std::nullopt);
    report.status = election.WithPrefix("starting forced election");
    return report;
  }

  const uint64_t deadline = loop->now() + kElectionTimeoutMicros;
  bool promoted = false;
  while (loop->now() < deadline) {
    loop->RunFor(50'000);
    if (cluster->CurrentPrimary() == best ||
        (chosen->role() == RaftRole::kLeader &&
         cluster->node(best)->server()->options().kind ==
             MemberKind::kLogtailer)) {
      promoted = true;
      break;
    }
  }

  // Step 4: reset quorum expectations.
  chosen->SetElectionVotesOverride(std::nullopt);
  if (!promoted) {
    report.status = Status::TimedOut("forced election did not conclude");
    return report;
  }
  MYRAFT_LOG(Info) << "quorum fixer: " << best << " promoted at term "
                   << chosen->term();

  // Step 5: rebuild the membership so the ring stands on its own feet.
  // The override got a leader elected, but ordinary log commits still
  // count against the OLD voter set — which is dead, so nothing would
  // ever commit and the next election would need the override again. A
  // forced config bump demoting every dead voter fixes that, and it can
  // proceed precisely because config commit is an install-quorum check
  // decoupled from log commit. All dead voters go in ONE bump: a chain of
  // single-member demotions would each wait on a commit that can never
  // happen.
  std::set<MemberId> up_ids;
  for (const MemberId& id : cluster->ids()) {
    if (cluster->node(id)->up()) up_ids.insert(id);
  }
  MembershipConfig repaired = chosen->config();
  int excised = 0;
  for (auto& member : repaired.members) {
    if (!member.is_voter() || up_ids.count(member.id) > 0) continue;
    member.type = RaftMemberType::kNonVoter;
    ++excised;
  }
  if (excised > 0) {
    // Dead regions can no longer form majorities; pin the repaired ring
    // to plain majority so the surviving voters ARE the quorum. The
    // operator re-widens the spec once the ring is healthy again.
    repaired.quorum_spec = "majority";
    Status forced = chosen->ForceReplaceConfig(repaired);
    if (!forced.ok()) {
      report.status = forced.WithPrefix("forcing survivor config");
      return report;
    }
    report.forced_reconfig = true;
    report.voters_excised = excised;
    const uint64_t config_deadline =
        loop->now() + kElectionTimeoutMicros;
    while (loop->now() < config_deadline &&
           chosen->has_pending_config_change()) {
      loop->RunFor(50'000);
    }
    if (chosen->has_pending_config_change()) {
      report.status = Status::TimedOut("forced survivor config did not commit");
      return report;
    }
    MYRAFT_LOG(Info) << "quorum fixer: demoted " << excised
                     << " dead voter(s) via forced config "
                     << chosen->config().config_term << "."
                     << chosen->config().config_version;
  }
  report.status = Status::OK();
  return report;
}

}  // namespace myraft::tools
