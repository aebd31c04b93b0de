#include "raft/consensus.h"

#include <algorithm>

#include "util/logging.h"

namespace myraft::raft {

// --- Membership --------------------------------------------------------------

namespace {
/// Number of members whose VOTING status differs between the two configs
/// (voter added, voter removed, or voter <-> learner swap). Non-voting
/// changes (learners, regions, quorum_spec) don't count: they cannot
/// change any quorum.
int CountVotingChanges(const MembershipConfig& from,
                       const MembershipConfig& to) {
  int changes = 0;
  for (const auto& member : to.members) {
    const MemberInfo* old = from.Find(member.id);
    const bool was_voter = old != nullptr && old->is_voter();
    if (member.is_voter() != was_voter) ++changes;
  }
  for (const auto& member : from.members) {
    if (member.is_voter() && to.Find(member.id) == nullptr) ++changes;
  }
  return changes;
}
}  // namespace

Status RaftConsensus::AddMember(const MemberInfo& member) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (meta_.config.Contains(member.id)) {
    return Status::AlreadyPresent("member already in config: " + member.id);
  }
  MembershipConfig new_config = meta_.config;
  new_config.members.push_back(member);
  return ProposeConfig(std::move(new_config), /*force=*/false);
}

Status RaftConsensus::RemoveMember(const MemberId& member) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (member == options_.self) {
    return Status::InvalidArgument("leader cannot remove itself");
  }
  if (!meta_.config.Contains(member)) {
    return Status::NotFound("member not in config: " + member);
  }
  MembershipConfig new_config = meta_.config;
  new_config.members.erase(
      std::remove_if(new_config.members.begin(), new_config.members.end(),
                     [&](const MemberInfo& m) { return m.id == member; }),
      new_config.members.end());
  return ProposeConfig(std::move(new_config), /*force=*/false);
}

Status RaftConsensus::SetMemberType(const MemberId& member,
                                    RaftMemberType type) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (member == options_.self && type == RaftMemberType::kNonVoter) {
    return Status::InvalidArgument("leader cannot demote itself");
  }
  MembershipConfig new_config = meta_.config;
  MemberInfo* info = nullptr;
  for (auto& m : new_config.members) {
    if (m.id == member) {
      info = &m;
      break;
    }
  }
  if (info == nullptr) {
    return Status::NotFound("member not in config: " + member);
  }
  if (info->type == type) return Status::OK();  // idempotent no-op
  info->type = type;
  return ProposeConfig(std::move(new_config), /*force=*/false);
}

Status RaftConsensus::SetQuorumSpec(const std::string& quorum_spec) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (meta_.config.quorum_spec == quorum_spec) return Status::OK();
  MembershipConfig new_config = meta_.config;
  new_config.quorum_spec = quorum_spec;
  return ProposeConfig(std::move(new_config), /*force=*/false);
}

Status RaftConsensus::ForceReplaceConfig(MembershipConfig new_config) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (!new_config.Contains(options_.self)) {
    return Status::InvalidArgument("forced config must include self");
  }
  if (new_config.NumVoters() == 0) {
    return Status::InvalidArgument("forced config has no voters");
  }
  MYRAFT_LOG(Warning) << options_.self
                      << ": FORCED config replacement: "
                      << new_config.ToString();
  return ProposeConfig(std::move(new_config), /*force=*/true);
}

Status RaftConsensus::ProposeConfig(MembershipConfig new_config, bool force) {
  if (role_ != RaftRole::kLeader) return Status::IllegalState("not leader");
  if (!force) {
    if (has_pending_config_change()) {
      return Status::IllegalState("another membership change is in flight");
    }
    // A committed current-term entry proves this leader's authority is
    // current; without it, a leader elected on a stale log could bump the
    // config before discovering it must step down.
    if (commit_marker_.term != meta_.current_term) {
      return Status::ServiceUnavailable(
          "leadership not yet established (current-term entry uncommitted)");
    }
    // §2.2 single-change rule, enforced structurally: quorum intersection
    // between consecutive configs is only guaranteed one voting change at
    // a time. The force path (Quorum Fixer) deliberately bypasses this —
    // with the old quorum dead, intersection with it is meaningless and
    // excising all dead voters in one bump is the point.
    if (CountVotingChanges(meta_.config, new_config) > 1) {
      return Status::InvalidArgument(
          "at most one voting-membership change per reconfig");
    }
  }
  // Version the new config: (term, version) with the term dominating, so
  // a config proposed by a deposed leader can never supersede one issued
  // at a later term no matter how many bumps it racked up.
  new_config.config_term = meta_.current_term;
  new_config.config_version = meta_.config.config_version + 1;
  const MembershipConfig old_config = meta_.config;
  MYRAFT_RETURN_NOT_OK(ApplyConfig(new_config));
  MaybeCommitConfig();  // single-voter (or self-sufficient) quorums: now
  // Push the new config out immediately — the install quorum is gated on
  // echoes, and waiting a heartbeat interval would stall every reconfig.
  for (const auto& [peer_id, peer] : peers_) {
    SendAppendEntriesTo(peer_id, /*allow_empty=*/true);
  }
  // Farewell to members the new config dropped: RefreshPeers has already
  // forgotten them, so without this they would never learn, sitting in
  // the old config campaigning into vote denials forever. One stamped
  // heartbeat makes them install the config, see themselves gone, and
  // park as non-campaigning followers.
  for (const auto& member : old_config.members) {
    if (member.id == options_.self || meta_.config.Contains(member.id)) {
      continue;
    }
    // Not a peer, so the config is always stamped; prev is zero because
    // log matching is irrelevant to the config.
    AppendEntriesRequest farewell;
    FillAppendHeader(member.id, /*peer=*/nullptr, kZeroOpId, &farewell);
    outbox_->Send(std::move(farewell));
  }
  return Status::OK();
}

void RaftConsensus::MaybeCommitConfig() {
  if (role_ != RaftRole::kLeader) return;
  if (meta_.committed_config.SameIdAs(meta_.config)) return;  // none pending
  // Logless commit rule (Schultz et al.): the pending config is committed
  // once a quorum of the NEW config has installed it. Log state plays no
  // part — this is what lets reconfiguration proceed while the log is
  // unavailable or healing. MakeQuorumContext evaluates against
  // meta_.config, i.e. the new member set.
  std::set<MemberId> installed{options_.self};
  for (const auto& [peer_id, peer] : peers_) {
    if (peer.acked_config_term == meta_.config.config_term &&
        peer.acked_config_version == meta_.config.config_version) {
      installed.insert(peer_id);
    }
  }
  if (!quorum_->IsCommitQuorumSatisfied(MakeQuorumContext(options_.self),
                                        installed)) {
    return;
  }
  meta_.committed_config = meta_.config;
  Status s = PersistMeta();
  if (!s.ok()) {
    MYRAFT_LOG(Error) << options_.self
                      << ": persist committed config failed: " << s;
    return;
  }
  MYRAFT_LOG(Info) << options_.self << ": config committed: "
                   << meta_.config.ToString();
}

void RaftConsensus::MaybeInstallConfig(const AppendEntriesRequest& request) {
  // The leader keeps stamping until our echo reaches it; a stamp of the
  // config we already hold needs no decode.
  if (request.config_payload.empty() ||
      request.config_payload == config_payload_) {
    return;
  }
  auto config = DecodeMembershipConfig(request.config_payload);
  if (!config.ok()) {
    MYRAFT_LOG(Error) << options_.self << ": undecodable config from "
                      << request.leader << ": " << config.status();
    return;
  }
  if (!config->IdIsNewerThan(meta_.config)) return;
  // Install is decoupled from the log: no log-matching gate, no entry.
  // Adopting the newer config is what makes this node count towards the
  // NEW config's install quorum (via the response echo).
  Status s = ApplyConfig(*config);
  if (!s.ok()) {
    MYRAFT_LOG(Error) << options_.self << ": config install failed: " << s;
    return;
  }
  config_payload_ = request.config_payload;
}

void RaftConsensus::StampConfig(const PeerStatus* peer,
                                AppendEntriesRequest* request) {
  // Stamp until echoed (DESIGN.md §15.1): encoding the member list into
  // every heartbeat, then sizing and decoding it again downstream, was the
  // largest host cost of heartbeat-bound runs. Any request can carry the
  // install, so it stays decoupled from the log; a peer whose latest
  // response echoed the active identity has it installed.
  if (peer != nullptr && peer->config_echoed) return;
  if (config_payload_.empty()) {
    EncodeMembershipConfig(meta_.config, &config_payload_);
  }
  request->config_payload = config_payload_;
}

void RaftConsensus::RecordConfigEcho(const AppendEntriesResponse& response,
                                     PeerStatus* peer) {
  peer->config_echoed = response.config_term == meta_.config.config_term &&
                        response.config_version == meta_.config.config_version;
  // The install quorum counts the highest identity ever echoed: a
  // reordered older echo must not regress it.
  if (response.config_term > peer->acked_config_term ||
      (response.config_term == peer->acked_config_term &&
       response.config_version > peer->acked_config_version)) {
    peer->acked_config_term = response.config_term;
    peer->acked_config_version = response.config_version;
    MaybeCommitConfig();
  }
}

Status RaftConsensus::ApplyConfig(const MembershipConfig& config) {
  meta_.config = config;
  config_payload_.clear();
  MYRAFT_RETURN_NOT_OK(PersistMeta());
  if (role_ == RaftRole::kLeader) RefreshPeers();
  // Role may change if our own voter/learner status changed.
  if (role_ != RaftRole::kLeader && role_ != RaftRole::kCandidate) {
    const MemberInfo* self = SelfInfo();
    if (self != nullptr) {
      role_ = self->is_learner() ? RaftRole::kLearner : RaftRole::kFollower;
    } else {
      // Removed from the ring: park as a quiescent follower. IsVoterSelf()
      // is false from here on, so this node never campaigns, never votes,
      // and never disrupts the ring it no longer belongs to — it just
      // waits to be re-added or retired by an operator.
      role_ = RaftRole::kFollower;
    }
  } else if (role_ == RaftRole::kCandidate && SelfInfo() == nullptr) {
    AbortElection(Status::Aborted("removed from config"));
    role_ = RaftRole::kFollower;
  }
  listener_->OnMembershipChanged(meta_.config);
  return Status::OK();
}

void RaftConsensus::RefreshPeers() {
  // Keep progress for surviving peers, add new ones, drop removed ones.
  // Nobody has echoed the new config yet, so every peer gets it stamped.
  std::map<MemberId, PeerStatus> new_peers;
  for (const auto& member : meta_.config.members) {
    if (member.id == options_.self) continue;
    auto it = peers_.find(member.id);
    if (it != peers_.end()) {
      new_peers[member.id] = it->second;
      new_peers[member.id].config_echoed = false;
    } else {
      PeerStatus peer;
      peer.next_index = log_->LastOpId().index + 1;
      peer.match_index = 0;
      // A new peer has not answered yet; raftstat shows it as of now.
      peer.last_response_micros = clock_->NowMicros();
      new_peers[member.id] = peer;
    }
  }
  peers_ = std::move(new_peers);
}

}  // namespace myraft::raft
