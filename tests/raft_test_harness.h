// In-memory Raft cluster harness for unit tests: RaftConsensus instances
// over MemLog, wired through the deterministic simulator network. The
// "disk" (log + consensus metadata) survives crashes; process state does
// not — matching a real crash-restart.

#ifndef MYRAFT_TESTS_RAFT_TEST_HARNESS_H_
#define MYRAFT_TESTS_RAFT_TEST_HARNESS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "raft/consensus.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "util/logging.h"

namespace myraft::raft_test {

using namespace myraft;        // NOLINT
using namespace myraft::raft;  // NOLINT

inline constexpr uint64_t kTickIntervalMicros = 20'000;

class TestNode : public RaftOutbox, public StateMachineListener {
 public:
  TestNode(MemberId id, RegionId region, MemberKind kind,
           sim::EventLoop* loop, sim::SimNetwork* network)
      : id_(std::move(id)),
        region_(std::move(region)),
        kind_(kind),
        loop_(loop),
        network_(network),
        env_(NewMemEnv()),
        meta_store_(env_.get(), "/meta") {}

  void CreateConsensus(const QuorumEngine* quorum, RaftOptions options) {
    options.self = id_;
    options.region = region_;
    options.kind = kind_;
    // Like sim::Node, deferred work (the group-commit sync) runs on the
    // event loop and is dropped once the node is down or its consensus has
    // been rebuilt by Restart: a stale callback must not touch a freed
    // instance.
    const uint64_t generation = ++generation_;
    options.defer = [this, generation](uint64_t delay_micros,
                                       std::function<void()> fn) {
      loop_->Schedule(delay_micros,
                      [this, generation, fn = std::move(fn)]() {
                        if (up_ && generation_ == generation) fn();
                      });
    };
    consensus_ = std::make_unique<RaftConsensus>(
        std::move(options), &log_, quorum, &meta_store_, loop_->clock(),
        loop_->rng(), this, this);
  }

  // RaftOutbox:
  void Send(Message message) override {
    if (!up_) return;
    if (outbound_hook_) {
      outbound_hook_(std::move(message));
    } else {
      network_->Send(net_slot_, std::move(message));
    }
  }

  /// Interposes on outbound consensus traffic (e.g. a ProxyRouter).
  void set_outbound_hook(std::function<void(Message)> hook) {
    outbound_hook_ = std::move(hook);
  }

  // StateMachineListener:
  void OnLeadershipAcquired(uint64_t term, OpId noop) override {
    ++leadership_acquired_;
    // Witness behaviour (§2.2): a logtailer elected as temporary leader
    // transfers leadership to a database replica once one catches up.
    if (kind_ == MemberKind::kLogtailer && auto_transfer_from_witness_) {
      witness_wants_transfer_ = true;
    }
  }
  void OnLeadershipLost(uint64_t term) override { ++leadership_lost_; }
  void OnCommitAdvanced(OpId marker) override { last_commit_ = marker; }
  void OnEntryAppended(const LogEntry& entry) override { ++entries_appended_; }
  void OnSuffixTruncated(OpId new_last) override { ++truncations_; }
  void OnMembershipChanged(const MembershipConfig& config) override {
    ++membership_changes_;
  }
  void OnLeadershipTransferFailed(const MemberId& target,
                                  const Status& reason) override {
    ++transfer_failures_;
    last_transfer_failure_ = reason;
  }

  void MaybeActAsWitnessLeader() {
    if (!witness_wants_transfer_ || consensus_ == nullptr ||
        consensus_->role() != RaftRole::kLeader) {
      return;
    }
    // Pick the most caught-up MySQL voter.
    const auto& peers = consensus_->peers();
    MemberId best;
    uint64_t best_match = 0;
    for (const auto& member : consensus_->config().members) {
      if (member.kind != MemberKind::kMySql || !member.is_voter()) continue;
      auto it = peers.find(member.id);
      if (it == peers.end()) continue;
      if (best.empty() || it->second.match_index > best_match) {
        best = member.id;
        best_match = it->second.match_index;
      }
    }
    if (!best.empty() && best_match == consensus_->last_logged().index &&
        !consensus_->transfer_target().has_value()) {
      if (consensus_->TransferLeadership(best).ok()) {
        witness_wants_transfer_ = false;
      }
    }
  }

  void Deliver(const Message& message) {
    if (up_ && consensus_ != nullptr) consensus_->HandleMessage(message);
  }

  void Tick() {
    if (up_ && consensus_ != nullptr) {
      consensus_->Tick();
      MaybeActAsWitnessLeader();
    }
  }

  const MemberId& id() const { return id_; }
  /// The node's SimNetwork slot (RegisterNode's result): its send handle.
  uint32_t net_slot() const { return net_slot_; }
  void set_net_slot(uint32_t slot) { net_slot_ = slot; }
  const RegionId& region() const { return region_; }
  MemberKind kind() const { return kind_; }
  RaftConsensus* consensus() { return consensus_.get(); }
  MemLog* log() { return &log_; }
  ConsensusMetadataStore* meta_store() { return &meta_store_; }

  bool up_ = true;
  bool auto_transfer_from_witness_ = true;
  bool witness_wants_transfer_ = false;
  OpId last_commit_;
  int leadership_acquired_ = 0;
  int leadership_lost_ = 0;
  int entries_appended_ = 0;
  int truncations_ = 0;
  int membership_changes_ = 0;
  int transfer_failures_ = 0;
  Status last_transfer_failure_;

 private:
  MemberId id_;
  RegionId region_;
  MemberKind kind_;
  sim::EventLoop* loop_;
  sim::SimNetwork* network_;
  uint32_t net_slot_ = 0;
  std::function<void(Message)> outbound_hook_;
  std::unique_ptr<Env> env_;
  ConsensusMetadataStore meta_store_;
  MemLog log_;
  std::unique_ptr<RaftConsensus> consensus_;
  uint64_t generation_ = 0;  // bumped per CreateConsensus
};

class RaftTestCluster {
 public:
  explicit RaftTestCluster(uint64_t seed,
                           sim::NetworkOptions net_options = {})
      : loop_(seed), network_(&loop_, net_options) {}

  /// Declares a member before StartAll.
  void AddMemberSpec(const MemberId& id, const RegionId& region,
                     MemberKind kind = MemberKind::kMySql,
                     RaftMemberType type = RaftMemberType::kVoter) {
    config_.members.push_back(MemberInfo{id, region, kind, type});
  }

  void StartAll(const QuorumEngine* quorum, RaftOptions options = {}) {
    quorum_ = quorum;
    options_ = options;
    for (const auto& member : config_.members) {
      auto node = std::make_unique<TestNode>(member.id, member.region,
                                             member.kind, &loop_, &network_);
      node->CreateConsensus(quorum, options);
      TestNode* raw = node.get();
      raw->set_net_slot(network_.RegisterNode(
          member.id, member.region,
          [raw](const MemberId&, const Message& m) { raw->Deliver(m); }));
      nodes_[member.id] = std::move(node);
    }
    for (auto& [id, node] : nodes_) {
      MYRAFT_CHECK(node->consensus()->Bootstrap(config_).ok());
      ScheduleTick(node.get());
    }
  }

  void ScheduleTick(TestNode* node) {
    // Small deterministic per-node phase offset.
    loop_.Schedule(kTickIntervalMicros + (tick_stagger_++ % 7) * 499,
                   [this, node]() {
                     node->Tick();
                     ScheduleTick(node);
                   });
  }

  /// Simulates a process crash: volatile state gone, disk retained.
  void Crash(const MemberId& id) {
    TestNode* node = nodes_.at(id).get();
    node->up_ = false;
    network_.SetNodeUp(id, false);
  }

  void Restart(const MemberId& id) {
    TestNode* node = nodes_.at(id).get();
    node->CreateConsensus(quorum_, options_);
    MYRAFT_CHECK(node->consensus()->Start().ok());
    node->up_ = true;
    network_.SetNodeUp(id, true);
  }

  /// Runs until exactly one up-node reports leader and a majority of up
  /// voters agree on it; returns its id ("" on timeout).
  MemberId WaitForLeader(uint64_t timeout_micros) {
    const uint64_t deadline = loop_.now() + timeout_micros;
    while (loop_.now() < deadline) {
      loop_.RunFor(10'000);
      const MemberId leader = CurrentLeader();
      if (!leader.empty()) return leader;
    }
    return "";
  }

  /// The unique up-leader with the highest term, if its followers agree.
  MemberId CurrentLeader() {
    TestNode* best = nullptr;
    for (auto& [id, node] : nodes_) {
      if (!node->up_ || node->consensus() == nullptr) continue;
      if (node->consensus()->role() != RaftRole::kLeader) continue;
      if (best == nullptr ||
          node->consensus()->term() > best->consensus()->term()) {
        best = node.get();
      }
    }
    if (best == nullptr) return "";
    // Require at least one other up voter to acknowledge it.
    int acks = 0, up_voters = 0;
    for (auto& [id, node] : nodes_) {
      if (!node->up_ || node.get() == best) continue;
      const MemberInfo* info = config_.Find(id);
      if (info == nullptr || !info->is_voter()) continue;
      ++up_voters;
      if (node->consensus()->leader() == best->id()) ++acks;
    }
    if (up_voters > 0 && acks == 0) return "";
    return best->id();
  }

  /// Runs until `opid` is committed on the leader (false on timeout).
  bool WaitForCommit(const MemberId& node_id, OpId opid,
                     uint64_t timeout_micros) {
    const uint64_t deadline = loop_.now() + timeout_micros;
    while (loop_.now() < deadline) {
      loop_.RunFor(1'000);
      TestNode* node = nodes_.at(node_id).get();
      if (node->up_ && node->consensus()->IsCommitted(opid)) return true;
    }
    return false;
  }

  TestNode* node(const MemberId& id) { return nodes_.at(id).get(); }
  sim::EventLoop* loop() { return &loop_; }
  sim::SimNetwork* network() { return &network_; }
  const MembershipConfig& config() const { return config_; }
  std::vector<MemberId> ids() const {
    std::vector<MemberId> out;
    for (const auto& [id, node] : nodes_) out.push_back(id);
    return out;
  }

 private:
  sim::EventLoop loop_;
  sim::SimNetwork network_;
  MembershipConfig config_;
  std::map<MemberId, std::unique_ptr<TestNode>> nodes_;
  const QuorumEngine* quorum_ = nullptr;
  RaftOptions options_;
  uint64_t tick_stagger_ = 0;
};

}  // namespace myraft::raft_test

#endif  // MYRAFT_TESTS_RAFT_TEST_HARNESS_H_
