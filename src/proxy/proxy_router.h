// Raft Proxying (§4.2). The leader keeps all replication bookkeeping
// (safety-wise this is standard Raft); the router sits between
// RaftConsensus and the network and rewrites the *transport* of
// AppendEntries:
//
//  * outbound from the leader, messages to a remote-region member are
//    addressed through a relay in that region, with payloads stripped
//    (PROXY_OP: "request metadata but no payload");
//  * the final relay hop reconstitutes each entry from its own log-entry
//    cache (falling back to its log). It forwards PROXY_OPs to each
//    destination strictly in arrival order: one whose entries have not
//    arrived yet parks at the head of that destination's queue, wakes
//    when the relay's own replication stream appends, and degrades to a
//    simple heartbeat once it has waited a configurable period;
//  * responses are relayed back upstream through the same tree;
//  * votes are never proxied (§4.2.1);
//  * unhealthy relays are detected via recent-traffic health checks and
//    routed around (§4.2.3).

#ifndef MYRAFT_PROXY_PROXY_ROUTER_H_
#define MYRAFT_PROXY_PROXY_ROUTER_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "raft/consensus.h"
#include "sim/event_loop.h"

namespace myraft::proxy {

struct ProxyOptions {
  bool enabled = true;
  /// How long a PROXY_OP may wait at the final relay for its entries to
  /// reach the relay's own log before it is degraded to a heartbeat. The
  /// relay does not poll: it retries the head of each destination's queue
  /// whenever its own replication stream appends, and once at this
  /// deadline.
  uint64_t reconstitute_wait_micros = 100'000;
  /// A relay with no traffic for this long is considered unhealthy and
  /// routed around.
  uint64_t relay_unhealthy_after_micros = 3'000'000;
  /// Destination for "proxy.*" metrics. Null means a private per-instance
  /// registry (unit-test isolation).
  metrics::MetricRegistry* metrics = nullptr;
  /// Optional trace journal; forwarding decisions (proxied / relayed /
  /// reconstituted / degraded) emit "proxy.*" instants stitched to the
  /// trace carried by the AppendEntries batch.
  trace::Tracer* tracer = nullptr;
};

class ProxyRouter final : public raft::RaftOutbox {
 public:
  /// Point-in-time snapshot of the registry-backed "proxy.*" counters.
  struct Stats {
    uint64_t direct_requests = 0;
    uint64_t proxied_requests = 0;       // leader-side PROXY_OPs created
    uint64_t relayed_requests = 0;       // forwarded as intermediate hop
    uint64_t reconstitutions = 0;        // payloads restored at final hop
    uint64_t degraded_to_heartbeat = 0;  // missing entry after wait
    uint64_t relayed_responses = 0;
    uint64_t route_arounds = 0;          // unhealthy relay bypassed
    uint64_t bytes_relayed = 0;          // wire bytes forwarded as a hop
    uint64_t reads_routed_follower = 0;  // reads steered to a follower
    uint64_t reads_routed_leader = 0;    // reads kept on the leader
  };

  using SendFn = std::function<void(Message)>;

  ProxyRouter(MemberId self, RegionId region, ProxyOptions options,
              sim::EventLoop* loop, SendFn lower_send)
      : self_(std::move(self)),
        region_(std::move(region)),
        options_(options),
        loop_(loop),
        lower_send_(std::move(lower_send)),
        created_micros_(loop->now()) {
    metrics::MetricRegistry* registry = options_.metrics;
    if (registry == nullptr) {
      owned_metrics_ = std::make_unique<metrics::MetricRegistry>();
      registry = owned_metrics_.get();
    }
    direct_requests_ = registry->GetCounter("proxy.direct_requests");
    proxied_requests_ = registry->GetCounter("proxy.proxied_requests");
    relayed_requests_ = registry->GetCounter("proxy.relayed_requests");
    reconstitutions_ = registry->GetCounter("proxy.reconstitutions");
    degraded_to_heartbeat_ =
        registry->GetCounter("proxy.degraded_to_heartbeat");
    relayed_responses_ = registry->GetCounter("proxy.relayed_responses");
    route_arounds_ = registry->GetCounter("proxy.route_arounds");
    bytes_relayed_ = registry->GetCounter("proxy.bytes_relayed");
    reads_routed_follower_ =
        registry->GetCounter("proxy.reads_routed_follower");
    reads_routed_leader_ = registry->GetCounter("proxy.reads_routed_leader");
    reconstitute_wait_us_ =
        registry->GetHistogram("proxy.reconstitute_wait_us");
  }

  ~ProxyRouter() {
    // Scheduled relay drains and degrade timers may outlive the router
    // (process crash); they check this guard before touching it.
    *alive_ = false;
  }

  /// Must be called once the consensus instance exists (the router needs
  /// its config, cache and log for relay selection and reconstitution).
  void BindConsensus(raft::RaftConsensus* consensus) {
    consensus_ = consensus;
  }

  // RaftOutbox: outbound messages from the local consensus.
  void Send(Message message) override;

  /// Inbound hook. Returns true if the message was consumed by the proxy
  /// layer (relayed / queued for reconstitution); false if the host
  /// should hand it to the local consensus. The host must do that before
  /// the event loop runs anything else: an AppendEntries with entries
  /// handed back while PROXY_OPs wait schedules a zero-delay drain of the
  /// relay queues, which counts on those entries being appended by then.
  bool HandleInbound(const Message& message);

  /// Host calls this for every message received from `from` so relay
  /// health can be tracked.
  void ObserveTraffic(const MemberId& from);

  void set_enabled(bool enabled) { options_.enabled = enabled; }
  bool enabled() const { return options_.enabled; }
  Stats stats() const;

  /// Structured routing-state dump for raftstat / flight-recorder bundles
  /// (DESIGN.md §14): enablement, per-member relay health as this node
  /// sees it, and the routing counters.
  std::string DebugStatusJson() const;

  /// Read steering (§13): pick the member a read from `client_region`
  /// should hit. With a nonzero staleness budget and this node leading,
  /// prefers the most caught-up healthy MySQL member in the client's
  /// region whose replication lag (commit marker − match index) fits the
  /// budget; otherwise the read stays on the leader (self when leading,
  /// else the last known leader — "" when none is known). The follower
  /// still read-your-writes gates via SubmitRead, so the budget only
  /// bounds expected wait, never correctness.
  MemberId ChooseReadTarget(const RegionId& client_region,
                            uint64_t staleness_budget_entries) const;

 private:
  /// Relay member for `region` (prefers MySQL voters), or "" when no
  /// healthy relay exists. `allow_self` lets a node recognise itself as
  /// its region's relay (responses then go direct).
  MemberId ChooseRelay(const RegionId& region, bool allow_self) const;
  bool RelayHealthy(const MemberId& relay) const;
  RegionId RegionOf(const MemberId& member) const;

  void RouteRequest(AppendEntriesRequest request);
  void RouteResponse(AppendEntriesResponse response);
  /// A PROXY_OP parked at the final hop until its payloads are local.
  struct PendingProxyOp {
    AppendEntriesRequest request;
    size_t restored = 0;  // entries [0, restored) already carry payloads
    uint64_t queued_micros = 0;
    uint64_t deadline_micros = 0;
  };
  /// Final hop: queues the PROXY_OP behind any earlier one for the same
  /// destination and forwards what the queue order allows.
  void EnqueueProxyOp(AppendEntriesRequest request);
  /// Forwards from the head of `queue` while the head reconstitutes in
  /// full or has passed its deadline (then as a heartbeat).
  void DrainQueue(std::deque<PendingProxyOp>* queue);
  /// Drains every queue, drops empty ones and re-arms the degrade timer.
  void DrainQueues();
  void ScheduleDrain();
  /// Arms the single degrade timer at the earliest head deadline unless
  /// one is armed. Every op waits the same period, so an armed timer is
  /// never later than any head.
  void ArmDegradeTimer();
  /// Restores payloads from the local log; false while any is missing.
  bool RestorePayloads(PendingProxyOp* op) const;
  Result<LogEntry> LookupEntry(const LogEntry& proxy_entry) const;

  MemberId self_;
  RegionId region_;
  ProxyOptions options_;
  sim::EventLoop* loop_;
  SendFn lower_send_;
  raft::RaftConsensus* consensus_ = nullptr;

  std::map<MemberId, uint64_t> last_traffic_micros_;
  uint64_t created_micros_;
  /// Final-hop PROXY_OPs per destination, in arrival order; no empty
  /// queues are kept.
  std::map<MemberId, std::deque<PendingProxyOp>> relay_queues_;
  bool drain_scheduled_ = false;
  bool degrade_timer_armed_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::unique_ptr<metrics::MetricRegistry> owned_metrics_;
  metrics::Counter* direct_requests_;
  metrics::Counter* proxied_requests_;
  metrics::Counter* relayed_requests_;
  metrics::Counter* reconstitutions_;
  metrics::Counter* degraded_to_heartbeat_;
  metrics::Counter* relayed_responses_;
  metrics::Counter* route_arounds_;
  metrics::Counter* bytes_relayed_;
  metrics::Counter* reads_routed_follower_;
  metrics::Counter* reads_routed_leader_;
  /// Time each final-hop PROXY_OP spends queued, until forwarded in full
  /// or degraded to a heartbeat.
  metrics::HistogramMetric* reconstitute_wait_us_;
};

}  // namespace myraft::proxy

#endif  // MYRAFT_PROXY_PROXY_ROUTER_H_
