// Simulated multi-region network: per-region-pair latency distributions,
// FIFO links, crash/partition/loss/reorder injection, and byte accounting
// per region pair (the measurement behind the Proxying bandwidth
// experiment, §4.2).

#ifndef MYRAFT_SIM_NETWORK_H_
#define MYRAFT_SIM_NETWORK_H_

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "util/metrics.h"
#include "wire/messages.h"

namespace myraft::sim {

/// One-way latency of a link. The jitter varies each message's transit
/// time but never reorders a link: links are FIFO (see SimNetwork::Send).
struct LatencyModel {
  uint64_t base_micros = 0;
  uint64_t jitter_micros = 0;  // uniform extra in [0, jitter)
};

struct NetworkOptions {
  /// One-way latency within a region.
  LatencyModel same_region{150, 100};
  /// One-way latency between distinct regions (uniform default; override
  /// per pair with SetRegionLatency).
  LatencyModel cross_region{15'000, 2'000};
  /// Probability each message is dropped (applied after partitions).
  double loss_rate = 0.0;
  /// Probability each delivered message is delivered twice (the duplicate
  /// takes an independently sampled latency outside the link's FIFO order,
  /// so it may arrive first).
  double duplicate_rate = 0.0;
  /// Extra uniform delay in [0, chaos_jitter_micros) added per message
  /// after the FIFO clamp. This is the network's reordering fault: large
  /// values reorder messages on one link aggressively.
  uint64_t chaos_jitter_micros = 0;
  /// Optional registry for net.* fault counters (drops by reason,
  /// duplicates). Without it drops are only visible via
  /// dropped_messages(), which is how they used to vanish from metrics
  /// snapshots entirely.
  metrics::MetricRegistry* metrics = nullptr;
};

class SimNetwork {
 public:
  /// Delivery callback: `physical_from` is the member that put the
  /// message on the wire (a relay for proxied traffic), which may differ
  /// from the logical MessageFrom.
  using DeliverFn =
      std::function<void(const MemberId& physical_from, const Message&)>;

  SimNetwork(EventLoop* loop, NetworkOptions options);

  // --- Topology ---------------------------------------------------------------

  void RegisterNode(const MemberId& id, const RegionId& region,
                    DeliverFn deliver);
  void UnregisterNode(const MemberId& id);
  bool IsRegistered(const MemberId& id) const { return nodes_.count(id) > 0; }
  RegionId RegionOf(const MemberId& id) const;

  /// Override latency for a specific (unordered) region pair.
  void SetRegionLatency(const RegionId& a, const RegionId& b,
                        LatencyModel latency);

  // --- Fault injection ----------------------------------------------------------

  /// Node down: all messages to/from it are dropped (process crash).
  void SetNodeUp(const MemberId& id, bool up);
  bool IsNodeUp(const MemberId& id) const { return down_.count(id) == 0; }
  /// Bidirectional link cut between two members.
  void SetLinkCut(const MemberId& a, const MemberId& b, bool cut);
  /// One-way link fault: messages from `from` to `to` are dropped while
  /// the reverse direction keeps flowing. Composable with SetLinkCut /
  /// region partitions (any matching fault drops the message). Models the
  /// asymmetric partitions that break naive failure detectors: `to` still
  /// hears `from` and vice-versa is dead.
  void SetLinkOneWayCut(const MemberId& from, const MemberId& to, bool cut);
  /// Full region partition: cuts every link crossing the region boundary.
  void SetRegionPartitioned(const RegionId& region, bool partitioned);
  void SetLossRate(double rate) { options_.loss_rate = rate; }
  void SetDuplicateRate(double rate) { options_.duplicate_rate = rate; }
  /// Per-message uniform extra delay outside the FIFO order (reorders
  /// messages on a link once it exceeds their send spacing).
  void SetChaosJitter(uint64_t micros) { options_.chaos_jitter_micros = micros; }
  /// Heals every link/region/one-way fault and resets loss, duplication
  /// and jitter rates (node up/down state is not touched).
  void HealAllFaults();
  /// Extra one-way delay applied to all messages to/from a member
  /// (models a lagging / overloaded host).
  void SetNodeExtraDelay(const MemberId& id, uint64_t extra_micros);
  /// Extra delay applied only to data-carrying AppendEntries destined to
  /// `id` (models a host whose replication apply/disk path is backlogged
  /// while its control plane — votes, heartbeats, acks — stays fast).
  /// It is a host backlog, not transit: it is added after the FIFO clamp,
  /// so heartbeats overtake the lagged appends.
  void SetNodeReplicationLag(const MemberId& id, uint64_t extra_micros);

  // --- Sending ---------------------------------------------------------------

  /// Queues delivery of `message` from `from` to its next hop after the
  /// modelled latency. Each (from, next hop) link is FIFO, as TCP is: the
  /// arrival is max(now + latency, the link's previous arrival). Only the
  /// chaos faults (jitter, duplicates) and replication lag reorder a link.
  /// Drops silently on faults.
  void Send(const MemberId& from, Message message);

  // --- Accounting -----------------------------------------------------------

  struct LinkStats {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };

  /// Stats per (source region, dest region) pair.
  const std::map<std::pair<RegionId, RegionId>, LinkStats>& link_stats()
      const {
    return link_stats_;
  }
  /// Stats per (physical sender, physical receiver) member pair — the
  /// per-connection resource accounting of §4.2.2.
  const std::map<std::pair<MemberId, MemberId>, LinkStats>&
  member_link_stats() const {
    return member_link_stats_;
  }
  uint64_t CrossRegionBytes() const;
  uint64_t TotalBytes() const;
  uint64_t dropped_messages() const { return dropped_; }
  void ResetStats();

 private:
  /// Latest arrival scheduled on one outbound link, keyed by the next
  /// hop's link id.
  struct LinkTail {
    uint32_t dest_link_id;
    uint64_t arrival_micros;
  };

  struct Node {
    RegionId region;
    DeliverFn deliver;
    uint32_t link_id;
    /// FIFO state of this node's outbound links. A slot whose arrival has
    /// passed no longer constrains anything and is reused, so the vector
    /// holds only links with traffic in flight.
    std::vector<LinkTail> link_tails;
  };

  uint64_t SampleLatency(const RegionId& from, const RegionId& to);
  /// Clamps `arrival_micros` to the link's previous arrival and records it
  /// as the new tail.
  uint64_t FifoArrival(Node* from, uint32_t dest_link_id,
                       uint64_t arrival_micros);
  bool LinkCutBetween(const MemberId& a, const MemberId& b) const;
  /// Bumps dropped_ plus net.dropped and the given per-reason counter.
  void CountDrop(metrics::Counter* reason_counter);
  void ScheduleDelivery(const MemberId& from, const MemberId& dest,
                        uint64_t latency, Message message);

  EventLoop* loop_;
  NetworkOptions options_;
  std::map<MemberId, Node> nodes_;
  /// Every registration gets a fresh link id, so a restarted node starts
  /// on new connections and stale tails toward it simply expire.
  uint32_t next_link_id_ = 0;
  std::set<MemberId> down_;
  std::set<std::pair<MemberId, MemberId>> cut_links_;  // normalised pairs
  std::set<std::pair<MemberId, MemberId>> one_way_cuts_;  // (from, to)
  std::set<RegionId> partitioned_regions_;
  std::map<MemberId, uint64_t> extra_delay_;
  std::map<MemberId, uint64_t> replication_lag_;
  std::map<std::pair<RegionId, RegionId>, LatencyModel> region_latency_;
  std::map<std::pair<RegionId, RegionId>, LinkStats> link_stats_;
  std::map<std::pair<MemberId, MemberId>, LinkStats> member_link_stats_;
  uint64_t dropped_ = 0;
  // net.* fault counters; null when no registry was supplied.
  metrics::Counter* m_dropped_ = nullptr;
  metrics::Counter* m_dropped_node_down_ = nullptr;
  metrics::Counter* m_dropped_link_cut_ = nullptr;
  metrics::Counter* m_dropped_loss_ = nullptr;
  metrics::Counter* m_dropped_in_flight_ = nullptr;
  metrics::Counter* m_duplicated_ = nullptr;
};

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_NETWORK_H_
