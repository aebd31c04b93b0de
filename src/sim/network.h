// Simulated multi-region network: per-region-pair latency distributions,
// FIFO links, crash/partition/loss/reorder injection, and byte accounting
// per region pair (the measurement behind the Proxying bandwidth
// experiment, §4.2).

#ifndef MYRAFT_SIM_NETWORK_H_
#define MYRAFT_SIM_NETWORK_H_

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
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
  /// One-way latency between distinct regions.
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

  /// Registers a (new incarnation of a) member and returns its slot: the
  /// sender handle for Send. A member keeps its slot across
  /// registrations for the network's lifetime.
  uint32_t RegisterNode(const MemberId& id, const RegionId& region,
                        DeliverFn deliver);
  void UnregisterNode(const MemberId& id);
  bool IsRegistered(const MemberId& id) const;
  RegionId RegionOf(const MemberId& id) const;

  // --- Fault injection ----------------------------------------------------------

  /// Node down: all messages to/from it are dropped (process crash).
  void SetNodeUp(const MemberId& id, bool up);
  bool IsNodeUp(const MemberId& id) const;
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

  /// Queues delivery of `message` from the member registered at
  /// `from_slot` to its next hop after the modelled latency. Each (from,
  /// next hop) link is FIFO, as TCP is: the arrival is max(now + latency,
  /// the link's previous arrival). Only the chaos faults (jitter,
  /// duplicates) and replication lag reorder a link. Drops silently on
  /// faults.
  void Send(uint32_t from_slot, Message message);

  // --- Accounting -----------------------------------------------------------

  struct LinkStats {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };

  /// Stats per (source region, dest region) pair. Built on each call
  /// from the member-pair counters (a member keeps its region); the
  /// reference stays valid until the next call.
  const std::map<std::pair<RegionId, RegionId>, LinkStats>& link_stats()
      const;
  /// Stats per (physical sender, physical receiver) member pair — the
  /// per-connection resource accounting of §4.2.2. Built like
  /// link_stats().
  const std::map<std::pair<MemberId, MemberId>, LinkStats>&
  member_link_stats() const;
  uint64_t CrossRegionBytes() const;
  uint64_t TotalBytes() const;
  uint64_t dropped_messages() const { return dropped_; }
  void ResetStats();

 private:
  /// One outbound link of a slot, toward one destination slot.
  struct Peer {
    uint32_t dest = 0;
    const MemberId* dest_id = nullptr;  // the dest slot's id (slots stay put)
    /// FIFO tail: the registration the last message went to and its
    /// arrival. A new registration at either end starts a new
    /// connection, unclamped.
    uint32_t dest_registration = 0;
    uint64_t arrival_micros = 0;
    LinkStats stats;  // per member pair, across registrations
  };

  /// Everything the network knows about one member id. Slots are never
  /// removed, so a slot index names a member for the network's lifetime;
  /// the registration id tells one incarnation from the next.
  struct Slot {
    MemberId id;
    bool registered = false;
    bool up = true;
    uint32_t region = 0;        // region index of the latest registration
    uint32_t registration = 0;  // unique per RegisterNode call
    DeliverFn deliver;
    uint64_t extra_delay_micros = 0;
    uint64_t replication_lag_micros = 0;
    std::vector<Peer> peers;  // every destination this slot sent to
  };

  /// The slot of `id`, created (unregistered, up) on first mention.
  uint32_t SlotFor(const MemberId& id);
  /// The slot of `id`, or -1 when the network has never heard of it.
  int64_t FindSlot(const MemberId& id) const;
  /// The index of `region`, interned on first mention.
  uint32_t RegionIndex(const RegionId& region);
  uint64_t SampleLatency(uint32_t from_region, uint32_t to_region);
  /// This slot's link toward member `dest`, created on the first send to
  /// it; null when the network has never heard of `dest`. Only a link's
  /// first send looks `dest` up in the id index.
  Peer* PeerTo(Slot* from, const MemberId& dest);
  /// Whether a link cut, one-way cut or region partition drops
  /// messages from slot `from` to slot `to` (both registered).
  bool LinkCut(uint32_t from, uint32_t to) const;
  /// Bumps dropped_ plus net.dropped and the given per-reason counter.
  void CountDrop(metrics::Counter* reason_counter);
  void ScheduleDelivery(uint32_t from, uint32_t dest, uint32_t registration,
                        uint64_t latency, Message message);
  static uint64_t PairKey(uint32_t a, uint32_t b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  EventLoop* loop_;
  NetworkOptions options_;
  // A deque: delivery runs from a slot's callback, and Peer::dest_id
  // points at a slot's id.
  std::deque<Slot> slots_;
  std::unordered_map<MemberId, uint32_t> slot_index_;
  uint32_t next_registration_ = 1;
  std::vector<RegionId> region_names_;
  std::vector<char> region_partitioned_;  // per region index
  size_t partitioned_regions_ = 0;
  std::unordered_set<uint64_t> cut_links_;     // PairKey(min, max) of slots
  std::unordered_set<uint64_t> one_way_cuts_;  // PairKey(from, to)
  mutable std::map<std::pair<RegionId, RegionId>, LinkStats> link_stats_;
  mutable std::map<std::pair<MemberId, MemberId>, LinkStats>
      member_link_stats_;
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
