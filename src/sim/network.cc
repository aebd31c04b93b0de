#include "sim/network.h"

#include <algorithm>

#include "util/logging.h"

namespace myraft::sim {

SimNetwork::SimNetwork(EventLoop* loop, NetworkOptions options)
    : loop_(loop), options_(options) {
  if (options_.metrics != nullptr) {
    m_dropped_ = options_.metrics->GetCounter("net.dropped");
    m_dropped_node_down_ =
        options_.metrics->GetCounter("net.dropped.node_down");
    m_dropped_link_cut_ =
        options_.metrics->GetCounter("net.dropped.link_cut");
    m_dropped_loss_ = options_.metrics->GetCounter("net.dropped.loss");
    m_dropped_in_flight_ =
        options_.metrics->GetCounter("net.dropped.in_flight");
    m_duplicated_ = options_.metrics->GetCounter("net.duplicated");
  }
}

uint32_t SimNetwork::SlotFor(const MemberId& id) {
  auto [it, inserted] =
      slot_index_.emplace(id, static_cast<uint32_t>(slots_.size()));
  if (inserted) {
    slots_.emplace_back();
    slots_.back().id = id;
  }
  return it->second;
}

int64_t SimNetwork::FindSlot(const MemberId& id) const {
  auto it = slot_index_.find(id);
  return it == slot_index_.end() ? int64_t{-1} : int64_t{it->second};
}

uint32_t SimNetwork::RegionIndex(const RegionId& region) {
  auto it = std::find(region_names_.begin(), region_names_.end(), region);
  if (it != region_names_.end()) {
    return static_cast<uint32_t>(it - region_names_.begin());
  }
  region_names_.push_back(region);
  region_partitioned_.push_back(0);
  return static_cast<uint32_t>(region_names_.size() - 1);
}

uint32_t SimNetwork::RegisterNode(const MemberId& id, const RegionId& region,
                                  DeliverFn deliver) {
  const uint32_t region_index = RegionIndex(region);
  const uint32_t index = SlotFor(id);
  Slot& slot = slots_[index];
  slot.registered = true;
  slot.region = region_index;
  slot.registration = next_registration_++;
  slot.deliver = std::move(deliver);
  // The new process's outbound connections are new too: no FIFO clamp
  // behind what its previous incarnation sent (registrations start at 1).
  for (Peer& peer : slot.peers) peer.dest_registration = 0;
  return index;
}

void SimNetwork::UnregisterNode(const MemberId& id) {
  const int64_t index = FindSlot(id);
  if (index < 0) return;
  Slot& slot = slots_[index];
  slot.registered = false;
  slot.deliver = nullptr;
}

bool SimNetwork::IsRegistered(const MemberId& id) const {
  const int64_t index = FindSlot(id);
  return index >= 0 && slots_[index].registered;
}

bool SimNetwork::IsNodeUp(const MemberId& id) const {
  const int64_t index = FindSlot(id);
  return index < 0 || slots_[index].up;
}

RegionId SimNetwork::RegionOf(const MemberId& id) const {
  const int64_t index = FindSlot(id);
  if (index < 0 || !slots_[index].registered) return RegionId();
  return region_names_[slots_[index].region];
}

void SimNetwork::SetRegionLatency(const RegionId& a, const RegionId& b,
                                  LatencyModel latency) {
  const uint32_t ia = RegionIndex(a);
  const uint32_t ib = RegionIndex(b);
  const LatencyOverride wanted{std::min(ia, ib), std::max(ia, ib), latency};
  for (LatencyOverride& o : latency_overrides_) {
    if (o.a == wanted.a && o.b == wanted.b) {
      o.latency = latency;
      return;
    }
  }
  latency_overrides_.push_back(wanted);
}

void SimNetwork::SetNodeUp(const MemberId& id, bool up) {
  slots_[SlotFor(id)].up = up;
}

void SimNetwork::SetLinkCut(const MemberId& a, const MemberId& b, bool cut) {
  const uint32_t sa = SlotFor(a);
  const uint32_t sb = SlotFor(b);
  const uint64_t key = PairKey(std::min(sa, sb), std::max(sa, sb));
  if (cut) {
    cut_links_.insert(key);
  } else {
    cut_links_.erase(key);
  }
}

void SimNetwork::SetLinkOneWayCut(const MemberId& from, const MemberId& to,
                                  bool cut) {
  const uint64_t key = PairKey(SlotFor(from), SlotFor(to));
  if (cut) {
    one_way_cuts_.insert(key);
  } else {
    one_way_cuts_.erase(key);
  }
}

void SimNetwork::HealAllFaults() {
  cut_links_.clear();
  one_way_cuts_.clear();
  std::fill(region_partitioned_.begin(), region_partitioned_.end(), 0);
  partitioned_regions_ = 0;
  for (Slot& slot : slots_) {
    slot.extra_delay_micros = 0;
    slot.replication_lag_micros = 0;
  }
  options_.loss_rate = 0.0;
  options_.duplicate_rate = 0.0;
  options_.chaos_jitter_micros = 0;
}

void SimNetwork::SetRegionPartitioned(const RegionId& region,
                                      bool partitioned) {
  char& flag = region_partitioned_[RegionIndex(region)];
  if (flag == static_cast<char>(partitioned)) return;
  flag = partitioned;
  if (partitioned) {
    ++partitioned_regions_;
  } else {
    --partitioned_regions_;
  }
}

void SimNetwork::SetNodeExtraDelay(const MemberId& id, uint64_t extra_micros) {
  slots_[SlotFor(id)].extra_delay_micros = extra_micros;
}

void SimNetwork::SetNodeReplicationLag(const MemberId& id,
                                       uint64_t extra_micros) {
  slots_[SlotFor(id)].replication_lag_micros = extra_micros;
}

bool SimNetwork::LinkCut(uint32_t from, uint32_t to) const {
  if (!cut_links_.empty() &&
      cut_links_.count(PairKey(std::min(from, to), std::max(from, to))) > 0) {
    return true;
  }
  if (!one_way_cuts_.empty() && one_way_cuts_.count(PairKey(from, to)) > 0) {
    return true;
  }
  if (partitioned_regions_ > 0) {
    const uint32_t ra = slots_[from].region;
    const uint32_t rb = slots_[to].region;
    if (ra != rb && (region_partitioned_[ra] || region_partitioned_[rb])) {
      return true;
    }
  }
  return false;
}

uint64_t SimNetwork::SampleLatency(uint32_t from_region, uint32_t to_region) {
  const LatencyModel* model = from_region == to_region
                                  ? &options_.same_region
                                  : &options_.cross_region;
  const uint32_t a = std::min(from_region, to_region);
  const uint32_t b = std::max(from_region, to_region);
  for (const LatencyOverride& o : latency_overrides_) {
    if (o.a == a && o.b == b) {
      model = &o.latency;
      break;
    }
  }
  uint64_t latency = model->base_micros;
  if (model->jitter_micros > 0) {
    latency += loop_->rng()->Uniform(model->jitter_micros);
  }
  return latency;
}

SimNetwork::Peer* SimNetwork::PeerTo(Slot* from, const MemberId& dest) {
  for (Peer& peer : from->peers) {
    if (*peer.dest_id == dest) return &peer;
  }
  const int64_t index = FindSlot(dest);
  if (index < 0) return nullptr;
  Peer& peer = from->peers.emplace_back();
  peer.dest = static_cast<uint32_t>(index);
  peer.dest_id = &slots_[index].id;
  return &peer;
}

void SimNetwork::CountDrop(metrics::Counter* reason_counter) {
  ++dropped_;
  if (m_dropped_ != nullptr) m_dropped_->Increment();
  if (reason_counter != nullptr) reason_counter->Increment();
}

void SimNetwork::ScheduleDelivery(uint32_t from, uint32_t dest,
                                  uint32_t registration, uint64_t latency,
                                  Message message) {
  loop_->Schedule(latency, [this, from, dest, registration,
                            msg = std::move(message)]() {
    const Slot& to = slots_[dest];
    // Re-check at delivery time: the node may have crashed in flight,
    // and a restart is a new registration the message was never sent to.
    if (!to.registered || to.registration != registration || !to.up) {
      CountDrop(m_dropped_in_flight_);
      return;
    }
    to.deliver(slots_[from].id, msg);
  });
}

void SimNetwork::Send(uint32_t from_slot, Message message) {
  // Deliver to the physical next hop (a proxy relay when routed).
  Slot& from = slots_[from_slot];
  Peer* peer = PeerTo(&from, MessageNextHop(message));
  if (peer == nullptr) {
    CountDrop(m_dropped_node_down_);
    return;
  }
  const uint32_t dest_slot = peer->dest;
  const Slot& dest = slots_[dest_slot];
  if (!from.registered || !dest.registered || !from.up || !dest.up) {
    CountDrop(m_dropped_node_down_);
    return;
  }
  if (LinkCut(from_slot, dest_slot)) {
    CountDrop(m_dropped_link_cut_);
    return;
  }
  if (options_.loss_rate > 0 && loop_->rng()->Bernoulli(options_.loss_rate)) {
    CountDrop(m_dropped_loss_);
    return;
  }

  ++peer->stats.messages;
  peer->stats.bytes += MessageWireBytes(message);

  uint64_t latency = SampleLatency(from.region, dest.region);
  latency += from.extra_delay_micros + dest.extra_delay_micros;
  // FIFO link: never arrive before the previous message on this
  // connection (a new registration of `dest` is a new connection).
  const uint64_t now = loop_->now();
  uint64_t arrival = now + latency;
  if (peer->dest_registration == dest.registration) {
    arrival = std::max(arrival, peer->arrival_micros);
  }
  peer->dest_registration = dest.registration;
  peer->arrival_micros = arrival;
  if (dest.replication_lag_micros > 0) {
    // Host backlog, not transit: past the clamp, so the control plane on
    // the same link overtakes lagged data appends.
    const auto* request = std::get_if<AppendEntriesRequest>(&message);
    if (request != nullptr && !request->entries.empty()) {
      arrival += dest.replication_lag_micros;
    }
  }
  if (options_.chaos_jitter_micros > 0) {
    // The reordering fault: per-message jitter outside the FIFO order.
    arrival += loop_->rng()->Uniform(options_.chaos_jitter_micros);
  }

  if (options_.duplicate_rate > 0 &&
      loop_->rng()->Bernoulli(options_.duplicate_rate)) {
    if (m_duplicated_ != nullptr) m_duplicated_->Increment();
    uint64_t dup_latency = SampleLatency(from.region, dest.region);
    if (options_.chaos_jitter_micros > 0) {
      dup_latency += loop_->rng()->Uniform(options_.chaos_jitter_micros);
    }
    ScheduleDelivery(from_slot, dest_slot, dest.registration, dup_latency,
                     message);
  }
  ScheduleDelivery(from_slot, dest_slot, dest.registration, arrival - now,
                   std::move(message));
}

const std::map<std::pair<RegionId, RegionId>, SimNetwork::LinkStats>&
SimNetwork::link_stats() const {
  link_stats_.clear();
  for (const Slot& slot : slots_) {
    for (const Peer& peer : slot.peers) {
      if (peer.stats.messages == 0) continue;
      LinkStats& stats = link_stats_[{region_names_[slot.region],
                                      region_names_[slots_[peer.dest].region]}];
      stats.messages += peer.stats.messages;
      stats.bytes += peer.stats.bytes;
    }
  }
  return link_stats_;
}

const std::map<std::pair<MemberId, MemberId>, SimNetwork::LinkStats>&
SimNetwork::member_link_stats() const {
  member_link_stats_.clear();
  for (const Slot& slot : slots_) {
    for (const Peer& peer : slot.peers) {
      if (peer.stats.messages > 0) {
        member_link_stats_[{slot.id, slots_[peer.dest].id}] = peer.stats;
      }
    }
  }
  return member_link_stats_;
}

uint64_t SimNetwork::CrossRegionBytes() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    for (const Peer& peer : slot.peers) {
      if (slot.region != slots_[peer.dest].region) total += peer.stats.bytes;
    }
  }
  return total;
}

uint64_t SimNetwork::TotalBytes() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) {
    for (const Peer& peer : slot.peers) total += peer.stats.bytes;
  }
  return total;
}

void SimNetwork::ResetStats() {
  for (Slot& slot : slots_) {
    for (Peer& peer : slot.peers) peer.stats = LinkStats{};
  }
  dropped_ = 0;
}

}  // namespace myraft::sim
