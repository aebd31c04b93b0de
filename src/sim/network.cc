#include "sim/network.h"

#include <algorithm>

#include "util/logging.h"

namespace myraft::sim {

namespace {

std::pair<MemberId, MemberId> NormalisedPair(const MemberId& a,
                                             const MemberId& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

std::pair<RegionId, RegionId> NormalisedRegionPair(const RegionId& a,
                                                   const RegionId& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

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

void SimNetwork::RegisterNode(const MemberId& id, const RegionId& region,
                              DeliverFn deliver) {
  nodes_[id] = Node{region, std::move(deliver), next_link_id_++, {}};
}

void SimNetwork::UnregisterNode(const MemberId& id) { nodes_.erase(id); }

RegionId SimNetwork::RegionOf(const MemberId& id) const {
  auto it = nodes_.find(id);
  return it != nodes_.end() ? it->second.region : RegionId();
}

void SimNetwork::SetRegionLatency(const RegionId& a, const RegionId& b,
                                  LatencyModel latency) {
  region_latency_[NormalisedRegionPair(a, b)] = latency;
}

void SimNetwork::SetNodeUp(const MemberId& id, bool up) {
  if (up) {
    down_.erase(id);
  } else {
    down_.insert(id);
  }
}

void SimNetwork::SetLinkCut(const MemberId& a, const MemberId& b, bool cut) {
  if (cut) {
    cut_links_.insert(NormalisedPair(a, b));
  } else {
    cut_links_.erase(NormalisedPair(a, b));
  }
}

void SimNetwork::SetLinkOneWayCut(const MemberId& from, const MemberId& to,
                                  bool cut) {
  if (cut) {
    one_way_cuts_.insert({from, to});
  } else {
    one_way_cuts_.erase({from, to});
  }
}

void SimNetwork::HealAllFaults() {
  cut_links_.clear();
  one_way_cuts_.clear();
  partitioned_regions_.clear();
  extra_delay_.clear();
  replication_lag_.clear();
  options_.loss_rate = 0.0;
  options_.duplicate_rate = 0.0;
  options_.chaos_jitter_micros = 0;
}

void SimNetwork::SetRegionPartitioned(const RegionId& region,
                                      bool partitioned) {
  if (partitioned) {
    partitioned_regions_.insert(region);
  } else {
    partitioned_regions_.erase(region);
  }
}

void SimNetwork::SetNodeExtraDelay(const MemberId& id, uint64_t extra_micros) {
  if (extra_micros == 0) {
    extra_delay_.erase(id);
  } else {
    extra_delay_[id] = extra_micros;
  }
}

void SimNetwork::SetNodeReplicationLag(const MemberId& id,
                                       uint64_t extra_micros) {
  if (extra_micros == 0) {
    replication_lag_.erase(id);
  } else {
    replication_lag_[id] = extra_micros;
  }
}

bool SimNetwork::LinkCutBetween(const MemberId& a, const MemberId& b) const {
  if (cut_links_.count(NormalisedPair(a, b)) > 0) return true;
  if (!partitioned_regions_.empty()) {
    const RegionId ra = RegionOf(a);
    const RegionId rb = RegionOf(b);
    if (ra != rb && (partitioned_regions_.count(ra) > 0 ||
                     partitioned_regions_.count(rb) > 0)) {
      return true;
    }
  }
  return false;
}

uint64_t SimNetwork::SampleLatency(const RegionId& from, const RegionId& to) {
  LatencyModel model;
  auto it = region_latency_.find(NormalisedRegionPair(from, to));
  if (it != region_latency_.end()) {
    model = it->second;
  } else {
    model = (from == to) ? options_.same_region : options_.cross_region;
  }
  uint64_t latency = model.base_micros;
  if (model.jitter_micros > 0) {
    latency += loop_->rng()->Uniform(model.jitter_micros);
  }
  return latency;
}

uint64_t SimNetwork::FifoArrival(Node* from, uint32_t dest_link_id,
                                 uint64_t arrival_micros) {
  LinkTail* slot = nullptr;
  LinkTail* expired = nullptr;
  for (LinkTail& tail : from->link_tails) {
    if (tail.dest_link_id == dest_link_id) {
      slot = &tail;
      break;
    }
    if (expired == nullptr && tail.arrival_micros <= loop_->now()) {
      expired = &tail;
    }
  }
  if (slot == nullptr) slot = expired;
  if (slot == nullptr) {
    from->link_tails.push_back(LinkTail{dest_link_id, 0});
    slot = &from->link_tails.back();
  }
  // An expired slot's arrival is in the past, so the clamp is a no-op.
  arrival_micros = std::max(arrival_micros, slot->arrival_micros);
  *slot = LinkTail{dest_link_id, arrival_micros};
  return arrival_micros;
}

void SimNetwork::CountDrop(metrics::Counter* reason_counter) {
  ++dropped_;
  if (m_dropped_ != nullptr) m_dropped_->Increment();
  if (reason_counter != nullptr) reason_counter->Increment();
}

void SimNetwork::ScheduleDelivery(const MemberId& from, const MemberId& dest,
                                  uint64_t latency, Message message) {
  loop_->Schedule(latency, [this, from, dest, msg = std::move(message)]() {
    auto it = nodes_.find(dest);
    // Re-check liveness at delivery time (node may have crashed in
    // flight).
    if (it == nodes_.end() || down_.count(dest) > 0) {
      CountDrop(m_dropped_in_flight_);
      return;
    }
    it->second.deliver(from, msg);
  });
}

void SimNetwork::Send(const MemberId& from, Message message) {
  // Deliver to the physical next hop (a proxy relay when routed).
  const MemberId dest = MessageNextHop(message);
  auto from_it = nodes_.find(from);
  auto dest_it = nodes_.find(dest);
  if (from_it == nodes_.end() || dest_it == nodes_.end() ||
      down_.count(from) > 0 || down_.count(dest) > 0) {
    CountDrop(m_dropped_node_down_);
    return;
  }
  if (LinkCutBetween(from, dest) || one_way_cuts_.count({from, dest}) > 0) {
    CountDrop(m_dropped_link_cut_);
    return;
  }
  if (options_.loss_rate > 0 && loop_->rng()->Bernoulli(options_.loss_rate)) {
    CountDrop(m_dropped_loss_);
    return;
  }

  const RegionId from_region = from_it->second.region;
  const RegionId dest_region = dest_it->second.region;
  const uint64_t bytes = MessageWireBytes(message);
  LinkStats& stats = link_stats_[{from_region, dest_region}];
  ++stats.messages;
  stats.bytes += bytes;
  LinkStats& member_stats = member_link_stats_[{from, dest}];
  ++member_stats.messages;
  member_stats.bytes += bytes;

  uint64_t latency = SampleLatency(from_region, dest_region);
  auto delay_it = extra_delay_.find(from);
  if (delay_it != extra_delay_.end()) latency += delay_it->second;
  delay_it = extra_delay_.find(dest);
  if (delay_it != extra_delay_.end()) latency += delay_it->second;
  // FIFO link: never arrive before the previous message on this link.
  const uint64_t now = loop_->now();
  uint64_t arrival =
      FifoArrival(&from_it->second, dest_it->second.link_id, now + latency);
  if (!replication_lag_.empty()) {
    // Host backlog, not transit: past the clamp, so the control plane on
    // the same link overtakes lagged data appends.
    auto lag_it = replication_lag_.find(dest);
    if (lag_it != replication_lag_.end()) {
      const auto* request = std::get_if<AppendEntriesRequest>(&message);
      if (request != nullptr && !request->entries.empty()) {
        arrival += lag_it->second;
      }
    }
  }
  if (options_.chaos_jitter_micros > 0) {
    // The reordering fault: per-message jitter outside the FIFO order.
    arrival += loop_->rng()->Uniform(options_.chaos_jitter_micros);
  }

  if (options_.duplicate_rate > 0 &&
      loop_->rng()->Bernoulli(options_.duplicate_rate)) {
    if (m_duplicated_ != nullptr) m_duplicated_->Increment();
    uint64_t dup_latency = SampleLatency(from_region, dest_region);
    if (options_.chaos_jitter_micros > 0) {
      dup_latency += loop_->rng()->Uniform(options_.chaos_jitter_micros);
    }
    ScheduleDelivery(from, dest, dup_latency, message);
  }
  ScheduleDelivery(from, dest, arrival - now, std::move(message));
}

uint64_t SimNetwork::CrossRegionBytes() const {
  uint64_t total = 0;
  for (const auto& [pair, stats] : link_stats_) {
    if (pair.first != pair.second) total += stats.bytes;
  }
  return total;
}

uint64_t SimNetwork::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [pair, stats] : link_stats_) total += stats.bytes;
  return total;
}

void SimNetwork::ResetStats() {
  link_stats_.clear();
  member_link_stats_.clear();
  dropped_ = 0;
}

}  // namespace myraft::sim
