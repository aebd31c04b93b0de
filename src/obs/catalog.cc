#include "obs/catalog.h"

#include <algorithm>

namespace myraft::obs {

namespace {

// Kept sorted by name (verified by a static check in MetricCatalog()'s
// first call would be overkill — the obs test sorts and compares).
const MetricInfo kCatalog[] = {
    {"binlog.bytes_written", "counter", "binlog",
     "Payload bytes appended to the binlog"},
    {"binlog.entries_appended", "counter", "binlog",
     "Log entries appended (GTID events + rotations)"},
    {"binlog.purged_files", "counter", "binlog",
     "Binlog files removed by purge"},
    {"binlog.purges", "counter", "binlog", "Purge operations executed"},
    {"binlog.rotations", "counter", "binlog",
     "Binlog file rotations (size threshold or promotion)"},
    {"binlog.syncs", "counter", "binlog", "Binlog fsync calls issued"},
    {"log_cache.compressed_bytes", "gauge", "raft",
     "Resident compressed bytes in the log cache, memoized on first "
     "compressed send"},
    {"log_cache.compressions", "counter", "raft",
     "Log-cache entries compressed (once each, on first compressed send)"},
    {"log_cache.evictions", "counter", "raft",
     "Log-cache entries evicted under memory pressure"},
    {"log_cache.hits", "counter", "raft",
     "Replication reads served from the log cache"},
    {"log_cache.misses", "counter", "raft",
     "Replication reads that fell through to the binlog"},
    {"log_cache.uncompressed_bytes", "gauge", "raft",
     "Resident raw payload bytes in the log cache"},
    {"net.dropped", "counter", "net", "Messages dropped, all causes"},
    {"net.dropped.in_flight", "counter", "net",
     "In-flight messages dropped when their link or endpoint died"},
    {"net.dropped.link_cut", "counter", "net",
     "Messages dropped on partitioned links"},
    {"net.dropped.loss", "counter", "net",
     "Messages dropped by random loss injection"},
    {"net.dropped.node_down", "counter", "net",
     "Messages dropped because the destination node was down"},
    {"net.duplicated", "counter", "net",
     "Messages duplicated by duplication injection"},
    {"obs.bundles_captured", "counter", "obs",
     "Flight-recorder bundles captured"},
    {"obs.triggers_suppressed", "counter", "obs",
     "Flight-recorder triggers suppressed by the per-kind cooldown"},
    {"proxy.bytes_relayed", "counter", "proxy",
     "Payload bytes carried on relay hops"},
    {"proxy.degraded_to_heartbeat", "counter", "proxy",
     "Relay legs degraded to heartbeat-only under backpressure"},
    {"proxy.direct_requests", "counter", "proxy",
     "AppendEntries sent directly (no relay in path)"},
    {"proxy.proxied_requests", "counter", "proxy",
     "AppendEntries redirected through a relay node"},
    {"proxy.reads_routed_follower", "counter", "proxy",
     "Client reads routed to a follower replica"},
    {"proxy.reads_routed_leader", "counter", "proxy",
     "Client reads routed to the leader"},
    {"proxy.reconstitute_wait_us", "histogram", "proxy",
     "Time a PROXY_OP waits at the final relay until forwarded or degraded"},
    {"proxy.reconstitutions", "counter", "proxy",
     "Relay payloads reconstituted from the local log"},
    {"proxy.relayed_requests", "counter", "proxy",
     "Relay-hop requests forwarded toward their final target"},
    {"proxy.relayed_responses", "counter", "proxy",
     "Relay-hop responses forwarded back toward the leader"},
    {"proxy.route_arounds", "counter", "proxy",
     "Routes recomputed around a failed relay"},
    {"raft.append_rejections", "counter", "raft",
     "AppendEntries rejected for log mismatch or stale term"},
    {"raft.cache_fallback_reads", "counter", "raft",
     "Replication reads that bypassed the cache to the binlog"},
    {"raft.commit_advance_latency_us", "histogram", "raft",
     "Append-to-commit latency per entry"},
    {"raft.duplicate_entries_received", "counter", "raft",
     "Entries a follower received that its log already held"},
    {"raft.elections_started", "counter", "raft",
     "Real elections started (vote requests sent)"},
    {"raft.elections_won", "counter", "raft", "Elections won"},
    {"raft.entries_replicated", "counter", "raft",
     "Entries shipped inside AppendEntries batches"},
    {"raft.group_sync_coalesced", "counter", "raft",
     "Fsync requests absorbed into an in-progress group sync"},
    {"raft.group_syncs", "counter", "raft",
     "Group fsync operations actually issued"},
    {"raft.heartbeats_sent", "counter", "raft",
     "Empty AppendEntries heartbeats sent"},
    {"raft.inflight_window_batches", "histogram", "raft",
     "In-flight pipeline depth (batches) at dispatch time"},
    {"raft.lease_renewals", "counter", "raft",
     "Leader-lease renewal rounds acknowledged by quorum"},
    {"raft.marker_only_heartbeats", "counter", "raft",
     "Heartbeats carrying only an updated commit marker"},
    {"raft.mock_elections_started", "counter", "raft",
     "Zero-downtime mock elections started (logtailer handoff)"},
    {"raft.peer_rtt_us", "histogram", "raft",
     "Per-batch AppendEntries round-trip time, recorded at ack"},
    {"raft.pipeline_stalls", "counter", "raft",
     "Pipeline stalls (window full, peer unresponsive)"},
    {"raft.pre_votes_started", "counter", "raft", "Pre-vote rounds started"},
    {"raft.reads_lease", "counter", "raft",
     "Linearizable reads served off the leader lease"},
    {"raft.reads_quorum", "counter", "raft",
     "Linearizable reads served via a quorum round-trip"},
    {"raft.reads_timed_out", "counter", "raft",
     "Linearizable reads abandoned at their deadline"},
    {"raft.stale_responses_ignored", "counter", "raft",
     "AppendEntries responses discarded as stale"},
    {"raft.stall_duration_us", "histogram", "raft",
     "Duration of each pipeline stall"},
    {"raft.step_downs", "counter", "raft",
     "Leaders stepping down on seeing a higher term"},
    {"raft.window_rewinds", "counter", "raft",
     "Replication windows rewound after a rejection"},
    {"raft.wire_batches_compressed", "counter", "raft",
     "AppendEntries batches shipped compressed"},
    {"semisync.commits_degraded_to_async", "counter", "semisync",
     "Semi-sync commits that gave up on the ack and committed async"},
    {"semisync.detections", "counter", "semisync",
     "Dead primaries the automation's health checker declared"},
    {"semisync.failovers_completed", "counter", "semisync",
     "Dead-primary failovers the automation published"},
    {"semisync.healed_transactions", "counter", "semisync",
     "Transactions truncated from a diverged replica tail (log healing)"},
    {"semisync.promotions_completed", "counter", "semisync",
     "Graceful promotions the automation published"},
    {"semisync.step_retries", "counter", "semisync",
     "Automation workflow steps that failed and were retried"},
    {"server.applier_concurrency", "histogram", "server",
     "Concurrently applied transactions per applier round"},
    {"server.applier_conflict_stalls", "counter", "server",
     "Applier dispatch passes stalled on an engine row lock"},
    {"server.applier_dependency_stalls", "counter", "server",
     "Applier dispatch passes stalled on commit-order dependencies"},
    {"server.applier_lag_entries", "gauge", "server",
     "Entries between the commit marker and the applied index"},
    {"server.applier_lag_hist", "histogram", "server",
     "Distribution of applier lag sampled at apply time"},
    {"server.applier_transactions_applied", "counter", "server",
     "Transactions applied to the storage engine"},
    {"server.commit_stage_consensus_wait_us", "histogram", "server",
     "Commit stage: waiting for raft quorum"},
    {"server.commit_stage_engine_commit_us", "histogram", "server",
     "Commit stage: storage-engine commit"},
    {"server.commit_stage_flush_us", "histogram", "server",
     "Commit stage: binlog flush + fsync"},
    {"server.demotions", "counter", "server",
     "Primary demotions (step-down, higher term)"},
    {"server.engine_checkpoints", "counter", "server",
     "Storage-engine checkpoints taken"},
    {"server.promotion_latency_us", "histogram", "server",
     "Election win to writes-enabled promotion latency"},
    {"server.promotions_completed", "counter", "server",
     "Promotions completed (applier caught up, writes enabled)"},
    {"server.read_wait_us", "histogram", "server",
     "Read gating wait before serving"},
    {"server.reads_gated", "counter", "server",
     "Reads parked waiting for the applied index to catch up"},
    {"server.reads_served", "counter", "server", "Reads served"},
    {"server.writes_aborted_on_demotion", "counter", "server",
     "In-flight writes aborted when the primary demoted"},
    {"server.writes_accepted", "counter", "server",
     "Writes admitted into the commit pipeline"},
    {"server.writes_committed", "counter", "server",
     "Writes acknowledged to clients as committed"},
    {"server.writes_rejected_conflict", "counter", "server",
     "Writes rejected for write-set conflicts"},
    {"server.writes_rejected_read_only", "counter", "server",
     "Writes rejected on a non-primary"},
    {"trace.dropped", "counter", "trace",
     "Trace records dropped by ring-buffer overflow"},
};

}  // namespace

const std::vector<MetricInfo>& MetricCatalog() {
  static const std::vector<MetricInfo> catalog(std::begin(kCatalog),
                                               std::end(kCatalog));
  return catalog;
}

const MetricInfo* FindMetricInfo(const std::string& name) {
  const auto& catalog = MetricCatalog();
  auto it = std::lower_bound(
      catalog.begin(), catalog.end(), name,
      [](const MetricInfo& info, const std::string& key) {
        return key.compare(info.name) > 0;
      });
  if (it == catalog.end() || name != it->name) return nullptr;
  return &*it;
}

std::string MetricCatalogMarkdown() {
  std::string out =
      "| Metric | Kind | Layer | Description |\n"
      "|---|---|---|---|\n";
  for (const auto& info : MetricCatalog()) {
    out.append("| `");
    out.append(info.name);
    out.append("` | ");
    out.append(info.kind);
    out.append(" | ");
    out.append(info.layer);
    out.append(" | ");
    out.append(info.description);
    out.append(" |\n");
  }
  return out;
}

}  // namespace myraft::obs
