#include "sim/client.h"

namespace myraft::sim {

namespace {

/// Follower-read steering (§13): maximum replication lag, in entries, a
/// follower may have and still be offered client reads.
constexpr uint64_t kReadStalenessBudgetEntries = 1'000;

trace::TracerOptions ClientTracerOptions(const SimClient::Options& options,
                                         EventLoop* loop) {
  trace::TracerOptions out;
  out.node = options.name;
  // Keep client-minted ids disjoint from every node's (numeric server ids
  // are small and dense).
  out.id_salt = options.trace_id_salt;
  out.capacity = options.trace_capacity;
  out.clock = loop->clock();
  return out;
}

}  // namespace

SimClient::SimClient(Shard* shard, Options options)
    : shard_(shard),
      options_(std::move(options)),
      tracer_(ClientTracerOptions(options_, shard->loop())) {}

bool SimClient::NodeUp(const MemberId& id) {
  SimNode* node = shard_->FindNode(id);
  return node != nullptr && node->up();
}

void SimClient::ClientWrite(const std::string& key, const std::string& value,
                            ClientWriteCallback done,
                            const MemberId& target) {
  MemberId dest = target;
  if (dest.empty()) {
    auto primary = shard_->discovery()->GetPrimary(shard_->replicaset());
    if (!primary.has_value()) {
      done(ClientWriteResult{
          Status::ServiceUnavailable("no primary in service discovery"), 0,
          {}, {}});
      return;
    }
    dest = *primary;
  }

  // Root span of the transaction's cross-node trace; every server-side
  // commit/replication/apply span stitches under it via the propagated
  // TraceContext.
  const uint64_t trace = tracer_.NextTraceId();
  const uint64_t span = tracer_.BeginSpan("client", "write", trace, 0,
                                          "key", key, "dest", dest);
  RunClientRequest<ClientWriteResult>(
      shard_->loop(), options_.model,
      {"client write timed out", "primary unreachable",
       "primary died mid-request", [this, dest]() { return NodeUp(dest); },
       [this, dest, row = ClientRow(key, value), trace,
        span](std::function<void(ClientWriteResult)> reply) mutable {
         std::vector<binlog::RowOperation> ops;
         ops.push_back(std::move(row));
         shard_->FindNode(dest)->server()->SubmitWrite(
             std::move(ops),
             [reply = std::move(reply)](const server::WriteResult& result) {
               reply(ClientWriteResult{result.status, 0, result.gtid,
                                       result.opid});
             },
             trace::TraceContext{trace, span});
       },
       [this, span, done = std::move(done)](ClientWriteResult result) {
         tracer_.EndSpan(span,
                         result.status.ok() ? "ok" : result.status.ToString());
         done(result);
       }});
}

ClientWriteResult SimClient::SyncWrite(const std::string& key,
                                       const std::string& value,
                                       uint64_t timeout_micros) {
  return AwaitClientResult<ClientWriteResult>(
      shard_->loop(), timeout_micros, "SyncWrite: no completion",
      [&](ClientWriteCallback done) {
        ClientWrite(key, value, std::move(done));
      });
}

void SimClient::ClientRead(const std::string& key,
                           ClientReadOptions read_options,
                           ReadClientCallback done) {
  MemberId dest = read_options.target;
  const RegionId client_region = read_options.client_region.empty()
                                     ? shard_->home_region()
                                     : read_options.client_region;
  if (dest.empty()) {
    auto primary = shard_->discovery()->GetPrimary(shard_->replicaset());
    if (!primary.has_value()) {
      done(ClientReadResult{
          Status::ServiceUnavailable("no primary in service discovery"), 0,
          std::nullopt, false, 0, MemberId()});
      return;
    }
    dest = *primary;
    if (read_options.mode == ReadMode::kFollower) {
      // The primary's router steers: its replication bookkeeping knows
      // which same-region member fits the staleness budget (§13).
      SimNode* primary_node = shard_->FindNode(*primary);
      if (primary_node != nullptr && primary_node->up()) {
        const MemberId steered = primary_node->router()->ChooseReadTarget(
            client_region, kReadStalenessBudgetEntries);
        if (!steered.empty()) dest = steered;
      }
    }
  }

  const uint64_t trace = tracer_.NextTraceId();
  const uint64_t span = tracer_.BeginSpan("client", "read", trace, 0,
                                          "key", key, "dest", dest);
  RunClientRequest<ClientReadResult>(
      shard_->loop(), options_.model,
      {"client read timed out", "read target unreachable",
       "read target died mid-request",
       [this, dest]() { return NodeUp(dest); },
       [this, dest, key, mode = read_options.mode,
        min_index = read_options.min_index](
           std::function<void(ClientReadResult)> reply) {
         auto answer = [reply = std::move(reply)](
                           const server::ReadResult& r, bool lease) {
           reply(ClientReadResult{r.status, 0, r.value, lease,
                                  r.applied_index, MemberId()});
         };
         SimNode* node = shard_->FindNode(dest);
         if (mode == ReadMode::kFollower) {
           // Read-your-writes gate: parks until the applier covers the
           // client's last-seen index (§13).
           node->server()->SubmitRead(
               kClientTable, key, min_index,
               [answer = std::move(answer)](const server::ReadResult& r) {
                 answer(r, false);
               });
           return;
         }
         // Leader read: establish the read index (lease fast path, or a
         // ReadIndex quorum round), then serve at that index.
         node->server()->consensus()->LinearizableRead(
             [node, key, answer = std::move(answer)](
                 const raft::RaftConsensus::ReadResult& rr) {
               if (!rr.status.ok()) {
                 answer(server::ReadResult{rr.status, std::nullopt, 0}, false);
                 return;
               }
               node->server()->SubmitRead(
                   kClientTable, key, rr.read_index.index,
                   [answer, lease = rr.served_by_lease](
                       const server::ReadResult& r) { answer(r, lease); });
             });
       },
       [this, span, dest, done = std::move(done)](ClientReadResult result) {
         tracer_.EndSpan(span,
                         result.status.ok() ? "ok" : result.status.ToString());
         result.served_by = dest;
         done(result);
       }});
}

ClientReadResult SimClient::SyncRead(const std::string& key,
                                     ClientReadOptions read_options,
                                     uint64_t timeout_micros) {
  return AwaitClientResult<ClientReadResult>(
      shard_->loop(), timeout_micros, "SyncRead: no completion",
      [&](ReadClientCallback done) {
        ClientRead(key, read_options, std::move(done));
      });
}

DowntimeResult SimClient::MeasureWriteDowntime(
    std::function<void()> disruption, uint64_t probe_interval_micros,
    uint64_t timeout_micros, bool expect_outage) {
  return MeasureDowntime(
      shard_->loop(),
      [this](const std::string& key, std::function<void(bool)> report) {
        ClientWrite(key, "v", [report](const ClientWriteResult& r) {
          report(r.status.ok());
        });
      },
      std::move(disruption), probe_interval_micros, timeout_micros,
      expect_outage);
}

void SimClient::NoteCrash(const MemberId& id, SimNode::CrashMode mode) {
  tracer_.Instant("fault", "crash", 0,
                  "node=" + id +
                      (mode == SimNode::CrashMode::kLoseUnsynced
                           ? " mode=lose_unsynced"
                           : ""));
}

}  // namespace myraft::sim
