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

void SimClient::ClientWrite(const std::string& key, const std::string& value,
                            ClientCallback done, const MemberId& target) {
  EventLoop* loop = shard_->loop();
  const uint64_t issued_at = loop->now();
  MemberId dest = target;
  if (dest.empty()) {
    auto primary = shard_->discovery()->GetPrimary(shard_->replicaset());
    if (!primary.has_value()) {
      done(ClientWriteResult{
          Status::ServiceUnavailable("no primary in service discovery"), 0});
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

  // Shared completion guard: the first of {server response, client
  // timeout} wins.
  auto responded = std::make_shared<bool>(false);
  auto finish = [this, done, issued_at, responded, span, loop](
                    Status status, binlog::Gtid gtid = binlog::Gtid{},
                    OpId opid = OpId{}) {
    if (*responded) return;
    *responded = true;
    tracer_.EndSpan(span, status.ok() ? "ok" : status.ToString());
    ClientWriteResult result;
    result.status = std::move(status);
    result.latency_micros = loop->now() - issued_at;
    result.gtid = gtid;
    result.opid = opid;
    done(result);
  };
  loop->Schedule(options_.model.timeout_micros, [finish]() {
    finish(Status::TimedOut("client write timed out"));
  });

  loop->Schedule(options_.model.one_way_micros, [this, dest, key, value,
                                                 finish, trace, span, loop]() {
    SimNode* node = shard_->FindNode(dest);
    if (node == nullptr || !node->up()) {
      // Connection refused travels back to the client.
      loop->Schedule(options_.model.one_way_micros, [finish]() {
        finish(Status::NetworkError("primary unreachable"));
      });
      return;
    }
    uint64_t processing = options_.model.processing_micros;
    if (options_.model.processing_jitter_micros > 0) {
      processing += loop->rng()->Uniform(options_.model.processing_jitter_micros);
    }
    loop->Schedule(processing, [this, node, key, value, finish, trace, span,
                                loop]() {
      if (!node->up()) {
        loop->Schedule(options_.model.one_way_micros, [finish]() {
          finish(Status::NetworkError("primary died mid-request"));
        });
        return;
      }
      binlog::RowOperation op;
      op.kind = binlog::RowOperation::Kind::kInsert;
      op.database = "bench";
      op.table = "kv";
      op.column_count = 2;
      op.after_image = key + "=" + value;
      std::vector<binlog::RowOperation> ops{std::move(op)};
      node->server()->SubmitWrite(
          std::move(ops),
          [this, finish, loop](const server::WriteResult& result) {
            loop->Schedule(options_.model.one_way_micros,
                           [finish, status = result.status,
                            gtid = result.gtid, opid = result.opid]() {
                             finish(status, gtid, opid);
                           });
          },
          trace::TraceContext{trace, span});
    });
  });
}

ClientWriteResult SimClient::SyncWrite(const std::string& key,
                                       const std::string& value,
                                       uint64_t timeout_micros) {
  EventLoop* loop = shard_->loop();
  ClientWriteResult result;
  bool completed = false;
  ClientWrite(key, value, [&](const ClientWriteResult& r) {
    result = r;
    completed = true;
  });
  const uint64_t deadline = loop->now() + timeout_micros;
  while (!completed && loop->now() < deadline) {
    loop->RunFor(1'000);
  }
  if (!completed) {
    result.status = Status::TimedOut("SyncWrite: no completion");
  }
  return result;
}

void SimClient::ClientRead(const std::string& key,
                           ClientReadOptions read_options,
                           ReadClientCallback done) {
  EventLoop* loop = shard_->loop();
  const uint64_t issued_at = loop->now();
  MemberId dest = read_options.target;
  const RegionId client_region = read_options.client_region.empty()
                                     ? shard_->home_region()
                                     : read_options.client_region;
  if (dest.empty()) {
    auto primary = shard_->discovery()->GetPrimary(shard_->replicaset());
    if (!primary.has_value()) {
      done(ClientReadResult{
          Status::ServiceUnavailable("no primary in service discovery")});
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

  auto responded = std::make_shared<bool>(false);
  auto finish = [this, done, issued_at, responded, span, dest, loop](
                    Status status,
                    std::optional<std::string> value = std::nullopt,
                    bool served_by_lease = false,
                    uint64_t applied_index = 0) {
    if (*responded) return;
    *responded = true;
    tracer_.EndSpan(span, status.ok() ? "ok" : status.ToString());
    ClientReadResult result;
    result.status = std::move(status);
    result.latency_micros = loop->now() - issued_at;
    result.value = std::move(value);
    result.served_by_lease = served_by_lease;
    result.applied_index = applied_index;
    result.served_by = dest;
    done(result);
  };
  loop->Schedule(options_.model.timeout_micros, [finish]() {
    finish(Status::TimedOut("client read timed out"));
  });

  const ReadMode mode = read_options.mode;
  const uint64_t min_index = read_options.min_index;
  loop->Schedule(options_.model.one_way_micros, [this, dest, key, finish,
                                                 mode, min_index, loop]() {
    SimNode* node = shard_->FindNode(dest);
    if (node == nullptr || !node->up()) {
      loop->Schedule(options_.model.one_way_micros, [finish]() {
        finish(Status::NetworkError("read target unreachable"));
      });
      return;
    }
    uint64_t processing = options_.model.processing_micros;
    if (options_.model.processing_jitter_micros > 0) {
      processing += loop->rng()->Uniform(options_.model.processing_jitter_micros);
    }
    loop->Schedule(processing, [this, node, key, finish, mode, min_index,
                                loop]() {
      if (!node->up()) {
        loop->Schedule(options_.model.one_way_micros, [finish]() {
          finish(Status::NetworkError("read target died mid-request"));
        });
        return;
      }
      auto reply = [this, finish, loop](Status status,
                                        std::optional<std::string> value,
                                        bool lease, uint64_t applied) {
        loop->Schedule(options_.model.one_way_micros,
                       [finish, status = std::move(status),
                        value = std::move(value), lease, applied]() {
                         finish(status, value, lease, applied);
                       });
      };
      if (mode == ReadMode::kFollower) {
        // Read-your-writes gate: parks until the applier covers the
        // client's last-seen index (§13).
        node->server()->SubmitRead(
            "bench.kv", key, min_index,
            [reply](const server::ReadResult& r) {
              reply(r.status, r.value, false, r.applied_index);
            });
        return;
      }
      // Leader read: establish the read index (lease fast path, or a
      // ReadIndex quorum round), then serve at that index.
      node->server()->consensus()->LinearizableRead(
          [node, key, reply](const raft::RaftConsensus::ReadResult& rr) {
            if (!rr.status.ok()) {
              reply(rr.status, std::nullopt, false, 0);
              return;
            }
            node->server()->SubmitRead(
                "bench.kv", key, rr.read_index.index,
                [reply, lease = rr.served_by_lease](
                    const server::ReadResult& r) {
                  reply(r.status, r.value, lease, r.applied_index);
                });
          });
    });
  });
}

ClientReadResult SimClient::SyncRead(const std::string& key,
                                     ClientReadOptions read_options,
                                     uint64_t timeout_micros) {
  EventLoop* loop = shard_->loop();
  ClientReadResult result;
  bool completed = false;
  ClientRead(key, read_options, [&](const ClientReadResult& r) {
    result = r;
    completed = true;
  });
  const uint64_t deadline = loop->now() + timeout_micros;
  while (!completed && loop->now() < deadline) {
    loop->RunFor(1'000);
  }
  if (!completed) {
    result.status = Status::TimedOut("SyncRead: no completion");
  }
  return result;
}

DowntimeResult SimClient::MeasureWriteDowntime(
    std::function<void()> disruption, uint64_t probe_interval_micros,
    uint64_t timeout_micros, bool expect_outage) {
  DowntimeProbe::Options probe_options;
  probe_options.probe_interval_micros = probe_interval_micros;
  probe_options.timeout_micros = timeout_micros;
  probe_options.expect_outage = expect_outage;
  auto probe_result = DowntimeProbe::Measure(
      shard_->loop(),
      [this](const std::string& key, std::function<void(bool)> report) {
        ClientWrite(key, "v", [report](const ClientWriteResult& r) {
          report(r.status.ok());
        });
      },
      std::move(disruption), []() { return true; }, probe_options);
  DowntimeResult result;
  result.recovered = probe_result.completed;
  result.downtime_micros =
      probe_result.completed ? probe_result.downtime_micros : timeout_micros;
  return result;
}

DowntimeResult SimClient::MeasureReadDowntime(
    std::function<void()> disruption, uint64_t probe_interval_micros,
    uint64_t timeout_micros, bool expect_outage) {
  DowntimeProbe::Options probe_options;
  probe_options.probe_interval_micros = probe_interval_micros;
  probe_options.timeout_micros = timeout_micros;
  probe_options.expect_outage = expect_outage;
  auto probe_result = DowntimeProbe::Measure(
      shard_->loop(),
      [this](const std::string& key, std::function<void(bool)> report) {
        // Leader reads: under leases this exercises the deferred lease
        // handoff — a new leader must wait out the old lease before the
        // first probe read succeeds (§13).
        ClientRead(key, ClientReadOptions{},
                   [report](const ClientReadResult& r) {
                     report(r.status.ok());
                   });
      },
      std::move(disruption), []() { return true; }, probe_options);
  DowntimeResult result;
  result.recovered = probe_result.completed;
  result.downtime_micros =
      probe_result.completed ? probe_result.downtime_micros : timeout_micros;
  return result;
}

void SimClient::NoteCrash(const MemberId& id, SimNode::CrashMode mode) {
  tracer_.Instant("fault", "crash", 0,
                  "node=" + id +
                      (mode == SimNode::CrashMode::kLoseUnsynced
                           ? " mode=lose_unsynced"
                           : ""));
}

}  // namespace myraft::sim
