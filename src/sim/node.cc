#include "sim/node.h"

#include "util/logging.h"

namespace myraft::sim {

namespace {

/// Period of the node's periodic tick: Tick() runs on this grid.
constexpr uint64_t kTickIntervalMicros = 20'000;

trace::TracerOptions NodeTracerOptions(const SimNode::Options& options,
                                       EventLoop* loop,
                                       metrics::MetricRegistry* metrics) {
  trace::TracerOptions out;
  out.node = options.server.id;
  out.id_salt = options.server.numeric_server_id;
  out.capacity = options.trace_capacity;
  out.clock = loop->clock();
  out.metrics = metrics;
  return out;
}

}  // namespace

SimNode::SimNode(EventLoop* loop, SimNetwork* network,
                 server::ServiceDiscovery* discovery,
                 const raft::QuorumEngine* quorum, Options options)
    : loop_(loop),
      network_(network),
      discovery_(discovery),
      quorum_(quorum),
      options_(std::move(options)),
      env_(NewMemEnv()),
      clock_(loop->clock()),
      tracer_(NodeTracerOptions(options_, loop, &metrics_)) {}

SimNode::SimNode(EventLoop* loop, SimNetwork* network,
                 server::ServiceDiscovery* discovery,
                 const raft::QuorumEngine* quorum, Options options,
                 std::unique_ptr<Env> env)
    : loop_(loop),
      network_(network),
      discovery_(discovery),
      quorum_(quorum),
      options_(std::move(options)),
      env_(std::move(env)),
      clock_(loop->clock()),
      tracer_(NodeTracerOptions(options_, loop, &metrics_)) {}

SimNode::~SimNode() {
  if (up_) network_->UnregisterNode(id());
}

Status SimNode::BuildProcess() {
  ScopedLogContext log_context(id(), loop_->clock());
  // All per-node subsystems share the node's registry and trace journal.
  options_.server.metrics = &metrics_;
  options_.proxy.metrics = &metrics_;
  options_.server.tracer = &tracer_;
  options_.proxy.tracer = &tracer_;
  // Group-commit sync stage: raft defers its fsync onto the event loop so
  // same-instant Replicate/AppendEntries bursts coalesce into one Sync().
  // The incarnation guard drops callbacks scheduled by a crashed process.
  options_.server.raft.defer = [this](uint64_t delay_micros,
                                      std::function<void()> fn) {
    const uint64_t my_incarnation = incarnation_;
    loop_->Schedule(delay_micros, [this, my_incarnation,
                                   fn = std::move(fn)]() {
      if (!up_ || incarnation_ != my_incarnation) return;
      ScopedLogContext log_context(id(), loop_->clock());
      fn();
      FinishInput();
    });
  };
  // The network slot first: the router sends from it. Delivery waits for
  // up_, set below.
  net_slot_ = network_->RegisterNode(
      id(), region(), [this](const MemberId& from, const Message& m) {
        Deliver(from, m);
      });
  // Router next (it is the server's outbox), bind consensus after.
  router_ = std::make_unique<proxy::ProxyRouter>(
      options_.server.id, options_.server.region, options_.proxy, loop_,
      [this](Message m) { network_->Send(net_slot_, std::move(m)); });

  // The server (and through it raft, binlog and engine) reads the node's
  // LOCAL clock — the drifting view the clock-drift nemesis manipulates.
  auto server = server::MySqlServer::Create(env_.get(), options_.server,
                                            quorum_, &clock_,
                                            loop_->rng(), router_.get(),
                                            discovery_);
  if (!server.ok()) {
    network_->UnregisterNode(id());
    return server.status();
  }
  server_ = std::move(*server);
  router_->BindConsensus(server_->consensus());

  network_->SetNodeUp(id(), true);
  up_ = true;
  ++incarnation_;
  pump_scheduled_for_ = 0;
  tick_origin_ = loop_->now();
  tick_seq_ = loop_->ReserveSeq();
  ReopenTickGate();
  return Status::OK();
}

Status SimNode::Bootstrap(const MembershipConfig& config) {
  MYRAFT_RETURN_NOT_OK(BuildProcess());
  return server_->Bootstrap(config);
}

Status SimNode::Restart() {
  if (up_) return Status::IllegalState("node is already up");
  MYRAFT_RETURN_NOT_OK(BuildProcess());
  return server_->Start();
}

void SimNode::Crash(CrashMode mode) {
  if (!up_) return;
  up_ = false;
  ++tick_generation_;  // the pending tick event dies with the process
  tick_armed_at_ = 0;
  network_->SetNodeUp(id(), false);
  network_->UnregisterNode(id());
  // Volatile state dies with the process; env_ (the disk) survives.
  server_.reset();
  router_.reset();
  if (mode == CrashMode::kLoseUnsynced) {
    CrashFaultInjectionEnv* fault_env = GetCrashFaultInjectionEnv(env_.get());
    if (fault_env != nullptr) {
      const size_t torn = fault_env->LoseUnsyncedData();
      if (torn > 0) {
        MYRAFT_LOG(Info) << id() << ": power-loss crash tore unsynced tails in "
                         << torn << " file(s)";
      }
    }
  }
}

void SimNode::Deliver(const MemberId& physical_from, const Message& message) {
  if (!up_) return;
  ScopedLogContext log_context(id(), loop_->clock());
  router_->ObserveTraffic(physical_from);
  if (router_->HandleInbound(message)) return;
  server_->HandleMessage(message);
  FinishInput();
}

void SimNode::ReopenTickGate() {
  tick_due_micros_ = 0;
  ArmTick();
}

EventKey SimNode::TickSlot(uint64_t at) const {
  return EventKey{at, at - kTickIntervalMicros, tick_seq_};
}

void SimNode::ArmTick() {
  if (!up_ || tick_due_micros_ == UINT64_MAX) return;
  // The first grid instant at or after the due time (and now)...
  const uint64_t from = std::max(tick_due_micros_, loop_->now());
  const uint64_t intervals = std::max<uint64_t>(
      1, (from - tick_origin_ + kTickIntervalMicros - 1) / kTickIntervalMicros);
  uint64_t at = tick_origin_ + intervals * kTickIntervalMicros;
  // ...unless this input came after the node's slot at that instant.
  if (loop_->HasRun(TickSlot(at))) at += kTickIntervalMicros;
  // A pending tick at or before `at` wakes first and re-arms if early.
  if (tick_armed_at_ != 0 && tick_armed_at_ <= at) return;
  tick_armed_at_ = at;
  const uint64_t generation = ++tick_generation_;
  loop_->ScheduleAt(TickSlot(at),
                    [this, generation]() { OnTickEvent(generation); });
}

void SimNode::OnTickEvent(uint64_t generation) {
  ++tick_events_;
  // Superseded by an earlier arm, or armed by a crashed process.
  if (generation != tick_generation_) return;
  tick_armed_at_ = 0;
  if (loop_->now() < tick_due_micros_) {
    // The due time moved later after this tick was armed.
    ++ticks_early_;
    ArmTick();
    return;
  }
  ++ticks_run_;
  ScopedLogContext log_context(id(), loop_->clock());
  server_->Tick();
  FinishInput();
}

void SimNode::FinishInput() {
  MaybeSchedulePump();
  tick_due_micros_ = clock_.BaseMicrosFor(server_->NextTickDueMicros());
  ArmTick();
}

void SimNode::MaybeSchedulePump() {
  // The parallel applier charges a modelled cost to virtual worker slots;
  // when the low-water task's slot frees up before the next periodic
  // tick, pump at that instant so applier throughput tracks the modelled
  // cost rather than the tick cadence.
  const uint64_t deadline = server_->NextApplierDeadlineMicros();
  if (deadline == 0) return;
  const uint64_t now = loop_->now();
  if (deadline <= now || deadline >= now + kTickIntervalMicros) {
    return;  // overdue or far out: the periodic tick handles it
  }
  if (pump_scheduled_for_ != 0 && pump_scheduled_for_ <= deadline &&
      pump_scheduled_for_ > now) {
    return;  // an equal-or-earlier pump is already pending
  }
  pump_scheduled_for_ = deadline;
  const uint64_t my_incarnation = incarnation_;
  loop_->Schedule(deadline - now, [this, my_incarnation]() {
    if (!up_ || incarnation_ != my_incarnation) return;
    ScopedLogContext log_context(id(), loop_->clock());
    pump_scheduled_for_ = 0;
    server_->PumpApplier();
    FinishInput();
  });
}

}  // namespace myraft::sim
