#include "sim/node.h"

#include "util/logging.h"

namespace myraft::sim {

namespace {

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
  // Router first (it is the server's outbox), bind consensus after.
  router_ = std::make_unique<proxy::ProxyRouter>(
      options_.server.id, options_.server.region, options_.proxy, loop_,
      [this](Message m) { network_->Send(id(), std::move(m)); });
  router_->set_enabled(options_.proxy_enabled);

  // The server (and through it raft, binlog and engine) reads the node's
  // LOCAL clock — the drifting view the clock-drift nemesis manipulates.
  auto server = server::MySqlServer::Create(env_.get(), options_.server,
                                            quorum_, &clock_,
                                            loop_->rng(), router_.get(),
                                            discovery_);
  if (!server.ok()) return server.status();
  server_ = std::move(*server);
  router_->BindConsensus(server_->consensus());

  network_->RegisterNode(id(), region(),
                         [this](const MemberId& from, const Message& m) {
                           Deliver(from, m);
                         });
  network_->SetNodeUp(id(), true);
  up_ = true;
  ++incarnation_;
  pump_scheduled_for_ = 0;
  tick_due_micros_ = 0;
  ScheduleTick();
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

void SimNode::ScheduleTick() {
  const uint64_t my_incarnation = incarnation_;
  loop_->Schedule(options_.tick_interval_micros, [this, my_incarnation]() {
    if (!up_ || incarnation_ != my_incarnation) return;
    // Idle-tick gate (DESIGN.md §18): before the node's next deadline
    // Tick() cannot act, so only the reschedule below runs. The event
    // itself stays on the grid, so event order is unchanged.
    if (loop_->now() < tick_due_micros_) {
      ++ticks_gated_;
    } else {
      ++ticks_run_;
      ScopedLogContext log_context(id(), loop_->clock());
      server_->Tick();
      FinishInput();
    }
    ScheduleTick();
  });
}

void SimNode::FinishInput() {
  MaybeSchedulePump();
  tick_due_micros_ = clock_.BaseMicrosFor(server_->NextTickDueMicros());
}

void SimNode::MaybeSchedulePump() {
  // The parallel applier charges a modelled cost to virtual worker slots;
  // when the low-water task's slot frees up before the next periodic
  // tick, pump at that instant so applier throughput tracks the modelled
  // cost rather than the tick cadence.
  const uint64_t deadline = server_->NextApplierDeadlineMicros();
  if (deadline == 0) return;
  const uint64_t now = loop_->now();
  if (deadline <= now || deadline >= now + options_.tick_interval_micros) {
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
