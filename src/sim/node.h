// SimNode: hosts one replicaset member (MySqlServer + ProxyRouter) inside
// the discrete-event simulator. The node's "disk" is a private MemEnv that
// survives crashes; process state does not, so Crash()/Restart() exercise
// the real recovery paths (§A.2).

#ifndef MYRAFT_SIM_NODE_H_
#define MYRAFT_SIM_NODE_H_

#include <algorithm>
#include <memory>

#include "proxy/proxy_router.h"
#include "server/mysql_server.h"
#include "sim/event_loop.h"
#include "sim/network.h"
#include "util/clock.h"
#include "util/trace.h"

namespace myraft::sim {

/// Per-node drifting view of the simulation clock (§13 clock-drift
/// nemesis): from the last SetDrift anchor, local time advances at
/// `rate` × simulated real time, optionally jumped by a skew. Returned
/// values are clamped monotone non-decreasing (real clocks never run
/// backwards under NTP-style slewing). Heal() restores rate 1.0 but the
/// accumulated offset persists — only durations matter to lease safety,
/// so a permanently offset-but-well-rated clock is harmless by design.
class DriftClock final : public Clock {
 public:
  explicit DriftClock(const Clock* base) : base_(base) {
    anchor_base_ = anchor_value_ = base_->NowMicros();
  }

  uint64_t NowMicros() const override {
    const uint64_t real = base_->NowMicros();
    const uint64_t drifted =
        anchor_value_ +
        static_cast<uint64_t>(static_cast<double>(real - anchor_base_) *
                              rate_);
    last_returned_ = std::max(last_returned_, drifted);
    return last_returned_;
  }

  /// Jump local time by `skew_micros` (signed; backwards jumps are
  /// absorbed by the monotone clamp) and run at `rate` × real time.
  void SetDrift(int64_t skew_micros, double rate) {
    const uint64_t now = NowMicros();
    anchor_base_ = base_->NowMicros();
    anchor_value_ =
        skew_micros >= 0
            ? now + static_cast<uint64_t>(skew_micros)
            : now - std::min(now, static_cast<uint64_t>(-skew_micros));
    rate_ = rate > 0 ? rate : 1.0;
  }

  void Heal() { SetDrift(0, 1.0); }

  /// Earliest base-clock time at which NowMicros() reaches `local`,
  /// computed without reading (so without moving the monotone clamp).
  /// Exact only at rate 1.0, where local time is base time plus a fixed
  /// offset; at any other rate, and when `local` is already reached, it
  /// returns 0 ("now"). UINT64_MAX ("never") passes through.
  uint64_t BaseMicrosFor(uint64_t local) const {
    if (local == UINT64_MAX) return UINT64_MAX;
    if (rate_ != 1.0 || local <= std::max(last_returned_, anchor_value_)) {
      return 0;
    }
    return anchor_base_ + (local - anchor_value_);
  }

  double rate() const { return rate_; }

 private:
  const Clock* base_;
  uint64_t anchor_base_ = 0;
  uint64_t anchor_value_ = 0;
  double rate_ = 1.0;
  mutable uint64_t last_returned_ = 0;
};

class SimNode {
 public:
  struct Options {
    server::MySqlServerOptions server;
    proxy::ProxyOptions proxy;
    /// Per-node trace journal ring size (overflow drops oldest records).
    size_t trace_capacity = 65'536;
  };

  SimNode(EventLoop* loop, SimNetwork* network,
          server::ServiceDiscovery* discovery,
          const raft::QuorumEngine* quorum, Options options);
  /// Variant adopting an existing disk (enable-raft migrations, §5.2).
  SimNode(EventLoop* loop, SimNetwork* network,
          server::ServiceDiscovery* discovery,
          const raft::QuorumEngine* quorum, Options options,
          std::unique_ptr<Env> env);
  ~SimNode();

  SimNode(const SimNode&) = delete;
  SimNode& operator=(const SimNode&) = delete;

  /// First boot + ring bootstrap.
  Status Bootstrap(const MembershipConfig& config);
  /// Restart after Crash() (recovers from the surviving MemEnv).
  Status Restart();

  enum class CrashMode {
    /// Process crash: the OS page cache survives, so the MemEnv keeps
    /// every appended byte (mysqld dying while the host stays up).
    kKeepDisk,
    /// Power-loss crash: everything past each file's fsync horizon is
    /// torn away before recovery runs (host/kernel failure).
    kLoseUnsynced,
  };

  /// Crash: drops volatile state, deregisters from the network. With
  /// kLoseUnsynced the disk is truncated to its durable horizon.
  void Crash(CrashMode mode = CrashMode::kKeepDisk);

  bool up() const { return up_; }
  const MemberId& id() const { return options_.server.id; }
  const RegionId& region() const { return options_.server.region; }
  /// Mutable access for callers that may change the server's state:
  /// each call reopens the idle-tick gate (see ArmTick), so the next
  /// periodic tick slot runs Tick() in full. Re-fetch it rather than
  /// holding the pointer across loop runs.
  server::MySqlServer* server() {
    ReopenTickGate();
    return server_.get();
  }
  /// Read-only view for observers (primary polls, raftstat, consistency
  /// checks); unlike server() it leaves the gate shut.
  const server::MySqlServer* server_view() const { return server_.get(); }
  /// The router only reads consensus state, so it is no input of the gate.
  const proxy::ProxyRouter* router() const { return router_.get(); }
  Env* env() { return env_.get(); }
  /// Node-lifetime metric registry: like the disk, it survives
  /// crash/restart cycles, so counters accumulate across incarnations.
  metrics::MetricRegistry* metrics() { return &metrics_; }
  const metrics::MetricRegistry* metrics() const { return &metrics_; }
  /// Node-lifetime trace journal (survives crash/restart like metrics_).
  trace::Tracer* tracer() { return &tracer_; }
  const trace::Tracer* tracer() const { return &tracer_; }

  /// This node's local clock (the drifting view every in-process
  /// subsystem — raft, engine, binlog — reads). Survives crashes like
  /// the disk: a machine's oscillator does not reset with mysqld.
  DriftClock* clock() { return &clock_; }
  /// Clock-drift nemesis primitives (§13): jump by `skew_micros` and/or
  /// run at `rate` × simulated real time; heal restores rate 1.0.
  void SetClockDrift(int64_t skew_micros, double rate) {
    clock_.SetDrift(skew_micros, rate);
    ReopenTickGate();
  }
  void HealClockDrift() {
    clock_.Heal();
    ReopenTickGate();
  }

  /// Loop time before which Tick() cannot act (0 = the next tick slot
  /// runs it): the server's NextTickDueMicros() converted from local
  /// time, recomputed after every input this node handles.
  uint64_t tick_due_micros() const { return tick_due_micros_; }
  /// Tick events popped (superseded ones included), those that ran
  /// Tick(), and those that woke before the due time and re-armed.
  uint64_t tick_events() const { return tick_events_; }
  uint64_t ticks_run() const { return ticks_run_; }
  uint64_t ticks_early() const { return ticks_early_; }

 private:
  Status BuildProcess();  // constructs router + server over env_
  void Deliver(const MemberId& physical_from, const Message& message);
  /// Sets the due time to "now" and arms the tick for the next slot.
  void ReopenTickGate();
  /// Keeps the node's one tick event at the first 20 ms grid instant at
  /// or after tick_due_micros_ whose slot has not run (DESIGN.md §18).
  void ArmTick();
  /// The loop key of this node's tick slot at grid instant `at`.
  EventKey TickSlot(uint64_t at) const;
  void OnTickEvent(uint64_t generation);
  /// Epilogue of every input (delivery, deferred callback, applier pump,
  /// full tick), while the node's state is still in cache: schedules an
  /// applier pump if one is due and recomputes the tick gate.
  void FinishInput();
  /// Schedules an applier pump at the server's next worker-slot deadline
  /// when that lands before the next periodic tick.
  void MaybeSchedulePump();

  EventLoop* loop_;
  SimNetwork* network_;
  /// This member's SimNetwork slot, RegisterNode's result: the router
  /// sends from it.
  uint32_t net_slot_ = 0;
  server::ServiceDiscovery* discovery_;
  const raft::QuorumEngine* quorum_;
  Options options_;

  std::unique_ptr<Env> env_;  // survives crashes ("disk")
  DriftClock clock_;          // the node's local clock (survives crashes)
  metrics::MetricRegistry metrics_;  // survives crashes too
  trace::Tracer tracer_;             // so does the trace journal
  std::unique_ptr<proxy::ProxyRouter> router_;
  std::unique_ptr<server::MySqlServer> server_;
  bool up_ = false;
  uint64_t incarnation_ = 0;  // stale deferred callbacks check this
  uint64_t pump_scheduled_for_ = 0;  // pending applier-pump deadline (0 = none)
  uint64_t tick_due_micros_ = 0;     // see tick_due_micros()
  /// The tick grid: instants tick_origin_ + k * 20 ms (k >= 1), each
  /// keyed (instant, instant - 20 ms, tick_seq_), which is the place a
  /// tick event rescheduling itself every 20 ms since BuildProcess would
  /// hold, so the event order is that of such a chain (DESIGN.md §18).
  uint64_t tick_origin_ = 0;
  uint64_t tick_seq_ = 0;
  uint64_t tick_armed_at_ = 0;    // grid instant of the pending tick (0 = none)
  uint64_t tick_generation_ = 0;  // a tick event stamped otherwise is stale
  uint64_t tick_events_ = 0;
  uint64_t ticks_run_ = 0;
  uint64_t ticks_early_ = 0;
};

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_NODE_H_
