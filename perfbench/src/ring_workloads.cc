// The single-ring workloads: sysbench_ring and prod_mixed (the Fig 5c and
// Fig 5a client models on the paper's 20-member ring) and failover (the
// Table 2 trials). Each builds fresh ClusterHarness rings, drives them
// through perf::LoopDriver, and checks its outputs with the chaos
// InvariantChecker.

#include <algorithm>
#include <memory>
#include <optional>

#include "binlog/binlog_manager.h"
#include "flexiraft/flexiraft.h"
#include "perf.h"
#include "server/mysql_server.h"
#include "sim/cluster.h"
#include "sim/downtime_probe.h"
#include "util/random.h"
#include "util/string_util.h"

namespace myraft::perf {
namespace {

/// Traced repetitions keep every record (the journals only grow as far
/// as the run needs).
constexpr size_t kTracedTraceCapacity = size_t{1} << 28;
/// Committed entries kept from a leader log for the host-timed layer
/// calls.
constexpr size_t kSampleEntries = 512;

// sysbench_ring: closed loop of simulated workers, then a read-back.
constexpr int kSysbenchWorkers = 4;
constexpr uint64_t kSysbenchWriteMicros = 100'000;
constexpr size_t kSysbenchValueBytes = 100;
constexpr uint64_t kSysbenchKeySpace = 100'000;
constexpr int kReadBackReads = 250;

// prod_mixed: open-loop Poisson writes and reads.
constexpr uint64_t kProdMicros = 5 * kSecond;
constexpr double kProdWritesPerSec = 200.0;
constexpr double kProdReadsPerSec = 800.0;
constexpr uint64_t kProdKeySpace = 100'000;

// failover: alternating crash / graceful-transfer trials.
constexpr int kFailoverTrials = 16;
constexpr uint64_t kProbeIntervalMicros = 10'000;
/// Probe writes keep going this long after the fault, so acked writes
/// per sim-second reflect how much of the window the fault cost.
constexpr uint64_t kProbeWindowMicros = 4 * kSecond;
constexpr int kFailoverReadBack = 20;

const raft::QuorumEngine* SingleRegionDynamic() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

/// The Fig 5 / Table 2 ring: 6 regions × (database + 2 logtailers) plus
/// 2 learners, FlexiRaft single-region-dynamic, proxying on.
sim::ClusterOptions PaperRing(uint64_t seed, bool traced) {
  sim::ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 6;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 2;
  if (traced) options.trace_capacity = kTracedTraceCapacity;
  return options;
}

/// Fig 5c client model: client co-located with the primary, plus the
/// ~15 µs of Raft leader-thread work per 100 B transaction
/// (bench/fig5_common.h documents the calibration).
void SysbenchClient(sim::ClientModelOptions* client) {
  client->one_way_micros = 10;
  client->processing_micros = 180 + 15;
  client->processing_jitter_micros = 200;
}

/// Fig 5a client model: ~10 ms client<->primary RTT, multi-statement
/// transactions, ~120 µs of Raft work for KB-sized payloads.
void ProductionClient(sim::ClientModelOptions* client) {
  client->one_way_micros = 5'000;
  client->processing_micros = 3'300 + 120;
  client->processing_jitter_micros = 4'000;
}

/// One ring of a workload repetition. Builds and bootstraps the cluster,
/// issues client writes and reads while keeping the acked-write ledger
/// and the read oracle, brackets the measured phase, and verifies the
/// ring at the end.
class RingRun {
 public:
  RingRun(sim::ClusterOptions options, const raft::QuorumEngine* quorum,
          bool traced, RepResult* result)
      : options_(std::move(options)),
        quorum_(quorum),
        traced_(traced),
        result_(result) {}

  RingRun(const RingRun&) = delete;
  RingRun& operator=(const RingRun&) = delete;

  /// Builds and bootstraps the ring, waits for a primary, writes one
  /// warm-up row and lets it settle. Counts towards setup_s.
  bool SetUp(uint64_t settle_micros) {
    CpuStopwatch watch;
    cluster_ = std::make_unique<sim::ClusterHarness>(options_, quorum_);
    driver_ = std::make_unique<LoopDriver>(cluster_->loop(), traced_);
    bool ok = cluster_->Bootstrap().ok() &&
              !cluster_->WaitForPrimary(60 * kSecond).empty() &&
              cluster_->SyncWrite("warm", "up").status.ok();
    if (ok) driver_->RunFor(settle_micros);
    result_->setup_s += watch.Seconds();
    if (!ok) result_->violations.push_back("Setup: ring never served writes");
    return ok;
  }

  sim::ClusterHarness& cluster() { return *cluster_; }
  sim::EventLoop* loop() { return cluster_->loop(); }
  LoopDriver& driver() { return *driver_; }
  uint64_t outstanding() const { return outstanding_; }
  const std::vector<std::string>& acked_keys() const { return acked_keys_; }
  const std::vector<std::string>& written_keys() const {
    return written_keys_;
  }
  /// Whether a write to `key` is still waiting for its outcome.
  bool InFlight(const std::string& key) const {
    auto it = keys_.find(key);
    return it != keys_.end() && it->second.in_flight > 0;
  }

  void BeginMeasure() {
    // Follower reads come from the first region that does not hold the
    // primary (all cross-region links share one latency model, so every
    // seed sees the same geometry).
    const MemberId primary = cluster_->CurrentPrimary();
    for (const RegionId& region : cluster_->shard()->Regions()) {
      if (primary.empty() || region != cluster_->node(primary)->region()) {
        follower_region_ = region;
        break;
      }
    }
    before_ = Counters();
    measure_start_micros_ = loop()->now();
    measure_start_position_ = LoopPosition(loop());
    driver_events_at_start_ = driver_->events();
    timed_ns_at_start_ = driver_->timed_ns();
    watch_ = CpuStopwatch();
    auditing_ = true;
    ScheduleRoleAudit();
  }

  void EndMeasure() {
    auditing_ = false;
    result_->measured_s += watch_.Seconds();
    result_->events += LoopPosition(loop()) - measure_start_position_;
    result_->timed_events += driver_->events() - driver_events_at_start_;
    result_->timed_event_ns += driver_->timed_ns() - timed_ns_at_start_;
    const ClusterCounters after = Counters();
    LayerTally& tally = result_->tally;
    tally.AddDelta(before_, after);
    const double committed =
        static_cast<double>(after.Counter("server.writes_committed") -
                            before_.Counter("server.writes_committed"));
    const double members = static_cast<double>(cluster_->ids().size());
    tally.committed_times_followers += committed * (members - 1);
    tally.node_sim_seconds +=
        members * static_cast<double>(loop()->now() - measure_start_micros_) /
        kSecond;
  }

  /// Issues a write now; `done(ok)` runs once the client sees the outcome.
  void Write(const std::string& key, const std::string& value,
             std::function<void(bool)> done) {
    KeyState& state = keys_[key];
    if (state.writes.empty()) written_keys_.push_back(key);
    const size_t slot = state.writes.size();
    state.writes.emplace_back().value = value;
    ++state.in_flight;
    ++outstanding_;
    ++result_->attempted;
    cluster_->ClientWrite(
        key, value,
        [this, key, slot, done = std::move(done)](
            const sim::ClientWriteResult& r) {
          --outstanding_;
          KeyState& state = keys_[key];
          --state.in_flight;
          if (r.status.ok()) {
            WriteRecord& record = state.writes[slot];
            record.acked = true;
            record.ack_micros = loop()->now();
            record.opid = r.opid;
            if (!state.acked) {
              state.acked = true;
              acked_keys_.push_back(key);
            }
            ledger_.push_back(
                chaos::AckedWrite{key, record.value, r.gtid, r.opid});
            last_seen_index_ = std::max(last_seen_index_, r.opid.index);
            result_->commit_us.Add(static_cast<double>(r.latency_micros));
            ++result_->writes_acked;
          }
          done(r.status.ok());
        });
  }

  /// Issues a read now. Leader reads go through LinearizableRead;
  /// follower reads are steered to a replica outside the primary's region
  /// and gated on the session's last-seen index. A successful read must return the last
  /// value acked before it was issued, or a value whose write was still
  /// unacknowledged then.
  void Read(const std::string& key, sim::ReadMode mode,
            std::function<void(bool)> done) {
    const uint64_t issued_at = loop()->now();
    std::optional<std::string> floor = AckedImage(key, issued_at);
    sim::ClientReadOptions read_options;
    read_options.mode = mode;
    if (mode == sim::ReadMode::kFollower) {
      read_options.min_index = last_seen_index_;
      read_options.client_region = follower_region_;
    }
    ++outstanding_;
    ++result_->attempted;
    cluster_->ClientRead(
        key, read_options,
        [this, key, issued_at, floor = std::move(floor),
         done = std::move(done)](const sim::ClientReadResult& r) {
          --outstanding_;
          if (!r.status.ok()) {
            done(false);
            return;
          }
          result_->read_us.Add(static_cast<double>(r.latency_micros));
          ++result_->reads_ok;
          if (r.value == floor || InFlightImage(key, issued_at, r.value)) {
            if (r.value.has_value()) {
              checker_.ObserveRead(key, *r.value, r.value, r.served_by_lease,
                                   r.served_by);
            }
          } else {
            checker_.ObserveRead(key, floor.value_or("(no acked write)"),
                                 r.value, r.served_by_lease, r.served_by);
          }
          done(true);
        });
  }

  /// Waits for replication to settle, then audits the ring: the quiescent
  /// invariant set over the ledger (reduced to the latest write per key)
  /// and the §5.1 replica checksum comparison.
  void Verify(uint64_t settle_micros) {
    driver_->RunFor(settle_micros);
    checker_.CheckQuiescent(*cluster_, LatestPerKey(ledger_));
    if (!cluster_->CheckReplicaConsistency()) {
      checker_.AddViolation("ReplicaConsistency",
                            "caught-up engines disagree on state");
    }
    for (const chaos::Violation& v : checker_.violations()) {
      result_->violations.push_back(v.ToString());
    }
  }

  /// Waits until every member is up and holds the leader's whole log.
  bool Converge(uint64_t timeout_micros) {
    auto converged = [this]() {
      const MemberId primary = cluster_->CurrentPrimary();
      if (primary.empty()) return false;
      const uint64_t last =
          cluster_->node(primary)->server()->binlog_manager()->LastIndex();
      for (const MemberId& id : cluster_->ids()) {
        sim::SimNode* node = cluster_->node(id);
        if (!node->up() ||
            node->server()->binlog_manager()->LastIndex() != last) {
          return false;
        }
      }
      return true;
    };
    // Polled on a 10 ms cadence: convergence is a state, not an event.
    const uint64_t deadline = loop()->now() + timeout_micros;
    while (!converged() && loop()->now() < deadline) {
      driver_->RunFor(10'000);
    }
    if (converged()) return true;
    result_->violations.push_back("Convergence: ring did not catch up");
    return false;
  }

  /// Traced runs: drains the journals into the tally and keeps committed
  /// entries of the leader for the host-timed layer calls.
  void CollectTrace(bool crash_trial) {
    uint64_t dropped = cluster_->client_tracer()->dropped();
    for (const MemberId& id : cluster_->ids()) {
      dropped += cluster_->node(id)->tracer()->dropped();
    }
    LayerTally& tally = result_->tally;
    tally.AddTrace(cluster_->TraceJournals(), dropped, crash_trial);
    const MemberId primary = cluster_->CurrentPrimary();
    if (primary.empty() || tally.sample_entries.size() >= kSampleEntries) {
      return;
    }
    binlog::BinlogManager* log =
        cluster_->node(primary)->server()->binlog_manager();
    auto entries = log->ReadEntries(log->FirstIndex(), 4 * kSampleEntries,
                                    64ull << 20);
    if (!entries.ok()) return;
    for (LogEntry& entry : *entries) {
      if (entry.type != EntryType::kTransaction) continue;
      if (tally.sample_entries.size() >= kSampleEntries) break;
      tally.sample_entries.push_back(std::move(entry));
    }
  }

 private:
  struct WriteRecord {
    std::string value;
    bool acked = false;
    uint64_t ack_micros = 0;
    OpId opid;
  };
  struct KeyState {
    std::vector<WriteRecord> writes;
    int in_flight = 0;
    bool acked = false;
  };

  /// Row image of the highest-OpId write to `key` acked by `at`.
  std::optional<std::string> AckedImage(const std::string& key,
                                        uint64_t at) const {
    auto it = keys_.find(key);
    if (it == keys_.end()) return std::nullopt;
    const WriteRecord* latest = nullptr;
    for (const WriteRecord& w : it->second.writes) {
      if (w.acked && w.ack_micros <= at &&
          (latest == nullptr || latest->opid < w.opid)) {
        latest = &w;
      }
    }
    if (latest == nullptr) return std::nullopt;
    return key + "=" + latest->value;
  }

  /// Whether `image` is the row of a write to `key` that was not yet
  /// acked at `at` (in flight then, or issued later).
  bool InFlightImage(const std::string& key, uint64_t at,
                     const std::optional<std::string>& image) const {
    if (!image.has_value()) return false;
    auto it = keys_.find(key);
    if (it == keys_.end()) return false;
    for (const WriteRecord& w : it->second.writes) {
      if (w.acked && w.ack_micros <= at) continue;
      if (*image == key + "=" + w.value) return true;
    }
    return false;
  }

  ClusterCounters Counters() {
    ClusterCounters counters;
    AddRegistryRollup(cluster_->shard()->MetricsRollup(), &counters);
    AddNetworkTotals(*cluster_->network(), &counters);
    return counters;
  }

  /// ObserveRoles on a 20 ms sim cadence while the measured phase runs.
  void ScheduleRoleAudit() {
    loop()->Schedule(20'000, [this]() {
      if (!auditing_) return;
      checker_.ObserveRoles(*cluster_);
      ScheduleRoleAudit();
    });
  }

  sim::ClusterOptions options_;
  const raft::QuorumEngine* quorum_;
  bool traced_;
  RepResult* result_;
  std::unique_ptr<sim::ClusterHarness> cluster_;
  std::unique_ptr<LoopDriver> driver_;
  chaos::InvariantChecker checker_;

  std::map<std::string, KeyState> keys_;
  std::vector<std::string> written_keys_;
  std::vector<std::string> acked_keys_;
  std::vector<chaos::AckedWrite> ledger_;
  uint64_t last_seen_index_ = 0;
  uint64_t outstanding_ = 0;
  RegionId follower_region_;

  bool auditing_ = false;
  ClusterCounters before_;
  uint64_t measure_start_micros_ = 0;
  uint64_t measure_start_position_ = 0;
  uint64_t driver_events_at_start_ = 0;
  uint64_t timed_ns_at_start_ = 0;
  CpuStopwatch watch_;
};

/// `readers` closed-loop leader readers issuing `total` reads of keys
/// drawn from the acked set; runs until every read completed.
void ReadBack(RingRun* run, Random* rng, int readers, int total,
              RepResult* result) {
  if (run->acked_keys().empty()) return;
  int issued = 0;
  std::function<void()> next = [&]() {
    if (issued >= total) return;
    ++issued;
    const auto& keys = run->acked_keys();
    run->Read(keys[rng->Uniform(keys.size())], sim::ReadMode::kLeader,
              [&](bool ok) {
                if (!ok) ++result->failed;
                next();
              });
  };
  for (int r = 0; r < readers; ++r) next();
  run->driver().RunUntilDone(
      [&]() { return issued >= total && run->outstanding() == 0; },
      run->loop()->now() + 60 * kSecond);
}

/// Shrinks a count or duration for self-test runs (scale < 1).
uint64_t Scaled(uint64_t value, double scale) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(value * scale));
}

}  // namespace

RepResult RunSysbenchRing(const WorkloadOptions& o) {
  RepResult result;
  sim::ClusterOptions options = PaperRing(o.seed, o.traced);
  SysbenchClient(&options.client);
  RingRun run(options, SingleRegionDynamic(), o.traced, &result);
  if (!run.SetUp(kSecond) || o.setup_only) return result;
  Random rng(GeneratorSeed(o.seed, 1));

  run.BeginMeasure();
  const uint64_t start = run.loop()->now();
  const uint64_t end = start + Scaled(kSysbenchWriteMicros, o.scale);
  // Uniform keys, each worker in its own residue class of the key space:
  // two workers never write one row at once, so no write aborts on a row
  // lock.
  std::function<void(int)> worker = [&](int w) {
    if (run.loop()->now() >= end) return;
    const uint64_t key =
        rng.Uniform(kSysbenchKeySpace / kSysbenchWorkers) * kSysbenchWorkers +
        w;
    run.Write("sbtest" + std::to_string(key),
              RowValue(&rng, kSysbenchValueBytes), [&, w](bool ok) {
                if (!ok) ++result.failed;
                worker(w);
              });
  };
  for (int w = 0; w < kSysbenchWorkers; ++w) {
    // Staggered starts, like thread ramp-up.
    run.loop()->Schedule(rng.Uniform(1'000), [&, w]() { worker(w); });
  }
  run.driver().RunUntilDone(
      [&]() { return run.loop()->now() >= end && run.outstanding() == 0; },
      end + 60 * kSecond);
  result.write_sim_seconds = static_cast<double>(end - start) / kSecond;
  ReadBack(&run, &rng, kSysbenchWorkers,
           static_cast<int>(Scaled(kReadBackReads, o.scale)), &result);
  run.EndMeasure();

  run.Verify(2 * kSecond);
  if (o.traced) run.CollectTrace(false);
  return result;
}

RepResult RunProdMixed(const WorkloadOptions& o) {
  RepResult result;
  sim::ClusterOptions options = PaperRing(o.seed, o.traced);
  ProductionClient(&options.client);
  // A leader read that finds no valid lease can wait out a heartbeat
  // interval (500 ms) for its quorum round; with the default 500 ms client
  // timeout that rare slow read would count as a failure instead of as
  // latency.
  options.client.timeout_micros = 2 * kSecond;
  options.raft.enable_leader_leases = true;
  RingRun run(options, SingleRegionDynamic(), o.traced, &result);
  if (!run.SetUp(kSecond) || o.setup_only) return result;
  Random rng(GeneratorSeed(o.seed, 2));

  run.BeginMeasure();
  sim::EventLoop* loop = run.loop();
  const uint64_t start = loop->now();
  const uint64_t duration = Scaled(kProdMicros, o.scale);
  // The whole open-loop schedule is drawn up front from the seed; each
  // op is issued exactly at its due time, so the client-observed latency
  // is measured from the due time.
  for (double t = rng.Exponential(1e6 / kProdWritesPerSec); t < duration;
       t += rng.Exponential(1e6 / kProdWritesPerSec)) {
    const double u = rng.NextDouble();
    const uint64_t key =
        static_cast<uint64_t>(u * u * static_cast<double>(kProdKeySpace));
    std::string value = RowValue(
        &rng, static_cast<size_t>(rng.BoundedPareto(1.3, 64.0, 8192.0)));
    loop->Schedule(static_cast<uint64_t>(t), [&, key,
                                              value = std::move(value)]() {
      // A hot row still being written moves the write to the next row, so
      // no write aborts on a row lock.
      uint64_t row = key;
      while (run.InFlight("prod" + std::to_string(row))) ++row;
      run.Write("prod" + std::to_string(row), value, [&](bool ok) {
        if (!ok) ++result.failed;
      });
    });
  }
  for (double t = rng.Exponential(1e6 / kProdReadsPerSec); t < duration;
       t += rng.Exponential(1e6 / kProdReadsPerSec)) {
    const sim::ReadMode mode =
        rng.OneIn(2) ? sim::ReadMode::kLeader : sim::ReadMode::kFollower;
    const uint64_t pick = rng.Next();
    loop->Schedule(static_cast<uint64_t>(t), [&, mode, pick]() {
      // Reads target keys already written (acked or in flight).
      const auto& keys = run.written_keys();
      if (keys.empty()) return;
      run.Read(keys[pick % keys.size()], mode, [&](bool ok) {
        if (!ok) ++result.failed;
      });
    });
  }
  run.driver().RunUntilDone(
      [&]() {
        return loop->now() >= start + duration && run.outstanding() == 0;
      },
      start + duration + 60 * kSecond);
  result.write_sim_seconds = static_cast<double>(duration) / kSecond;
  run.EndMeasure();

  run.Verify(2 * kSecond);
  if (o.traced) run.CollectTrace(false);
  return result;
}

RepResult RunFailover(const WorkloadOptions& o) {
  RepResult result;
  const int trials = static_cast<int>(Scaled(kFailoverTrials, o.scale));
  for (int t = 0; t < trials; ++t) {
    // Even trials crash the primary; odd trials hand leadership to a
    // database member in another region.
    const bool crash = t % 2 == 0;
    sim::ClusterOptions options = PaperRing(GeneratorSeed(o.seed, 100 + t),
                                            o.traced);
    options.raft.election_jitter_micros = 1'500'000;
    RingRun run(options, SingleRegionDynamic(), o.traced, &result);
    if (!run.SetUp(3 * kSecond) || o.setup_only) continue;
    sim::ClusterHarness& cluster = run.cluster();
    const MemberId primary = cluster.CurrentPrimary();
    MemberId target;
    for (const MemberId& id : cluster.database_ids()) {
      if (id != primary &&
          cluster.node(id)->region() != cluster.node(primary)->region()) {
        target = id;
        break;
      }
    }

    run.BeginMeasure();
    const uint64_t fault_at = run.loop()->now();
    // Probe writes every 10 ms through the fault (the machinery behind
    // MeasureWriteDowntime), on unique keys so each ack is a ledger row.
    std::vector<std::pair<uint64_t, bool>> probes;  // (issued at, ok)
    sim::DowntimeProbe::Options probe_options;
    probe_options.probe_interval_micros = kProbeIntervalMicros;
    probe_options.timeout_micros = 60 * kSecond;
    // The probe window (done() below) outlasts every transfer, so a
    // transfer that costs no failed write still ends the measurement.
    probe_options.expect_outage = false;
    const std::string prefix = StringPrintf("t%d-", t);
    auto probe = sim::DowntimeProbe::Measure(
        run.loop(),
        [&](const std::string& key, std::function<void(bool)> report) {
          const size_t slot = probes.size();
          probes.emplace_back(run.loop()->now(), false);
          run.Write(prefix + key, "v", [&, slot, report](bool ok) {
            probes[slot].second = ok;
            report(ok);
          });
        },
        [&]() {
          if (crash) {
            cluster.Crash(primary);
          } else if (target.empty() ||
                     !cluster.node(primary)->server()->TransferLeadership(
                         target).ok()) {
            result.violations.push_back("Failover: transfer not started");
          }
        },
        [&]() { return run.loop()->now() >= fault_at + kProbeWindowMicros; },
        probe_options);
    result.write_sim_seconds +=
        static_cast<double>(run.loop()->now() - fault_at) / kSecond;
    if (!probe.completed) {
      result.violations.push_back(
          StringPrintf("Failover: trial %d never recovered", t));
      continue;
    }
    const double downtime_ms = probe.downtime_micros / 1000.0;
    (crash ? result.downtime_ms : result.promotion_ms).Add(downtime_ms);
    // The last probes are still in flight when the measurement ends.
    run.driver().RunUntilDone([&]() { return run.outstanding() == 0; },
                              run.loop()->now() + 10 * kSecond);
    // Probe failures up to the first success after the outage began are
    // the downtime being measured; a failure issued after that recovery
    // is a failed op.
    uint64_t outage_start = UINT64_MAX, recovered_at = UINT64_MAX;
    for (const auto& [issued_at, ok] : probes) {
      if (!ok) outage_start = std::min(outage_start, issued_at);
    }
    for (const auto& [issued_at, ok] : probes) {
      if (ok && issued_at > outage_start) {
        recovered_at = std::min(recovered_at, issued_at);
      }
    }
    for (const auto& [issued_at, ok] : probes) {
      if (!ok && issued_at > recovered_at) ++result.failed;
    }
    if (crash) {
      if (!cluster.Restart(primary).ok()) {
        result.violations.push_back("Recovery: old primary failed restart");
      }
      run.Converge(30 * kSecond);
    }
    Random rng(GeneratorSeed(o.seed, 200 + t));
    ReadBack(&run, &rng, 1, kFailoverReadBack, &result);
    run.EndMeasure();
    if (crash) ++result.tally.failovers;

    run.Verify(kSecond);
    if (o.traced) run.CollectTrace(crash);
  }
  return result;
}

std::vector<std::string> ForgedAckViolations(uint64_t seed) {
  RepResult result;
  sim::ClusterOptions options = PaperRing(seed, false);
  RingRun run(options, SingleRegionDynamic(), false, &result);
  if (!run.SetUp(kSecond)) return result.violations;
  // The client "remembers" an acknowledgement the ring never gave.
  const OpId beyond{1000, 1'000'000};
  chaos::InvariantChecker checker;
  checker.CheckQuiescent(
      run.cluster(),
      {chaos::AckedWrite{"forged", "never-written",
                         binlog::Gtid{Uuid::FromIndex(77), 1}, beyond}});
  std::vector<std::string> out;
  for (const chaos::Violation& v : checker.violations()) {
    out.push_back(v.ToString());
  }
  return out;
}

}  // namespace myraft::perf
