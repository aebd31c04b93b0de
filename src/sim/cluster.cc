#include "sim/cluster.h"

#include "util/string_util.h"

namespace myraft::sim {

namespace {

/// Sampler ring capacity, in windows.
constexpr size_t kSamplerWindowCapacity = 256;
/// Merged-trace records embedded in a bundle's trace_tail section.
constexpr size_t kTraceTailRecords = 256;
/// Per-kind flight-recorder trigger cooldown.
constexpr uint64_t kTriggerCooldownMicros = 50'000;

NetworkOptions WithDefaultMetrics(NetworkOptions options,
                                  metrics::MetricRegistry* registry) {
  if (options.metrics == nullptr) options.metrics = registry;
  return options;
}

SimClient::Options ClientOptionsFrom(const ClusterOptions& options) {
  SimClient::Options out;
  out.model = options.client;
  out.trace_capacity = options.trace_capacity;
  return out;
}

}  // namespace

ClusterHarness::ClusterHarness(ClusterOptions options,
                               const raft::QuorumEngine* quorum)
    : options_(std::move(options)),
      loop_(options_.seed),
      network_(&loop_, WithDefaultMetrics(options_.network, &net_metrics_)) {
  ShardContext context{
      &loop_, &network_, &discovery_, quorum,
      /*metric_namespace=*/"", /*numeric_id_base=*/1,
      // Trigger routing only; TriggerFlightRecorder is a no-op until the
      // obs plane comes up at the end of Bootstrap.
      /*slow_txn_hook=*/[this](const std::string& summary) {
        TriggerFlightRecorder(obs::TriggerKind::kSlowTransaction, summary);
      }};
  // The shard takes the ShardOptions part of options_.
  shard_ = std::make_unique<Shard>(std::move(context), options_);
  client_ = std::make_unique<SimClient>(shard_.get(),
                                        ClientOptionsFrom(options_));
  admin_ = std::make_unique<ShardAdmin>(shard_.get());
}

Status ClusterHarness::Bootstrap() {
  MYRAFT_RETURN_NOT_OK(shard_->Bootstrap());
  if (options_.obs.sample_interval_micros > 0) StartObservability();
  return Status::OK();
}

std::vector<trace::JournalView> ClusterHarness::TraceJournals() const {
  std::vector<trace::JournalView> out;
  const trace::Tracer* tracer = client_->tracer();
  out.push_back(trace::JournalView{tracer->node(), tracer->Snapshot()});
  for (auto& journal : shard_->TraceJournals()) {
    out.push_back(std::move(journal));
  }
  return out;
}

std::string ClusterHarness::TraceJsonl() const {
  return trace::ExportJsonl(TraceJournals());
}

std::string ClusterHarness::TraceChromeJson() const {
  return trace::ExportChromeJson(TraceJournals());
}

std::string ClusterHarness::MetricsSnapshotJson() const {
  std::string out = shard_->MetricsSnapshotJson();
  // Network fault accounting rides along under a reserved key so drops
  // are visible in the same snapshot as per-node latencies.
  out.pop_back();  // trailing '}'
  if (out.size() > 1) out += ',';
  out += "\"network\":";
  out += net_metrics_.ToJson();
  out += '}';
  return out;
}

std::string ClusterHarness::MetricsSnapshotText() const {
  std::string out = shard_->MetricsSnapshotText();
  for (const std::string& line : SplitString(net_metrics_.ToText(), '\n')) {
    if (line.empty()) continue;
    out += "network.";
    out += line;
    out += '\n';
  }
  return out;
}

// --- Observability plane (DESIGN.md §14) -----------------------------------------

void ClusterHarness::StartObservability() {
  obs::TimeSeriesOptions sampler_options;
  sampler_options.clock = loop_.clock();
  sampler_options.interval_micros = options_.obs.sample_interval_micros;
  sampler_options.capacity = kSamplerWindowCapacity;
  sampler_ = std::make_unique<obs::TimeSeriesSampler>(sampler_options);
  // Registries live on the SimNode (outside the server process object),
  // so crash/restart cycles never invalidate a source.
  for (const MemberId& id : shard_->ids()) {
    sampler_->AddSource(id, shard_->node(id)->metrics());
  }
  sampler_->AddSource("network", &net_metrics_);
  sampler_->AddSource("obs", &obs_metrics_);

  health_ = std::make_unique<obs::HealthMonitor>(loop_.clock());
  health_->SetTransitionCallback([this](bool healthy, uint64_t ts_micros) {
    if (!healthy) {
      TriggerFlightRecorder(
          obs::TriggerKind::kHealthTransition,
          StringPrintf("cluster unhealthy at t=%lluus",
                       (unsigned long long)ts_micros));
    }
  });

  obs::FlightRecorderOptions recorder_options;
  recorder_options.clock = loop_.clock();
  recorder_options.cooldown_micros = kTriggerCooldownMicros;
  recorder_options.metrics = &obs_metrics_;
  flight_recorder_ = std::make_unique<obs::FlightRecorder>(recorder_options);
  flight_recorder_->SetRaftstatProvider([this] { return RaftstatJson(); });
  flight_recorder_->SetTraceTailProvider([this] {
    return trace::ExportJsonArrayTail(TraceJournals(), kTraceTailRecords);
  });
  flight_recorder_->SetMetricsSeriesProvider(
      [this] { return sampler_->SeriesJson(); });

  // Self-rescheduling sampling tick; lives as long as the loop (which the
  // harness owns), so capturing `this` is safe.
  loop_.Schedule(options_.obs.sample_interval_micros,
                 [this] { ObservabilityTick(); });
}

void ClusterHarness::ObservabilityTick() {
  sampler_->Sample();

  const std::vector<MemberId> ids = shard_->ids();
  std::vector<obs::HealthInputs> inputs;
  inputs.reserve(ids.size());
  for (const MemberId& id : ids) {
    SimNode* node = shard_->node(id);
    obs::HealthInputs in;
    in.node = id;
    in.up = node->up();
    if (in.up) {
      const server::MySqlServer* server = node->server_view();
      const raft::RaftConsensus* consensus = server->consensus();
      in.is_leader = consensus->role() == RaftRole::kLeader;
      in.writes_enabled = server->writes_enabled();
      in.lease_enabled = options_.raft.enable_leader_leases;
      in.lease_valid = consensus->HasValidLease();
      const uint64_t commit = consensus->commit_marker().index;
      const uint64_t applied = server->AppliedIndex();
      in.replication_lag_entries = commit > applied ? commit - applied : 0;
      if (const metrics::MetricSnapshot* window = sampler_->LastWindow(id)) {
        auto counter = [window](const char* name) -> uint64_t {
          auto it = window->counters.find(name);
          return it == window->counters.end() ? 0 : it->second;
        };
        in.pipeline_stalls_delta = counter("raft.pipeline_stalls");
        in.elections_started_delta = counter("raft.elections_started");
        in.lease_renewals_delta = counter("raft.lease_renewals");
        auto hist = window->histograms.find("server.commit_stage_flush_us");
        if (hist != window->histograms.end() && hist->second.count() > 0) {
          in.fsync_p99_micros = hist->second.Percentile(99);
        }
      }
    }
    inputs.push_back(std::move(in));
  }
  health_->Observe(inputs);

  loop_.Schedule(options_.obs.sample_interval_micros,
                 [this] { ObservabilityTick(); });
}

std::string ClusterHarness::RaftstatText() {
  return StringPrintf("raftstat @ t=%lluus\n",
                      (unsigned long long)loop_.now()) +
         shard_->RaftstatText();
}

bool ClusterHarness::TriggerFlightRecorder(obs::TriggerKind kind,
                                           const std::string& detail) {
  if (flight_recorder_ == nullptr) return false;
  return flight_recorder_->Trigger(kind, detail);
}

}  // namespace myraft::sim
