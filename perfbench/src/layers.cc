// Per-layer report of a traced run. Counts come from the node registries
// and network link stats (measured-phase deltas), sim-time stages from the
// drained trace journals via TraceAnalyzer, and host time per layer from
// timing each layer's public entry points here, replayed on committed
// entries taken from the run's own leader log (standalone objects, so the
// simulation itself is untouched).

#include <algorithm>
#include <cmath>
#include <memory>

#include "binlog/binlog_manager.h"
#include "binlog/transaction.h"
#include "perf.h"
#include "raft/log_cache.h"
#include "storage/engine.h"
#include "util/clock.h"
#include "util/compression.h"
#include "util/crc32c.h"
#include "util/env.h"
#include "wire/messages.h"

namespace myraft::perf {
namespace {

/// Minimum host time spent per timed layer call, and minimum passes.
constexpr uint64_t kMinTimedNanos = 40'000'000;
constexpr int kMinPasses = 5;

/// Keeps timed results observable so the calls are not optimised away.
volatile uint64_t g_sink = 0;

/// Times `pass` (which makes `calls` calls into a layer) repeatedly and
/// returns the median ns per call. `prepare` runs untimed before each
/// pass to build fresh standalone state.
double NanosPerCall(size_t calls, const std::function<void()>& prepare,
                    const std::function<void()>& pass) {
  if (calls == 0) return 0.0;
  std::vector<double> per_call;
  uint64_t total = 0;
  while (per_call.size() < kMinPasses || total < kMinTimedNanos) {
    prepare();
    CpuStopwatch watch;
    pass();
    const uint64_t ns = watch.Nanos();
    total += ns;
    per_call.push_back(static_cast<double>(ns) / static_cast<double>(calls));
    if (per_call.size() > 10'000) break;
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

double HistogramP(const Histogram* histogram, double p) {
  return histogram == nullptr || histogram->count() == 0
             ? 0.0
             : histogram->Percentile(p);
}

/// Host-timed layer calls on the run's committed entries.
struct LayerTimings {
  double log_cache_get_ns = 0;
  double log_cache_get_compressed_ns = 0;
  double log_cache_put_ns = 0;
  double binlog_append_ns = 0;
  double storage_commit_ns = 0;
  double wire_encode_ns = 0;
  double lz_compress_ns_per_kb = 0;
  double lz_inflate_ns_per_kb = 0;
  double crc32c_ns_per_kb = 0;
};

LayerTimings TimeLayers(const std::vector<LogEntry>& sample,
                        size_t entries_per_batch) {
  LayerTimings out;
  if (sample.empty()) return out;
  // Contiguous renumbering from index 1: the shape a fresh log expects.
  std::vector<LogEntry> entries;
  uint64_t payload_bytes = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    entries.push_back(LogEntry::Make({1, i + 1}, sample[i].type,
                                     sample[i].payload_bytes().ToString()));
    payload_bytes += entries.back().payload.size();
  }
  const double kb = std::max(1.0, static_cast<double>(payload_bytes) / 1024);

  // raft: LogCache::Put / Get.
  std::unique_ptr<raft::LogCache> cache;
  out.log_cache_put_ns = NanosPerCall(
      entries.size(),
      [&]() { cache = std::make_unique<raft::LogCache>(1ull << 30); },
      [&]() {
        for (const LogEntry& e : entries) cache->Put(e);
      });
  out.log_cache_get_ns = NanosPerCall(
      entries.size(), []() {},
      [&]() {
        for (const LogEntry& e : entries) {
          auto got = cache->Get(e.id.index);
          g_sink = g_sink + (got.ok() ? got->payload.size() : 0);
        }
      });
  out.log_cache_get_compressed_ns = NanosPerCall(
      entries.size(), []() {},
      [&]() {
        for (const LogEntry& e : entries) {
          auto got = cache->GetCompressed(e.id.index);
          g_sink = g_sink + (got.has_value() ? got->uncompressed_size : 0);
        }
      });

  // binlog: BinlogManager::AppendEntry on an in-memory Env.
  ManualClock clock;
  std::unique_ptr<Env> env;
  std::unique_ptr<binlog::BinlogManager> log;
  out.binlog_append_ns = NanosPerCall(
      entries.size(),
      [&]() {
        log.reset();
        env = NewMemEnv();
        binlog::BinlogManagerOptions options;
        options.dir = "/perf";
        options.clock = &clock;
        auto opened = binlog::BinlogManager::Open(env.get(), options);
        log = opened.ok() ? std::move(*opened) : nullptr;
      },
      [&]() {
        if (log == nullptr) return;
        for (const LogEntry& e : entries) g_sink = g_sink + log->AppendEntry(e).ok();
      });
  log.reset();

  // storage: Begin, Put per row, Prepare, CommitPrepared per transaction.
  std::vector<binlog::ParsedTransaction> txns;
  for (const LogEntry& e : entries) {
    auto txn = binlog::ParseTransactionPayload(e.payload);
    if (txn.ok()) txns.push_back(std::move(*txn));
  }
  std::unique_ptr<storage::MiniEngine> engine;
  out.storage_commit_ns = NanosPerCall(
      txns.size(),
      [&]() {
        engine.reset();
        env = NewMemEnv();
        storage::EngineOptions options;
        options.dir = "/engine";
        options.clock = &clock;
        auto opened = storage::MiniEngine::Open(env.get(), options);
        engine = opened.ok() ? std::move(*opened) : nullptr;
      },
      [&]() {
        if (engine == nullptr) return;
        uint64_t xid = 1;
        for (const binlog::ParsedTransaction& txn : txns) {
          const storage::TxnId id = engine->Begin();
          for (const binlog::RowOperation& op : txn.ops) {
            const std::string table = op.database + "." + op.table;
            const std::string& image = op.after_image;
            (void)engine->Put(id, table, image.substr(0, image.find('=')),
                              image);
          }
          (void)engine->Prepare(id, xid);
          g_sink = g_sink + engine->CommitPrepared(xid, txn.opid, txn.gtid).ok();
          ++xid;
        }
      });
  engine.reset();
  env.reset();

  // wire: EncodeMessage on AppendEntries batches shaped like the run's.
  const size_t per_batch =
      std::max<size_t>(1, std::min(entries_per_batch, entries.size()));
  std::vector<Message> batches;
  for (size_t i = 0; i + per_batch <= entries.size(); i += per_batch) {
    AppendEntriesRequest request;
    request.leader = "db0";
    request.dest = "db1";
    request.term = 1;
    request.prev = entries[i].id;
    request.commit_marker = entries[i].id;
    request.entries.assign(entries.begin() + i, entries.begin() + i + per_batch);
    batches.emplace_back(std::move(request));
  }
  std::string wire;
  out.wire_encode_ns = NanosPerCall(
      batches.size(), []() {},
      [&]() {
        for (const Message& m : batches) {
          wire.clear();
          EncodeMessage(m, &wire);
          g_sink = g_sink + wire.size();
        }
      });

  // util: LzCompress / LzDecompress / crc32c over the payloads.
  std::vector<std::string> compressed(entries.size());
  out.lz_compress_ns_per_kb =
      NanosPerCall(1, []() {},
                   [&]() {
                     for (size_t i = 0; i < entries.size(); ++i) {
                       LzCompress(entries[i].payload, &compressed[i]);
                     }
                   }) /
      kb;
  std::string inflated;
  out.lz_inflate_ns_per_kb =
      NanosPerCall(1, []() {},
                   [&]() {
                     for (const std::string& block : compressed) {
                       g_sink = g_sink + LzDecompress(block, &inflated).ok();
                     }
                   }) /
      kb;
  out.crc32c_ns_per_kb =
      NanosPerCall(1, []() {},
                   [&]() {
                     for (const LogEntry& e : entries) {
                       g_sink = g_sink + crc32c::Value(e.payload.data(),
                                                       e.payload.size());
                     }
                   }) /
      kb;
  return out;
}

}  // namespace

void AddLayerMetrics(const RepResult& untraced, const RepResult& traced,
                     Report* out) {
  const LayerTally& t = traced.tally;
  const double ops = static_cast<double>(std::max<uint64_t>(1, traced.attempted));
  auto per_op = [&](const std::string& counter) {
    return static_cast<double>(t.Counter(counter)) / ops;
  };
  auto stage_p = [&](const std::string& stage, double p) {
    auto it = t.stages.find(stage);
    return it == t.stages.end() ? 0.0 : HistogramP(&it->second, p);
  };
  const auto kSim = ClockKind::kSim;
  const auto kHost = ClockKind::kHost;
  const auto kNone = ClockKind::kNone;

  // --- sim: the event loop and the simulated network ---------------------
  const double events_per_op = static_cast<double>(traced.events) / ops;
  const double ns_per_event =
      traced.timed_events > 0
          ? static_cast<double>(traced.timed_event_ns) / traced.timed_events
          : Ratio(traced.measured_s * 1e9, static_cast<double>(traced.events));
  out->Set("sim.events_per_op", events_per_op, "count", kNone);
  out->Set("sim.host_ns_per_event", ns_per_event, "ns", kHost);
  out->Set("sim.net_msgs_per_op", t.counters.net_messages / ops, "count",
           kNone);
  out->Set("sim.net_bytes_per_op", t.counters.net_bytes / ops, "B", kNone);
  out->Set("sim.net_cross_region_bytes_per_op",
           t.counters.net_cross_region_bytes / ops, "B", kNone);

  // --- raft ---------------------------------------------------------------------
  const double started = static_cast<double>(t.Counter("raft.elections_started"));
  const double failovers = static_cast<double>(t.failovers);
  const uint64_t cache_hits = t.Counter("log_cache.hits");
  const uint64_t cache_lookups = cache_hits + t.Counter("log_cache.misses");
  out->Set("raft.entries_per_follower_entry",
           Ratio(static_cast<double>(t.Counter("raft.entries_replicated")),
                 t.committed_times_followers),
           "ratio", kNone);
  out->Set("raft.rewinds_per_op", per_op("raft.window_rewinds"), "count",
           kNone);
  out->Set("raft.rejections_per_op", per_op("raft.append_rejections"),
           "count", kNone);
  out->Set("raft.stale_responses_per_op",
           per_op("raft.stale_responses_ignored"), "count", kNone);
  out->Set("raft.group_syncs_per_op", per_op("raft.group_syncs"), "count",
           kNone);
  out->Set("raft.commit_advance_p50_us",
           HistogramP(t.FindHistogram("raft.commit_advance_latency_us"), 50),
           "us", kSim);
  out->Set("raft.replicate_batch_p50_us", stage_p("raft.replicate.batch", 50),
           "us", kSim);
  out->Set("raft.follower_append_p50_us", stage_p("raft.follower.append", 50),
           "us", kSim);
  out->Set("raft.heartbeats_per_node_sim_s",
           Ratio(static_cast<double>(t.Counter("raft.heartbeats_sent")),
                 t.node_sim_seconds),
           "1/sim-s", kSim);
  out->Set("raft.elections_per_failover", Ratio(started, failovers), "count",
           kNone);
  out->Set("raft.split_vote_ratio",
           started > 0
               ? 1.0 - static_cast<double>(t.Counter("raft.elections_won")) /
                           started
               : 0.0,
           "ratio", kNone);
  out->Set("raft.pre_votes_per_failover",
           Ratio(static_cast<double>(t.Counter("raft.pre_votes_started")),
                 failovers),
           "count", kNone);
  out->Set("raft.failover_detect_ms", t.failover_detect_ms.Percentile(50),
           "ms", kSim);
  out->Set("raft.failover_election_ms", t.failover_election_ms.Percentile(50),
           "ms", kSim);
  out->Set("raft.log_cache_lookups_per_op",
           static_cast<double>(cache_lookups) / ops, "count", kNone);
  out->Set("raft.log_cache_hit_ratio",
           Ratio(static_cast<double>(cache_hits),
                 static_cast<double>(cache_lookups)),
           "ratio", kNone);

  // --- proxy ----------------------------------------------------------------------
  const double proxied = static_cast<double>(t.Counter("proxy.proxied_requests"));
  const double follower_reads =
      static_cast<double>(t.Counter("proxy.reads_routed_follower"));
  out->Set("proxy.proxied_share",
           Ratio(proxied,
                 proxied + static_cast<double>(
                               t.Counter("proxy.direct_requests"))),
           "ratio", kNone);
  out->Set("proxy.reconstitutions_per_op", per_op("proxy.reconstitutions"),
           "count", kNone);
  out->Set("proxy.bytes_relayed_per_op", per_op("proxy.bytes_relayed"), "B",
           kNone);
  out->Set("proxy.follower_read_share",
           Ratio(follower_reads,
                 follower_reads + static_cast<double>(t.Counter(
                                      "proxy.reads_routed_leader"))),
           "ratio", kNone);

  // --- server: commit pipeline, applier, reads, promotion ---------------------
  out->Set("server.flush_p50_us", stage_p("server.commit.flush", 50), "us",
           kSim);
  out->Set("server.consensus_wait_p50_us",
           stage_p("server.commit.consensus_wait", 50), "us", kSim);
  out->Set("server.consensus_wait_p99_us",
           stage_p("server.commit.consensus_wait", 99), "us", kSim);
  out->Set("server.engine_commit_p50_us",
           stage_p("server.commit.engine_commit", 50), "us", kSim);
  out->Set("server.apply_p50_us", stage_p("applier.apply", 50), "us", kSim);
  out->Set("server.applier_lag_p99_entries",
           HistogramP(t.FindHistogram("server.applier_lag_hist"), 99),
           "entries", kSim);
  out->Set("server.reads_gated_share",
           Ratio(static_cast<double>(t.Counter("server.reads_gated")),
                 static_cast<double>(t.Counter("server.reads_served"))),
           "ratio", kNone);
  out->Set("server.read_wait_p50_us",
           HistogramP(t.FindHistogram("server.read_wait_us"), 50), "us",
           kSim);
  out->Set("server.promotion_latency_p50_us",
           HistogramP(t.FindHistogram("server.promotion_latency_us"), 50),
           "us", kSim);
  out->Set("server.failover_promotion_ms",
           t.failover_promotion_ms.Percentile(50), "ms", kSim);
  out->Set("server.failover_first_write_ms",
           t.failover_first_write_ms.Percentile(50), "ms", kSim);

  // --- binlog ---------------------------------------------------------------------
  out->Set("binlog.syncs_per_op", per_op("binlog.syncs"), "count", kNone);
  out->Set("binlog.bytes_per_op", per_op("binlog.bytes_written"), "B", kNone);

  // --- host-timed layer calls -------------------------------------------------------
  const Histogram* batches = t.FindHistogram("raft.inflight_window_batches");
  const size_t entries_per_batch = static_cast<size_t>(std::lround(Ratio(
      static_cast<double>(t.Counter("raft.entries_replicated")),
      batches == nullptr ? 0.0 : static_cast<double>(batches->count()))));
  const LayerTimings timed = TimeLayers(t.sample_entries, entries_per_batch);
  out->Set("raft.log_cache_get_ns", timed.log_cache_get_ns, "ns", kHost);
  out->Set("raft.log_cache_get_compressed_ns",
           timed.log_cache_get_compressed_ns, "ns", kHost);
  out->Set("raft.log_cache_put_ns", timed.log_cache_put_ns, "ns", kHost);
  out->Set("binlog.append_ns", timed.binlog_append_ns, "ns", kHost);
  out->Set("storage.commit_ns", timed.storage_commit_ns, "ns", kHost);
  out->Set("wire.encode_ns_per_msg", timed.wire_encode_ns, "ns", kHost);
  out->Set("util.lz_compress_ns_per_kb", timed.lz_compress_ns_per_kb, "ns",
           kHost);
  out->Set("util.lz_inflate_ns_per_kb", timed.lz_inflate_ns_per_kb, "ns",
           kHost);
  out->Set("util.crc32c_ns_per_kb", timed.crc32c_ns_per_kb, "ns", kHost);

  // --- obs --------------------------------------------------------------------------
  const double untraced_us = Ratio(untraced.measured_s * 1e6,
                                   static_cast<double>(untraced.attempted));
  const double traced_us = traced.measured_s * 1e6 / ops;
  out->Set("obs.trace_records_per_op", t.trace_records / ops, "count", kNone);
  out->Set("obs.trace_dropped", static_cast<double>(t.trace_dropped), "count",
           kNone);
  // Both sides at the reference speed: the host may change pace between
  // the two runs.
  out->Set("obs.traced_overhead_ratio",
           Ratio(traced_us * traced.host_speed,
                 untraced_us * untraced.host_speed),
           "ratio", kHost);

  // --- fleet ------------------------------------------------------------------------
  const bool fleet = traced.rings > 0;
  out->Set("fleet.rss_kb_per_ring", fleet ? untraced.rss_kb_per_ring : 0.0,
           "KiB", kHost);
  out->Set("fleet.setup_ms_per_ring",
           fleet ? untraced.setup_s * 1e3 / untraced.rings : 0.0, "ms", kHost);
  auto storm = traced.sim_extra.find("storm_recovery_ms");
  out->Set("fleet.storm_recovery_ms",
           storm == traced.sim_extra.end() ? 0.0 : storm->second, "ms", kSim);

  // --- fault path (detection, election, promotion) end to end ----------------------
  out->Set("fault.downtime_p50_ms", traced.downtime_ms.Percentile(50), "ms",
           kSim);
  out->Set("fault.downtime_tail_ms", traced.downtime_ms.Tail().second, "ms",
           kSim);
  out->Set("fault.promotion_p50_ms", traced.promotion_ms.Percentile(50), "ms",
           kSim);

  // --- host time the outside timing cannot place ------------------------------------
  // Σ (timed ns per call × in-situ calls per op) over the timed layers.
  // Cache lookups are Get for entries a relay reconstituted, GetCompressed
  // otherwise (replication batches, term lookups).
  const double engine_commits =
      per_op("server.applier_transactions_applied") +
      per_op("server.writes_committed");
  const double gets =
      static_cast<double>(std::min(t.reconstituted_entries, cache_lookups));
  const double placed_ns =
      gets / ops * timed.log_cache_get_ns +
      (static_cast<double>(cache_lookups) - gets) / ops *
          timed.log_cache_get_compressed_ns +
      per_op("binlog.entries_appended") *
          (timed.log_cache_put_ns + timed.binlog_append_ns) +
      engine_commits * timed.storage_commit_ns +
      t.counters.net_messages / ops * timed.wire_encode_ns;
  out->Set("host.unattributed_us_per_op", untraced_us - placed_ns / 1e3, "us",
           kHost);
}

}  // namespace myraft::perf
