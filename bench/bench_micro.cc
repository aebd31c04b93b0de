// Microbenchmarks (google-benchmark) for the building blocks on MyRaft's
// hot paths: checksums, compression (the §3.4 entry-cache path), binlog
// event/transaction codecs, GTID set algebra, the log cache and the
// binlog manager append/read path. These quantify the per-transaction
// leader-thread overhead that shows up as the ~1-2% latency delta in
// Figure 5.
//
// `--commit-latency` switches to a simulated end-to-end commit-latency
// run instead (the group-commit sync stage at 1 and 8 clients) and
// writes BENCH_micro_commit_latency.json; CI gates p50/p99 against the
// committed baseline in bench/baselines/ (>15% regression fails) and
// asserts the 8-client fsync-per-commit ratio stays < 0.5.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "binlog/binlog_manager.h"
#include "binlog/transaction.h"
#include "flexiraft/flexiraft.h"
#include "raft/log_cache.h"
#include "sim/cluster.h"
#include "storage/engine.h"
#include "util/compression.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/random.h"

namespace myraft {
namespace {

std::string MakePayload(size_t size, uint64_t seed) {
  Random rng(seed);
  std::string payload;
  const char* phrases[] = {"UPDATE users SET ", "col=", "img:", "xid="};
  while (payload.size() < size) {
    if (rng.OneIn(3)) {
      payload += phrases[rng.Uniform(4)];
    } else {
      payload.push_back(static_cast<char>(rng.Next()));
    }
  }
  payload.resize(size);
  return payload;
}

void BM_Crc32c(benchmark::State& state) {
  const std::string data = MakePayload(state.range(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(4096)->Arg(65536);

void BM_LzCompress(benchmark::State& state) {
  const std::string data = MakePayload(state.range(0), 2);
  std::string out;
  for (auto _ : state) {
    LzCompress(data, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LzCompress)->Arg(512)->Arg(4096)->Arg(65536);

void BM_LzRoundTrip(benchmark::State& state) {
  const std::string data = MakePayload(state.range(0), 3);
  std::string compressed, out;
  LzCompress(data, &compressed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LzDecompress(compressed, &out));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LzRoundTrip)->Arg(4096);

binlog::TransactionPayloadBuilder MakeBuilder(int ops) {
  binlog::TransactionPayloadBuilder builder;
  for (int i = 0; i < ops; ++i) {
    binlog::RowOperation op;
    op.kind = binlog::RowOperation::Kind::kUpdate;
    op.database = "db0";
    op.table = "users";
    op.column_count = 8;
    op.before_image = MakePayload(200, 100 + i);
    op.after_image = MakePayload(200, 200 + i);
    builder.AddOperation(std::move(op));
  }
  return builder;
}

void BM_TransactionFinalize(benchmark::State& state) {
  const auto builder = MakeBuilder(static_cast<int>(state.range(0)));
  const binlog::Gtid gtid{Uuid::FromIndex(1), 1};
  uint64_t index = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        builder.Finalize(gtid, {1, index++}, index, 0, 7));
  }
}
BENCHMARK(BM_TransactionFinalize)->Arg(1)->Arg(8)->Arg(64);

void BM_TransactionParse(benchmark::State& state) {
  const auto builder = MakeBuilder(static_cast<int>(state.range(0)));
  const std::string payload =
      builder.Finalize({Uuid::FromIndex(1), 1}, {1, 1}, 1, 0, 7);
  for (auto _ : state) {
    auto txn = binlog::ParseTransactionPayload(payload);
    benchmark::DoNotOptimize(txn);
  }
}
BENCHMARK(BM_TransactionParse)->Arg(1)->Arg(8)->Arg(64);

void BM_GtidSetAdd(benchmark::State& state) {
  Random rng(5);
  for (auto _ : state) {
    binlog::GtidSet set;
    for (int i = 0; i < state.range(0); ++i) {
      set.Add({Uuid::FromIndex(rng.Uniform(4)), 1 + rng.Uniform(10'000)});
    }
    benchmark::DoNotOptimize(set);
  }
}
BENCHMARK(BM_GtidSetAdd)->Arg(100)->Arg(1000);

void BM_GtidSetContainsAll(benchmark::State& state) {
  Random rng(6);
  binlog::GtidSet a, b;
  for (int i = 0; i < 2000; ++i) {
    a.Add({Uuid::FromIndex(rng.Uniform(4)), 1 + rng.Uniform(10'000)});
  }
  for (int i = 0; i < 200; ++i) {
    b.Add({Uuid::FromIndex(rng.Uniform(4)), 1 + rng.Uniform(10'000)});
  }
  a.Union(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.ContainsAll(b));
  }
}
BENCHMARK(BM_GtidSetContainsAll);

void BM_LogCachePutGet(benchmark::State& state) {
  raft::LogCache cache(64ull << 20);
  const std::string payload = MakePayload(state.range(0), 7);
  uint64_t index = 1;
  for (auto _ : state) {
    cache.Put(LogEntry::Make({1, index}, EntryType::kTransaction, payload));
    auto entry = cache.Get(index);
    benchmark::DoNotOptimize(entry);
    ++index;
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LogCachePutGet)->Arg(512)->Arg(4096);

void BM_BinlogManagerAppend(benchmark::State& state) {
  auto env = NewMemEnv();
  static ManualClock clock;
  binlog::BinlogManagerOptions options;
  options.dir = "/bench";
  options.clock = &clock;
  auto manager = binlog::BinlogManager::Open(env.get(), options);
  binlog::TransactionPayloadBuilder builder = MakeBuilder(2);
  uint64_t index = 1;
  for (auto _ : state) {
    const OpId opid{1, index};
    const std::string payload =
        builder.Finalize({Uuid::FromIndex(1), index}, opid, index, 0, 7);
    benchmark::DoNotOptimize((*manager)->AppendEntry(
        LogEntry::Make(opid, EntryType::kTransaction, payload)));
    ++index;
  }
}
BENCHMARK(BM_BinlogManagerAppend);

void BM_BinlogManagerRead(benchmark::State& state) {
  auto env = NewMemEnv();
  static ManualClock clock;
  binlog::BinlogManagerOptions options;
  options.dir = "/bench";
  options.clock = &clock;
  auto manager = binlog::BinlogManager::Open(env.get(), options);
  binlog::TransactionPayloadBuilder builder = MakeBuilder(2);
  for (uint64_t index = 1; index <= 1000; ++index) {
    const OpId opid{1, index};
    const std::string payload =
        builder.Finalize({Uuid::FromIndex(1), index}, opid, index, 0, 7);
    (void)(*manager)->AppendEntry(
        LogEntry::Make(opid, EntryType::kTransaction, payload));
  }
  Random rng(8);
  for (auto _ : state) {
    auto entry = (*manager)->ReadEntry(1 + rng.Uniform(1000));
    benchmark::DoNotOptimize(entry);
  }
}
BENCHMARK(BM_BinlogManagerRead);

void BM_EngineCommitPath(benchmark::State& state) {
  auto env = NewMemEnv();
  static ManualClock clock;
  storage::EngineOptions options;
  options.dir = "/engine";
  options.clock = &clock;
  auto engine = storage::MiniEngine::Open(env.get(), options);
  uint64_t xid = 1;
  for (auto _ : state) {
    const storage::TxnId txn = (*engine)->Begin();
    (void)(*engine)->Put(txn, "t", "k" + std::to_string(xid % 1000), "v");
    (void)(*engine)->Prepare(txn, xid);
    (void)(*engine)->CommitPrepared(xid, {1, xid},
                                    {Uuid::FromIndex(1), xid});
    ++xid;
  }
}
BENCHMARK(BM_EngineCommitPath);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram histogram;
  Random rng(9);
  for (auto _ : state) {
    histogram.Add(rng.Uniform(1'000'000));
  }
}
BENCHMARK(BM_HistogramAdd);

// --- Commit-latency mode (--commit-latency) ----------------------------------

const raft::QuorumEngine* CommitLatencyEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

uint64_t PrimaryCounter(sim::ClusterHarness* harness, const MemberId& primary,
                        const std::string& name) {
  const auto* counter =
      harness->node(primary)->metrics()->FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

struct CommitLatencyResult {
  Histogram latency;
  double fsync_per_commit = 0.0;
  int acked = 0;
  std::string internals_json;  // ClusterInternalsJson of this config's run
};

/// Drives `writes` client writes at `clients` concurrency (bursts issued
/// at one virtual instant) against a fresh cluster and measures the
/// client-observed commit latency plus the primary's binlog fsyncs per
/// committed transaction.
CommitLatencyResult RunCommitLatencyConfig(uint64_t seed, int clients,
                                           int writes) {
  constexpr uint64_t kSecond = 1'000'000;
  sim::ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  // Observability plane: 10 ms windows catch the commit-stage latency
  // series across the burst schedule.
  options.obs.sample_interval_micros = 10'000;
  sim::ClusterHarness harness(options, CommitLatencyEngine());
  CommitLatencyResult result;
  if (!harness.Bootstrap().ok()) return result;
  const MemberId primary = harness.WaitForPrimary(30 * kSecond);
  if (primary.empty()) return result;
  (void)harness.SyncWrite("warm", "up");  // settle bootstrap syncs

  const uint64_t syncs_before =
      PrimaryCounter(&harness, primary, "binlog.syncs");
  int issued = 0;
  while (issued < writes) {
    int outstanding = 0;
    for (int c = 0; c < clients && issued < writes; ++c, ++issued) {
      ++outstanding;
      harness.ClientWrite(
          "k" + std::to_string(issued % 97), "v" + std::to_string(issued),
          [&result, &outstanding](
              const sim::ClientWriteResult& r) {
            --outstanding;
            if (r.status.ok()) {
              result.latency.Add(r.latency_micros);
              ++result.acked;
            }
          });
    }
    const uint64_t deadline = harness.loop()->now() + 10 * kSecond;
    while (outstanding > 0 && harness.loop()->now() < deadline) {
      harness.loop()->RunFor(1'000);
    }
  }
  const uint64_t syncs =
      PrimaryCounter(&harness, primary, "binlog.syncs") - syncs_before;
  result.fsync_per_commit =
      result.acked == 0 ? 0.0
                        : static_cast<double>(syncs) / result.acked;
  result.internals_json = bench::ClusterInternalsJson(harness);
  return result;
}

int RunCommitLatency(const bench::BenchArgs& args) {
  bench::PrintHeader("Commit latency: coalesced group commit",
                     "§3.4 three-stage group commit; §5 Figure 5 latency");
  struct Config {
    const char* name;
    int clients;
  };
  const Config configs[] = {
      {"coalesced_1c", 1},
      {"coalesced_8c", 8},
  };
  const int writes = args.quick ? 160 : 800;

  bench::PrintPercentileHeaderMs();
  std::string summary = "{";
  std::string ratios = "{";
  std::string cluster_internals = "null";
  bool failed = false;
  for (const Config& config : configs) {
    const CommitLatencyResult result =
        RunCommitLatencyConfig(args.seed, config.clients, writes);
    if (result.acked < writes) failed = true;
    bench::PrintPercentileRowMs("coalesced",
                                config.clients == 1 ? "1-client" : "8-client",
                                result.latency);
    printf("  %-22s fsync/commit = %.3f (%d/%d acked)\n", config.name,
           result.fsync_per_commit, result.acked, writes);
    if (summary.size() > 1) summary += ",";
    summary += StringPrintf(
        "\"%s\":{\"latency\":%s,\"fsync_per_commit\":%.4f,\"acked\":%d}",
        config.name, bench::HistogramJson(result.latency).c_str(),
        result.fsync_per_commit, result.acked);
    if (ratios.size() > 1) ratios += ",";
    ratios += StringPrintf("\"%s\":%.4f", config.name,
                           result.fsync_per_commit);
    if (!result.internals_json.empty()) {
      cluster_internals = result.internals_json;  // last config wins
    }
  }
  summary += "}";
  ratios += "}";
  // Internals: the fsync amortization at a glance (1 vs 8 clients) plus
  // the last config's (coalesced_8c) metric snapshot and sampler time
  // series. The full latency histograms live in the summary.
  const std::string internals = StringPrintf(
      "{\"fsync_per_commit\":%s,\"cluster\":%s}", ratios.c_str(),
      cluster_internals.c_str());
  if (!bench::WriteBenchJson("micro_commit_latency", summary, internals)) {
    return 1;
  }
  if (failed) {
    fprintf(stderr, "some writes failed or timed out\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace myraft

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (strcmp(argv[i], "--commit-latency") == 0) {
      return myraft::RunCommitLatency(myraft::bench::ParseArgs(argc, argv));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
