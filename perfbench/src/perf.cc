#include "perf.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "util/string_util.h"

namespace myraft::perf {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::pair<double, double> Samples::Tail(size_t beyond) const {
  const size_t n = values_.size();
  if (n <= beyond) return {0.0, 0.0};
  // Percentile p leaves n * (1 - p/100) samples above it; keep the largest
  // whole p for which that is still >= `beyond`.
  double p = std::floor(100.0 * (1.0 - static_cast<double>(beyond) /
                                           static_cast<double>(n)));
  p = std::max(50.0, std::min(p, 99.9));
  return {p, Percentile(p)};
}

std::string FormatDouble(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, ClockKind clock) {
  for (auto& [existing, metric] : metrics_) {
    if (existing == name) {
      metric = Metric{value, unit, clock};
      return;
    }
  }
  metrics_.emplace_back(name, Metric{value, unit, clock});
}

double Report::Get(const std::string& name) const {
  for (const auto& [existing, metric] : metrics_) {
    if (existing == name) return metric.value;
  }
  return 0.0;
}

std::string Report::ToText() const {
  static const char* kClock[] = {"sim", "host", "-"};
  std::string out;
  for (const auto& [name, metric] : metrics_) {
    out += StringPrintf("  %-36s %16s %-10s [%s]\n", name.c_str(),
                        FormatDouble(metric.value).c_str(),
                        metric.unit.c_str(),
                        kClock[static_cast<int>(metric.clock)]);
  }
  return out;
}

std::string Report::ToJson(const std::vector<std::string>& names) const {
  std::string out = "{";
  for (const std::string& name : names) {
    for (const auto& [existing, metric] : metrics_) {
      if (existing != name) continue;
      if (out.size() > 1) out += ", ";
      out += StringPrintf("\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                          name.c_str(), FormatDouble(metric.value).c_str(),
                          metric.unit.c_str());
    }
  }
  return out + "}";
}

uint64_t CpuStopwatch::Now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ReferenceCpuNanos() {
  static volatile uint64_t sink = 0;
  std::vector<uint64_t> runs;
  for (int run = 0; run < 3; ++run) {
    CpuStopwatch watch;
    uint64_t x = 88172645463325252ull;  // xorshift64, fixed start
    auto next = [&x]() {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::map<uint64_t, std::string> rows;
    for (int i = 0; i < 15'000; ++i) {
      rows.emplace(next() % 1'000'000, std::string(40 + next() % 40, 'r'));
    }
    uint64_t found = 0;
    for (int i = 0; i < 15'000; ++i) {
      auto it = rows.find(next() % 1'000'000);
      if (it != rows.end()) found += it->second.size();
    }
    std::vector<uint64_t> keys(80'000);
    for (uint64_t& key : keys) key = next();
    std::sort(keys.begin(), keys.end());
    sink = sink + found + keys[keys.size() / 2];
    runs.push_back(watch.Nanos());
  }
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

uint64_t PeakRssKb() {
  FILE* f = fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (fgets(line, sizeof(line), f) != nullptr) {
    if (strncmp(line, "VmHWM:", 6) == 0) {
      kb = strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  fclose(f);
  return kb;
}

bool LoopDriver::Step() {
  if (!timed_) {
    if (!loop_->RunOne()) return false;
  } else {
    const auto start = std::chrono::steady_clock::now();
    const bool ran = loop_->RunOne();
    timed_ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (!ran) return false;
  }
  ++events_;
  return true;
}

void LoopDriver::RunUntil(uint64_t deadline_micros) {
  if (deadline_micros < loop_->now()) return;
  // A sentinel at the deadline: everything scheduled so far at or before
  // it runs first (the queue is stable on equal times).
  bool reached = false;
  loop_->Schedule(deadline_micros - loop_->now(), [&reached]() {
    reached = true;
  });
  while (!reached && Step()) {
  }
}

void LoopDriver::RunUntilDone(const std::function<bool()>& done,
                              uint64_t deadline_micros) {
  while (!done() && loop_->now() <= deadline_micros) {
    if (!Step()) break;
  }
}

void AddNetworkTotals(const sim::SimNetwork& network, ClusterCounters* out) {
  for (const auto& [regions, stats] : network.link_stats()) {
    out->net_messages += stats.messages;
    out->net_bytes += stats.bytes;
    if (regions.first != regions.second) {
      out->net_cross_region_bytes += stats.bytes;
    }
  }
}

void AddRegistryRollup(const metrics::MetricSnapshot& rollup,
                       ClusterCounters* out) {
  // "shard.<rs>.raft.x" -> "raft.x"; bare names pass through.
  auto family = [](const std::string& key) {
    if (key.rfind("shard.", 0) != 0) return key;
    const size_t dot = key.find('.', 6);
    return dot == std::string::npos ? key : key.substr(dot + 1);
  };
  metrics::MetricSnapshot folded;
  for (const auto& [key, value] : rollup.counters) {
    folded.counters[family(key)] += value;
  }
  for (const auto& [key, value] : rollup.gauges) {
    folded.gauges[family(key)] += value;
  }
  for (const auto& [key, histogram] : rollup.histograms) {
    folded.histograms[family(key)].Merge(histogram);
  }
  out->registry.MergeFrom(folded);
}

void LayerTally::AddDelta(const ClusterCounters& before,
                          const ClusterCounters& after) {
  counters.registry.MergeFrom(after.registry.DeltaSince(before.registry));
  counters.net_messages += after.net_messages - before.net_messages;
  counters.net_bytes += after.net_bytes - before.net_bytes;
  counters.net_cross_region_bytes +=
      after.net_cross_region_bytes - before.net_cross_region_bytes;
}

void LayerTally::AddTrace(std::vector<trace::JournalView> journals,
                          uint64_t dropped, bool crash_trial) {
  for (const trace::JournalView& journal : journals) {
    trace_records += journal.records.size();
    for (const trace::TraceRecord& record : journal.records) {
      // "dest=<id> n=<entries>": each entry was one LogCache::Get.
      if (record.category != "proxy" || record.name != "reconstituted") {
        continue;
      }
      const size_t n = record.args.find(" n=");
      if (n != std::string::npos) {
        reconstituted_entries += strtoull(record.args.c_str() + n + 3,
                                          nullptr, 10);
      }
    }
  }
  trace_dropped += dropped;
  trace::TraceAnalyzer analyzer(std::move(journals));
  for (const auto& [stage, histogram] : analyzer.StageHistograms()) {
    stages[stage].Merge(histogram);
  }
  if (!crash_trial) return;
  const trace::TraceAnalyzer::FailoverPhases phases =
      analyzer.FailoverBreakdown();
  if (!phases.complete) return;
  failover_detect_ms.Add(phases.detect_micros / 1000.0);
  failover_election_ms.Add(phases.election_micros / 1000.0);
  failover_promotion_ms.Add(phases.promotion_micros / 1000.0);
  failover_first_write_ms.Add(phases.first_write_micros / 1000.0);
}

uint64_t ClusterCounters::Counter(const std::string& name) const {
  auto it = registry.counters.find(name);
  return it == registry.counters.end() ? 0 : it->second;
}

uint64_t LoopPosition(sim::EventLoop* loop) {
  const uint64_t id = loop->Schedule(0, []() {});
  loop->Cancel(id);
  return id;
}

std::string RowValue(Random* rng, size_t size) {
  std::string value(size, 'x');
  for (size_t i = 0; i < value.size(); i += 16) {
    value[i] = static_cast<char>('a' + (rng->Next() % 26));
  }
  return value;
}

const Histogram* LayerTally::FindHistogram(const std::string& name) const {
  auto it = counters.registry.histograms.find(name);
  return it == counters.registry.histograms.end() ? nullptr : &it->second;
}

std::vector<chaos::AckedWrite> LatestPerKey(
    const std::vector<chaos::AckedWrite>& acked) {
  std::map<std::string, chaos::AckedWrite> latest;
  for (const chaos::AckedWrite& write : acked) {
    auto [it, inserted] = latest.emplace(write.key, write);
    if (!inserted && it->second.opid < write.opid) it->second = write;
  }
  std::vector<chaos::AckedWrite> out;
  out.reserve(latest.size());
  for (auto& [key, write] : latest) out.push_back(std::move(write));
  return out;
}

}  // namespace myraft::perf
