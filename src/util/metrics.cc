#include "util/metrics.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <unordered_map>

#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::metrics {

namespace {

// Trims trailing zeros from a printf'd double so JSON output stays tidy
// ("12.5" instead of "12.500000").
std::string FormatDouble(double v) {
  std::string s = StringPrintf("%.3f", v);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s.empty() ? "0" : s;
}

std::string HistogramJson(const Histogram& h) {
  return StringPrintf(
      "{\"count\":%llu,\"min\":%llu,\"max\":%llu,\"mean\":%s,"
      "\"p50\":%s,\"p90\":%s,\"p99\":%s}",
      (unsigned long long)h.count(), (unsigned long long)h.min(),
      (unsigned long long)h.max(), FormatDouble(h.Mean()).c_str(),
      FormatDouble(h.Percentile(50)).c_str(),
      FormatDouble(h.Percentile(90)).c_str(),
      FormatDouble(h.Percentile(99)).c_str());
}

// Entries a full registry index grows by (see MetricRegistry::Resolve).
constexpr size_t kIndexGrowth = 16;

/// The process-wide name table: one id per distinct metric name, shared by
/// every registry, so a registry stores 4-byte ids instead of strings and
/// resolving a name costs one hash.
class NameTable {
 public:
  uint32_t Intern(std::string_view name) {
    auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(names_.back(), id);  // deque elements never move
    return id;
  }
  /// Id of an interned name; nullopt when no registry ever registered it.
  std::optional<uint32_t> Lookup(std::string_view name) const {
    auto it = ids_.find(name);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
  }
  const std::string& Name(uint32_t id) const { return names_[id]; }

 private:
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, uint32_t> ids_;
};

NameTable& GlobalNames() {
  static auto* table = new NameTable();  // never destroyed: outlives statics
  return *table;
}

}  // namespace

MetricSnapshot MetricSnapshot::DeltaSince(const MetricSnapshot& earlier) const {
  MetricSnapshot delta;
  for (const auto& [name, value] : counters) {
    auto it = earlier.counters.find(name);
    const uint64_t base = it == earlier.counters.end() ? 0 : it->second;
    // Counters are monotone; clamp anyway so mismatched snapshots degrade
    // to an empty window instead of wrapping.
    delta.counters[name] = value >= base ? value - base : 0;
  }
  delta.gauges = gauges;  // instantaneous levels, not rates
  for (const auto& [name, hist] : histograms) {
    auto it = earlier.histograms.find(name);
    delta.histograms[name] =
        it == earlier.histograms.end() ? hist : hist.Delta(it->second);
  }
  return delta;
}

void MetricSnapshot::MergeFrom(const MetricSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, value] : other.gauges) gauges[name] += value;
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].Merge(hist);
  }
}

std::string MetricSnapshot::ToJson() const {
  std::map<std::string, std::string> fields;
  for (const auto& [name, value] : counters) {
    fields[name] = StringPrintf("%llu", (unsigned long long)value);
  }
  for (const auto& [name, value] : gauges) {
    fields[name] = StringPrintf("%lld", (long long)value);
  }
  for (const auto& [name, hist] : histograms) {
    fields[name] = HistogramJson(hist);
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : fields) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":";
    out += value;
  }
  out += '}';
  return out;
}

std::vector<MetricRegistry::Entry>::const_iterator MetricRegistry::Locate(
    uint32_t id) const {
  return std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const Entry& entry, uint32_t key) { return entry.id < key; });
}

template <typename T>
T* MetricRegistry::Resolve(std::string_view name, Kind kind, Slots<T>* slots) {
  const uint32_t id = GlobalNames().Intern(name);
  auto it = Locate(id);
  if (it != index_.end() && it->id == id) {
    MYRAFT_CHECK(it->kind == kind);
    return &(*slots)[it->slot];
  }
  // Grow the index a few entries at a time: a registry stops growing
  // once its components are built, and doubling would leave up to half
  // of every node's index empty.
  if (index_.size() == index_.capacity()) {
    const auto at = it - index_.cbegin();
    index_.reserve(index_.size() + kIndexGrowth);
    it = index_.cbegin() + at;
  }
  index_.insert(it, Entry{id, kind, slots->size()});
  return slots->Append();
}

template <typename T>
const T* MetricRegistry::Find(std::string_view name, Kind kind,
                              const Slots<T>& slots) const {
  const std::optional<uint32_t> id = GlobalNames().Lookup(name);
  if (!id) return nullptr;
  auto it = Locate(*id);
  if (it == index_.end() || it->id != *id || it->kind != kind) return nullptr;
  return &slots[it->slot];
}

Counter* MetricRegistry::GetCounter(std::string_view name) {
  return Resolve(name, kCounter, &counters_);
}

Gauge* MetricRegistry::GetGauge(std::string_view name) {
  return Resolve(name, kGauge, &gauges_);
}

HistogramMetric* MetricRegistry::GetHistogram(std::string_view name) {
  return Resolve(name, kHistogram, &histograms_);
}

const Counter* MetricRegistry::FindCounter(std::string_view name) const {
  return Find(name, kCounter, counters_);
}

const Gauge* MetricRegistry::FindGauge(std::string_view name) const {
  return Find(name, kGauge, gauges_);
}

const HistogramMetric* MetricRegistry::FindHistogram(
    std::string_view name) const {
  return Find(name, kHistogram, histograms_);
}

std::vector<MetricRegistry::Entry> MetricRegistry::ByName() const {
  std::vector<Entry> entries = index_;
  const NameTable& names = GlobalNames();
  std::sort(entries.begin(), entries.end(),
            [&names](const Entry& a, const Entry& b) {
              return names.Name(a.id) < names.Name(b.id);
            });
  return entries;
}

std::vector<std::string> MetricRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(index_.size());
  for (const Entry& entry : ByName()) {
    names.push_back(prefix_ + GlobalNames().Name(entry.id));
  }
  return names;
}

MetricSnapshot MetricRegistry::Snapshot() const {
  MetricSnapshot snap;
  for (const Entry& entry : index_) {
    std::string name = prefix_ + GlobalNames().Name(entry.id);
    switch (entry.kind) {
      case kCounter:
        snap.counters[std::move(name)] = counters_[entry.slot].value();
        break;
      case kGauge:
        snap.gauges[std::move(name)] = gauges_[entry.slot].value();
        break;
      case kHistogram:
        snap.histograms[std::move(name)] =
            histograms_[entry.slot].histogram();
        break;
    }
  }
  return snap;
}

std::string MetricRegistry::ToText() const {
  std::string out;
  for (const Entry& entry : ByName()) {
    const std::string full = prefix_ + GlobalNames().Name(entry.id);
    switch (entry.kind) {
      case kCounter:
        out += StringPrintf("%s counter %llu", full.c_str(),
                            (unsigned long long)counters_[entry.slot].value());
        break;
      case kGauge:
        out += StringPrintf("%s gauge %lld", full.c_str(),
                            (long long)gauges_[entry.slot].value());
        break;
      case kHistogram: {
        const Histogram& h = histograms_[entry.slot].histogram();
        out += StringPrintf(
            "%s histogram count=%llu mean=%s p99=%s max=%llu", full.c_str(),
            (unsigned long long)h.count(), FormatDouble(h.Mean()).c_str(),
            FormatDouble(h.Percentile(99)).c_str(),
            (unsigned long long)h.max());
        break;
      }
    }
    out += '\n';
  }
  return out;
}

std::string MetricRegistry::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const Entry& entry : ByName()) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += prefix_;
    out += GlobalNames().Name(entry.id);  // identifier-like; no escaping
    out += "\":";
    switch (entry.kind) {
      case kCounter:
        out += StringPrintf("%llu",
                            (unsigned long long)counters_[entry.slot].value());
        break;
      case kGauge:
        out += StringPrintf("%lld", (long long)gauges_[entry.slot].value());
        break;
      case kHistogram:
        out += HistogramJson(histograms_[entry.slot].histogram());
        break;
    }
  }
  out += '}';
  return out;
}

size_t MetricRegistry::memory_bytes() const {
  size_t bytes = index_.capacity() * sizeof(Entry) +
                 counters_.memory_bytes() + gauges_.memory_bytes() +
                 histograms_.memory_bytes();
  for (uint32_t slot = 0; slot < histograms_.size(); ++slot) {
    bytes += histograms_[slot].histogram().memory_bytes();
  }
  return bytes;
}

}  // namespace myraft::metrics
