#include "util/trace.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "util/string_util.h"

namespace myraft::trace {

namespace {

void AppendJsonEscaped(std::string_view in, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (char c : in) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append("\\u00");
          out->push_back(kHex[c >> 4]);
          out->push_back(kHex[c & 0xf]);
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendJsonString(std::string_view in, std::string* out) {
  out->push_back('"');
  AppendJsonEscaped(in, out);
  out->push_back('"');
}

std::string JsonString(std::string_view in) {
  std::string out;
  AppendJsonString(in, &out);
  return out;
}

const char* KindTag(RecordKind kind) {
  switch (kind) {
    case RecordKind::kSpanBegin: return "B";
    case RecordKind::kSpanEnd: return "E";
    case RecordKind::kInstant: return "I";
  }
  return "?";
}

// Appends `,"key":value` for a nonzero id.
void AppendIdField(const char* key, uint64_t value, std::string* out) {
  if (value == 0) return;
  out->append(key);
  AppendDecimal(out, value);
}

// One merged-timeline record as a compact JSON object — the shared shape
// behind ExportJsonl (newline-delimited) and ExportJsonArrayTail
// (comma-joined array for flight-recorder bundles).
void AppendRecordJson(const std::string& node, const TraceRecord& r,
                      std::string* out) {
  out->append("{\"node\":");
  AppendJsonString(node, out);
  out->append(",\"seq\":");
  AppendDecimal(out, r.seq);
  out->append(",\"ts\":");
  AppendDecimal(out, r.ts_micros);
  out->append(",\"ph\":\"");
  out->append(KindTag(r.kind));
  out->push_back('"');
  if (!r.category.empty()) {
    out->append(",\"cat\":");
    AppendJsonString(r.category, out);
  }
  if (!r.name.empty()) {
    out->append(",\"name\":");
    AppendJsonString(r.name, out);
  }
  AppendIdField(",\"trace\":", r.trace_id, out);
  AppendIdField(",\"span\":", r.span_id, out);
  AppendIdField(",\"parent\":", r.parent_span_id, out);
  if (!r.args.empty()) {
    out->append(",\"args\":");
    AppendJsonString(r.args, out);
  }
  out->push_back('}');
}

// The (kind, category, name) triples of begun spans and instants, each
// interned once as a small id that heads its records (0 heads a span end).
// Literals live for the program's lifetime, so the table keeps views. Like
// Tracer it is not thread-safe; the simulator is single-threaded.
class LiteralTable {
 public:
  struct Entry {
    RecordKind kind;
    std::string_view category;
    std::string_view name;
  };

  uint32_t Intern(RecordKind kind, std::string_view category,
                  std::string_view name) {
    const Key key{category.data(), name.data(), category.size(), name.size(),
                  kind};
    auto [it, inserted] = ids_.try_emplace(key, 0);
    if (inserted) {
      // The same text at another address (another translation unit's copy
      // of the literal) shares the id.
      const auto same = std::find_if(
          entries_.begin(), entries_.end(), [&](const Entry& entry) {
            return entry.kind == kind && entry.category == category &&
                   entry.name == name;
          });
      it->second = static_cast<uint32_t>(same - entries_.begin()) + 1;
      if (same == entries_.end()) entries_.push_back({kind, category, name});
    }
    return it->second;
  }
  const Entry& at(uint64_t id) const { return entries_[id - 1]; }

 private:
  struct Key {
    const char* category;
    const char* name;
    size_t category_size;
    size_t name_size;
    RecordKind kind;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const {
      const auto a = reinterpret_cast<uintptr_t>(key.category);
      const auto b = reinterpret_cast<uintptr_t>(key.name);
      return std::hash<uintptr_t>()(a * 31 + b * 17 + key.category_size +
                                    (key.name_size << 8) +
                                    static_cast<size_t>(key.kind));
    }
  };

  std::unordered_map<Key, uint32_t, KeyHash> ids_;
  std::vector<Entry> entries_;
};

LiteralTable& Literals() {
  static LiteralTable* table = new LiteralTable;
  return *table;
}

// Block sizes: half the journal's live bytes, within these bounds.
constexpr size_t kMinBlockBytes = 256;
constexpr size_t kMaxBlockBytes = 64 * 1024;
// A record's varints before its args: id, ts delta, trace, span, parent,
// args length.
constexpr size_t kMaxHeaderBytes = 6 * 10;

char* WriteVarint(char* p, uint64_t value) {
  while (value >= 0x80) {
    *p++ = static_cast<char>(value | 0x80);
    value >>= 7;
  }
  *p++ = static_cast<char>(value);
  return p;
}

uint64_t ReadVarint(const char** p) {
  uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    const auto byte = static_cast<uint8_t>(*(*p)++);
    value |= uint64_t{byte & 0x7fu} << shift;
    if (byte < 0x80) return value;
  }
}

// Decodes the journal record at `p` and returns the byte after it. Its
// timestamp is *ts plus the stored delta, and becomes *ts. Span ids are
// stored xor the tracer's salt bits, so the tracer's own ids stay short.
// With a null `out` the record is only skipped.
const char* DecodeRecord(const char* p, uint64_t salt_bits, uint64_t* ts,
                         TraceRecord* out) {
  const uint64_t id = ReadVarint(&p);
  const RecordKind kind =
      id == 0 ? RecordKind::kSpanEnd : Literals().at(id).kind;
  *ts += ReadVarint(&p);
  const uint64_t trace_id = kind == RecordKind::kSpanEnd ? 0 : ReadVarint(&p);
  const uint64_t span_id =
      kind == RecordKind::kInstant ? 0 : ReadVarint(&p) ^ salt_bits;
  const uint64_t parent_span_id =
      kind == RecordKind::kSpanBegin ? ReadVarint(&p) : 0;
  const uint64_t args_size = ReadVarint(&p);
  if (out != nullptr) {
    out->kind = kind;
    out->ts_micros = *ts;
    out->trace_id = trace_id;
    out->span_id = span_id;
    out->parent_span_id = parent_span_id;
    if (id != 0) {
      out->category = Literals().at(id).category;
      out->name = Literals().at(id).name;
    }
    out->args.assign(p, args_size);
  }
  return p + args_size;
}

}  // namespace

Tracer::Tracer(TracerOptions options) : options_(std::move(options)) {
  metrics::MetricRegistry* registry = options_.metrics;
  if (registry == nullptr) {
    owned_metrics_ = std::make_unique<metrics::MetricRegistry>();
    registry = owned_metrics_.get();
  }
  dropped_counter_ = registry->GetCounter("trace.dropped");
}

uint64_t Tracer::BeginSpan(Literal category, Literal name, uint64_t trace_id,
                           uint64_t parent_span_id, std::string_view args) {
  const uint64_t span_id = NextId();
  Push(Literals().Intern(RecordKind::kSpanBegin, category.view(), name.view()),
       trace_id, span_id, parent_span_id, args);
  return span_id;
}

void Tracer::EndSpan(uint64_t span_id, std::string_view args) {
  if (span_id == 0) return;
  Push(0, 0, span_id, 0, args);
}

void Tracer::Instant(Literal category, Literal name, uint64_t trace_id,
                     std::string_view args) {
  Push(Literals().Intern(RecordKind::kInstant, category.view(), name.view()),
       trace_id, 0, 0, args);
}

void Tracer::Push(uint32_t id, uint64_t trace_id, uint64_t span_id,
                  uint64_t parent_span_id, std::string_view args) {
  ++next_seq_;
  if (options_.capacity == 0) {
    ++dropped_;
    dropped_counter_->Increment();
    return;
  }
  while (count_ >= options_.capacity) DropOldest();

  const uint64_t now = options_.clock ? options_.clock->NowMicros() : 0;
  const RecordKind kind =
      id == 0 ? RecordKind::kSpanEnd : Literals().at(id).kind;
  char header[kMaxHeaderBytes];
  char* p = WriteVarint(header, id);
  p = WriteVarint(p, now - last_ts_);
  if (kind != RecordKind::kSpanEnd) p = WriteVarint(p, trace_id);
  if (kind != RecordKind::kInstant) {
    p = WriteVarint(p, span_id ^ (options_.id_salt << 40));
  }
  if (kind == RecordKind::kSpanBegin) p = WriteVarint(p, parent_span_id);
  p = WriteVarint(p, args.size());
  const size_t header_size = p - header;
  const size_t size = header_size + args.size();
  char* dst = Reserve(size);
  std::memcpy(dst, header, header_size);
  if (!args.empty()) std::memcpy(dst + header_size, args.data(), args.size());
  last_ts_ = now;
  live_bytes_ += size;
  ++count_;
}

void Tracer::DropOldest() {
  Block& block = blocks_[head_];
  const char* start = block.data.get() + block.begin;
  const size_t size =
      DecodeRecord(start, options_.id_salt << 40, &base_ts_, nullptr) - start;
  block.begin += size;
  live_bytes_ -= size;
  --count_;
  ++dropped_;
  dropped_counter_->Increment();
  if (block.begin == block.end) {  // emptied: free for the tail to reuse
    block.begin = block.end = 0;
    if (head_ != tail_) head_ = (head_ + 1) % blocks_.size();
  }
}

char* Tracer::Reserve(size_t n) {
  if (blocks_.empty() || blocks_[tail_].capacity - blocks_[tail_].end < n) {
    const size_t next = blocks_.empty() ? 0 : (tail_ + 1) % blocks_.size();
    if (blocks_.empty() || next == head_ || blocks_[next].capacity < n) {
      // No emptied block fits: add one after the tail. Existing blocks
      // never move their bytes.
      const size_t capacity = std::max(
          n, std::clamp(live_bytes_ / 2, kMinBlockBytes, kMaxBlockBytes));
      const size_t at = blocks_.empty() ? 0 : tail_ + 1;
      blocks_.insert(blocks_.begin() + at,
                     Block{std::make_unique_for_overwrite<char[]>(capacity),
                           capacity});
      if (blocks_.size() > 1 && head_ >= at) ++head_;
      tail_ = at;
    } else {
      tail_ = next;
    }
    if (count_ == 0) head_ = tail_;
  }
  Block& tail = blocks_[tail_];
  char* dst = tail.data.get() + tail.end;
  tail.end += n;
  return dst;
}

std::vector<TraceRecord> Tracer::Snapshot() const {
  std::vector<TraceRecord> out;
  if (count_ == 0) return out;
  out.reserve(count_);
  uint64_t ts = base_ts_;
  uint64_t seq = next_seq_ - count_;
  for (size_t i = head_;; i = (i + 1) % blocks_.size()) {
    const Block& block = blocks_[i];
    const char* end = block.data.get() + block.end;
    for (const char* p = block.data.get() + block.begin; p < end;) {
      TraceRecord& record = out.emplace_back();
      record.seq = ++seq;
      p = DecodeRecord(p, options_.id_salt << 40, &ts, &record);
    }
    if (i == tail_) break;
  }
  return out;
}

void Tracer::Clear() {
  blocks_ = std::vector<Block>();
  head_ = tail_ = 0;
  count_ = 0;
  live_bytes_ = 0;
  base_ts_ = last_ts_;
}

size_t Tracer::memory_bytes() const {
  size_t bytes = blocks_.capacity() * sizeof(Block) + scratch_.capacity();
  for (const Block& block : blocks_) bytes += block.capacity;
  return bytes;
}

std::vector<std::pair<std::string, TraceRecord>> MergeJournals(
    const std::vector<JournalView>& journals) {
  std::vector<std::pair<std::string, TraceRecord>> merged;
  size_t total = 0;
  for (const auto& journal : journals) total += journal.records.size();
  merged.reserve(total);
  for (const auto& journal : journals) {
    for (const auto& record : journal.records) {
      merged.emplace_back(journal.node, record);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const auto& a, const auto& b) {
              if (a.second.ts_micros != b.second.ts_micros) {
                return a.second.ts_micros < b.second.ts_micros;
              }
              if (a.first != b.first) return a.first < b.first;
              return a.second.seq < b.second.seq;
            });
  return merged;
}

std::string ExportJsonl(const std::vector<JournalView>& journals) {
  std::string out;
  for (const auto& [node, r] : MergeJournals(journals)) {
    AppendRecordJson(node, r, &out);
    out.push_back('\n');
  }
  return out;
}

std::string ExportJsonArrayTail(const std::vector<JournalView>& journals,
                                size_t max_records) {
  const auto merged = MergeJournals(journals);
  const size_t start =
      merged.size() > max_records ? merged.size() - max_records : 0;
  std::string out = "[";
  for (size_t i = start; i < merged.size(); ++i) {
    if (i != start) out.push_back(',');
    AppendRecordJson(merged[i].first, merged[i].second, &out);
  }
  out.push_back(']');
  return out;
}

std::string ExportChromeJson(const std::vector<JournalView>& journals) {
  std::string out = "{\"traceEvents\":[";
  bool first_event = true;
  auto emit = [&out, &first_event](const std::string& event) {
    if (!first_event) out.push_back(',');
    first_event = false;
    out.append("\n");
    out.append(event);
  };

  int pid = 0;
  for (const auto& journal : journals) {
    ++pid;
    emit(StringPrintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                      "\"name\":\"process_name\",\"args\":{\"name\":%s}}",
                      pid, JsonString(journal.node).c_str()));

    // One Perfetto "thread" per subsystem category, in first-use order.
    std::vector<std::string_view> categories;
    auto tid_for = [&categories](std::string_view category) {
      for (size_t i = 0; i < categories.size(); ++i) {
        if (categories[i] == category) return static_cast<int>(i) + 1;
      }
      categories.push_back(category);
      return static_cast<int>(categories.size());
    };

    auto span_args = [](const TraceRecord& begin, const std::string& end_args) {
      std::string args = StringPrintf(
          "{\"trace\":\"%llu\",\"span\":\"%llu\",\"parent\":\"%llu\"",
          (unsigned long long)begin.trace_id,
          (unsigned long long)begin.span_id,
          (unsigned long long)begin.parent_span_id);
      if (!begin.args.empty()) args.append(",\"begin\":" + JsonString(begin.args));
      if (!end_args.empty()) args.append(",\"end\":" + JsonString(end_args));
      args.push_back('}');
      return args;
    };

    std::unordered_map<uint64_t, TraceRecord> open_spans;
    for (const auto& r : journal.records) {
      switch (r.kind) {
        case RecordKind::kSpanBegin:
          open_spans[r.span_id] = r;
          break;
        case RecordKind::kSpanEnd: {
          auto it = open_spans.find(r.span_id);
          if (it == open_spans.end()) break;  // begin dropped or pre-crash
          const TraceRecord& b = it->second;
          emit(StringPrintf(
              "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%llu,"
              "\"dur\":%llu,\"cat\":%s,\"name\":%s,\"args\":%s}",
              pid, tid_for(b.category), (unsigned long long)b.ts_micros,
              (unsigned long long)(r.ts_micros - b.ts_micros),
              JsonString(b.category).c_str(), JsonString(b.name).c_str(),
              span_args(b, r.args).c_str()));
          open_spans.erase(it);
          break;
        }
        case RecordKind::kInstant:
          emit(StringPrintf(
              "{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%llu,"
              "\"cat\":%s,\"name\":%s,\"args\":%s}",
              pid, tid_for(r.category), (unsigned long long)r.ts_micros,
              JsonString(r.category).c_str(), JsonString(r.name).c_str(),
              span_args(r, std::string()).c_str()));
          break;
      }
    }
    // Never-closed spans (e.g. the leader crashed mid-commit): emit
    // zero-duration markers in journal order so they stay visible.
    std::vector<TraceRecord> unmatched;
    unmatched.reserve(open_spans.size());
    for (const auto& [id, b] : open_spans) unmatched.push_back(b);
    std::sort(unmatched.begin(), unmatched.end(),
              [](const TraceRecord& a, const TraceRecord& b) {
                return a.seq < b.seq;
              });
    for (const auto& b : unmatched) {
      emit(StringPrintf(
          "{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%llu,\"dur\":0,"
          "\"cat\":%s,\"name\":%s,\"args\":%s}",
          pid, tid_for(b.category), (unsigned long long)b.ts_micros,
          JsonString(b.category).c_str(), JsonString(b.name).c_str(),
          span_args(b, "unclosed").c_str()));
    }
    for (size_t i = 0; i < categories.size(); ++i) {
      emit(StringPrintf("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                        "\"name\":\"thread_name\",\"args\":{\"name\":%s}}",
                        pid, static_cast<int>(i) + 1,
                        JsonString(categories[i]).c_str()));
    }
  }
  out.append("\n]}\n");
  return out;
}

TraceAnalyzer::TraceAnalyzer(std::vector<JournalView> journals)
    : merged_(MergeJournals(journals)) {
  // Stage histograms: durations of matched begin/end pairs keyed by
  // "category.name". Spans are matched within their owning journal.
  std::unordered_map<std::string, std::unordered_map<uint64_t, TraceRecord>>
      open;
  for (const auto& [node, r] : merged_) {
    if (r.kind == RecordKind::kSpanBegin) {
      open[node][r.span_id] = r;
    } else if (r.kind == RecordKind::kSpanEnd) {
      auto node_it = open.find(node);
      if (node_it == open.end()) continue;
      auto it = node_it->second.find(r.span_id);
      if (it == node_it->second.end()) continue;
      std::string stage(it->second.category);
      stage.push_back('.');
      stage.append(it->second.name);
      stages_[stage].Add(r.ts_micros - it->second.ts_micros);
      node_it->second.erase(it);
    }
  }
}

std::string TraceAnalyzer::StageBreakdownJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [stage, hist] : stages_) {
    if (!first) out.push_back(',');
    first = false;
    out.append(StringPrintf(
        "%s:{\"count\":%llu,\"mean_us\":%.1f,\"p50_us\":%.1f,"
        "\"p95_us\":%.1f,\"p99_us\":%.1f,\"max_us\":%llu}",
        JsonString(stage).c_str(), (unsigned long long)hist.count(),
        hist.Mean(), hist.Percentile(50), hist.Percentile(95),
        hist.Percentile(99), (unsigned long long)hist.max()));
  }
  out.push_back('}');
  return out;
}

TraceAnalyzer::FailoverPhases TraceAnalyzer::FailoverBreakdown() const {
  FailoverPhases phases;
  auto saturating_sub = [](uint64_t a, uint64_t b) {
    return a > b ? a - b : 0;
  };

  // t0: the harness-emitted crash marker.
  uint64_t t_crash = 0;
  bool have_crash = false;
  for (const auto& [node, r] : merged_) {
    if (r.kind == RecordKind::kInstant && r.category == "fault" &&
        r.name == "crash") {
      t_crash = r.ts_micros;
      have_crash = true;
      break;
    }
  }
  if (!have_crash) return phases;
  phases.crash_ts_micros = t_crash;

  // Detection: the first campaign anywhere after the crash.
  uint64_t t_campaign = 0;
  bool have_campaign = false;
  for (const auto& [node, r] : merged_) {
    if (r.ts_micros < t_crash || r.kind != RecordKind::kInstant ||
        r.category != "raft") {
      continue;
    }
    if (r.name == "pre_vote_started" || r.name == "election_started" ||
        r.name == "mock_election_started") {
      t_campaign = r.ts_micros;
      have_campaign = true;
      break;
    }
  }

  // The node that finishes promotion is the new primary; its winning
  // election closes the election phase (an interim logtailer win and the
  // subsequent handoff are charged to the election phase too).
  uint64_t t_promo_done = 0;
  std::string winner;
  for (const auto& [node, r] : merged_) {
    if (r.ts_micros >= t_crash && r.kind == RecordKind::kInstant &&
        r.category == "server" && r.name == "promotion_completed") {
      t_promo_done = r.ts_micros;
      winner = node;
      break;
    }
  }
  if (winner.empty() || !have_campaign) return phases;

  uint64_t t_won = 0;
  for (const auto& [node, r] : merged_) {
    if (r.ts_micros > t_promo_done) break;
    if (node == winner && r.kind == RecordKind::kInstant &&
        r.category == "raft" && r.name == "election_won") {
      t_won = r.ts_micros;  // keep the last win before promotion completed
    }
  }
  if (t_won == 0) return phases;

  // First accepted write: the first commit.total span that *ends* on the
  // new primary after promotion completed.
  std::unordered_map<uint64_t, TraceRecord> open;
  uint64_t t_first_write = 0;
  for (const auto& [node, r] : merged_) {
    if (node != winner) continue;
    if (r.kind == RecordKind::kSpanBegin && r.category == "server" &&
        r.name == "commit.total") {
      open[r.span_id] = r;
    } else if (r.kind == RecordKind::kSpanEnd && open.count(r.span_id)) {
      if (r.ts_micros >= t_promo_done) {
        t_first_write = r.ts_micros;
        break;
      }
      open.erase(r.span_id);
    }
  }
  if (t_first_write == 0) return phases;

  phases.complete = true;
  phases.winner = winner;
  phases.detect_micros = saturating_sub(t_campaign, t_crash);
  phases.election_micros = saturating_sub(t_won, t_campaign);
  phases.promotion_micros = saturating_sub(t_promo_done, t_won);
  phases.first_write_micros = saturating_sub(t_first_write, t_promo_done);
  phases.total_micros = saturating_sub(t_first_write, t_crash);
  return phases;
}

std::string TraceAnalyzer::FailoverJson(const FailoverPhases& phases) {
  return StringPrintf(
      "{\"complete\":%s,\"winner\":%s,\"detect_us\":%llu,"
      "\"election_us\":%llu,\"promotion_us\":%llu,\"first_write_us\":%llu,"
      "\"total_us\":%llu}",
      phases.complete ? "true" : "false", JsonString(phases.winner).c_str(),
      (unsigned long long)phases.detect_micros,
      (unsigned long long)phases.election_micros,
      (unsigned long long)phases.promotion_micros,
      (unsigned long long)phases.first_write_micros,
      (unsigned long long)phases.total_micros);
}

}  // namespace myraft::trace
