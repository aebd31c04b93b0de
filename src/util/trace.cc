#include "util/trace.h"

#include <algorithm>
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
                           uint64_t parent_span_id, std::string args) {
  TraceRecord record;
  record.kind = RecordKind::kSpanBegin;
  record.trace_id = trace_id;
  record.span_id = NextId();
  record.parent_span_id = parent_span_id;
  record.category = category.view();
  record.name = name.view();
  record.args = std::move(args);
  const uint64_t span_id = record.span_id;
  Push(std::move(record));
  return span_id;
}

void Tracer::EndSpan(uint64_t span_id, std::string args) {
  if (span_id == 0) return;
  TraceRecord record;
  record.kind = RecordKind::kSpanEnd;
  record.span_id = span_id;
  record.args = std::move(args);
  Push(std::move(record));
}

void Tracer::Instant(Literal category, Literal name, uint64_t trace_id,
                     std::string args) {
  TraceRecord record;
  record.kind = RecordKind::kInstant;
  record.trace_id = trace_id;
  record.category = category.view();
  record.name = name.view();
  record.args = std::move(args);
  Push(std::move(record));
}

void Tracer::Push(TraceRecord record) {
  record.seq = ++next_seq_;
  record.ts_micros = options_.clock ? options_.clock->NowMicros() : 0;
  while (records_.size() >= options_.capacity && !records_.empty()) {
    records_.pop_front();  // overflow drops the oldest record
    ++dropped_;
    dropped_counter_->Increment();
  }
  if (options_.capacity == 0) {
    ++dropped_;
    dropped_counter_->Increment();
    return;
  }
  records_.push_back(std::move(record));
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
