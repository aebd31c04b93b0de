// Deterministic causal tracing (§3.2, Table 2 methodology). Each sim node
// owns a Tracer: a bounded journal of spans (begin/end pairs with
// parent/child causality) and instant events, timestamped from the
// injected Clock so traces are reproducible under the discrete-event
// simulator. Span/trace ids are salted counters — never random — so two
// runs with the same seed emit byte-identical journals.
//
// A compact TraceContext {trace_id, parent span_id} travels inside
// AppendEntriesRequest/Response and the GTID event body, which lets one
// transaction's spans stitch across nodes: client submit -> leader
// group-commit stages -> per-peer AppendEntries batches -> follower
// append/ack -> follower apply.
//
// Journals are drained through the harness and exported as Chrome
// trace-event JSON (open in Perfetto: one "process" per sim node, one
// "thread" per subsystem category) or flat JSONL for programmatic
// assertions. TraceAnalyzer computes per-stage latency breakdowns and the
// Table-2-style failover phase decomposition from the merged journal.

#ifndef MYRAFT_UTIL_TRACE_H_
#define MYRAFT_UTIL_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/clock.h"
#include "util/histogram.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace myraft::trace {

/// Compact causality context propagated on the wire (two varints) and in
/// the GTID event body. trace_id == 0 means "not traced".
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

enum class RecordKind : uint8_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
  kInstant = 2,
};

/// A record's category or name: a string literal, which a consteval
/// constructor checks at compile time (a std::string, a pointer or a
/// local array does not compile). Records keep only a view of it, valid
/// for the program's lifetime.
class Literal {
 public:
  template <size_t N>
  consteval Literal(const char (&text)[N])  // NOLINT: implicit by design
      : view_(text, N - 1) {}
  std::string_view view() const { return view_; }

 private:
  std::string_view view_;
};

/// One record as Tracer::Snapshot() decodes it from the journal.
struct TraceRecord {
  RecordKind kind = RecordKind::kInstant;
  uint64_t seq = 0;        // per-journal monotonic; stable-sort tie break
  uint64_t ts_micros = 0;  // sim-clock timestamp
  uint64_t trace_id = 0;   // 0 = not tied to a client transaction
  uint64_t span_id = 0;    // spans only
  uint64_t parent_span_id = 0;  // kSpanBegin only
  std::string_view category;  // subsystem ("server", "raft", ...); a Literal
  std::string_view name;      // stage/event name within it; a Literal
  std::string args;        // preformatted "k=v k=v" annotations
};

namespace internal {

template <typename T>
concept AppendsItself = requires(const T& value, std::string* dst) {
  value.AppendTo(dst);
};

inline void AppendArgValue(std::string* dst, std::string_view value) {
  dst->append(value);
}
template <std::integral T>
void AppendArgValue(std::string* dst, T value) {
  AppendDecimal(dst, value);
}
template <AppendsItself T>
void AppendArgValue(std::string* dst, const T& value) {
  value.AppendTo(dst);
}

}  // namespace internal

/// Appends "key=value" pairs to a record's annotation, space-separated,
/// without printf. Arguments alternate a literal key and its value: a
/// string, an integer (written by std::to_chars) or a type with
/// AppendTo(std::string*), e.g. OpId.
template <size_t N, typename V, typename... Rest>
void AppendArgs(std::string* dst, const char (&key)[N], const V& value,
                const Rest&... rest) {
  if (!dst->empty()) dst->push_back(' ');
  dst->append(key, N - 1);
  dst->push_back('=');
  internal::AppendArgValue(dst, value);
  if constexpr (sizeof...(rest) > 0) AppendArgs(dst, rest...);
}

/// A fresh annotation: Args("peer", id, "first", 7) is "peer=db1 first=7".
template <typename... KeyValues>
std::string Args(const KeyValues&... key_values) {
  std::string out;
  AppendArgs(&out, key_values...);
  return out;
}

struct TracerOptions {
  std::string node;            // journal owner, becomes the Perfetto process
  uint64_t id_salt = 0;        // high bits of every id minted by this tracer
  size_t capacity = 65'536;    // records kept; overflow drops the oldest
  const Clock* clock = nullptr;          // required
  metrics::MetricRegistry* metrics = nullptr;  // optional; owns one if null
};

/// Per-node trace journal. Not thread-safe (the sim is single-threaded);
/// lives outside the server process object so it survives role changes
/// and crash/restart cycles, like the metrics registry.
///
/// The journal is one append-only byte stream: each record is a run of
/// varints (its interned kind, category and name; timestamp delta; ids;
/// args length) followed by its args bytes. The stream lives in blocks
/// that are reused once their records have been dropped. A record's seq
/// follows from its position. Snapshot() decodes the stream back into
/// TraceRecords.
class Tracer {
 public:
  explicit Tracer(TracerOptions options);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Mints a new trace id (deterministic: salted counter).
  uint64_t NextTraceId() { return NextId(); }

  /// Opens a span and returns its id. parent_span_id == 0 makes a root.
  uint64_t BeginSpan(Literal category, Literal name, uint64_t trace_id,
                     uint64_t parent_span_id, std::string_view args = {});
  /// Closes a previously begun span. Unmatched ids are tolerated (the
  /// begin may have been dropped by overflow or died with a crash).
  void EndSpan(uint64_t span_id, std::string_view args = {});
  /// Records a point-in-time event.
  void Instant(Literal category, Literal name, uint64_t trace_id = 0,
               std::string_view args = {});

  /// The same three with "key=value" args (see AppendArgs) written into a
  /// reused scratch buffer instead of a fresh string.
  template <size_t N, typename V, typename... Rest>
  uint64_t BeginSpan(Literal category, Literal name, uint64_t trace_id,
                     uint64_t parent_span_id, const char (&key)[N],
                     const V& value, const Rest&... rest) {
    return BeginSpan(category, name, trace_id, parent_span_id,
                     FormatArgs(key, value, rest...));
  }
  template <size_t N, typename V, typename... Rest>
  void EndSpan(uint64_t span_id, const char (&key)[N], const V& value,
               const Rest&... rest) {
    if (span_id != 0) EndSpan(span_id, FormatArgs(key, value, rest...));
  }
  template <size_t N, typename V, typename... Rest>
  void Instant(Literal category, Literal name, uint64_t trace_id,
               const char (&key)[N], const V& value, const Rest&... rest) {
    Instant(category, name, trace_id, FormatArgs(key, value, rest...));
  }

  const std::string& node() const { return options_.node; }
  size_t size() const { return count_; }
  uint64_t dropped() const { return dropped_; }
  std::vector<TraceRecord> Snapshot() const;
  /// Drops every record and frees the journal's blocks; seq and ids keep
  /// counting.
  void Clear();
  /// Heap bytes the journal holds: its blocks and the args scratch buffer.
  size_t memory_bytes() const;

 private:
  struct Block {
    std::unique_ptr<char[]> data;
    size_t capacity = 0;
    size_t begin = 0;  // offset of the oldest record still held
    size_t end = 0;    // bytes written
  };

  uint64_t NextId() { return (options_.id_salt << 40) | ++next_id_; }
  template <typename... KeyValues>
  std::string_view FormatArgs(const KeyValues&... key_values) {
    scratch_.clear();
    AppendArgs(&scratch_, key_values...);
    return scratch_;
  }
  /// Appends one record; `id` is its interned kind and literals, 0 for a
  /// span end.
  void Push(uint32_t id, uint64_t trace_id, uint64_t span_id,
            uint64_t parent_span_id, std::string_view args);
  void DropOldest();
  /// Room for `n` more bytes at the journal's tail.
  char* Reserve(size_t n);

  TracerOptions options_;
  std::unique_ptr<metrics::MetricRegistry> owned_metrics_;
  metrics::Counter* dropped_counter_;  // "trace.dropped"
  // Blocks form a ring: records run from blocks_[head_].begin through
  // blocks_[tail_].end; the blocks after tail_ and before head_ are empty.
  std::vector<Block> blocks_;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t count_ = 0;       // records held
  size_t live_bytes_ = 0;  // their encoded bytes
  uint64_t base_ts_ = 0;   // timestamp the oldest record's delta is from
  uint64_t last_ts_ = 0;   // timestamp of the newest record pushed
  std::string scratch_;    // args of the key/value overloads
  uint64_t next_id_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t dropped_ = 0;
};

/// One node's drained journal, as handed to the exporters.
struct JournalView {
  std::string node;
  std::vector<TraceRecord> records;
};

/// Merges journals into one deterministic timeline ordered by
/// (ts, node, seq).
std::vector<std::pair<std::string, TraceRecord>> MergeJournals(
    const std::vector<JournalView>& journals);

/// Flat JSONL: one compact JSON object per record, merged order.
/// Deterministic bytes for same-seed runs.
std::string ExportJsonl(const std::vector<JournalView>& journals);

/// The newest `max_records` of the merged timeline as a JSON array (same
/// per-record shape as ExportJsonl). The flight recorder (DESIGN.md §14)
/// embeds this as a bundle's black-box trace tail.
std::string ExportJsonArrayTail(const std::vector<JournalView>& journals,
                                size_t max_records);

/// Chrome trace-event JSON ({"traceEvents": [...]}): "X" complete events
/// for matched spans, "i" instants, "M" metadata naming one process per
/// node and one thread per category. Loadable in Perfetto / chrome://tracing.
std::string ExportChromeJson(const std::vector<JournalView>& journals);

/// Offline analysis over drained journals: per-stage latency breakdowns
/// and the Table-2 failover phase decomposition.
class TraceAnalyzer {
 public:
  explicit TraceAnalyzer(std::vector<JournalView> journals);

  /// Duration histograms of matched spans keyed by "category.name".
  const std::map<std::string, Histogram>& StageHistograms() const {
    return stages_;
  }
  /// {"stage": {"count":..,"mean_us":..,"p50_us":..,"p95_us":..,
  ///            "p99_us":..,"max_us":..}, ...}
  std::string StageBreakdownJson() const;

  /// Failover timeline phases (all durations in micros):
  ///   detect:      fault.crash -> first (pre_)election_started anywhere
  ///   election:    first campaign -> election_won on the node that
  ///                eventually completes promotion
  ///   promotion:   election_won -> promotion_completed (applier catch-up
  ///                + binlog rotation + write enable)
  ///   first_write: promotion_completed -> first commit.total span end on
  ///                the new primary
  ///   total:       fault.crash -> that first accepted commit
  struct FailoverPhases {
    bool complete = false;
    std::string winner;
    uint64_t crash_ts_micros = 0;
    uint64_t detect_micros = 0;
    uint64_t election_micros = 0;
    uint64_t promotion_micros = 0;
    uint64_t first_write_micros = 0;
    uint64_t total_micros = 0;
  };
  FailoverPhases FailoverBreakdown() const;
  static std::string FailoverJson(const FailoverPhases& phases);

 private:
  std::vector<std::pair<std::string, TraceRecord>> merged_;
  std::map<std::string, Histogram> stages_;
};

}  // namespace myraft::trace

#endif  // MYRAFT_UTIL_TRACE_H_
