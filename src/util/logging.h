// Minimal leveled logging. Defaults to stderr above a threshold; tests can
// capture or silence it via SetLogSink / SetMinLogLevel.
//
// When a node context is active (ScopedLogContext — the sim installs one
// around every node entry point), lines are stamped with the node id and
// the *sim clock*, not the wall clock, so log output from different nodes
// interleaves deterministically and merges with the trace timeline.
// SetStructuredLogSink receives the same stamp as data (LogRecord).

#ifndef MYRAFT_UTIL_LOGGING_H_
#define MYRAFT_UTIL_LOGGING_H_

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>

namespace myraft {

class Clock;

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

using LogSink = std::function<void(LogLevel, const std::string&)>;

/// Replaces the global sink (nullptr restores the stderr default).
void SetLogSink(LogSink sink);

/// Messages below this level are compiled in but dropped at runtime.
void SetMinLogLevel(LogLevel level);
LogLevel GetMinLogLevel();

/// A log line plus the deterministic stamp taken from the active node
/// context. Outside any context, node is empty and timestamp_micros 0.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  uint64_t timestamp_micros = 0;  // sim clock of the emitting node
  std::string node;               // emitting node id ("" = no context)
  std::string message;            // formatted line incl. the prefix
};

using StructuredLogSink = std::function<void(const LogRecord&)>;

/// Structured mirror of every emitted line; runs in addition to the text
/// sink. Pass nullptr to remove.
void SetStructuredLogSink(StructuredLogSink sink);

/// RAII node context: while alive, log lines are stamped with `node` and
/// `clock->NowMicros()`. Contexts nest; the innermost wins (LIFO, as RAII
/// guarantees). The sim harness wraps message delivery and timer
/// callbacks in one per node.
class ScopedLogContext {
 public:
  ScopedLogContext(std::string node, const Clock* clock);
  ~ScopedLogContext();

  ScopedLogContext(const ScopedLogContext&) = delete;
  ScopedLogContext& operator=(const ScopedLogContext&) = delete;
};

namespace internal_logging {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  uint64_t timestamp_micros_ = 0;  // from the active ScopedLogContext
  std::string node_;
  std::ostringstream stream_;
};

/// Turns the streamed expression into void, so that both arms of the
/// conditional in the macros below have one type. `&` binds looser than
/// `<<` and tighter than `?:`.
class Voidify {
 public:
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging

// Each macro is one expression, glog's `!(cond) ? (void)0 : Voidify() &
// stream`: an `else` written after the macro binds to the caller's `if`,
// and arguments streamed into a dropped line are never evaluated.
#define MYRAFT_LOG(level)                                                 \
  (::myraft::LogLevel::k##level < ::myraft::GetMinLogLevel())             \
      ? (void)0                                                           \
      : ::myraft::internal_logging::Voidify() &                           \
            ::myraft::internal_logging::LogMessage(                       \
                ::myraft::LogLevel::k##level, __FILE__, __LINE__)         \
                .stream()

/// Invariant check that survives NDEBUG: logs and aborts on violation.
#define MYRAFT_CHECK(cond)                                                \
  (cond) ? (void)0                                                        \
         : ::myraft::internal_logging::Voidify() &                        \
               ::myraft::internal_logging::LogMessage(                    \
                   ::myraft::LogLevel::kFatal, __FILE__, __LINE__)        \
                       .stream()                                          \
                   << "Check failed: " #cond " "

}  // namespace myraft

#endif  // MYRAFT_UTIL_LOGGING_H_
