#include "util/logging.h"

#include <cstdio>
#include <vector>

#include "util/clock.h"

namespace myraft {

namespace {

LogSink g_sink;  // empty -> stderr
StructuredLogSink g_structured_sink;
LogLevel g_min_level = LogLevel::kWarning;

struct LogContextFrame {
  std::string node;
  const Clock* clock;
};

// Innermost-wins nesting stack of active node contexts. One per process:
// the sim runs every node on the caller's thread (DESIGN.md §3).
std::vector<LogContextFrame> g_context_stack;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

void SetLogSink(LogSink sink) { g_sink = std::move(sink); }

void SetStructuredLogSink(StructuredLogSink sink) {
  g_structured_sink = std::move(sink);
}

void SetMinLogLevel(LogLevel level) { g_min_level = level; }
LogLevel GetMinLogLevel() { return g_min_level; }

ScopedLogContext::ScopedLogContext(std::string node, const Clock* clock) {
  g_context_stack.push_back({std::move(node), clock});
}

ScopedLogContext::~ScopedLogContext() { g_context_stack.pop_back(); }

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Basename only.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  // With an active node context, stamp the sim clock + node id so lines
  // from different nodes interleave deterministically (the wall clock
  // never appears in log output).
  if (!g_context_stack.empty()) {
    const LogContextFrame& frame = g_context_stack.back();
    node_ = frame.node;
    timestamp_micros_ = frame.clock ? frame.clock->NowMicros() : 0;
    stream_ << "[" << timestamp_micros_ << " " << node_ << " "
            << LevelName(level) << " " << base << ":" << line << "] ";
  } else {
    stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  const std::string msg = stream_.str();
  if (g_structured_sink) {
    LogRecord record;
    record.level = level_;
    record.timestamp_micros = timestamp_micros_;
    record.node = node_;
    record.message = msg;
    g_structured_sink(record);
  }
  if (g_sink) {
    g_sink(level_, msg);
  } else if (!g_structured_sink) {
    fprintf(stderr, "%s\n", msg.c_str());
  }
  if (level_ == LogLevel::kFatal) {
    std::abort();
  }
}

}  // namespace internal_logging

}  // namespace myraft
