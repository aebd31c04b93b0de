// Client-side availability probe shared by the MyRaft and semi-sync
// harnesses. Issues one probe operation (a write, or since §13 any
// client-visible operation such as a lease read) every interval and
// reports the longest contiguous outage window (first failed probe's
// issue time -> first subsequent success), which is the client-observed
// downtime the paper's Table 2 aggregates.

#ifndef MYRAFT_SIM_DOWNTIME_PROBE_H_
#define MYRAFT_SIM_DOWNTIME_PROBE_H_

#include <functional>
#include <memory>
#include <string>

#include "sim/event_loop.h"
#include "util/string_util.h"

namespace myraft::sim {

class DowntimeProbe {
 public:
  /// Issues one probe operation for `key` (a write for write-downtime
  /// probes, a read for read-downtime probes); must eventually invoke
  /// the callback with success/failure.
  using ProbeFn =
      std::function<void(const std::string& key, std::function<void(bool)>)>;

  /// Consecutive successes required before the measurement may finish.
  static constexpr int kSettleSuccesses = 5;

  struct Options {
    uint64_t probe_interval_micros = 10'000;
    uint64_t timeout_micros = 600'000'000;
    /// If true, the measurement only finishes after at least one outage
    /// was observed (every disruption we measure causes one).
    bool expect_outage = true;
  };

  struct Result {
    bool completed = false;       // settled before the timeout
    bool saw_outage = false;
    uint64_t downtime_micros = 0;  // longest single outage
    int outages = 0;
  };

  /// Runs `disruption`, probes until the system settles (and `done()`
  /// returns true), and reports the longest outage.
  static Result Measure(EventLoop* loop, ProbeFn write,
                        std::function<void()> disruption,
                        std::function<bool()> done, Options options) {
    auto state = std::make_shared<State>();
    state->options = options;
    state->deadline = loop->now() + options.timeout_micros;

    disruption();
    IssueProbe(loop, write, state);
    bool settled = false;
    while (loop->now() < state->deadline) {
      loop->RunFor(options.probe_interval_micros);
      settled = !state->in_outage &&
                state->consecutive_successes >= kSettleSuccesses &&
                (!options.expect_outage || state->saw_outage) && done();
      if (settled) break;
    }
    state->finished = true;

    Result result;
    result.completed = settled;
    result.saw_outage = state->saw_outage;
    result.downtime_micros = state->max_outage_micros;
    result.outages = state->outages;
    return result;
  }

 private:
  struct State {
    Options options;
    uint64_t deadline = 0;
    bool finished = false;
    bool in_outage = false;
    bool saw_outage = false;
    uint64_t outage_start_micros = 0;
    uint64_t max_outage_micros = 0;
    /// Issue time of the latest probe known to have succeeded. Callbacks
    /// complete out of issue order (a failing probe surfaces a full
    /// client-timeout after fast successes issued later), so outage
    /// bookkeeping orders probes by *issue* time, never completion time.
    uint64_t last_success_issued_micros = 0;
    int outages = 0;
    int consecutive_successes = 0;
    uint64_t next_key = 0;
  };

  static void IssueProbe(EventLoop* loop, const ProbeFn& write,
                         std::shared_ptr<State> state) {
    if (state->finished || loop->now() >= state->deadline) return;
    const uint64_t issued_at = loop->now();
    const std::string key = StringPrintf(
        "probe-%llu", (unsigned long long)state->next_key++);
    write(key, [state, issued_at](bool ok) {
      if (state->finished) return;
      if (ok) {
        state->last_success_issued_micros =
            std::max(state->last_success_issued_micros, issued_at);
        if (state->in_outage) {
          if (issued_at <= state->outage_start_micros) {
            // Issued before the outage began: says nothing about
            // recovery (and nothing about current stability either).
            return;
          }
          state->in_outage = false;
          // Outage ends at the succeeding probe's *issue* time — the
          // first instant the system demonstrably accepted a write —
          // matching TraceAnalyzer's first-write convention. Completion
          // time would inflate every outage by a client round trip.
          const uint64_t outage = issued_at - state->outage_start_micros;
          state->max_outage_micros =
              std::max(state->max_outage_micros, outage);
        }
        ++state->consecutive_successes;
      } else {
        if (issued_at <= state->last_success_issued_micros) {
          // Stale failure: a probe issued after this one already
          // succeeded, so the system was up past `issued_at`. Starting
          // an outage here would create a phantom window that no future
          // success may close (blocking settle until the timeout) and
          // would wrongly reset the consecutive-success streak — the
          // back-to-back-failover miscount this probe used to have.
          return;
        }
        state->consecutive_successes = 0;
        if (!state->in_outage) {
          state->in_outage = true;
          state->saw_outage = true;
          ++state->outages;
          state->outage_start_micros = issued_at;
        } else if (issued_at < state->outage_start_micros) {
          // Failures can also complete out of order; the outage starts
          // at the earliest failed issue (e.g. a probe that landed
          // exactly on the crash tick but timed out later than one
          // issued a few intervals after it).
          state->outage_start_micros = issued_at;
        }
      }
    });
    // Re-arm with an owned copy of the write function.
    loop->Schedule(state->options.probe_interval_micros,
                   [loop, write, state]() { IssueProbe(loop, write, state); });
  }
};

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_DOWNTIME_PROBE_H_
