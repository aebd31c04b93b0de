// The modelled client of the evaluation (EXPERIMENTS.md, "calibration"),
// shared by both A/B arms: SimClient on a MyRaft ring and SemiSyncCluster
// on the prior setup take one ClientModelOptions and run one request path,
// so the Figure 5 and Table 2 deltas come from the protocols alone.

#ifndef MYRAFT_SIM_CLIENT_MODEL_H_
#define MYRAFT_SIM_CLIENT_MODEL_H_

#include <functional>
#include <memory>
#include <string>

#include "binlog/gtid.h"
#include "binlog/transaction.h"
#include "sim/downtime_probe.h"
#include "sim/event_loop.h"
#include "util/status.h"
#include "wire/types.h"

namespace myraft::sim {

/// Modelled client-path constants (see EXPERIMENTS.md, "calibration").
struct ClientModelOptions {
  /// One-way client <-> primary latency.
  uint64_t one_way_micros = 150;
  /// Server-side execute+prepare+flush CPU/IO cost before replication
  /// takes over (base + uniform jitter models statement mix and host load).
  uint64_t processing_micros = 200;
  uint64_t processing_jitter_micros = 0;
  /// Client-side timeout treated as a failed write (dead primary).
  uint64_t timeout_micros = 500'000;
};

struct ClientWriteResult {
  Status status;
  uint64_t latency_micros = 0;
  /// Identity of the committed transaction (zero/empty on failure or
  /// timeout). The chaos harness keys its acked-write durability ledger
  /// on these.
  binlog::Gtid gtid;
  OpId opid;
};
using ClientWriteCallback = std::function<void(const ClientWriteResult&)>;

struct DowntimeResult {
  bool recovered = false;
  uint64_t downtime_micros = 0;
};

/// The table every modelled client reads and writes.
inline constexpr const char* kClientTable = "bench.kv";
/// The row a modelled write of `key` inserts: after image "key=value".
binlog::RowOperation ClientRow(const std::string& key,
                               const std::string& value);

/// One request to one target. `Result` (ClientWriteResult or
/// ClientReadResult) has `status` and `latency_micros`; the server's
/// answer fills the rest.
template <typename Result>
struct ClientRequest {
  /// Status texts of the three failure paths; each caller names its own.
  const char* timed_out;
  const char* unreachable;
  const char* died;
  /// Whether the target is up: asked when the client's hop lands and again
  /// once the processing cost has passed.
  std::function<bool()> target_up;
  /// Submits the request on the target; calls `reply` once with the answer.
  std::function<void(std::function<void(Result)> reply)> serve;
  /// Gets the result exactly once, with `status` and `latency_micros` set.
  std::function<void(Result)> done;
};

/// Runs one modelled request: arms the client timeout; one hop later the
/// request lands (a target that is down fails it as `unreachable`); the
/// target spends the processing cost plus jitter from the loop RNG (a
/// target that died meanwhile fails it as `died`); then `serve` submits
/// it. Failures and the reply reach the client one hop later. The first of
/// {reply, failure, timeout} ends the request.
template <typename Result>
void RunClientRequest(EventLoop* loop, const ClientModelOptions& model,
                      ClientRequest<Result> request) {
  // Only what outlives the request's own events: the timeout event keeps
  // this until it fires, so `done` is released as soon as it has run.
  struct State {
    EventLoop* loop;
    uint64_t one_way_micros;
    uint64_t issued_at;
    std::function<void(Result)> done;
    bool ended = false;

    void End(Result result) {
      if (ended) return;
      ended = true;
      result.latency_micros = loop->now() - issued_at;
      done(std::move(result));
      done = nullptr;
    }
  };
  auto state = std::make_shared<State>(State{
      loop, model.one_way_micros, loop->now(), std::move(request.done)});
  auto fail_after_hop = [](const auto& state, const char* text) {
    state->loop->Schedule(state->one_way_micros, [state, text]() {
      Result result;
      result.status = Status::NetworkError(text);
      state->End(std::move(result));
    });
  };

  loop->Schedule(model.timeout_micros, [state, text = request.timed_out]() {
    if (state->ended) return;
    Result result;
    result.status = Status::TimedOut(text);
    state->End(std::move(result));
  });
  // The hop and processing events carry the request, so its callbacks and
  // what they hold die with the last of them.
  loop->Schedule(model.one_way_micros, [state, model, fail_after_hop,
                                        request = std::move(request)]() mutable {
    if (!request.target_up()) {
      fail_after_hop(state, request.unreachable);
      return;
    }
    uint64_t processing = model.processing_micros;
    if (model.processing_jitter_micros > 0) {
      processing +=
          state->loop->rng()->Uniform(model.processing_jitter_micros);
    }
    state->loop->Schedule(processing, [state, fail_after_hop,
                                       request = std::move(request)]() {
      if (!request.target_up()) {
        fail_after_hop(state, request.died);
        return;
      }
      request.serve([state](Result result) {
        state->loop->Schedule(state->one_way_micros,
                              [state, result = std::move(result)]() mutable {
                                state->End(std::move(result));
                              });
      });
    });
  });
}

/// Issues one request through `issue` and runs the loop in 1 ms steps
/// until it completes; its status is TimedOut(`timed_out`) if
/// `timeout_micros` pass first.
template <typename Result>
Result AwaitClientResult(
    EventLoop* loop, uint64_t timeout_micros, const char* timed_out,
    const std::function<void(std::function<void(const Result&)>)>& issue) {
  Result result;
  bool completed = false;
  issue([&](const Result& r) {
    result = r;
    completed = true;
  });
  const uint64_t deadline = loop->now() + timeout_micros;
  while (!completed && loop->now() < deadline) loop->RunFor(1'000);
  if (!completed) result.status = Status::TimedOut(timed_out);
  return result;
}

/// Executes `disruption` and measures the client-observed unavailability
/// of the operation `probe` issues every `probe_interval_micros`: the
/// longest window in which probes fail, or `timeout_micros` if the
/// system never settles.
DowntimeResult MeasureDowntime(EventLoop* loop, DowntimeProbe::ProbeFn probe,
                               std::function<void()> disruption,
                               uint64_t probe_interval_micros,
                               uint64_t timeout_micros, bool expect_outage);

}  // namespace myraft::sim

#endif  // MYRAFT_SIM_CLIENT_MODEL_H_
