// Private to the consensus*.cc files that implement RaftConsensus: the
// constants and helpers more than one of them may use.

#ifndef MYRAFT_RAFT_CONSENSUS_INTERNAL_H_
#define MYRAFT_RAFT_CONSENSUS_INTERNAL_H_

#include <cstdint>
#include <string>
#include <utility>

#include "util/trace.h"

namespace myraft::raft {

/// Marker used in VoteResponse.reason when a transfer target reports its
/// aggregated mock-election outcome back to the initiating leader.
constexpr char kMockOutcomeReason[] = "mock-outcome";

/// Byte budget across one peer's in-flight window (payload bytes); the
/// window closes on this or on max_inflight_batches, whichever comes first.
constexpr uint64_t kMaxInflightBytesPerPeer = 4ull << 20;

/// Payload bytes one AppendEntries batch may carry (with
/// max_entries_per_rpc, whichever comes first).
constexpr uint64_t kMaxBytesPerRpc = 1 << 20;

/// A mock-election voter in the candidate's region rejects only when it
/// trails the leader's cursor snapshot by more than this many entries:
/// normal in-flight replication must not doom routine transfers under
/// load; a genuinely unhealthy logtailer trails by far more.
constexpr uint64_t kMockElectionLagAllowance = 32;

/// How long a leadership transfer may take before it is abandoned.
constexpr uint64_t kTransferTimeoutMicros = 3'000'000;

/// Ends a span on scope exit (covers every early-return path of a
/// handler). No-op while id stays 0.
struct SpanGuard {
  trace::Tracer* tracer = nullptr;
  uint64_t id = 0;
  std::string end_args;
  ~SpanGuard() {
    if (tracer != nullptr && id != 0) tracer->EndSpan(id, std::move(end_args));
  }
};

/// Timer arithmetic for Tick()'s deadlines: the first local time `t` with
/// `t - since >= limit` (ReachedAt) or `t - since > limit` (ExceededAt),
/// saturating at UINT64_MAX ("never"). Local clocks are monotone, so
/// `since` never lies ahead of the time it is compared with.
inline uint64_t ReachedAt(uint64_t since, uint64_t limit) {
  return limit > UINT64_MAX - since ? UINT64_MAX : since + limit;
}
inline uint64_t ExceededAt(uint64_t since, uint64_t limit) {
  return limit >= UINT64_MAX - since ? UINT64_MAX : since + limit + 1;
}

}  // namespace myraft::raft

#endif  // MYRAFT_RAFT_CONSENSUS_INTERNAL_H_
