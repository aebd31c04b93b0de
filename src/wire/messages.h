// RPC messages of the MyRaft wire protocol: AppendEntries (with the
// Proxying extension's PROXY_OP form, §4.2), RequestVote (with pre-vote
// and Mock Election extensions, §4.3) and TransferLeadership. Every
// message serialises to a tagged envelope so the transport layer can stay
// payload-agnostic. Each message has one fixed layout: every field is
// encoded, in declaration order, and a decoder rejects both truncated input
// and trailing bytes.

#ifndef MYRAFT_WIRE_MESSAGES_H_
#define MYRAFT_WIRE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/result.h"
#include "wire/log_entry.h"
#include "wire/types.h"

namespace myraft {

enum class MessageType : uint8_t {
  kAppendEntriesRequest = 0,
  kAppendEntriesResponse = 1,
  kVoteRequest = 2,
  kVoteResponse = 3,
  kStartElectionRequest = 4,
};

/// Log replication / heartbeat RPC. Also the vehicle for the commit
/// marker (§3.4: "Raft will piggyback the commit marker ... to followers
/// in the next AppendEntries RPC").
struct AppendEntriesRequest {
  MemberId leader;           // logical sender (always the leader)
  MemberId dest;             // final destination member
  std::vector<MemberId> route;  // remaining relay hops; empty = direct
  uint64_t term = 0;
  OpId prev;                 // entry immediately preceding entries[0]
  OpId commit_marker;        // leader's consensus-commit watermark
  std::vector<LogEntry> entries;
  /// §4.2: PROXY_OP — entries carry OpId/type/checksum but no payload; the
  /// final relay hop reconstitutes payloads from its own log.
  bool proxy_payload_omitted = false;
  /// Entry payloads are LzCompress'd on the wire; checksums always cover
  /// the uncompressed bytes, so receivers inflate before verifying.
  bool entries_compressed = false;
  /// Causal trace context (util/trace): id of the client trace this batch
  /// belongs to and the leader-side batch span to parent follower spans
  /// under (0 = untraced).
  uint64_t trace_id = 0;
  uint64_t trace_span_id = 0;
  /// Leader-lease grant request (LeaseGuard, DESIGN.md §13): the leader's
  /// local send timestamp, echoed back verbatim by voters in the response
  /// (0 = leases off, no grant requested). Lease-expiry arithmetic stays
  /// on the leader's clock, and the echo doubles as the ReadIndex
  /// freshness proof. The follower's promise not to depose the leader
  /// rests on its own election timer, so no duration travels.
  uint64_t lease_sent_micros = 0;
  /// Membership reconfiguration (DESIGN.md §15): the leader's current
  /// MembershipConfig, encoded with EncodeMembershipConfig. Any
  /// AppendEntries can carry it, so config propagation is decoupled from
  /// log replication; the leader attaches it until the destination's
  /// latest response echoes the config's identity, and always on
  /// farewells to removed members. Length-prefixed; empty = not attached.
  std::string config_payload;

  bool operator==(const AppendEntriesRequest&) const = default;

  bool IsHeartbeat() const { return entries.empty(); }

  void EncodeTo(std::string* dst) const;
  static Result<AppendEntriesRequest> DecodeFrom(Slice input);

  /// Total payload bytes (the dominant bandwidth term for accounting).
  uint64_t PayloadBytes() const;
};

struct AppendEntriesResponse {
  MemberId from;             // the follower that acked
  MemberId dest;             // the leader
  std::vector<MemberId> route;  // relay hops back to the leader
  uint64_t term = 0;
  bool success = false;
  /// On success: last log entry now present on the follower (its "vote"
  /// watermark). On failure: hint for the leader to rewind.
  OpId last_received;
  uint64_t last_durable_index = 0;
  /// Echo of the request's prev.index. Identifies WHICH batch a rejection
  /// refuses, so the leader can tell a live rejection from a reordered one
  /// that arrived after the batch already succeeded on retry (the tail
  /// hint alone cannot: an ack overtaking the rejection makes a live
  /// rejection look stale and stalls the window until the RPC timeout).
  uint64_t request_prev_index = 0;
  /// Echo of the request's trace context so acks stitch back to the batch
  /// span.
  uint64_t trace_id = 0;
  uint64_t trace_span_id = 0;
  /// Echo of the request's `lease_sent_micros` from a voter (0 from
  /// non-voters and whenever the request carried no stamp): proves to the
  /// leader how fresh this ack is (ReadIndex) and records the lease grant.
  uint64_t lease_granted_micros = 0;
  /// The (config_term, config_version) identity of the follower's
  /// installed config after processing the request. It drives the
  /// leader's install (config-commit) quorum and tells it whether the
  /// next request must carry the config again. Every follower sets it
  /// except on an undecompressable batch.
  uint64_t config_term = 0;
  uint64_t config_version = 0;

  bool operator==(const AppendEntriesResponse&) const = default;

  void EncodeTo(std::string* dst) const;
  static Result<AppendEntriesResponse> DecodeFrom(Slice input);
};

/// Election RPC; covers regular votes, pre-votes and mock elections.
struct VoteRequest {
  MemberId candidate;
  MemberId dest;
  /// Term the candidate is campaigning in. For pre/mock elections this is
  /// current_term + 1 but the candidate has not actually incremented.
  uint64_t term = 0;
  OpId last_log;             // candidate's last log entry
  RegionId candidate_region;
  bool pre_vote = false;
  /// §4.3 Mock Election: a simulated pre-check run before
  /// TransferLeadership, carrying the current leader's cursor snapshot.
  /// Voting rules additionally reject lagging same-region voters.
  bool mock_election = false;
  OpId leader_cursor_snapshot;
  /// The candidate's config identity. Voters deny candidates whose config
  /// is older than their own ("stale-config") so a leader cannot be
  /// elected on a superseded member set. Candidates always set it (a
  /// bootstrapped config is never (0,0)).
  uint64_t config_term = 0;
  uint64_t config_version = 0;

  bool operator==(const VoteRequest&) const = default;

  void EncodeTo(std::string* dst) const;
  static Result<VoteRequest> DecodeFrom(Slice input);
};

struct VoteResponse {
  MemberId from;
  MemberId dest;
  uint64_t term = 0;
  bool granted = false;
  bool pre_vote = false;
  bool mock_election = false;
  /// Diagnostic reason when not granted ("already-voted", "stale-log",
  /// "lagging-same-region", ...).
  std::string reason;
  RegionId voter_region;
  /// FlexiRaft (§4.1): each voter reports its last-known-leader view;
  /// candidates aggregate these (from grants AND denials) to compute the
  /// election quorum that intersects the most recent data quorum. Without
  /// this, a candidate starved of the current leader's traffic could win
  /// with a stale, too-small quorum and truncate committed entries.
  uint64_t last_leader_term = 0;
  RegionId last_leader_region;

  bool operator==(const VoteResponse&) const = default;

  void EncodeTo(std::string* dst) const;
  static Result<VoteResponse> DecodeFrom(Slice input);
};

/// Leader → target. With `mock` unset: begin a real election immediately
/// (the final "TimeoutNow" step of graceful TransferLeadership). With
/// `mock` set: run a Mock Election round (§4.3) using the leader's cursor
/// snapshot and report the outcome back to `from`.
struct StartElectionRequest {
  MemberId from;
  MemberId dest;
  uint64_t term = 0;  // current leader term; target campaigns at term+1
  bool mock = false;
  OpId leader_cursor_snapshot;

  bool operator==(const StartElectionRequest&) const = default;

  void EncodeTo(std::string* dst) const;
  static Result<StartElectionRequest> DecodeFrom(Slice input);
};

/// Any wire message.
using Message =
    std::variant<AppendEntriesRequest, AppendEntriesResponse, VoteRequest,
                 VoteResponse, StartElectionRequest>;

/// Tagged envelope: 1 type byte + message body.
void EncodeMessage(const Message& msg, std::string* dst);
Result<Message> DecodeMessage(Slice input);

/// Routing helpers used by the transport and the proxy layer.
MemberId MessageDest(const Message& msg);
MemberId MessageFrom(const Message& msg);
/// Physical next hop: the first relay on the route if any, otherwise the
/// final destination. Transports deliver to this member.
MemberId MessageNextHop(const Message& msg);
uint64_t MessageWireBytes(const Message& msg);

}  // namespace myraft

#endif  // MYRAFT_WIRE_MESSAGES_H_
