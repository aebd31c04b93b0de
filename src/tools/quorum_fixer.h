// Quorum Fixer (§5.3): restores write availability after a "shattered
// quorum" — when FlexiRaft's small data-commit quorum loses a majority of
// its entities and no leader can be elected. Operates in five steps:
//   (1) query the attempted writes on the ring (is it actually stuck?),
//   (2) out-of-band checks for the longest log among reachable members,
//   (3) forcibly relax the leader-election quorum on the chosen member so
//       it can win despite not collecting enough votes,
//   (4) after a successful promotion, reset the quorum expectations,
//   (5) force one config bump demoting every dead voter so the survivors
//       form a self-sufficient quorum — the bump commits via the install
//       quorum of the NEW config, so it succeeds even though the old data
//       quorum can never ack again.
//
// Deliberately run by a human, not automatically (the paper wants every
// shattered quorum root-caused).

#ifndef MYRAFT_TOOLS_QUORUM_FIXER_H_
#define MYRAFT_TOOLS_QUORUM_FIXER_H_

#include "sim/cluster.h"

namespace myraft::tools {

struct QuorumFixerOptions {
  /// Conservative mode refuses to act when the chosen member's log might
  /// miss committed entries (another reachable member claims a later
  /// commit marker). Relaxing this accepts potential data loss to regain
  /// availability.
  bool conservative = true;
  /// Votes required under the override: the chosen member + any reachable
  /// peer that acked it (2 keeps a shred of redundancy; 1 is the big
  /// hammer).
  int override_votes = 2;
  uint64_t write_probe_timeout_micros = 2'000'000;
  uint64_t election_timeout_micros = 10'000'000;
};

struct QuorumFixerReport {
  Status status;
  MemberId chosen;          // member promoted by the override
  OpId chosen_last_log;
  bool quorum_was_shattered = false;
  /// Step 5 rebuilt the membership by demoting every dead voter in ONE
  /// forced config bump (see RunQuorumFixer), and how many voters that
  /// demoted. False when no voter was down.
  bool forced_reconfig = false;
  int voters_excised = 0;
};

/// Runs the remediation synchronously on the harness's event loop.
QuorumFixerReport RunQuorumFixer(sim::ClusterHarness* cluster,
                                 QuorumFixerOptions options);

}  // namespace myraft::tools

#endif  // MYRAFT_TOOLS_QUORUM_FIXER_H_
