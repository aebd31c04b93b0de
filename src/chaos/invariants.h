// Cluster invariant checker: the oracle half of the chaos harness. During
// a run it continuously audits Election Safety; at every quiescent window
// (all faults healed, crashed nodes restarted, replication converged) it
// audits the full invariant set that defines MyRaft's correctness:
//
//   ElectionSafety      at most one leader per term, ever observed;
//   LogMatching         same (term,index) => byte-identical entry, across
//                       every pair of live logs;
//   LeaderCompleteness  the current leader's log contains every
//                       client-acknowledged write at its original OpId;
//   Durability          every acknowledged write's row and GTID are
//                       present on the primary (no acked write lost);
//   GtidMonotonicity    each engine's executed GTID set at a quiescent
//                       window contains its previous window's set;
//   ApplierEquivalence  every engine's state checksum equals a serial
//                       replay of the committed log prefix (the parallel
//                       applier is serializable);
//   Convergence         a healed cluster elects a primary and catches
//                       every live node up (liveness; checked by runner);
//   Recovery            a crashed node restarts successfully from its
//                       (possibly tail-torn) disk (checked by runner);
//   StaleReadUnderLease a read served through the lease fast path (or a
//                       quorum round) observes every write acked before
//                       the read was issued — leases may refuse reads,
//                       never answer with old data (§13; fed per-read by
//                       the runner via ObserveRead);
//   ConfigSafety        a config identity (config_term, config_version)
//                       always denotes one membership, and every pair of
//                       CONSECUTIVE committed configs (identity order,
//                       term dominating) has intersecting voter
//                       majorities — the single-change chain whose
//                       induction carries election safety across
//                       reconfigs. Non-adjacent configs may legally
//                       admit disjoint majorities (a node lagging two
//                       changes behind is safe: the intermediate config
//                       already fenced its quorums)
//                       (§15; audited continuously like ElectionSafety).

#ifndef MYRAFT_CHAOS_INVARIANTS_H_
#define MYRAFT_CHAOS_INVARIANTS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "binlog/gtid.h"
#include "sim/cluster.h"
#include "wire/types.h"

namespace myraft::chaos {

/// A client-acknowledged write: the durability ledger entry. Keys are
/// unique per run, so "lost" is unambiguous.
struct AckedWrite {
  std::string key;
  std::string value;
  binlog::Gtid gtid;
  OpId opid;
};

struct Violation {
  std::string invariant;
  std::string detail;

  std::string ToString() const { return invariant + ": " + detail; }
};

class InvariantChecker {
 public:
  /// Cheap continuous audit; call every poll tick during the run.
  /// Records (term -> leader) sightings and flags Election Safety
  /// violations the moment a second leader appears in the same term.
  void ObserveRoles(sim::ClusterHarness& cluster);

  /// Cheap continuous Config Safety audit (§15); call alongside
  /// ObserveRoles. Snapshots every live node's COMMITTED config and
  /// flags (a) one identity with two different memberships, ever, and
  /// (b) two identities installed simultaneously whose voter sets admit
  /// disjoint majorities.
  void ObserveConfigs(sim::ClusterHarness& cluster);

  /// Full audit; call only at a quiescent window, after the runner has
  /// healed all faults, restarted crashed nodes and waited for
  /// convergence.
  void CheckQuiescent(sim::ClusterHarness& cluster,
                      const std::vector<AckedWrite>& acked);

  /// §13 stale-read audit: one completed (successful) client read
  /// checked against the acked-write ledger. `expected` is the row image
  /// acked before the read was issued; keys are unique per run, so a
  /// successful read observing anything else is a linearizability
  /// violation — StaleReadUnderLease when the lease fast path served it,
  /// StaleRead for a quorum/follower-gated read.
  void ObserveRead(const std::string& key, const std::string& expected,
                   const std::optional<std::string>& actual,
                   bool served_by_lease, const MemberId& served_by);

  /// For violations detected outside the checker (convergence timeouts,
  /// restart failures).
  void AddViolation(const std::string& invariant, const std::string& detail);

  const std::vector<Violation>& violations() const { return violations_; }

 private:
  /// Caps per-invariant spam: identical-cause violations within one audit
  /// collapse into the first detail plus a count.
  class WindowCollector;

  using ConfigId = std::pair<uint64_t, uint64_t>;  // (config_term, version)

  std::map<uint64_t, MemberId> leader_by_term_;
  std::set<uint64_t> reported_terms_;
  /// Everything ever observed committed under one config identity: the
  /// canonical membership fingerprint (uniqueness check) and the voter
  /// set (consecutive-pair quorum intersection). std::map keeps identity
  /// order — (term, version) with the term dominating — for free.
  struct ObservedConfig {
    std::string fingerprint;
    std::set<MemberId> voters;
  };
  std::map<ConfigId, ObservedConfig> config_content_by_id_;
  std::set<ConfigId> reported_config_ids_;
  std::set<std::pair<ConfigId, ConfigId>> reported_config_pairs_;
  /// Executed GTID set per engine at the previous quiescent window.
  std::map<MemberId, binlog::GtidSet> previous_executed_;
  std::vector<Violation> violations_;
};

}  // namespace myraft::chaos

#endif  // MYRAFT_CHAOS_INVARIANTS_H_
