#include "chaos/invariants.h"

#include <algorithm>
#include <memory>

#include "binlog/binlog_manager.h"
#include "binlog/transaction.h"
#include "server/mysql_server.h"
#include "storage/engine.h"
#include "util/env.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace myraft::chaos {
namespace {

/// Serially replays the committed transactions in [FirstIndex, upto] into
/// a fresh engine on a scratch in-memory Env and returns its state
/// checksum — the serializability oracle for the parallel applier.
Result<uint64_t> SerialReplayChecksum(binlog::BinlogManager* log,
                                      uint64_t upto, Clock* clock) {
  std::unique_ptr<Env> env(NewMemEnv());
  storage::EngineOptions engine_options;
  engine_options.dir = "/replay";
  engine_options.clock = clock;
  auto engine = storage::MiniEngine::Open(env.get(), engine_options);
  MYRAFT_RETURN_NOT_OK(engine.status());
  for (uint64_t index = log->FirstIndex(); index <= upto; ++index) {
    auto entry = log->ReadEntry(index);
    MYRAFT_RETURN_NOT_OK(entry.status());
    if (entry->type != EntryType::kTransaction) continue;
    auto txn = binlog::ParseTransactionPayload(entry->payload);
    MYRAFT_RETURN_NOT_OK(txn.status());
    const storage::TxnId engine_txn = (*engine)->Begin();
    for (const binlog::RowOperation& op : txn->ops) {
      const std::string table = op.database + "." + op.table;
      Status s;
      if (op.kind == binlog::RowOperation::Kind::kDelete) {
        s = (*engine)->Delete(engine_txn, table, op.before_image);
      } else {
        // Same key derivation as the applier: the row key is the
        // after-image up to the first '='.
        const std::string& image = op.after_image;
        s = (*engine)->Put(engine_txn, table,
                           image.substr(0, image.find('=')), image);
      }
      MYRAFT_RETURN_NOT_OK(s);
    }
    MYRAFT_RETURN_NOT_OK((*engine)->Prepare(engine_txn, txn->xid));
    MYRAFT_RETURN_NOT_OK(
        (*engine)->CommitPrepared(txn->xid, entry->id, txn->gtid));
  }
  return (*engine)->StateChecksum();
}

}  // namespace

/// Collapses repeated violations of one invariant within a single audit:
/// the first detail is kept verbatim, later ones only bump a counter.
class InvariantChecker::WindowCollector {
 public:
  WindowCollector(InvariantChecker* checker, std::string invariant)
      : checker_(checker), invariant_(std::move(invariant)) {}

  ~WindowCollector() {
    if (count_ == 0) return;
    std::string detail = first_detail_;
    if (count_ > 1) {
      detail += StringPrintf(" (+%d more)", count_ - 1);
    }
    checker_->AddViolation(invariant_, detail);
  }

  void Add(std::string detail) {
    if (count_ == 0) first_detail_ = std::move(detail);
    ++count_;
  }

  bool any() const { return count_ > 0; }

 private:
  InvariantChecker* checker_;
  std::string invariant_;
  std::string first_detail_;
  int count_ = 0;
};

void InvariantChecker::ObserveRoles(sim::ClusterHarness& cluster) {
  for (const MemberId& id : cluster.ids()) {
    sim::SimNode* node = cluster.node(id);
    if (!node->up()) continue;
    const raft::RaftConsensus* consensus = node->server_view()->consensus();
    if (consensus->role() != RaftRole::kLeader) continue;
    const uint64_t term = consensus->term();
    auto [it, inserted] = leader_by_term_.emplace(term, id);
    if (!inserted && it->second != id && reported_terms_.insert(term).second) {
      AddViolation("ElectionSafety",
                   StringPrintf("term %llu has two leaders: %s and %s",
                                (unsigned long long)term, it->second.c_str(),
                                id.c_str()));
    }
  }
}

void InvariantChecker::ObserveConfigs(sim::ClusterHarness& cluster) {
  // Whether majorities of two voter sets can be picked disjoint: route as
  // many of V1's majority outside V2 as possible; whatever overlap is
  // forced shrinks the pool V2's majority may draw from.
  auto disjoint_majorities_possible = [](const std::set<MemberId>& v1,
                                         const std::set<MemberId>& v2) {
    if (v1.empty() || v2.empty()) return false;
    const int m1 = static_cast<int>(v1.size()) / 2 + 1;
    const int m2 = static_cast<int>(v2.size()) / 2 + 1;
    int outside = 0;
    for (const MemberId& m : v1) {
      if (v2.count(m) == 0) ++outside;
    }
    const int forced_overlap = std::max(0, m1 - outside);
    return m2 <= static_cast<int>(v2.size()) - forced_overlap;
  };

  for (const MemberId& id : cluster.ids()) {
    sim::SimNode* node = cluster.node(id);
    if (!node->up()) continue;
    const MembershipConfig& committed =
        node->server_view()->consensus()->committed_config();
    const ConfigId config_id{committed.config_term,
                             committed.config_version};
    ObservedConfig observed;
    for (const MemberInfo& member : committed.members) {
      if (member.is_voter()) observed.voters.insert(member.id);
    }
    // Canonical content fingerprint: sorted "id/type" pairs.
    std::set<std::string> parts;
    for (const MemberInfo& member : committed.members) {
      parts.insert(member.id + (member.is_voter() ? "/v" : "/n"));
    }
    for (const std::string& part : parts) {
      if (!observed.fingerprint.empty()) observed.fingerprint += ',';
      observed.fingerprint += part;
    }

    auto [it, inserted] = config_content_by_id_.emplace(config_id, observed);
    if (!inserted && it->second.fingerprint != observed.fingerprint &&
        reported_config_ids_.insert(config_id).second) {
      AddViolation("ConfigSafety",
                   StringPrintf("config %llu.%llu denotes two memberships: "
                                "{%s} vs {%s} (latter on %s)",
                                (unsigned long long)config_id.first,
                                (unsigned long long)config_id.second,
                                it->second.fingerprint.c_str(),
                                observed.fingerprint.c_str(), id.c_str()));
    }
  }

  // The single-change chain: CONSECUTIVE committed configs in identity
  // order must have intersecting voter majorities — that intersection is
  // what fences the older config's quorums once the newer one commits,
  // and induction along the chain is what carries election safety across
  // reconfigs. Non-adjacent pairs may legally admit disjoint majorities:
  // a node lagging two changes behind is safe because the intermediate
  // config already did the fencing, so comparing arbitrary live pairs
  // would raise false alarms on healthy rings.
  for (auto it = config_content_by_id_.begin();
       it != config_content_by_id_.end(); ++it) {
    const auto next = std::next(it);
    if (next == config_content_by_id_.end()) break;
    const auto pair = std::make_pair(it->first, next->first);
    if (disjoint_majorities_possible(it->second.voters,
                                     next->second.voters) &&
        reported_config_pairs_.insert(pair).second) {
      AddViolation(
          "ConfigSafety",
          StringPrintf("consecutive committed configs %llu.%llu and "
                       "%llu.%llu admit disjoint majorities",
                       (unsigned long long)it->first.first,
                       (unsigned long long)it->first.second,
                       (unsigned long long)next->first.first,
                       (unsigned long long)next->first.second));
    }
  }
}

void InvariantChecker::CheckQuiescent(sim::ClusterHarness& cluster,
                                      const std::vector<AckedWrite>& acked) {
  ObserveRoles(cluster);
  ObserveConfigs(cluster);
  const MemberId primary = cluster.CurrentPrimary();
  if (primary.empty()) {
    AddViolation("Convergence", "no primary at quiescent window");
    return;
  }
  server::MySqlServer* pserver = cluster.node(primary)->server();
  const server::InvariantSnapshot psnap = pserver->CaptureInvariantSnapshot();
  binlog::BinlogManager* plog = pserver->binlog_manager();

  // --- Leader Completeness + committed-prefix Durability ------------------
  {
    WindowCollector completeness(this, "LeaderCompleteness");
    WindowCollector durability(this, "Durability");
    for (const AckedWrite& w : acked) {
      if (w.opid.index > psnap.last_logged.index) {
        completeness.Add(StringPrintf(
            "acked %s@%s beyond leader %s log end %s", w.key.c_str(),
            w.opid.ToString().c_str(), primary.c_str(),
            psnap.last_logged.ToString().c_str()));
      } else {
        auto opid = plog->OpIdAt(w.opid.index);
        if (!opid.ok() || opid->term != w.opid.term) {
          completeness.Add(StringPrintf(
              "acked %s@%s overwritten on leader %s (log has %s)",
              w.key.c_str(), w.opid.ToString().c_str(), primary.c_str(),
              opid.ok() ? opid->ToString().c_str() : "nothing"));
        }
      }
      const auto value = pserver->Read("bench.kv", w.key);
      const std::string expected = w.key + "=" + w.value;
      if (!value.has_value() || *value != expected) {
        durability.Add(StringPrintf(
            "acked write %s=%s lost (gtid %s, opid %s): primary %s has %s",
            w.key.c_str(), w.value.c_str(), w.gtid.ToString().c_str(),
            w.opid.ToString().c_str(), primary.c_str(),
            value.has_value() ? value->c_str() : "no row"));
      } else if (pserver->engine() != nullptr &&
                 !pserver->engine()->ExecutedGtids().Contains(w.gtid)) {
        durability.Add(StringPrintf(
            "acked gtid %s missing from primary %s executed set",
            w.gtid.ToString().c_str(), primary.c_str()));
      }
    }
  }

  // --- Log Matching (every live log vs the leader's) ----------------------
  {
    // Members the reconfig nemesis removed stop receiving appends: their
    // frozen logs can hold an uncommitted suffix the ring later
    // overwrote, and (unlike a healed partition) replication will never
    // truncate it. Only the ACTIVE membership is comparable.
    const MembershipConfig& active = pserver->consensus()->config();
    WindowCollector matching(this, "LogMatching");
    for (const MemberId& id : cluster.ids()) {
      if (id == primary) continue;
      if (active.Find(id) == nullptr) continue;
      sim::SimNode* node = cluster.node(id);
      if (!node->up()) continue;
      server::MySqlServer* server = node->server();
      const server::InvariantSnapshot snap =
          server->CaptureInvariantSnapshot();
      binlog::BinlogManager* nlog = server->binlog_manager();
      const uint64_t lo =
          std::max(psnap.first_log_index, snap.first_log_index);
      const uint64_t hi =
          std::min(psnap.last_logged.index, snap.last_logged.index);
      for (uint64_t index = lo; index <= hi && index > 0; ++index) {
        auto p_entry = plog->ReadEntry(index);
        auto n_entry = nlog->ReadEntry(index);
        if (!p_entry.ok() || !n_entry.ok()) {
          matching.Add(StringPrintf(
              "index %llu unreadable (%s: %s, %s: %s)",
              (unsigned long long)index, primary.c_str(),
              p_entry.status().ToString().c_str(), id.c_str(),
              n_entry.status().ToString().c_str()));
          break;
        }
        if (!(*p_entry == *n_entry)) {
          matching.Add(StringPrintf(
              "index %llu differs between %s (%s) and %s (%s)",
              (unsigned long long)index, primary.c_str(),
              p_entry->id.ToString().c_str(), id.c_str(),
              n_entry->id.ToString().c_str()));
          break;  // one divergence per node is enough signal
        }
      }
    }
  }

  // --- GTID-set monotonicity per engine ------------------------------------
  {
    WindowCollector monotonic(this, "GtidMonotonicity");
    for (const MemberId& id : cluster.ids()) {
      const MemberInfo* info = cluster.config().Find(id);
      sim::SimNode* node = cluster.node(id);
      if (info == nullptr || !info->has_engine() || !node->up()) continue;
      const binlog::GtidSet executed =
          node->server()->engine()->ExecutedGtids();
      auto previous = previous_executed_.find(id);
      if (previous != previous_executed_.end() &&
          !executed.ContainsAll(previous->second)) {
        monotonic.Add(StringPrintf(
            "%s executed set regressed: had %s, now %s", id.c_str(),
            previous->second.ToString().c_str(),
            executed.ToString().c_str()));
      }
      previous_executed_[id] = executed;
    }
  }

  // --- Parallel-applier serial equivalence ---------------------------------
  // Skipped if the leader's log prefix was purged (never in chaos runs).
  if (plog->FirstIndex() <= 1) {
    WindowCollector equivalence(this, "ApplierEquivalence");
    auto serial = SerialReplayChecksum(plog, psnap.commit_marker.index,
                                       cluster.loop()->clock());
    if (!serial.ok()) {
      equivalence.Add("serial replay failed: " + serial.status().ToString());
    } else {
      for (const MemberId& id : cluster.ids()) {
        const MemberInfo* info = cluster.config().Find(id);
        sim::SimNode* node = cluster.node(id);
        if (info == nullptr || !info->has_engine() || !node->up()) continue;
        const server::InvariantSnapshot snap =
            node->server()->CaptureInvariantSnapshot();
        // Only engines caught up to the primary are comparable (judged on
        // executed GTIDs; trailing no-ops keep applied indexes below the
        // commit marker).
        if (snap.executed_gtids != psnap.executed_gtids) continue;
        if (snap.state_checksum != *serial) {
          equivalence.Add(StringPrintf(
              "%s checksum %llx != serial replay %llx at index %llu",
              id.c_str(), (unsigned long long)snap.state_checksum,
              (unsigned long long)*serial,
              (unsigned long long)psnap.commit_marker.index));
        }
      }
    }
  }
}

void InvariantChecker::ObserveRead(const std::string& key,
                                   const std::string& expected,
                                   const std::optional<std::string>& actual,
                                   bool served_by_lease,
                                   const MemberId& served_by) {
  if (actual.has_value() && *actual == expected) return;
  AddViolation(
      served_by_lease ? "StaleReadUnderLease" : "StaleRead",
      StringPrintf("%s served read of %s: expected \"%s\", got %s",
                   served_by.c_str(), key.c_str(), expected.c_str(),
                   actual.has_value() ? ("\"" + *actual + "\"").c_str()
                                      : "(missing)"));
}

void InvariantChecker::AddViolation(const std::string& invariant,
                                    const std::string& detail) {
  MYRAFT_LOG(Error) << "invariant violation: " << invariant << ": " << detail;
  violations_.push_back(Violation{invariant, detail});
}

}  // namespace myraft::chaos
