// Chaos harness self-tests (DESIGN.md §11): determinism of the schedule
// generator and runner, the checker self-test that seeds a known
// durability bug and asserts the harness catches and minimizes it, and
// pinned regression schedules from the bug crop the harness found.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "chaos/minimizer.h"
#include "chaos/nemesis.h"
#include "chaos/runner.h"
#include "chaos/schedule.h"
#include "flexiraft/flexiraft.h"

namespace myraft::chaos {
namespace {

const raft::QuorumEngine* FlexiEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

/// The bench_chaos topology: 3 regions x (db + 2 logtailers) + 1 learner.
ChaosOptions PaperTopologyOptions() {
  ChaosOptions options;
  options.cluster.topology.db_regions = 3;
  options.cluster.topology.logtailers_per_db = 2;
  options.cluster.topology.learners = 1;
  return options;
}

FaultStep Step(uint64_t at, FaultAction action,
               std::vector<std::string> targets) {
  FaultStep step;
  step.at_micros = at;
  step.action = action;
  step.targets = std::move(targets);
  return step;
}

TEST(ChaosScheduleTest, GenerationAndTextAreDeterministic) {
  const std::vector<MemberId> members =
      TopologyMemberIds(PaperTopologyOptions().cluster);
  const NemesisOptions nemesis;
  const Schedule a = GenerateSchedule(42, members, nemesis);
  const Schedule b = GenerateSchedule(42, members, nemesis);
  ASSERT_FALSE(a.steps.empty());
  EXPECT_EQ(a.ToText(), b.ToText());
  // The emitted text is the replay format: it must round-trip exactly.
  auto parsed = Schedule::Parse(a.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ToText(), a.ToText());
  // Different seeds diverge (sanity that the seed is actually used).
  EXPECT_NE(GenerateSchedule(43, members, nemesis).ToText(), a.ToText());
}

TEST(ChaosScheduleTest, ClockFaultStepsRoundTrip) {
  // The clock family uses the third step shape (target + param); the
  // replay format must round-trip it exactly, heals included.
  Schedule schedule;
  schedule.seed = 1;
  schedule.duration_micros = 2'000'000;
  schedule.quiesce_interval_micros = 1'000'000;
  FaultStep skew = Step(100'000, FaultAction::kClockSkew, {"db0"});
  skew.param = 750'000;
  FaultStep rate = Step(200'000, FaultAction::kClockRate, {"@leader"});
  rate.param = 1'500'000;
  schedule.steps = {skew, rate,
                    Step(900'000, FaultAction::kClockHeal, {"*"})};
  auto parsed = Schedule::Parse(schedule.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ToText(), schedule.ToText());
  EXPECT_EQ(parsed->steps[0].param, 750'000u);
  EXPECT_EQ(parsed->steps[1].targets, std::vector<std::string>{"@leader"});
}

TEST(ChaosTopologyTest, MemberIdsMatchBootstrappedCluster) {
  // The nemesis targets members by name before the cluster exists;
  // TopologyMemberIds must stay pinned to ClusterHarness::Bootstrap.
  const ChaosOptions options = PaperTopologyOptions();
  sim::ClusterHarness cluster(options.cluster, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  std::vector<MemberId> ids = cluster.ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, TopologyMemberIds(options.cluster));
}

TEST(ChaosRunnerTest, IdenticalSeedsProduceByteIdenticalReports) {
  const ChaosOptions options = PaperTopologyOptions();
  NemesisOptions nemesis;
  nemesis.duration_micros = 6'000'000;
  nemesis.quiesce_interval_micros = 3'000'000;
  const Schedule schedule =
      GenerateSchedule(5, TopologyMemberIds(options.cluster), nemesis);
  ChaosRunner runner(options, FlexiEngine());
  const std::string first = runner.Run(schedule).ToText();
  const std::string second = runner.Run(schedule).ToText();
  EXPECT_EQ(first, second);
}

/// The checker self-test schedule: power-fail the whole single-region
/// ring mid-stream, then bring back only the logtailers so they elect
/// among themselves while the old primary's durable log is offline. The
/// primary rejoins at the quiescent window.
Schedule SelfTestSchedule() {
  Schedule schedule;
  schedule.seed = 7;
  schedule.duration_micros = 2'000'000;
  schedule.quiesce_interval_micros = 2'000'000;
  schedule.steps = {
      Step(250'000, FaultAction::kCrashTorn, {"db0"}),
      Step(250'000, FaultAction::kCrashTorn, {"lt0a"}),
      Step(250'000, FaultAction::kCrashTorn, {"lt0b"}),
      Step(300'000, FaultAction::kRestart, {"lt0a"}),
      Step(300'000, FaultAction::kRestart, {"lt0b"}),
  };
  return schedule;
}

ChaosOptions SelfTestOptions() {
  // One region: db0 + lt0a + lt0b. The data quorum is 2-of-3, so the
  // primary commits with a single logtailer ack.
  ChaosOptions options;
  options.cluster.topology.db_regions = 1;
  options.cluster.topology.logtailers_per_db = 2;
  options.cluster.topology.learners = 0;
  options.write_interval_micros = 5'000;
  return options;
}

TEST(ChaosSelfTest, SeededUnsafeCommitBugIsCaughtAndMinimized) {
  // Checker self-test: seed a known durability bug — logtailers ack a
  // durable index their log never fsynced — and assert the harness
  // catches it. The primary commits on those acks, so acked writes survive
  // only on the primary; after the torn crash the revived logtailers elect
  // on rewound logs and commit a conflicting suffix, and the rejoining
  // primary truncates the acked tail away.
  ChaosOptions options = SelfTestOptions();
  options.cluster.raft.unsafe_follower_skips_fsync = true;
  const Schedule schedule = SelfTestSchedule();

  ChaosRunner runner(options, FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  ASSERT_FALSE(report.passed) << report.ToText();
  EXPECT_GT(FailureSignature(report).count("Durability"), 0u)
      << report.ToText();

  // ddmin must shrink the repro to at most 5 steps while keeping the
  // failure signature.
  const MinimizeResult minimized =
      MinimizeSchedule(options, FlexiEngine(), schedule);
  EXPECT_FALSE(minimized.report.passed);
  EXPECT_LE(minimized.schedule.steps.size(), 5u)
      << minimized.schedule.ToText();
}

TEST(ChaosSelfTest, SafeCommitRuleSurvivesTheSameSchedule) {
  // Negative control / durability regression repro: the identical
  // schedule with real follower fsyncs loses nothing — every acked write
  // has a durable copy on a logtailer that torn crashes cannot eat, and
  // the up-to-date vote check guarantees the longest-log logtailer wins
  // the interim term.
  const ChaosOptions options = SelfTestOptions();
  ChaosRunner runner(options, FlexiEngine());
  const ChaosReport report = runner.Run(SelfTestSchedule());
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);
}

TEST(ChaosRegressionTest, SingleVoterCommitRetiresEveryWrite) {
  // Found by the harness: when a region's data quorum is the leader
  // alone, the commit marker advances synchronously inside Replicate —
  // before the server registers the pending client write. The last write
  // before a lull was never retired: the client timed out and the
  // primary's engine stayed one transaction behind its own log forever.
  ChaosOptions options;
  options.cluster.topology.db_regions = 3;
  options.cluster.topology.logtailers_per_db = 0;
  options.cluster.topology.learners = 0;
  options.write_interval_micros = 5'000;

  Schedule schedule;
  schedule.seed = 7;
  schedule.duration_micros = 2'000'000;
  schedule.quiesce_interval_micros = 1'000'000;
  schedule.steps = {
      Step(250'000, FaultAction::kCrashTorn, {"db1"}),
      Step(250'000, FaultAction::kCrashTorn, {"db2"}),
      Step(252'000, FaultAction::kCrashTorn, {"@leader"}),
      Step(500'000, FaultAction::kRestart, {"*"}),
  };

  ChaosRunner runner(options, FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);
}

TEST(ChaosRegressionTest, AsymmetricLeaderIsolationFailsOver) {
  // Pinned asymmetric-partition election repro: every outbound link of
  // the leader fails one-way, so it keeps hearing the cluster while the
  // cluster stops hearing it. A replacement must be elected and the
  // stale leader dethroned without two leaders ever sharing a term — the
  // failure mode the evidence-coverage election rule fixed.
  const ChaosOptions options = PaperTopologyOptions();
  Schedule schedule;
  schedule.seed = 3;
  schedule.duration_micros = 4'000'000;
  schedule.quiesce_interval_micros = 2'000'000;
  for (const MemberId& id : TopologyMemberIds(options.cluster)) {
    schedule.steps.push_back(
        Step(100'000, FaultAction::kOneWayCut, {"@leader", id}));
  }
  ChaosRunner runner(options, FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);
  // The failover actually happened (a real election ran).
  EXPECT_NE(runner.TraceJsonl().find("election_started"), std::string::npos);
}

TEST(ChaosRegressionTest, TornLeaderCrashDuringCoalescedSyncLosesNothing) {
  // Group-commit durability schedule: power-fail the leader mid-stream,
  // squarely inside the window where a burst of appends awaits its
  // coalesced fsync. The leader's own quorum ack is gated on that sync
  // completing, so every write acked before the torn crash must hold a
  // durable quorum copy; the checker's ledger has to stay clean across
  // the promotion and the old leader's rejoin truncation.
  ChaosOptions options = PaperTopologyOptions();
  options.write_interval_micros = 2'000;  // dense enough to straddle syncs

  Schedule schedule;
  schedule.seed = 11;
  schedule.duration_micros = 3'000'000;
  schedule.quiesce_interval_micros = 1'500'000;
  schedule.steps = {
      Step(301'000, FaultAction::kCrashTorn, {"@leader"}),
      Step(900'000, FaultAction::kRestart, {"*"}),
  };

  ChaosRunner runner(options, FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);
}

// --- LeaseGuard lease chaos schedules (§13) ---------------------------
//
// Each schedule runs with leases enabled and the concurrent read
// workload on (one leader read of an acked key every 50ms by default);
// the checker's StaleReadUnderLease invariant audits every successful
// read against the ledger. Refusing a read under a lost lease is
// availability, never a violation — serving yesterday's value is.

ChaosOptions LeaseOptions() {
  ChaosOptions options = PaperTopologyOptions();
  options.cluster.raft.enable_leader_leases = true;
  options.write_interval_micros = 10'000;
  options.read_interval_micros = 20'000;
  return options;
}

TEST(ChaosLeaseTest, LeaseExpiryRacingLeaderCrashServesNoStaleReads) {
  // The expiry/crash race: skew the leaseholder's clock forward so its
  // own lease view expires instantly mid-serve, then power-fail it
  // before any renewal lands. The successor must win the term and the
  // read ledger must stay exact across the handoff window.
  Schedule schedule;
  schedule.seed = 13;
  schedule.duration_micros = 4'000'000;
  schedule.quiesce_interval_micros = 2'000'000;
  FaultStep skew = Step(300'000, FaultAction::kClockSkew, {"@leader"});
  skew.param = 2'000'000;  // +2s: past lease expiry in one jump
  schedule.steps = {
      skew,
      Step(320'000, FaultAction::kCrashTorn, {"@leader"}),
      Step(1'200'000, FaultAction::kRestart, {"*"}),
      Step(1'200'000, FaultAction::kClockHeal, {"*"}),
  };

  ChaosRunner runner(LeaseOptions(), FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);
  EXPECT_GT(report.reads_ok, 0u) << report.ToText();
}

TEST(ChaosLeaseTest, DriftBeyondMarginNeverServesStale) {
  // Rate drift past the configured margin on both sides of the grant:
  // a 2x-fast leader burns through its own lease view early (renewal
  // pressure), and a 2x-fast voter's election timer expires while the
  // leader still believes that voter's promise stands — the margin is
  // genuinely exceeded, and safety must fall to the quorum-intersection
  // backstop (the rival still needs an undrifted voter). A mid-run
  // leader crash forces the deferred-handoff window under drift.
  Schedule schedule;
  schedule.seed = 17;
  schedule.duration_micros = 5'000'000;
  schedule.quiesce_interval_micros = 2'500'000;
  FaultStep leader_rate = Step(200'000, FaultAction::kClockRate, {"@leader"});
  leader_rate.param = 2'000'000;  // 2x nominal
  FaultStep voter_rate = Step(200'000, FaultAction::kClockRate, {"lt1a"});
  voter_rate.param = 2'000'000;
  schedule.steps = {
      leader_rate,
      voter_rate,
      Step(1'500'000, FaultAction::kCrashTorn, {"@leader"}),
      Step(2'200'000, FaultAction::kRestart, {"*"}),
      Step(2'200'000, FaultAction::kClockHeal, {"*"}),
  };

  ChaosRunner runner(LeaseOptions(), FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.reads_ok, 0u) << report.ToText();
  EXPECT_GT(report.reads_lease, 0u) << report.ToText();
}

TEST(ChaosLeaseTest, PartitionedLeaseholderRefusesButNeverLies) {
  // Partition the leaseholder away from every voter. Its standing
  // grants run out within one lease duration and cannot renew; from
  // then on it must refuse lease reads (falling back to quorum rounds
  // that cannot complete) rather than serve values the majority side's
  // new leader may be overwriting. Reads during the partition may fail
  // — the invariant only audits the ones that claimed success.
  Schedule schedule;
  schedule.seed = 19;
  schedule.duration_micros = 5'000'000;
  schedule.quiesce_interval_micros = 2'500'000;
  schedule.steps = {
      Step(400'000, FaultAction::kPartition, {"@leader"}),
      Step(2'000'000, FaultAction::kHealAll, {}),
  };

  ChaosRunner runner(LeaseOptions(), FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);
  // Lease fast-path reads happened before the partition bit.
  EXPECT_GT(report.reads_lease, 0u) << report.ToText();
}

TEST(ChaosLeaseTest, GrantorCrashRestartRacingElectionServesNoStaleReads) {
  // The restart hole (§13.6): a voter's grant promise lives only in
  // volatile stickiness state. Crash-restart one grantor per region
  // inside the grant window, then partition the leaseholder — without
  // the startup vote embargo the restarted voters would help elect a
  // rival while the cut-off leaseholder still holds an unexpired commit
  // quorum of grants and is serving local reads. The embargo makes the
  // restarted voters sit out past every grant they could have made, so
  // the ledger must stay exact.
  Schedule schedule;
  schedule.seed = 23;
  schedule.duration_micros = 5'000'000;
  schedule.quiesce_interval_micros = 2'500'000;
  schedule.steps = {
      Step(400'000, FaultAction::kCrashTorn, {"lt0a", "lt1a", "lt2a"}),
      Step(450'000, FaultAction::kRestart, {"lt0a", "lt1a", "lt2a"}),
      Step(500'000, FaultAction::kPartition, {"@leader"}),
      Step(2'200'000, FaultAction::kHealAll, {}),
  };

  ChaosRunner runner(LeaseOptions(), FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);
  // Lease fast-path reads happened before the partition bit.
  EXPECT_GT(report.reads_lease, 0u) << report.ToText();
}

TEST(ChaosLeaseTest, GeneratedClockFaultCorpusStaysClean) {
  // End-to-end nemesis coverage: a generated schedule with the clock
  // family enabled, run with leases on. Pins the generator's clock-step
  // shapes (skew/rate with params, paired heals) through the runner.
  NemesisOptions nemesis;
  nemesis.clock_faults = true;
  const ChaosOptions options = LeaseOptions();
  const Schedule schedule = GenerateSchedule(
      21, TopologyMemberIds(options.cluster), nemesis);
  const bool has_clock_step = std::any_of(
      schedule.steps.begin(), schedule.steps.end(), [](const FaultStep& s) {
        return s.action == FaultAction::kClockSkew ||
               s.action == FaultAction::kClockRate;
      });
  EXPECT_TRUE(has_clock_step) << schedule.ToText();

  ChaosRunner runner(options, FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.reads_ok, 0u) << report.ToText();
}

// --- Membership nemesis + Config Safety (§15) -------------------------
//
// The checker's ConfigSafety invariant audits every quiescent window for
// config identity uniqueness and for pairs of live configs whose voter
// sets admit disjoint majorities. Leader-side rejections of racing
// changes are legal (counted as skipped steps) — configs that both commit
// and conflict are not.

TEST(ChaosScheduleTest, ReconfigStepsRoundTrip) {
  // The membership family uses the two-token step shape (subcmd +
  // member); the replay format must round-trip it exactly.
  Schedule schedule;
  schedule.seed = 1;
  schedule.duration_micros = 3'000'000;
  schedule.quiesce_interval_micros = 1'500'000;
  schedule.steps = {
      Step(200'000, FaultAction::kReconfig, {"remove", "lt1a"}),
      Step(500'000, FaultAction::kReconfig, {"demote", "lt2b"}),
      Step(1'400'000, FaultAction::kReconfig, {"add", "lt1a"}),
      Step(1'600'000, FaultAction::kReconfig, {"promote", "lt2b"}),
  };
  auto parsed = Schedule::Parse(schedule.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->ToText(), schedule.ToText());
  EXPECT_EQ(parsed->steps[0].targets,
            (std::vector<std::string>{"remove", "lt1a"}));
}

TEST(ChaosReconfigTest, ReconfigAcrossFailoverKeepsConfigSafety) {
  // Pinned §15 schedule: drop a voter, then partition away the leader
  // that performed the drop, forcing a successor to inherit the config
  // via the (term, version) ordering — config_term rebase, not a log
  // replay — and finally re-add the member through the new leader.
  Schedule schedule;
  schedule.seed = 29;
  schedule.duration_micros = 5'000'000;
  schedule.quiesce_interval_micros = 2'500'000;
  schedule.steps = {
      Step(300'000, FaultAction::kReconfig, {"remove", "lt1a"}),
      Step(600'000, FaultAction::kPartition, {"@leader"}),
      Step(2'000'000, FaultAction::kHealAll, {}),
      Step(2'600'000, FaultAction::kReconfig, {"add", "lt1a"}),
  };
  ChaosRunner runner(PaperTopologyOptions(), FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);
}

TEST(ChaosReconfigTest, ConcurrentChangeStormStaysSafe) {
  // Satellite regression for the stacked-config bug crop: a burst of
  // membership changes lands faster than install quorums can close the
  // pending windows. Every racing change must either commit alone or be
  // refused at the leader — the old unguarded path stacked them and the
  // checker's ConfigSafety caught the divergent identities.
  Schedule schedule;
  schedule.seed = 31;
  schedule.duration_micros = 5'000'000;
  schedule.quiesce_interval_micros = 2'500'000;
  schedule.steps = {
      Step(300'000, FaultAction::kReconfig, {"demote", "lt1a"}),
      Step(300'500, FaultAction::kReconfig, {"demote", "lt2a"}),
      Step(301'000, FaultAction::kReconfig, {"remove", "lt1b"}),
      Step(1'500'000, FaultAction::kReconfig, {"promote", "lt1a"}),
      Step(1'500'000, FaultAction::kReconfig, {"promote", "lt2a"}),
      Step(2'600'000, FaultAction::kReconfig, {"add", "lt1b"}),
  };
  ChaosRunner runner(PaperTopologyOptions(), FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);
}

TEST(ChaosReconfigTest, GeneratedMembershipCorpusKeepsConfigSafety) {
  // End-to-end nemesis coverage: a generated schedule with the
  // membership family enabled.
  // Pins the generator's reconfig step shapes (remove always paired
  // with a later re-add; demote with a heal-gated promote) through the
  // runner and the ConfigSafety audit.
  NemesisOptions nemesis;
  nemesis.reconfig_faults = true;
  const ChaosOptions options = PaperTopologyOptions();
  const Schedule schedule = GenerateSchedule(
      37, TopologyMemberIds(options.cluster), nemesis);
  const bool has_reconfig_step = std::any_of(
      schedule.steps.begin(), schedule.steps.end(), [](const FaultStep& s) {
        return s.action == FaultAction::kReconfig;
      });
  EXPECT_TRUE(has_reconfig_step) << schedule.ToText();

  ChaosRunner runner(options, FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
  EXPECT_GT(report.writes_acked, 0u);

  // Determinism holds for the new family too (CI replays by seed).
  EXPECT_EQ(GenerateSchedule(37, TopologyMemberIds(options.cluster), nemesis)
                .ToText(),
            schedule.ToText());
}

TEST(ChaosRegressionTest, Seed9DoubleLeaderScheduleStaysClean) {
  // The generated corpus schedule that originally exposed the FlexiRaft
  // double-leader (two candidates aggregating divergent stale last-leader
  // views won the same term with disjoint quorums), replayed verbatim.
  const ChaosOptions options = PaperTopologyOptions();
  const Schedule schedule = GenerateSchedule(
      9, TopologyMemberIds(options.cluster), NemesisOptions{});
  ChaosRunner runner(options, FlexiEngine());
  const ChaosReport report = runner.Run(schedule);
  EXPECT_TRUE(report.passed) << report.ToText();
}

}  // namespace
}  // namespace myraft::chaos
