// Model-based property test for BinlogManager: a random sequence of
// appends, replicated rotations, truncations, purges and reopens is
// checked against a trivial in-memory reference model after every step.
//
// Invariants:
//   M1  ReadEntry(i) equals the model's entry for every live index;
//   M2  FirstIndex/LastIndex/LastOpId match the model;
//   M3  gtids_in_log == all transaction GTIDs ever appended minus those
//       truncated (purging never removes GTID history, §A.1);
//   M4  a reopen (crash recovery) changes nothing.

#include <gtest/gtest.h>

#include <map>

#include "binlog/binlog_manager.h"
#include "util/random.h"

namespace myraft::binlog {
namespace {

class BinlogModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BinlogModelTest, RandomOpsMatchReferenceModel) {
  Random rng(GetParam());
  auto env = NewMemEnv();
  ManualClock clock;
  BinlogManagerOptions options;
  options.dir = "/log";
  options.clock = &clock;
  auto opened = BinlogManager::Open(env.get(), options);
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<BinlogManager> manager = std::move(*opened);

  std::map<uint64_t, LogEntry> model;  // live entries by index
  GtidSet model_gtids;                 // appended minus truncated
  uint64_t term = 1;
  uint64_t txn_no = 1;

  auto make_entry = [&](uint64_t index) {
    const uint64_t kind = rng.Uniform(10);
    const OpId opid{term, index};
    if (kind < 6) {
      TransactionPayloadBuilder builder;
      RowOperation op;
      op.kind = RowOperation::Kind::kInsert;
      op.database = "d";
      op.table = "t";
      op.after_image =
          "k" + std::to_string(rng.Uniform(100)) + "=" +
          std::string(rng.Uniform(300), 'v');
      builder.AddOperation(std::move(op));
      const Gtid gtid{Uuid::FromIndex(1 + rng.Uniform(3)), txn_no++};
      return std::make_pair(
          LogEntry::Make(opid, EntryType::kTransaction,
                         builder.Finalize(gtid, opid, index,
                                          clock.NowMicros(), 1)),
          std::optional<Gtid>(gtid));
    }
    if (kind < 8) {
      return std::make_pair(LogEntry::Make(opid, EntryType::kNoOp, ""),
                            std::optional<Gtid>());
    }
    if (kind == 8) {
      return std::make_pair(LogEntry::Make(opid, EntryType::kRotate, ""),
                            std::optional<Gtid>());
    }
    // A metadata entry with a payload: the MetadataBody round trip.
    return std::make_pair(
        LogEntry::Make(opid, EntryType::kNoOp,
                       "m" + std::to_string(rng.Uniform(5))),
        std::optional<Gtid>());
  };

  auto check_invariants = [&]() {
    // M2.
    if (model.empty()) {
      ASSERT_EQ(manager->FirstIndex(), 0u);
      ASSERT_EQ(manager->LastIndex(), 0u);
    } else {
      ASSERT_EQ(manager->FirstIndex(), model.begin()->first);
      ASSERT_EQ(manager->LastIndex(), model.rbegin()->first);
      ASSERT_EQ(manager->LastOpId(), model.rbegin()->second.id);
    }
    // M1: spot-check up to 10 random live indexes (full scan every step
    // would be quadratic) plus the boundaries.
    if (!model.empty()) {
      std::vector<uint64_t> indexes{model.begin()->first,
                                    model.rbegin()->first};
      for (int i = 0; i < 8; ++i) {
        const uint64_t span =
            model.rbegin()->first - model.begin()->first + 1;
        indexes.push_back(model.begin()->first + rng.Uniform(span));
      }
      for (uint64_t index : indexes) {
        auto it = model.find(index);
        auto read = manager->ReadEntry(index);
        if (it == model.end()) {
          ASSERT_FALSE(read.ok()) << "phantom entry at " << index;
        } else {
          ASSERT_TRUE(read.ok()) << "missing entry at " << index << ": "
                                 << read.status();
          ASSERT_EQ(*read, it->second) << "mismatch at " << index;
        }
      }
    }
    // M3.
    ASSERT_EQ(manager->gtids_in_log(), model_gtids);
  };

  clock.SetMicros(1);
  for (int step = 0; step < 120; ++step) {
    clock.AdvanceMicros(1000);
    const uint64_t action = rng.Uniform(10);
    if (action < 6 || model.empty()) {
      // Append 1-5 entries.
      const int n = 1 + static_cast<int>(rng.Uniform(5));
      for (int i = 0; i < n; ++i) {
        const uint64_t index =
            model.empty() ? manager->LastIndex() + 1
                          : model.rbegin()->first + 1;
        auto [entry, gtid] = make_entry(index == 0 ? 1 : index);
        ASSERT_TRUE(manager->AppendEntry(entry).ok());
        model[entry.id.index] = entry;
        if (gtid.has_value()) model_gtids.Add(*gtid);
      }
      if (rng.OneIn(3)) ++term;  // later appends at a higher term
    } else if (action < 7) {
      // Truncate a random suffix.
      if (model.empty()) continue;
      const uint64_t first = model.begin()->first;
      const uint64_t last = model.rbegin()->first;
      const uint64_t cut = first - 1 + rng.Uniform(last - first + 2);
      auto removed = manager->TruncateAfter(cut);
      ASSERT_TRUE(removed.ok()) << removed.status();
      GtidSet expected_removed;
      for (auto it = model.upper_bound(cut); it != model.end();) {
        if (it->second.type == EntryType::kTransaction) {
          auto txn = ParseTransactionPayload(it->second.payload);
          ASSERT_TRUE(txn.ok());
          expected_removed.Add(txn->gtid);
        }
        it = model.erase(it);
      }
      ASSERT_EQ(*removed, expected_removed);
      model_gtids.Subtract(expected_removed);
      // Terms may regress after truncation of a high-term suffix.
      term = model.empty() ? term : model.rbegin()->second.id.term;
    } else if (action < 8) {
      // Purge to a random retained file.
      const auto files = manager->ListLogFiles();
      if (files.size() < 2) continue;
      const std::string keep = files[rng.Uniform(files.size())];
      auto first_surviving = manager->FirstIndexOfFile(keep);
      ASSERT_TRUE(first_surviving.ok());
      ASSERT_TRUE(manager->PurgeLogsTo(keep).ok());
      model.erase(model.begin(), model.lower_bound(*first_surviving));
      // M3: purging does not change GTID history.
    } else {
      // Crash + reopen (M4).
      manager.reset();
      auto reopened = BinlogManager::Open(env.get(), options);
      ASSERT_TRUE(reopened.ok()) << reopened.status();
      manager = std::move(*reopened);
    }
    check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinlogModelTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace myraft::binlog
