// Global Transaction Identifiers and GTID sets. MyRaft preserves GTIDs
// and "all other metadata associated with them (like GTID sets)" (§3).
// The textual form follows MySQL: "uuid:1-5:7-9,uuid2:3".

#ifndef MYRAFT_BINLOG_GTID_H_
#define MYRAFT_BINLOG_GTID_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/slice.h"
#include "util/uuid.h"

namespace myraft::binlog {

/// One transaction identity: (originating server uuid, sequence number).
/// Sequence numbers start at 1 per MySQL convention.
struct Gtid {
  Uuid server_uuid;
  uint64_t txn_no = 0;

  auto operator<=>(const Gtid&) const = default;

  /// Appends "uuid:txn_no".
  void AppendTo(std::string* dst) const;
  std::string ToString() const;
  static Result<Gtid> Parse(const std::string& text);
};

/// A set of GTIDs stored as per-UUID sorted disjoint closed intervals.
class GtidSet {
 public:
  struct Interval {
    uint64_t start = 0;  // inclusive
    uint64_t end = 0;    // inclusive

    auto operator<=>(const Interval&) const = default;
  };

  GtidSet() = default;

  bool operator==(const GtidSet&) const = default;

  void Add(const Gtid& gtid) { AddRange(gtid.server_uuid, gtid.txn_no, gtid.txn_no); }
  /// Adds [start, end] for `uuid`; merges with adjacent/overlapping runs.
  void AddRange(const Uuid& uuid, uint64_t start, uint64_t end);
  /// Adds every GTID in `other`.
  void Union(const GtidSet& other);
  /// Removes every GTID in `other` (used when Raft truncates
  /// not-consensus-committed transactions, §3.3 demotion step 4).
  void Subtract(const GtidSet& other);

  bool Contains(const Gtid& gtid) const;
  bool ContainsAll(const GtidSet& other) const;
  bool Intersects(const GtidSet& other) const;
  bool IsEmpty() const { return intervals_.empty(); }
  uint64_t Count() const;

  /// Next unused sequence number for `uuid` (max end + 1, or 1).
  uint64_t NextTxnNo(const Uuid& uuid) const;

  void Clear() { intervals_.clear(); }

  /// MySQL-style text: "uuid:1-3:5,uuid:7". Deterministic ordering.
  std::string ToString() const;
  static Result<GtidSet> Parse(const std::string& text);

  /// Compact binary form for binlog PreviousGtids events and the engine
  /// snapshot, written once as a field walk (util/coding.h). Decoding
  /// rejects a run list that is not canonical (empty, a zero start, an
  /// interval that ends before it starts, runs out of order, overlapping
  /// or adjacent) and a uuid listed twice.
  template <typename Io, typename Set>
  static void Fields(Io& io, Set& set) {
    io.Repeat(set.intervals_, [](auto& io, auto& uuid_runs) {
      io.UuidBytes(uuid_runs.first);
      io.Repeat(uuid_runs.second, [](auto& io, auto& run) {
        io.Varint(run.start);
        io.Varint(run.end);
      });
      io.Require([&] { return IsCanonical(uuid_runs.second); },
                 "invalid interval");
    });
  }
  void EncodeTo(std::string* dst) const;
  static Result<GtidSet> Decode(Slice input);

  const std::map<Uuid, std::vector<Interval>>& intervals() const {
    return intervals_;
  }

 private:
  /// Sorted, disjoint, non-adjacent, non-empty runs of nonzero seqnos.
  static bool IsCanonical(const std::vector<Interval>& runs);

  std::map<Uuid, std::vector<Interval>> intervals_;
};

}  // namespace myraft::binlog

#endif  // MYRAFT_BINLOG_GTID_H_
