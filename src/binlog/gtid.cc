#include "binlog/gtid.h"

#include <algorithm>

#include "util/coding.h"
#include "util/string_util.h"

namespace myraft::binlog {

void Gtid::AppendTo(std::string* dst) const {
  server_uuid.AppendTo(dst);
  dst->push_back(':');
  AppendDecimal(dst, txn_no);
}

std::string Gtid::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

Result<Gtid> Gtid::Parse(const std::string& text) {
  const auto pos = text.find(':');
  if (pos == std::string::npos) {
    return Status::InvalidArgument("gtid: missing ':' in " + text);
  }
  Gtid gtid;
  MYRAFT_ASSIGN_OR_RETURN(gtid.server_uuid, Uuid::Parse(text.substr(0, pos)));
  if (!ParseUint64(text.substr(pos + 1), &gtid.txn_no) || gtid.txn_no == 0) {
    return Status::InvalidArgument("gtid: bad sequence in " + text);
  }
  return gtid;
}

void GtidSet::AddRange(const Uuid& uuid, uint64_t start, uint64_t end) {
  if (start == 0 || end < start) return;
  auto& runs = intervals_[uuid];
  // Insert keeping sorted order, then merge overlapping/adjacent runs.
  Interval incoming{start, end};
  auto it = std::lower_bound(
      runs.begin(), runs.end(), incoming,
      [](const Interval& a, const Interval& b) { return a.start < b.start; });
  runs.insert(it, incoming);

  std::vector<Interval> merged;
  for (const Interval& r : runs) {
    if (!merged.empty() && r.start <= merged.back().end + 1) {
      merged.back().end = std::max(merged.back().end, r.end);
    } else {
      merged.push_back(r);
    }
  }
  runs = std::move(merged);
}

void GtidSet::Union(const GtidSet& other) {
  for (const auto& [uuid, runs] : other.intervals_) {
    for (const Interval& r : runs) AddRange(uuid, r.start, r.end);
  }
}

void GtidSet::Subtract(const GtidSet& other) {
  for (const auto& [uuid, sub_runs] : other.intervals_) {
    auto it = intervals_.find(uuid);
    if (it == intervals_.end()) continue;
    std::vector<Interval> result;
    for (Interval r : it->second) {
      // Carve every subtracted run out of r.
      std::vector<Interval> pieces{r};
      for (const Interval& s : sub_runs) {
        std::vector<Interval> next;
        for (const Interval& p : pieces) {
          if (s.end < p.start || s.start > p.end) {
            next.push_back(p);
            continue;
          }
          if (s.start > p.start) next.push_back({p.start, s.start - 1});
          if (s.end < p.end) next.push_back({s.end + 1, p.end});
        }
        pieces = std::move(next);
      }
      result.insert(result.end(), pieces.begin(), pieces.end());
    }
    if (result.empty()) {
      intervals_.erase(it);
    } else {
      it->second = std::move(result);
    }
  }
}

bool GtidSet::Contains(const Gtid& gtid) const {
  auto it = intervals_.find(gtid.server_uuid);
  if (it == intervals_.end()) return false;
  for (const Interval& r : it->second) {
    if (gtid.txn_no >= r.start && gtid.txn_no <= r.end) return true;
  }
  return false;
}

bool GtidSet::ContainsAll(const GtidSet& other) const {
  for (const auto& [uuid, runs] : other.intervals_) {
    auto it = intervals_.find(uuid);
    if (it == intervals_.end()) return false;
    for (const Interval& r : runs) {
      // Every point of r must be covered by one of our runs (runs are
      // disjoint and sorted, so a single covering run must exist).
      bool covered = false;
      for (const Interval& mine : it->second) {
        if (r.start >= mine.start && r.end <= mine.end) {
          covered = true;
          break;
        }
      }
      if (!covered) return false;
    }
  }
  return true;
}

bool GtidSet::Intersects(const GtidSet& other) const {
  for (const auto& [uuid, runs] : other.intervals_) {
    auto it = intervals_.find(uuid);
    if (it == intervals_.end()) continue;
    for (const Interval& a : runs) {
      for (const Interval& b : it->second) {
        if (a.start <= b.end && b.start <= a.end) return true;
      }
    }
  }
  return false;
}

uint64_t GtidSet::Count() const {
  uint64_t n = 0;
  for (const auto& [uuid, runs] : intervals_) {
    for (const Interval& r : runs) n += r.end - r.start + 1;
  }
  return n;
}

uint64_t GtidSet::NextTxnNo(const Uuid& uuid) const {
  auto it = intervals_.find(uuid);
  if (it == intervals_.end() || it->second.empty()) return 1;
  return it->second.back().end + 1;
}

std::string GtidSet::ToString() const {
  std::string out;
  for (const auto& [uuid, runs] : intervals_) {
    if (!out.empty()) out += ",";
    out += uuid.ToString();
    for (const Interval& r : runs) {
      out += ":";
      out += std::to_string(r.start);
      if (r.end != r.start) {
        out += "-";
        out += std::to_string(r.end);
      }
    }
  }
  return out;
}

Result<GtidSet> GtidSet::Parse(const std::string& text) {
  GtidSet set;
  if (text.empty()) return set;
  for (const std::string& chunk : SplitString(text, ',')) {
    const auto parts = SplitString(chunk, ':');
    if (parts.size() < 2) {
      return Status::InvalidArgument("gtid set: missing intervals: " + chunk);
    }
    Uuid uuid;
    MYRAFT_ASSIGN_OR_RETURN(uuid, Uuid::Parse(parts[0]));
    for (size_t i = 1; i < parts.size(); ++i) {
      const auto range = SplitString(parts[i], '-');
      uint64_t start, end;
      if (range.size() == 1) {
        if (!ParseUint64(range[0], &start)) {
          return Status::InvalidArgument("gtid set: bad number: " + parts[i]);
        }
        end = start;
      } else if (range.size() == 2) {
        if (!ParseUint64(range[0], &start) || !ParseUint64(range[1], &end) ||
            end < start) {
          return Status::InvalidArgument("gtid set: bad range: " + parts[i]);
        }
      } else {
        return Status::InvalidArgument("gtid set: bad interval: " + parts[i]);
      }
      if (start == 0) {
        return Status::InvalidArgument("gtid set: zero seqno: " + parts[i]);
      }
      set.AddRange(uuid, start, end);
    }
  }
  return set;
}

void GtidSet::EncodeTo(std::string* dst) const { EncodeRecord(*this, dst); }

Result<GtidSet> GtidSet::Decode(Slice input) {
  return DecodeRecord<GtidSet>(input, "gtid set");
}

bool GtidSet::IsCanonical(const std::vector<Interval>& runs) {
  if (runs.empty()) return false;
  uint64_t prev_end = 0;
  for (size_t i = 0; i < runs.size(); ++i) {
    const Interval& r = runs[i];
    if (r.start == 0 || r.end < r.start) return false;
    if (i > 0 && r.start - 1 <= prev_end) return false;
    prev_end = r.end;
  }
  return true;
}

}  // namespace myraft::binlog
