#include "raft/consensus_metadata.h"

#include "util/coding.h"
#include "util/crc32c.h"
#include "wire/log_entry.h"

namespace myraft::raft {

Result<ConsensusMetadata> ConsensusMetadataStore::Load() const {
  if (!env_->FileExists(path_)) return ConsensusMetadata{};
  auto contents = env_->ReadFileToString(path_);
  if (!contents.ok()) return contents.status();
  if (contents->size() < 4) return Status::Corruption("cmeta: too short");
  const size_t body_len = contents->size() - 4;
  if (DecodeFixed32(contents->data() + body_len) !=
      crc32c::Value(contents->data(), body_len)) {
    return Status::Corruption("cmeta: crc mismatch");
  }
  Slice in(contents->data(), body_len);
  ConsensusMetadata meta;
  Slice voted_for, last_leader, last_region, voted_member, voted_region,
      config;
  if (!GetVarint64(&in, &meta.current_term) ||
      !GetLengthPrefixed(&in, &voted_for) ||
      !GetLengthPrefixed(&in, &last_leader) ||
      !GetLengthPrefixed(&in, &last_region) ||
      !GetVarint64(&in, &meta.last_leader_term) ||
      !GetVarint64(&in, &meta.last_vote_term) ||
      !GetLengthPrefixed(&in, &voted_member) ||
      !GetLengthPrefixed(&in, &voted_region) ||
      !GetLengthPrefixed(&in, &config)) {
    return Status::Corruption("cmeta: truncated");
  }
  // Optional trailing committed-config blob; absent means the active
  // config is itself committed.
  Slice committed;
  const bool has_committed = !in.empty();
  if (has_committed &&
      (!GetLengthPrefixed(&in, &committed) || !in.empty())) {
    return Status::Corruption("cmeta: truncated committed config");
  }
  meta.last_voted_for = voted_member.ToString();
  meta.last_voted_region = voted_region.ToString();
  meta.voted_for = voted_for.ToString();
  meta.last_known_leader = last_leader.ToString();
  meta.last_leader_region = last_region.ToString();
  MYRAFT_ASSIGN_OR_RETURN(meta.config, DecodeMembershipConfig(config));
  if (has_committed) {
    MYRAFT_ASSIGN_OR_RETURN(meta.committed_config,
                            DecodeMembershipConfig(committed));
  } else {
    meta.committed_config = meta.config;
  }
  return meta;
}

Status ConsensusMetadataStore::Save(const ConsensusMetadata& meta) const {
  std::string out;
  PutVarint64(&out, meta.current_term);
  PutLengthPrefixed(&out, meta.voted_for);
  PutLengthPrefixed(&out, meta.last_known_leader);
  PutLengthPrefixed(&out, meta.last_leader_region);
  PutVarint64(&out, meta.last_leader_term);
  PutVarint64(&out, meta.last_vote_term);
  PutLengthPrefixed(&out, meta.last_voted_for);
  PutLengthPrefixed(&out, meta.last_voted_region);
  std::string config;
  EncodeMembershipConfig(meta.config, &config);
  PutLengthPrefixed(&out, config);
  if (!(meta.committed_config == meta.config)) {
    std::string committed;
    EncodeMembershipConfig(meta.committed_config, &committed);
    PutLengthPrefixed(&out, committed);
  }
  PutFixed32(&out, crc32c::Value(out.data(), out.size()));

  const std::string tmp = path_ + ".tmp";
  MYRAFT_RETURN_NOT_OK(env_->WriteStringToFile(out, tmp, /*sync=*/true));
  return env_->RenameFile(tmp, path_);
}

}  // namespace myraft::raft
