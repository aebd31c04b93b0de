#include "raft/consensus_metadata.h"

#include "util/coding.h"

namespace myraft::raft {

Result<ConsensusMetadata> ConsensusMetadataStore::Load() const {
  if (!env_->FileExists(path_)) return ConsensusMetadata{};
  auto contents = env_->ReadFileToString(path_);
  if (!contents.ok()) return contents.status();
  return DecodeRecord<ConsensusMetadata>(*contents, "cmeta");
}

Status ConsensusMetadataStore::Save(const ConsensusMetadata& meta) const {
  std::string out;
  EncodeRecord(meta, &out);
  const std::string tmp = path_ + ".tmp";
  MYRAFT_RETURN_NOT_OK(env_->WriteStringToFile(out, tmp, /*sync=*/true));
  return env_->RenameFile(tmp, path_);
}

}  // namespace myraft::raft
