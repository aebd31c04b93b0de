#include <algorithm>
#include <cstring>
#include <map>
#include <memory>

#include "util/env.h"

namespace myraft {

namespace {

// Shared refcounted contents so open handles survive RemoveFile/Rename,
// matching POSIX unlink semantics.
struct MemFileData {
  std::string contents;
  // Fsync horizon: bytes covered by the last Sync(). A simulated
  // power-loss crash (LoseUnsyncedData) truncates back to this, so
  // recovery paths only ever see bytes the writer made durable.
  uint64_t synced_size = 0;
};

class MemWritableFile final : public WritableFile {
 public:
  MemWritableFile(std::shared_ptr<MemFileData> data, uint64_t* sync_calls)
      : data_(std::move(data)), sync_calls_(sync_calls) {}

  Status Append(const Slice& chunk) override {
    data_->contents.append(chunk.data(), chunk.size());
    return Status::OK();
  }
  Status Flush() override { return Status::OK(); }
  Status Sync() override {
    data_->synced_size = data_->contents.size();
    ++*sync_calls_;
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  uint64_t Size() const override {
    return data_->contents.size();
  }

 private:
  std::shared_ptr<MemFileData> data_;
  // The env's fsync tally; the env outlives every handle it opens.
  uint64_t* sync_calls_;
};

class MemSequentialFile final : public SequentialFile {
 public:
  explicit MemSequentialFile(std::shared_ptr<MemFileData> data)
      : data_(std::move(data)) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    if (pos_ >= data_->contents.size()) {
      *result = Slice();
      return Status::OK();
    }
    const size_t avail = data_->contents.size() - pos_;
    const size_t take = std::min(n, avail);
    memcpy(scratch, data_->contents.data() + pos_, take);
    pos_ += take;
    *result = Slice(scratch, take);
    return Status::OK();
  }

  Status Skip(uint64_t n) override {
    pos_ += n;
    return Status::OK();
  }

 private:
  std::shared_ptr<MemFileData> data_;
  size_t pos_ = 0;
};

class MemRandomAccessFile final : public RandomAccessFile {
 public:
  explicit MemRandomAccessFile(std::shared_ptr<MemFileData> data)
      : data_(std::move(data)) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (offset >= data_->contents.size()) {
      *result = Slice();
      return Status::OK();
    }
    const size_t take =
        std::min(n, static_cast<size_t>(data_->contents.size() - offset));
    memcpy(scratch, data_->contents.data() + offset, take);
    *result = Slice(scratch, take);
    return Status::OK();
  }

  uint64_t Size() const override {
    return data_->contents.size();
  }

 private:
  std::shared_ptr<MemFileData> data_;
};

class MemEnv final : public Env, public CrashFaultInjectionEnv {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    auto data = std::make_shared<MemFileData>();
    files_[path] = data;
    return {std::make_unique<MemWritableFile>(std::move(data), &sync_calls_)};
  }

  Result<std::unique_ptr<WritableFile>> NewAppendableFile(
      const std::string& path) override {
    auto it = files_.find(path);
    std::shared_ptr<MemFileData> data;
    if (it == files_.end()) {
      data = std::make_shared<MemFileData>();
      files_[path] = data;
    } else {
      data = it->second;
    }
    return {std::make_unique<MemWritableFile>(std::move(data), &sync_calls_)};
  }

  Result<std::unique_ptr<SequentialFile>> NewSequentialFile(
      const std::string& path) override {
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound(path);
    return {std::make_unique<MemSequentialFile>(it->second)};
  }

  Result<std::unique_ptr<RandomAccessFile>> NewRandomAccessFile(
      const std::string& path) override {
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound(path);
    return {std::make_unique<MemRandomAccessFile>(it->second)};
  }

  bool FileExists(const std::string& path) override {
    return files_.count(path) > 0 || dirs_.count(path) > 0;
  }

  Result<std::vector<std::string>> GetChildren(
      const std::string& dir) override {
    std::string prefix = dir;
    if (!prefix.empty() && prefix.back() != '/') prefix += '/';
    std::vector<std::string> out;
    for (const auto& [path, _] : files_) {
      if (path.size() > prefix.size() && path.compare(0, prefix.size(), prefix) == 0) {
        const std::string rest = path.substr(prefix.size());
        // Only direct children.
        if (rest.find('/') == std::string::npos) out.push_back(rest);
      }
    }
    return out;
  }

  Status RemoveFile(const std::string& path) override {
    if (files_.erase(path) == 0) return Status::NotFound(path);
    return Status::OK();
  }

  Status CreateDirIfMissing(const std::string& dir) override {
    dirs_.insert({dir, true});
    return Status::OK();
  }

  Result<uint64_t> GetFileSize(const std::string& path) override {
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound(path);
    return static_cast<uint64_t>(it->second->contents.size());
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    auto it = files_.find(from);
    if (it == files_.end()) return Status::NotFound(from);
    files_[to] = it->second;
    files_.erase(it);
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    auto it = files_.find(path);
    if (it == files_.end()) return Status::NotFound(path);
    if (size > it->second->contents.size()) {
      return Status::InvalidArgument("truncate beyond EOF: " + path);
    }
    it->second->contents.resize(size);
    // An explicit truncate is a durable metadata operation; the horizon
    // never exceeds the file size afterwards.
    it->second->synced_size = std::min<uint64_t>(it->second->synced_size, size);
    return Status::OK();
  }

  // --- CrashFaultInjectionEnv ---------------------------------------------------

  size_t LoseUnsyncedData() override {
    size_t truncated = 0;
    for (auto& [path, data] : files_) {
      if (data->contents.size() > data->synced_size) {
        data->contents.resize(data->synced_size);
        ++truncated;
      }
    }
    return truncated;
  }

  uint64_t SyncedSize(const std::string& path) const override {
    auto it = files_.find(path);
    if (it == files_.end()) return 0;
    return it->second->synced_size;
  }

  uint64_t SyncCalls() const override { return sync_calls_; }

 private:
  std::map<std::string, std::shared_ptr<MemFileData>> files_;
  std::map<std::string, bool> dirs_;
  uint64_t sync_calls_ = 0;
};

}  // namespace

std::unique_ptr<Env> NewMemEnv() { return std::make_unique<MemEnv>(); }

CrashFaultInjectionEnv* GetCrashFaultInjectionEnv(Env* env) {
  return dynamic_cast<CrashFaultInjectionEnv*>(env);
}

}  // namespace myraft
