// Service discovery stub: the system clients consult to find the current
// primary (§3.3 promotion step 5: "Updating the service discovery system
// about the change of role to primary"). Updates are term-guarded so a
// delayed publish from a deposed primary can never overwrite a newer one.

#ifndef MYRAFT_SERVER_SERVICE_DISCOVERY_H_
#define MYRAFT_SERVER_SERVICE_DISCOVERY_H_

#include <optional>
#include <string>
#include <unordered_map>

#include "wire/types.h"

namespace myraft::server {

class ServiceDiscovery {
 public:
  virtual ~ServiceDiscovery() = default;

  /// Publishes `member` as primary of `replicaset` at leadership `term`.
  /// Stale (lower-term) publishes are ignored.
  virtual void PublishPrimary(const std::string& replicaset,
                              const MemberId& member, uint64_t term) = 0;
  /// Removes `member` as primary if it is still the published one at the
  /// same term (demotion).
  virtual void WithdrawPrimary(const std::string& replicaset,
                               const MemberId& member, uint64_t term) = 0;
  virtual std::optional<MemberId> GetPrimary(
      const std::string& replicaset) const = 0;
};

class InMemoryServiceDiscovery final : public ServiceDiscovery {
 public:
  void PublishPrimary(const std::string& replicaset, const MemberId& member,
                      uint64_t term) override {
    auto& entry = primaries_[replicaset];
    if (term < entry.term) return;
    entry = Entry{member, term};
    ++publishes_;
  }

  void WithdrawPrimary(const std::string& replicaset, const MemberId& member,
                       uint64_t term) override {
    auto it = primaries_.find(replicaset);
    if (it == primaries_.end()) return;
    if (it->second.member == member && it->second.term <= term) {
      primaries_.erase(it);
    }
  }

  std::optional<MemberId> GetPrimary(
      const std::string& replicaset) const override {
    auto it = primaries_.find(replicaset);
    if (it == primaries_.end()) return std::nullopt;
    return it->second.member;
  }

  uint64_t publishes() const { return publishes_; }

 private:
  struct Entry {
    MemberId member;
    uint64_t term = 0;
  };
  std::unordered_map<std::string, Entry> primaries_;  // never iterated
  uint64_t publishes_ = 0;
};

}  // namespace myraft::server

#endif  // MYRAFT_SERVER_SERVICE_DISCOVERY_H_
