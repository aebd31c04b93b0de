#include "chaos/minimizer.h"

#include <algorithm>

#include "util/logging.h"

namespace myraft::chaos {
namespace {

/// Hard budget on chaos runs spent minimizing.
constexpr int kMaxRuns = 48;

bool SignaturesIntersect(const std::set<std::string>& a,
                         const std::set<std::string>& b) {
  for (const std::string& name : a) {
    if (b.count(name) > 0) return true;
  }
  return false;
}

}  // namespace

std::set<std::string> FailureSignature(const ChaosReport& report) {
  std::set<std::string> signature;
  for (const Violation& v : report.violations) signature.insert(v.invariant);
  return signature;
}

MinimizeResult MinimizeSchedule(const ChaosOptions& runner_options,
                                const raft::QuorumEngine* quorum,
                                const Schedule& failing) {
  MinimizeResult result;
  result.schedule = failing;

  ChaosRunner runner(runner_options, quorum);
  // Establish the signature from a fresh run of the input schedule (the
  // caller's report may predate config changes).
  result.report = runner.Run(failing);
  ++result.runs;
  const std::set<std::string> signature = FailureSignature(result.report);
  if (signature.empty()) {
    MYRAFT_LOG(Warning) << "minimizer: schedule does not fail; nothing to do";
    return result;
  }

  auto still_fails = [&](const std::vector<FaultStep>& steps,
                         ChaosReport* report_out) {
    Schedule candidate = failing;
    candidate.steps = steps;
    ChaosReport report = runner.Run(candidate);
    ++result.runs;
    const bool fails = SignaturesIntersect(FailureSignature(report), signature);
    if (fails && report_out != nullptr) *report_out = std::move(report);
    return fails;
  };

  // Classic ddmin over the step list: try dropping chunks (testing the
  // complement), halving chunk granularity when no chunk can go.
  std::vector<FaultStep> current = result.schedule.steps;
  size_t chunks = 2;
  while (current.size() >= 2 && result.runs < kMaxRuns) {
    const size_t chunk_size = (current.size() + chunks - 1) / chunks;
    bool reduced = false;
    for (size_t begin = 0;
         begin < current.size() && result.runs < kMaxRuns;
         begin += chunk_size) {
      const size_t end = std::min(begin + chunk_size, current.size());
      std::vector<FaultStep> candidate;
      candidate.reserve(current.size() - (end - begin));
      candidate.insert(candidate.end(), current.begin(),
                       current.begin() + static_cast<long>(begin));
      candidate.insert(candidate.end(),
                       current.begin() + static_cast<long>(end),
                       current.end());
      ChaosReport report;
      if (still_fails(candidate, &report)) {
        current = std::move(candidate);
        result.report = std::move(report);
        chunks = std::max<size_t>(chunks - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (chunks >= current.size()) break;  // 1-minimal
      chunks = std::min(chunks * 2, current.size());
    }
  }

  result.schedule.steps = std::move(current);
  return result;
}

}  // namespace myraft::chaos
