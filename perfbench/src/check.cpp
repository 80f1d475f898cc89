#include "check.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "privim/serve/request.h"

namespace perfbench {

using privim::serve::InfluenceService;

std::string ExpectedResponse(InfluenceService* reference,
                             const std::string& request_line) {
  privim::Result<privim::serve::ServeRequest> request =
      privim::serve::ParseServeRequest(request_line);
  if (!request.ok()) {
    return privim::serve::ResponseForBadLine(request_line, request.status())
        .ToJsonLine();
  }
  return reference->Execute(request.value()).ToJsonLine();
}

CheckResult CheckSamples(
    InfluenceService* reference, const std::vector<Sample>& samples,
    const std::function<std::string(uint64_t)>& request_line, int threads) {
  CheckResult result;
  std::atomic<size_t> next{0};
  std::atomic<int64_t> checked{0};
  std::atomic<int64_t> mismatched{0};
  std::atomic<int64_t> failed{0};
  std::mutex first_mutex;
  auto worker = [&] {
    for (size_t i = next++; i < samples.size(); i = next++) {
      const Sample& sample = samples[i];
      if (sample.done < 0 || !sample.ok) {
        ++failed;
        continue;
      }
      ++checked;
      const std::string line = request_line(sample.request);
      if (BodyDigest(ExpectedResponse(reference, line)) != sample.digest) {
        ++mismatched;
        ++failed;
        std::lock_guard<std::mutex> lock(first_mutex);
        if (result.first_mismatch.empty()) result.first_mismatch = line;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < std::max(1, threads); ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& thread : pool) thread.join();
  result.checked = checked.load();
  result.mismatched = mismatched.load();
  result.failed = failed.load();
  return result;
}

}  // namespace perfbench
