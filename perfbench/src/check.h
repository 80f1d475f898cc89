// Output check for the serving workloads: every response that came back
// over TCP must equal, byte for byte, what InfluenceService::Execute
// answers for the same request line on a separately built, identical
// snapshot.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "generator.h"
#include "privim/serve/service.h"

namespace perfbench {

/// The response line the reference service produces for `request_line`
/// (a line that does not parse gets the front ends' bad-line response).
std::string ExpectedResponse(privim::serve::InfluenceService* reference,
                             const std::string& request_line);

struct CheckResult {
  int64_t checked = 0;     ///< OK responses compared with the reference
  int64_t mismatched = 0;  ///< OK, but not the expected bytes: wrong output
  /// Requests that failed: no response, a not-OK response (shed, deadline,
  /// error) or a mismatch.
  int64_t failed = 0;
  std::string first_mismatch;  ///< request line of the first mismatch
};

/// Checks every OK sample's digest against the reference response to
/// request_line(sample.request), spread over `threads` threads.
CheckResult CheckSamples(privim::serve::InfluenceService* reference,
                         const std::vector<Sample>& samples,
                         const std::function<std::string(uint64_t)>&
                             request_line,
                         int threads);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
