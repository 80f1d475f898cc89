// Pipelining load generator for the TCP front end.
//
// One thread multiplexes a fixed set of non-blocking connections and keeps
// any number of requests in flight on each, so the server can form real
// batches (a blocking client with one request per connection never lets
// the batcher coalesce more requests than there are connections). It polls
// without ever sleeping, so it is never late for want of a wake-up.
//
//   open loop:   requests are due on a seeded Poisson schedule at a fixed
//                mean rate, whatever the server does; each latency runs
//                from the *scheduled* send time, so a stall is charged to
//                every request it delays (no coordinated omission). How
//                late the generator itself sent is reported separately.
//   closed loop: a fixed number of requests is kept in flight per
//                connection; OK responses are counted per time window.
//
// Time comes from an injected clock so the schedule and lateness logic
// can be tested without sockets or real time.

#ifndef PERFBENCH_GENERATOR_H_
#define PERFBENCH_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "privim/common/status.h"
#include "privim/serve/net/socket.h"

namespace perfbench {

using Clock = std::function<double()>;

enum class Framing { kJsonl, kHttp };

/// Arrival offsets (seconds from the start) of a Poisson process with mean
/// `rate` per second over [0, duration_s). Deterministic in `seed`.
std::vector<double> PoissonOffsets(double rate, double duration_s,
                                   uint64_t seed);

/// Walks an open-loop schedule: which request is due, and how late each
/// one was actually sent.
class OpenLoopPacer {
 public:
  explicit OpenLoopPacer(std::vector<double> offsets)
      : offsets_(std::move(offsets)) {}

  bool done() const { return next_ >= offsets_.size(); }
  /// Offset of the next unsent request (+inf when done).
  double NextDue() const {
    return done() ? std::numeric_limits<double>::infinity()
                  : offsets_[next_];
  }
  /// True when the next request is due at offset `now`.
  bool Due(double now) const { return !done() && offsets_[next_] <= now; }
  /// Marks the next request sent at offset `now`; returns its index and
  /// records its lateness (now - due, never negative).
  size_t MarkSent(double now);
  const std::vector<double>& lateness() const { return lateness_; }

 private:
  std::vector<double> offsets_;
  size_t next_ = 0;
  std::vector<double> lateness_;
};

/// Wire bytes of one request: the JSON line plus '\n', or an HTTP/1.1
/// keep-alive POST /v1/query carrying it as the body.
std::string RenderRequest(Framing framing, const std::string& json_line);

/// Splits a byte stream into responses: one per line (JSONL) or one per
/// Content-Length-framed HTTP/1.1 message.
class ResponseReader {
 public:
  explicit ResponseReader(Framing framing) : framing_(framing) {}
  void Feed(const char* data, size_t size) { buffer_.append(data, size); }
  /// Pops the next complete response body (JSONL: the line without its
  /// '\n'; HTTP: the body without its trailing '\n') and, for HTTP, its
  /// status code (200 for JSONL). False when none is complete yet or the
  /// stream is malformed (see error()).
  bool Next(std::string* body, int* status);
  const std::string& error() const { return error_; }

 private:
  Framing framing_;
  std::string buffer_;
  size_t pos_ = 0;
  std::string error_;
};

/// 64-bit FNV-1a digest of a response body. The generator keeps digests,
/// not bodies, so its memory does not grow with the run; the output check
/// compares them against digests of the reference responses.
uint64_t BodyDigest(const std::string& body);

struct LoadOptions {
  privim::serve::net::HostPort address;
  Framing framing = Framing::kJsonl;
  int connections = 2;
  double duration_s = 1.0;
  /// > 0: open loop at this mean rate (req/s); otherwise closed loop.
  double rate = 0.0;
  int depth = 16;         ///< closed loop: requests in flight per connection
  double window_s = 0.5;  ///< closed loop: throughput window
  uint64_t seed = 1;      ///< open-loop schedule seed
  /// After the schedule ends, how long to wait for outstanding responses
  /// before counting them as failed.
  double drain_timeout_s = 15.0;
};

/// One request's fate.
struct Sample {
  uint64_t request = 0;     ///< index in the caller's request stream
  double scheduled = 0.0;   ///< due time (open loop) / send time (closed)
  double done = -1.0;       ///< response time; < 0 when none arrived
  bool ok = false;          ///< "ok":true (and HTTP 200)
  uint64_t digest = 0;      ///< BodyDigest of the response
};

struct LoadResult {
  std::vector<Sample> samples;
  std::vector<double> window_ok_qps;  ///< closed loop, full windows only
  std::vector<double> lateness_s;     ///< open loop: sent - scheduled
  int64_t inflight_max = 0;
  double started = 0.0;  ///< clock time the run began
};

/// Produces the JSON line of request `index` of the stream.
using RequestFn = std::function<std::string(uint64_t index)>;

/// Runs one phase against `options.address`. Request indexes start at
/// `first_index` and increase by one per request sent.
privim::Result<LoadResult> RunLoad(const LoadOptions& options,
                                   const RequestFn& request,
                                   uint64_t first_index, const Clock& clock);

/// Blocking HTTP GET on a fresh connection; returns the body of a 200.
privim::Result<std::string> HttpGet(
    const privim::serve::net::HostPort& address, const std::string& target);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATOR_H_
