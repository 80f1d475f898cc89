// Seeded request streams for the two serving workloads.
//
// Request i of a stream is a pure function of (graph, seed, i), so the
// generator can produce it on demand, the output check can produce it
// again, and nothing has to be kept in memory in between.

#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "privim/graph/graph.h"

namespace perfbench {

enum class Mix {
  /// Model traffic, cache-cold (every request carries its own "seed", which
  /// is part of the cache key): 60% influence over a connected 16-64 node
  /// subgraph, 20% influence over 1-8 nodes, 20% model top-k, k in 1..50.
  kInfer,
  /// Graph-only traffic: 49% sketch top-k (k in 5..50), 49% Monte-Carlo
  /// spread of 1-5 seeds with 20-200 simulations, 2% RIS top-k over 500
  /// RR sets; on top, 40% of all requests repeat one of a small pool and
  /// hit the cache.
  kGraph,
};

class RequestStream {
 public:
  /// `graph` must outlive the stream.
  RequestStream(Mix mix, const privim::Graph& graph, uint64_t seed);

  /// JSON line of request `index` (its "id" is the index in decimal).
  std::string Line(uint64_t index) const;

  static constexpr int kPoolSize = 32;

 private:
  /// The request body after the id ("op":... and its fields).
  std::string Fields(uint64_t stream, uint64_t request_seed) const;
  std::string InferFields(uint64_t stream, uint64_t request_seed) const;
  std::string GraphFields(uint64_t stream, uint64_t request_seed) const;

  Mix mix_;
  const privim::Graph& graph_;
  uint64_t seed_;
  std::vector<std::string> pool_;  ///< kGraph: bodies that repeat
};

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
