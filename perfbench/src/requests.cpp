#include "requests.h"

#include <algorithm>

#include "privim/common/rng.h"

namespace perfbench {

namespace {

// Stream-id spaces, so pool entries, pool picks and fresh requests never
// share a SplitRng stream.
constexpr uint64_t kPoolStreams = uint64_t{1} << 62;
// Request seeds of pool entries live above every fresh request's seed.
constexpr uint64_t kPoolSeedBase = uint64_t{1} << 40;
// Share of kGraph requests drawn from the pool. Kept clear of 1/2 so the
// median latency falls inside the cache-miss population, not on the edge
// between hits and misses.
constexpr double kRepeatShare = 0.4;

std::string NodeList(const std::vector<privim::NodeId>& nodes) {
  std::string out = "[";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(nodes[i]);
  }
  return out + "]";
}

std::vector<privim::NodeId> DistinctNodes(const privim::Graph& graph,
                                          int64_t count, privim::Rng* rng) {
  std::vector<privim::NodeId> nodes;
  while (static_cast<int64_t>(nodes.size()) < count) {
    const auto v = static_cast<privim::NodeId>(
        rng->NextBounded(static_cast<uint64_t>(graph.num_nodes())));
    if (std::find(nodes.begin(), nodes.end(), v) == nodes.end()) {
      nodes.push_back(v);
    }
  }
  return nodes;
}

// A connected node set grown by random out-arcs from a random start.
std::vector<privim::NodeId> ConnectedNodes(const privim::Graph& graph,
                                           int64_t count, privim::Rng* rng) {
  std::vector<privim::NodeId> nodes = DistinctNodes(graph, 1, rng);
  for (int64_t attempt = 0;
       static_cast<int64_t>(nodes.size()) < count && attempt < count * 50;
       ++attempt) {
    const privim::NodeId u = nodes[rng->NextBounded(nodes.size())];
    const auto out = graph.OutNeighbors(u);
    if (out.empty()) continue;
    const privim::NodeId v = out[rng->NextBounded(out.size())];
    if (std::find(nodes.begin(), nodes.end(), v) == nodes.end()) {
      nodes.push_back(v);
    }
  }
  return nodes;
}

}  // namespace

RequestStream::RequestStream(Mix mix, const privim::Graph& graph,
                             uint64_t seed)
    : mix_(mix), graph_(graph), seed_(seed) {
  if (mix_ == Mix::kGraph) {
    for (uint64_t p = 0; p < kPoolSize; ++p) {
      pool_.push_back(Fields(kPoolStreams + p, kPoolSeedBase + p));
    }
  }
}

std::string RequestStream::Line(uint64_t index) const {
  std::string body;
  if (mix_ == Mix::kGraph) {
    privim::Rng pick = privim::SplitRng(seed_, 2 * kPoolStreams + index);
    if (pick.NextBernoulli(kRepeatShare)) {
      body = pool_[pick.NextBounded(kPoolSize)];
    }
  }
  if (body.empty()) body = Fields(index, index + 1);
  return "{\"id\":\"" + std::to_string(index) + "\"," + body + "}";
}

std::string RequestStream::Fields(uint64_t stream,
                                  uint64_t request_seed) const {
  return mix_ == Mix::kInfer ? InferFields(stream, request_seed)
                             : GraphFields(stream, request_seed);
}

std::string RequestStream::InferFields(uint64_t stream,
                                       uint64_t request_seed) const {
  privim::Rng rng = privim::SplitRng(seed_, stream);
  const std::string seed = ",\"seed\":" + std::to_string(request_seed);
  const double u = rng.NextDouble();
  if (u < 0.6) {
    return "\"op\":\"influence\",\"subgraph\":" +
           NodeList(ConnectedNodes(graph_, rng.NextInt(16, 64), &rng)) + seed;
  }
  if (u < 0.8) {
    return "\"op\":\"influence\",\"nodes\":" +
           NodeList(DistinctNodes(graph_, rng.NextInt(1, 8), &rng)) + seed;
  }
  return "\"op\":\"topk\",\"k\":" + std::to_string(rng.NextInt(1, 50)) +
         ",\"method\":\"model\"" + seed;
}

std::string RequestStream::GraphFields(uint64_t stream,
                                       uint64_t request_seed) const {
  privim::Rng rng = privim::SplitRng(seed_, stream);
  const std::string seed = ",\"seed\":" + std::to_string(request_seed);
  const double u = rng.NextDouble();
  if (u < 0.02) {
    return "\"op\":\"topk\",\"k\":" + std::to_string(rng.NextInt(5, 50)) +
           ",\"method\":\"ris\",\"rr_sets\":500" + seed;
  }
  if (u < 0.51) {
    return "\"op\":\"topk\",\"k\":" + std::to_string(rng.NextInt(5, 50)) +
           ",\"method\":\"sketch\"" + seed;
  }
  const std::vector<privim::NodeId> seeds =
      DistinctNodes(graph_, rng.NextInt(1, 5), &rng);
  return "\"op\":\"spread\",\"seeds\":" + NodeList(seeds) +
         ",\"simulations\":" + std::to_string(rng.NextInt(20, 200)) + seed;
}

}  // namespace perfbench
