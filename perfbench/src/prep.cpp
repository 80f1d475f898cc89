// Input preparation (not timed): the Table-I stand-in as an edge-list file.

#include <cstdio>
#include <memory>

#include "privim/datasets/datasets.h"
#include "workloads.h"

namespace perfbench {

using privim::Result;
using privim::Status;

privim::PrivImOptions PaperOptions() {
  privim::PrivImOptions options;  // Sec. V-A defaults: GRAT 3x32, n=40, ...
  options.variant = privim::PrivImVariant::kDualStage;
  options.iterations = 400;
  return options;
}

namespace {

// One "u v" line per undirected edge, like a SNAP file.
Status WriteEdgeList(const privim::Graph& graph, const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return Status::IOError("cannot write " + path);
  for (privim::NodeId u = 0; u < graph.num_nodes(); ++u) {
    for (const privim::NodeId v : graph.OutNeighbors(u)) {
      if (v < u) continue;
      std::fprintf(file.get(), "%d %d\n", u, v);
    }
  }
  return std::ferror(file.get()) ? Status::IOError("short write " + path)
                                 : Status::OK();
}

}  // namespace

Status PrepInputs(const RunArgs& args) {
  // Both stand-ins are undirected: the runs load the file with kUndirected.
  const privim::DatasetId id = args.workload == WorkloadId::kServeGraph
                                   ? privim::DatasetId::kGowalla
                                   : privim::DatasetId::kFacebook;
  Result<privim::Dataset> dataset =
      privim::MakeDataset(id, privim::DatasetScale::kPaper, args.seed);
  if (!dataset.ok()) return dataset.status();
  const std::string graph_path = args.dir + "/" + kGraphFile;
  PRIVIM_RETURN_NOT_OK(WriteEdgeList(dataset->graph, graph_path));

  return Status::OK();
}

}  // namespace perfbench
