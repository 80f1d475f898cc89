// Workload names and their fixed numbers from perfbench/workloads.json.

#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

using privim::Result;
using privim::Status;

Result<WorkloadId> WorkloadNamed(const std::string& name) {
  if (name == "train") return WorkloadId::kTrain;
  if (name == "serve-infer") return WorkloadId::kServeInfer;
  if (name == "serve-graph") return WorkloadId::kServeGraph;
  return Status::InvalidArgument("unknown workload \"" + name + "\"");
}

std::vector<std::string> ConfigKeys(WorkloadId id) {
  if (id == WorkloadId::kTrain) return {"pool_threads", "setup_reps"};
  return {"engine_threads", "net_loops",     "connections", "rate",
          "setup_reps",     "release_threads", "release_reps"};
}

Status CheckConfig(WorkloadId id, const privim::serve::JsonValue& config) {
  const std::vector<std::string> keys = ConfigKeys(id);
  for (const std::string& key : keys) {
    const privim::serve::JsonValue* value = config.Find(key);
    if (value == nullptr || !value->is_number() ||
        !(value->number_value() > 0)) {
      return Status::InvalidArgument("workloads.json: \"" + key +
                                     "\" must be a positive number");
    }
  }
  if (config.members().size() != keys.size()) {
    return Status::InvalidArgument("workloads.json: unknown keys");
  }
  return Status::OK();
}

int64_t RunArgs::Int(const std::string& key) const {
  return static_cast<int64_t>(config.Find(key)->number_value());
}

double RunArgs::Real(const std::string& key) const {
  return config.Find(key)->number_value();
}

}  // namespace perfbench
