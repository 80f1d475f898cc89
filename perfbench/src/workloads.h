// The benchmark's workloads: input preparation, the untraced run that
// measures the end-to-end metrics, and the traced run that measures the
// layers.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "privim/common/status.h"
#include "privim/core/pipeline.h"
#include "privim/serve/json.h"
#include "stats.h"

namespace perfbench {

enum class WorkloadId { kTrain, kServeInfer, kServeGraph };

/// The workload of a --workload name. Everything but its fixed numbers
/// (thread counts, connections, rate, repetitions) follows from it.
privim::Result<WorkloadId> WorkloadNamed(const std::string& name);

/// The fixed numbers a workload reads from its entry in
/// perfbench/workloads.json; each must be there, and nothing else.
std::vector<std::string> ConfigKeys(WorkloadId id);

struct RunArgs {
  WorkloadId workload = WorkloadId::kTrain;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string dir;  ///< inputs written by PrepInputs
  /// The workload's entry in perfbench/workloads.json, holding exactly
  /// ConfigKeys(workload), each a positive number (see CheckConfig).
  privim::serve::JsonValue config = privim::serve::JsonValue::Object();

  int64_t Int(const std::string& key) const;
  double Real(const std::string& key) const;
};

/// InvalidArgument unless `config` holds exactly ConfigKeys(id), each a
/// positive number.
privim::Status CheckConfig(WorkloadId id,
                           const privim::serve::JsonValue& config);

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  MetricSet metrics;
  /// Host and run context printed beside the result (never gated).
  privim::serve::JsonValue context = privim::serve::JsonValue::Object();
  /// Why `correct` is false.
  std::string error;

  void Fail(const std::string& why) {
    correct = false;
    if (error.empty()) error = why;
  }
};

/// PrivIM* with the paper's defaults (Sec. V-A) and T raised to 400.
privim::PrivImOptions PaperOptions();

/// Writes the workload's input, the dataset's edge list, into args.dir.
/// Deterministic in args.seed.
privim::Status PrepInputs(const RunArgs& args);

privim::Status RunTrain(const RunArgs& args, RunOutput* out);
privim::Status RunServe(const RunArgs& args, RunOutput* out);

// Input file names inside RunArgs::dir.
inline constexpr const char* kGraphFile = "graph.txt";
inline constexpr const char* kModelFile = "model.bin";
inline constexpr const char* kSketchFile = "sketch.bin";

/// Salt of the 50/50 train/test node split's RNG.
inline constexpr uint64_t kSplitSalt = 0xD1CEBA5EULL;

/// Loads the workload's edge list the way a server or CLI would.
inline constexpr bool kUndirected = true;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
