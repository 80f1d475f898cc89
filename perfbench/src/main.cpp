// perfbench: the PrivIM benchmark binary. perfbench/run.py builds it and
// calls it twice per run:
//
//   perfbench prep --workload W --seed S --dir D --config JSON
//   perfbench run  --workload W --seed S --seconds N --trace 0|1 --dir D
//                  --config JSON
//
// `prep` writes the workload's generated inputs into D; `run` measures
// them and prints one JSON object as its last stdout line:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{..},"context":{..}}

#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "privim/common/logging.h"
#include "stats.h"
#include "workloads.h"

namespace {

using perfbench::RunArgs;
using perfbench::RunOutput;
using privim::Result;
using privim::Status;
using privim::serve::JsonValue;

constexpr int kRaisedNice = -10;

// A fixed integer spin loop; its time before and after a run tells a slow
// host from a slow change.
double SpinProbeSeconds() {
  const double start = perfbench::NowSeconds();
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));  // keeps the loop from being folded away
  }
  return perfbench::NowSeconds() - start;
}

Result<RunArgs> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected a --flag, got " + key);
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  RunArgs args;
  Result<perfbench::WorkloadId> workload =
      perfbench::WorkloadNamed(flags["workload"]);
  if (!workload.ok()) return workload.status();
  args.workload = workload.value();
  args.dir = flags["dir"];
  args.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  args.seconds = flags.count("seconds") ? std::atof(flags["seconds"].c_str())
                                        : 10.0;
  args.trace = flags["trace"] == "1";
  if (args.dir.empty() || !(args.seconds > 0)) {
    return Status::InvalidArgument("need --dir and a positive --seconds");
  }
  Result<JsonValue> config = JsonValue::Parse(flags["config"]);
  if (!config.ok() || !config->is_object()) {
    return Status::InvalidArgument("--config must be a JSON object");
  }
  PRIVIM_RETURN_NOT_OK(perfbench::CheckConfig(args.workload, config.value()));
  args.config = std::move(config).value();
  return args;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  privim::SetLogLevel(privim::LogLevel::kWarning);
  const std::string mode = argc > 1 ? argv[1] : "";
  Result<RunArgs> args = ParseArgs(argc, argv);
  if (!args.ok()) return Fail(args.status());
  if (mode == "prep") {
    const Status prepared = perfbench::PrepInputs(args.value());
    return prepared.ok() ? 0 : Fail(prepared);
  }
  if (mode != "run") return Fail(Status::InvalidArgument("mode: prep | run"));
  // Freed memory stays in the process, as in a long-running server: a
  // repeated setup then reuses pages instead of faulting in new ones, whose
  // cost on a virtual machine varies with the host.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's maximum
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  // Other tasks of the machine (kernel workers, daemons) preempt the
  // measured threads for milliseconds at a time at the default priority;
  // at a raised one they rarely do. Threads inherit it. Without the
  // privilege the run goes on at the default.
  const bool raised = setpriority(PRIO_PROCESS, 0, kRaisedNice) == 0;

  RunOutput out;
  const double probe_before = SpinProbeSeconds();
  const Status ran = args->workload == perfbench::WorkloadId::kTrain
                         ? perfbench::RunTrain(args.value(), &out)
                         : perfbench::RunServe(args.value(), &out);
  if (!ran.ok()) return Fail(ran);
  const double probe_after = SpinProbeSeconds();

  out.context.Set("nice", JsonValue::Int(raised ? kRaisedNice : 0));
  out.context.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
  out.context.Set("nproc", JsonValue::Int(static_cast<int64_t>(
                               std::thread::hardware_concurrency())));
  out.context.Set("probe_before_s", JsonValue::Number(probe_before));
  out.context.Set("probe_after_s", JsonValue::Number(probe_after));
  JsonValue result = JsonValue::Object();
  result.Set("correct", JsonValue::Bool(out.correct));
  result.Set("attempted", JsonValue::Int(out.attempted));
  result.Set("failed", JsonValue::Int(out.failed));
  result.Set("metrics", out.metrics.ToJson());
  result.Set("context", std::move(out.context));
  if (!out.correct) result.Set("error", JsonValue::Str(out.error));
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}
