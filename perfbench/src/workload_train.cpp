// The `train` workload: PrivIM* (Alg. 3 sampling, RDP accounting, DP-SGD,
// seed selection) on the Facebook stand-in, timed as whole RunPrivIm calls.
// The traced run replays RunPrivIm's public steps in the same order with
// the same seed, timing each layer from outside.

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "privim/common/rng.h"
#include "privim/common/thread_pool.h"
#include "privim/core/trainer.h"
#include "privim/datasets/split.h"
#include "privim/diffusion/ic_model.h"
#include "privim/dp/rdp_accountant.h"
#include "privim/gnn/features.h"
#include "privim/gnn/graph_context.h"
#include "privim/graph/graph_io.h"
#include "privim/im/celf.h"
#include "privim/im/seed_selection.h"
#include "privim/im/spread_oracle.h"
#include "privim/obs/metrics.h"
#include "privim/sampling/dual_stage.h"
#include "workloads.h"

namespace perfbench {

using privim::Graph;
using privim::NodeId;
using privim::PrivImOptions;
using privim::Result;
using privim::Status;

namespace {

struct Replay {
  std::vector<NodeId> seeds;
  double wall_s = 0.0;
  Spans spans;
  std::vector<double> iteration_s;
  int64_t subgraphs = 0;
  double sigma = 0.0;
};

// RunPrivIm (core/pipeline.cpp) for the dual-stage variant without
// checkpointing, step by step, each step timed around its public entry
// point. Every RNG draw happens in the same order, so the seeds must match.
Result<Replay> ReplayPrivIm(const Graph& train, const Graph& eval,
                            const PrivImOptions& options, uint64_t seed) {
  Replay replay;
  const double start = NowSeconds();
  privim::Rng rng(seed);

  privim::DualStageOptions dual;
  dual.stage1.subgraph_size = options.subgraph_size;
  dual.stage1.restart_probability = options.restart_probability;
  dual.stage1.decay = options.decay;
  dual.stage1.sampling_rate =
      std::min(1.0, 256.0 / static_cast<double>(train.num_nodes()));
  dual.stage1.walk_length = options.walk_length;
  dual.stage1.frequency_threshold = options.frequency_threshold;
  dual.boundary_divisor = options.boundary_divisor;
  Result<privim::DualStageResult> sampled = replay.spans.Time(
      "sampling.extract_s",
      [&] { return privim::DualStageSampling(train, dual, &rng); });
  if (!sampled.ok()) return sampled.status();
  const privim::SubgraphContainer& container = sampled->container;
  replay.subgraphs = container.size();

  privim::SubsampledGaussianConfig accounting;
  accounting.container_size = container.size();
  accounting.batch_size = std::min(options.batch_size, accounting.container_size);
  accounting.occurrence_bound =
      std::min(options.frequency_threshold, accounting.container_size);
  const double delta = 1.0 / static_cast<double>(train.num_nodes());
  Result<double> sigma = replay.spans.Time("dp.calibrate_s", [&] {
    Result<double> calibrated = privim::CalibrateNoiseMultiplier(
        accounting, options.iterations, delta, options.epsilon);
    if (calibrated.ok()) {
      accounting.noise_multiplier = calibrated.value();
      privim::ComputeEpsilon(accounting, options.iterations, delta);
      privim::EpsilonTrajectory(accounting, options.iterations, delta);
    }
    return calibrated;
  });
  if (!sigma.ok()) return sigma.status();
  replay.sigma = sigma.value();

  Result<std::unique_ptr<privim::GnnModel>> model =
      privim::CreateGnnModel(options.gnn, &rng);
  if (!model.ok()) return model.status();

  privim::DpSgdOptions training;
  training.batch_size = options.batch_size;
  training.iterations = options.iterations;
  training.learning_rate = options.learning_rate;
  training.clip_bound = options.clip_bound;
  training.noise_multiplier = replay.sigma;
  training.occurrence_bound = accounting.occurrence_bound;
  training.optimizer = options.optimizer;
  training.loss = options.loss;
  double last = 0.0;
  training.checkpoint_fn = [&](const privim::TrainCheckpointView&) {
    const double now = NowSeconds();
    replay.iteration_s.push_back(now - last);
    last = now;
    return Status::OK();
  };
  Result<privim::TrainStats> trained =
      replay.spans.Time("train.dpsgd_s", [&] {
        last = NowSeconds();
        return privim::TrainDpGnn(model.value().get(), container, training,
                                  &rng);
      });
  if (!trained.ok()) return trained.status();

  privim::Tensor scores = replay.spans.Time("gnn.eval_forward_s", [&] {
    const privim::GraphContext ctx = privim::GraphContext::Build(eval);
    const privim::Tensor features =
        privim::BuildNodeFeatures(eval, options.gnn.input_dim);
    return model.value()->Forward(ctx, privim::Variable(features)).value();
  });
  replay.seeds = replay.spans.Time("im.topk_seeds_s", [&] {
    return privim::TopKSeeds(scores, options.seed_set_size);
  });
  replay.wall_s = NowSeconds() - start;
  return replay;
}

double CounterValue(const std::string& name) {
  return static_cast<double>(
      privim::obs::GlobalMetrics().GetCounter(name)->Value());
}

}  // namespace

Status RunTrain(const RunArgs& args, RunOutput* out) {
  const int64_t pool_threads = args.Int("pool_threads");
  privim::SetGlobalThreadPoolSize(static_cast<size_t>(pool_threads));
  out->context.Set("pool_threads", privim::serve::JsonValue::Int(pool_threads));
  const PrivImOptions options = PaperOptions();
  const std::string path = args.dir + "/" + kGraphFile;

  // --- setup: load the dataset and split it 50/50, several times --------
  Spans setup;
  privim::TrainTestSplit split;
  for (int64_t rep = 0; rep < args.Int("setup_reps"); ++rep) {
    const double start = NowSeconds();
    Result<Graph> graph = setup.Time(
        "graph.load_s", [&] { return privim::LoadEdgeList(path, kUndirected); });
    if (!graph.ok()) return graph.status();
    privim::Rng rng(args.seed ^ kSplitSalt);
    Result<privim::TrainTestSplit> made = setup.Time(
        "datasets.split_s",
        [&] { return privim::SplitNodes(graph.value(), 0.5, &rng); });
    if (!made.ok()) return made.status();
    setup.Record("setup_s", NowSeconds() - start);
    split = std::move(made).value();
  }
  const Graph& train = split.train.local;
  const Graph& eval = split.test.local;

  // --- CELF reference for coverage (benchmark work, not timed) ----------
  privim::DeterministicCoverageOracle oracle(eval, /*steps=*/1);
  Result<privim::SeedSelectionResult> celf =
      privim::CelfGreedy(oracle, options.seed_set_size);
  if (!celf.ok()) return celf.status();

  // --- whole RunPrivIm calls, cycling through a few training seeds -------
  // The DP noise makes one seed's coverage an outlier now and then, so
  // coverage is the median over the seeds; every seed runs at least twice
  // and must give identical seeds each time.
  constexpr int64_t kTrainSeeds = 5;
  auto training_seed = [&](int64_t j) {
    return args.seed * static_cast<uint64_t>(kTrainSeeds) +
           static_cast<uint64_t>(j);
  };
  std::vector<double> train_s;
  std::vector<std::vector<NodeId>> seeds_of(static_cast<size_t>(kTrainSeeds));
  // 60% of the time for whole RunPrivIm calls, the rest for replays.
  constexpr double kRunShare = 0.6;
  const double run_until = NowSeconds() + args.seconds * kRunShare;
  for (int64_t rep = 0;
       rep < 2 * kTrainSeeds || NowSeconds() < run_until; ++rep) {
    const int64_t j = rep % kTrainSeeds;
    const double start = NowSeconds();
    Result<privim::PrivImResult> result =
        privim::RunPrivIm(train, eval, options, training_seed(j));
    train_s.push_back(NowSeconds() - start);
    ++out->attempted;
    if (!result.ok()) {
      ++out->failed;
      out->Fail("RunPrivIm: " + result.status().ToString());
      continue;
    }
    std::vector<NodeId>& seeds = seeds_of[static_cast<size_t>(j)];
    if (seeds.empty()) seeds = result->seeds;
    if (result->seeds != seeds) {
      ++out->failed;
      out->Fail("RunPrivIm returned different seeds for the same seed");
    } else if (!(result->achieved_epsilon <= options.epsilon)) {
      ++out->failed;
      out->Fail("achieved epsilon " + std::to_string(result->achieved_epsilon) +
                " exceeds the target");
    }
  }
  const std::vector<NodeId>& seeds = seeds_of.front();
  if (seeds.empty()) return Status::Internal("no RunPrivIm call succeeded");

  // --- the same pipeline replayed step by step, each step timed ---------
  privim::obs::GlobalMetrics().ResetAll();
  std::vector<Replay> replays;
  const double replay_until = NowSeconds() + args.seconds * (1.0 - kRunShare);
  while (replays.size() < 2 || NowSeconds() < replay_until) {
    Result<Replay> replay =
        ReplayPrivIm(train, eval, options, training_seed(0));
    ++out->attempted;
    if (!replay.ok()) return replay.status();
    if (replay->seeds != seeds) {
      ++out->failed;
      out->Fail("the step-by-step replay selected other seeds than RunPrivIm");
    }
    replays.push_back(std::move(replay).value());
  }
  // Each replay is one window of T iterations; throughput and latency
  // percentiles are taken per replay and the median over replays is
  // reported, so a host preemption burst moves one replay, not the result.
  std::vector<double> iteration_s;
  std::vector<double> replay_p50;
  std::vector<double> replay_p99;
  std::vector<double> iterations_per_s;
  std::vector<double> wall_s;
  for (const Replay& replay : replays) {
    iteration_s.insert(iteration_s.end(), replay.iteration_s.begin(),
                       replay.iteration_s.end());
    replay_p50.push_back(Percentile(replay.iteration_s, 0.5));
    replay_p99.push_back(Percentile(replay.iteration_s, 0.99));
    iterations_per_s.push_back(
        static_cast<double>(options.iterations) /
        Sum(replay.spans.Samples("train.dpsgd_s")));
    wall_s.push_back(replay.wall_s);
  }
  out->context.Set("runs", privim::serve::JsonValue::Int(
                               static_cast<int64_t>(train_s.size())));
  out->context.Set("replays", privim::serve::JsonValue::Int(
                                  static_cast<int64_t>(replays.size())));
  out->context.Set("iteration_samples",
                   privim::serve::JsonValue::Int(
                       static_cast<int64_t>(iteration_s.size())));

  MetricSet& m = out->metrics;
  if (!args.trace) {
    std::vector<double> coverage;
    for (const std::vector<NodeId>& released : seeds_of) {
      if (released.empty()) continue;
      coverage.push_back(privim::CoverageRatioPercent(
          static_cast<double>(privim::DeterministicIcSpread(eval, released, 1)),
          celf->spread));
    }
    PRIVIM_RETURN_NOT_OK(m.Add("setup_s", Median(setup.Samples("setup_s")), "s"));
    PRIVIM_RETURN_NOT_OK(m.Add("train_s", Median(train_s), "s"));
    PRIVIM_RETURN_NOT_OK(m.Add("coverage_pct", Median(coverage), "%"));
    PRIVIM_RETURN_NOT_OK(m.Add("qps_max", Median(iterations_per_s), "1/s"));
    PRIVIM_RETURN_NOT_OK(m.Add("lat_p50_ms", 1e3 * Median(replay_p50), "ms"));
    PRIVIM_RETURN_NOT_OK(m.Add("lat_p99_ms", 1e3 * Median(replay_p99), "ms"));
    PRIVIM_RETURN_NOT_OK(m.Add(
        "ok_frac",
        static_cast<double>(out->attempted - out->failed) /
            static_cast<double>(out->attempted),
        "ratio"));
    PRIVIM_RETURN_NOT_OK(m.Add("peak_rss_mb", PeakRssMb(), "MB"));
    return Status::OK();
  }

  // Per-layer times are per-replay means, so they and `other` add up to
  // the mean replay wall time; counts are per replay.
  const double n = static_cast<double>(replays.size());
  PRIVIM_RETURN_NOT_OK(
      m.Add("graph.load_s", Median(setup.Samples("graph.load_s")), "s"));
  PRIVIM_RETURN_NOT_OK(m.Add("datasets.split_s",
                             Median(setup.Samples("datasets.split_s")), "s"));
  double accounted = 0.0;
  for (const char* name : {"sampling.extract_s", "dp.calibrate_s",
                           "train.dpsgd_s", "gnn.eval_forward_s",
                           "im.topk_seeds_s"}) {
    double total = 0.0;
    for (const Replay& replay : replays) total += Sum(replay.spans.Samples(name));
    accounted += total / n;
    PRIVIM_RETURN_NOT_OK(m.Add(name, total / n, "s"));
  }
  PRIVIM_RETURN_NOT_OK(m.Add("train.other_s", Sum(wall_s) / n - accounted, "s"));
  PRIVIM_RETURN_NOT_OK(m.Add("sampling.subgraphs",
                             static_cast<double>(replays.front().subgraphs),
                             "count"));
  const double walks = CounterValue("sampling.freq.walks_started");
  PRIVIM_RETURN_NOT_OK(m.Add(
      "sampling.commit_ratio",
      walks > 0 ? CounterValue("sampling.freq.subgraphs_committed") / walks : 0.0,
      "ratio"));
  PRIVIM_RETURN_NOT_OK(m.Add("dp.sigma", replays.front().sigma, "ratio"));
  PRIVIM_RETURN_NOT_OK(
      m.Add("train.iter_ms_p50", 1e3 * Percentile(iteration_s, 0.5), "ms"));
  PRIVIM_RETURN_NOT_OK(
      m.Add("train.iter_ms_p99", 1e3 * Percentile(iteration_s, 0.99), "ms"));
  for (const char* name : {"train.grads_clipped", "threadpool.tasks",
                           "threadpool.parallel_regions",
                           "threadpool.inline_regions"}) {
    PRIVIM_RETURN_NOT_OK(m.Add(name, CounterValue(name) / n, "count"));
  }
  const privim::obs::Histogram* wait = privim::obs::GlobalMetrics().GetHistogram(
      "threadpool.queue_wait_s", privim::obs::DefaultTimeBucketsSeconds());
  PRIVIM_RETURN_NOT_OK(m.Add("threadpool.queue_wait_ms_mean",
                             wait->Count() > 0 ? 1e3 * wait->Mean() : 0.0, "ms"));
  PRIVIM_RETURN_NOT_OK(m.Add(
      "trace.overhead_pct",
      100.0 * (Median(wall_s) - Median(train_s)) / Median(train_s), "%"));
  return Status::OK();
}

}  // namespace perfbench
