// The serving workloads. `serve-infer` serves the released model on the
// Facebook stand-in over JSON lines with cache-cold model traffic;
// `serve-graph` serves the Gowalla stand-in graph-only (sketch index loaded
// from a file) over HTTP/1.1 keep-alive, half of its requests cache hits.
//
// Untraced run: several fresh snapshot builds plus service and listener
// starts (setup_s), a closed-loop phase (qps_max) and an open-loop phase at
// the workload's fixed rate (lat_p50_ms, lat_p99_ms); then every response
// is checked against InfluenceService::Execute on a separately built,
// identical snapshot.
//
// Traced run: the open-loop phase without and with the program's own
// tracing, the registry read over GET /v1/metrics, the same stream driven
// in-process through InfluenceService::SubmitAsync, and an op-by-op replay
// through each layer's entry point.

#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "check.h"
#include "cpu.h"
#include "generator.h"
#include "privim/common/rng.h"
#include "privim/common/thread_pool.h"
#include "privim/datasets/split.h"
#include "privim/diffusion/ic_model.h"
#include "privim/gnn/features.h"
#include "privim/gnn/graph_context.h"
#include "privim/gnn/serialization.h"
#include "privim/graph/graph_io.h"
#include "privim/graph/subgraph.h"
#include "privim/im/celf.h"
#include "privim/im/ris.h"
#include "privim/im/seed_selection.h"
#include "privim/im/sketch/sketch_index.h"
#include "privim/im/spread_oracle.h"
#include "privim/obs/metrics.h"
#include "privim/obs/trace.h"
#include "privim/serve/net/group.h"
#include "privim/serve/request.h"
#include "privim/serve/service.h"
#include "requests.h"
#include "workloads.h"

namespace perfbench {

using privim::Result;
using privim::Status;
using privim::serve::InfluenceService;
using privim::serve::JsonValue;
using privim::serve::ServingAssets;

namespace {

using Snapshot = std::shared_ptr<const ServingAssets>;

// Share of the untraced run spent in the closed loop (the rest is the open
// loop), and the warm-up that precedes the traced open loop.
constexpr double kClosedShare = 0.2;
constexpr double kWarmupSeconds = 1.0;
// The largest share of the median latency by which the generator may send
// late (its p99) before the run is invalid.
constexpr double kMaxLateShare = 0.5;

// The load generator gets the last CPU to itself; the server's threads,
// created while the main thread is confined to the other CPUs, share
// those. Needs at least four CPUs; with fewer nothing is pinned.
struct CpuPlan {
  bool pin = false;
  int count = 1;
  void Server() const {
    if (pin) PinCallingThread(0, count - 2);
  }
  // Within the server's CPUs the scheduler gets the first, the event loop
  // the last, and the pool workers the ones after the first; the workers
  // share the loop's CPU only when both are busy.
  void Scheduler() const {
    if (pin) PinCallingThread(0, 0);
  }
  void Pool() const {
    if (pin) PinCallingThread(1, count - 2);
  }
  void Loop() const {
    if (pin) PinCallingThread(count - 2, count - 2);
  }
  void Generator() const {
    if (pin) PinCallingThread(count - 1, count - 1);
  }
  void All() const {
    if (pin) PinCallingThread(0, count - 1);
  }
};

// A started service with its listener running on its own thread.
class Server {
 public:
  static Result<std::unique_ptr<Server>> Start(Snapshot assets,
                                               const RunArgs& args,
                                               const CpuPlan& cpus) {
    auto server = std::unique_ptr<Server>(new Server());
    Result<std::unique_ptr<InfluenceService>> service =
        InfluenceService::Create(std::move(assets),
                                 privim::serve::ServeOptions());
    if (!service.ok()) return service.status();
    server->service_ = std::move(service).value();
    cpus.Scheduler();
    PRIVIM_RETURN_NOT_OK(server->service_->Start());
    privim::serve::net::NetServerGroupOptions net;
    net.loops = static_cast<int>(args.Int("net_loops"));
    Result<std::unique_ptr<privim::serve::net::NetServerGroup>> group =
        privim::serve::net::NetServerGroup::Create(server->service_.get(),
                                                   net);
    if (!group.ok()) return group.status();
    server->group_ = std::move(group).value();
    cpus.Loop();
    server->loop_ = std::thread(
        [s = server.get()] { s->loop_status_ = s->group_->Run(); });
    cpus.Server();
    return server;
  }

  ~Server() { Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Drains the listener, joins its thread and stops the service.
  Status Stop() {
    if (group_ != nullptr) group_->RequestShutdown();
    if (loop_.joinable()) loop_.join();
    if (service_ != nullptr) service_->Stop();
    return loop_status_;
  }

  InfluenceService* service() { return service_.get(); }
  const privim::serve::net::HostPort& address() const {
    return group_->bound_address();
  }

 private:
  Server() = default;
  std::unique_ptr<InfluenceService> service_;
  std::unique_ptr<privim::serve::net::NetServerGroup> group_;
  Status loop_status_;
  std::thread loop_;  // declared last: joined before the members it uses go
};

// A serving snapshot from the workload's files, each step timed.
Result<Snapshot> BuildSnapshot(const RunArgs& args, Spans* spans) {
  Result<privim::Graph> graph = spans->Time("graph.load_s", [&] {
    return privim::LoadEdgeList(args.dir + "/" + kGraphFile, kUndirected);
  });
  if (!graph.ok()) return graph.status();
  std::shared_ptr<const privim::GnnModel> model;
  if (args.workload == WorkloadId::kServeInfer) {
    Result<std::unique_ptr<privim::GnnModel>> loaded = spans->Time(
        "model.load_s",
        [&] { return privim::LoadGnnModel(args.dir + "/" + kModelFile); });
    if (!loaded.ok()) return loaded.status();
    model = std::move(loaded).value();
  }
  std::shared_ptr<const privim::SketchIndex> sketch;
  if (args.workload == WorkloadId::kServeGraph) {
    Result<std::unique_ptr<privim::SketchIndex>> loaded =
        spans->Time("sketch.load_s", [&] {
          return privim::SketchIndex::Load(args.dir + "/" + kSketchFile);
        });
    if (!loaded.ok()) return loaded.status();
    sketch = std::move(loaded).value();
  }
  Result<Snapshot> assets = spans->Time("assets.build_s", [&] {
    return ServingAssets::Build(std::move(graph).value(), std::move(model),
                                std::move(sketch),
                                privim::serve::InferEngineKind::kFused);
  });
  if (!assets.ok()) return assets.status();
  if (assets.value()->has_model()) {
    Result<privim::Tensor> scores =
        spans->Time("assets.scores_s", [&] { return assets.value()->Scores(); });
    if (!scores.ok()) return scores.status();
  }
  return assets;
}

std::vector<double> Latencies(const LoadResult& load) {
  std::vector<double> out;
  out.reserve(load.samples.size());
  for (const Sample& sample : load.samples) {
    // A request that never came back misses every latency limit.
    out.push_back(sample.done < 0 ? 1e9 : sample.done - sample.scheduled);
  }
  return out;
}

double MetricsValue(const JsonValue& dump, const char* family,
                    const std::string& name, const char* field = nullptr) {
  const JsonValue* group = dump.Find(family);
  const JsonValue* metric = group != nullptr ? group->Find(name) : nullptr;
  if (metric != nullptr && field != nullptr) metric = metric->Find(field);
  return metric != nullptr && metric->is_number() ? metric->number_value()
                                                  : 0.0;
}

double Ratio(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

// Drives the stream from `first_index` through SubmitAsync on a Poisson
// schedule at `rate` for `duration_s`; latency runs from each request's
// scheduled time to its completion callback.
std::vector<double> DriveInProcess(InfluenceService* service,
                                   const RequestStream& stream,
                                   uint64_t first_index, double rate,
                                   double duration_s, uint64_t seed,
                                   std::vector<Sample>* samples) {
  const std::vector<double> offsets = PoissonOffsets(rate, duration_s, seed);
  samples->assign(offsets.size(), Sample());
  std::mutex mutex;
  std::condition_variable all_done;
  size_t remaining = offsets.size();
  const double t0 = NowSeconds();
  for (size_t i = 0; i < offsets.size(); ++i) {
    Sample& sample = (*samples)[i];
    sample.request = first_index + i;
    sample.scheduled = t0 + offsets[i];
    while (NowSeconds() < sample.scheduled) {
      std::this_thread::yield();
    }
    Result<privim::serve::ServeRequest> request =
        privim::serve::ParseServeRequest(stream.Line(sample.request));
    if (!request.ok()) {
      // Never returns early: admitted callbacks reference this frame.
      std::lock_guard<std::mutex> lock(mutex);
      --remaining;
      continue;
    }
    auto done = [&, i](privim::serve::ServeResponse response) {
      Sample& s = (*samples)[i];
      s.done = NowSeconds();
      s.ok = response.status.ok();
      s.digest = BodyDigest(response.ToJsonLine());
      std::lock_guard<std::mutex> lock(mutex);
      if (--remaining == 0) all_done.notify_all();
    };
    const Status submitted = service->SubmitAsync(request.value(), done);
    if (!submitted.ok()) {
      std::lock_guard<std::mutex> lock(mutex);
      --remaining;
    }
  }
  std::unique_lock<std::mutex> lock(mutex);
  all_done.wait(lock, [&] { return remaining == 0; });
  std::vector<double> latencies;
  for (const Sample& sample : *samples) {
    latencies.push_back(sample.done < 0 ? 1e9 : sample.done - sample.scheduled);
  }
  return latencies;
}

// Replays requests through each layer's public entry point, one op at a
// time on this thread; also times parse, serialize and the cache-hit path
// of the reference service.
void ReplayOps(const ServingAssets& assets, InfluenceService* reference,
               const RequestStream& stream, uint64_t first_index,
               double budget_s, Spans* spans) {
  const double deadline = NowSeconds() + budget_s;
  Result<privim::Tensor> scores = assets.has_model()
                                      ? assets.Scores()
                                      : Result<privim::Tensor>(Status::NotFound(
                                            "graph-only snapshot"));
  for (uint64_t index = first_index; NowSeconds() < deadline; ++index) {
    const std::string line = stream.Line(index);
    Result<privim::serve::ServeRequest> parsed = spans->Time(
        "parse", [&] { return privim::serve::ParseServeRequest(line); });
    if (!parsed.ok()) continue;
    const privim::serve::ServeRequest& request = parsed.value();
    using privim::serve::RequestOp;
    using privim::serve::TopKMethod;
    if (request.op == RequestOp::kInfluence && !request.subgraph.empty()) {
      Result<privim::Subgraph> sub = spans->Time("induce", [&] {
        return privim::InducedSubgraph(assets.graph(), request.subgraph);
      });
      if (sub.ok() && assets.engine() != nullptr) {
        const privim::GraphContext ctx = privim::GraphContext::Build(sub->local);
        const privim::Tensor features = privim::BuildNodeFeatures(
            sub->local, assets.model()->config().input_dim, &sub->global_ids);
        privim::Tensor out;
        spans->Time("forward",
                    [&] { return assets.engine()->Forward(ctx, features, &out); });
      }
    } else if (request.op == RequestOp::kTopK &&
               request.method == TopKMethod::kModel && scores.ok()) {
      spans->Time("topk_model",
                  [&] { return privim::TopKSeeds(scores.value(), request.k); });
    } else if (request.op == RequestOp::kTopK &&
               request.method == TopKMethod::kSketch &&
               assets.sketch() != nullptr) {
      spans->Time("sketch_topk", [&] { return assets.sketch()->TopK(request.k); });
    } else if (request.op == RequestOp::kTopK &&
               request.method == TopKMethod::kRis) {
      privim::RisOptions ris;
      ris.num_rr_sets = request.rr_sets;
      ris.max_steps = request.steps;
      privim::Rng rng(request.seed);
      spans->Time("ris_topk", [&] {
        return privim::RisSeedSelection(assets.graph(), request.k, ris, &rng);
      });
    } else if (request.op == RequestOp::kSpread) {
      privim::IcOptions mc;
      mc.max_steps = request.steps;
      mc.num_simulations = request.simulations;
      privim::Rng rng(request.seed);
      spans->Time("spread", [&] {
        return privim::EstimateIcSpread(assets.graph(), request.seeds, mc, &rng);
      });
    }
    const privim::serve::ServeResponse response = reference->Execute(request);
    spans->Time("serialize", [&] { return response.ToJsonLine(); });
    spans->Time("hit", [&] { return reference->Execute(request); });
  }
}

// The seeds' spread as a percentage of CELF's on `graph` (paper Fig. 5).
Result<double> CoveragePct(const privim::Graph& graph,
                           const std::vector<privim::NodeId>& seeds) {
  privim::DeterministicCoverageOracle oracle(graph, /*steps=*/1);
  Result<privim::SeedSelectionResult> celf = privim::CelfGreedy(
      oracle, static_cast<int64_t>(seeds.size()));
  if (!celf.ok()) return celf.status();
  return privim::CoverageRatioPercent(
      static_cast<double>(privim::DeterministicIcSpread(graph, seeds, 1)),
      celf->spread);
}

// Produces what the workload serves and saves it where the snapshot
// builds load it: the model released by PrivIM* with the train workload's
// configuration (serve-infer) or the sketch index (serve-graph). Each
// production is timed, and must be deterministic in the seed.
Status Release(const RunArgs& args, std::vector<double>* release_s,
               RunOutput* out) {
  Result<privim::Graph> graph =
      privim::LoadEdgeList(args.dir + "/" + kGraphFile, kUndirected);
  if (!graph.ok()) return graph.status();
  const int64_t reps = args.Int("release_reps");
  if (args.workload == WorkloadId::kServeInfer) {
    privim::Rng rng(args.seed ^ kSplitSalt);
    Result<privim::TrainTestSplit> split =
        privim::SplitNodes(graph.value(), 0.5, &rng);
    if (!split.ok()) return split.status();
    const privim::PrivImOptions options = PaperOptions();
    std::vector<privim::NodeId> seeds;
    for (int64_t rep = 0; rep < reps; ++rep) {
      const double start = NowSeconds();
      Result<privim::PrivImResult> trained = privim::RunPrivIm(
          split->train.local, split->test.local, options, args.seed);
      release_s->push_back(NowSeconds() - start);
      if (!trained.ok()) return trained.status();
      if (rep == 0) {
        seeds = trained->seeds;
        PRIVIM_RETURN_NOT_OK(privim::SaveGnnModel(
            *trained->model, args.dir + "/" + kModelFile));
      } else if (trained->seeds != seeds) {
        out->Fail("the released model differs between identical runs");
      }
    }
  }
  if (args.workload == WorkloadId::kServeGraph) {
    privim::SketchIndexOptions options;
    options.max_steps = 1;
    std::string encoded;
    for (int64_t rep = 0; rep < reps; ++rep) {
      const double start = NowSeconds();
      Result<std::unique_ptr<privim::SketchIndex>> index =
          privim::SketchIndex::Build(graph.value(), options);
      release_s->push_back(NowSeconds() - start);
      if (!index.ok()) return index.status();
      if (rep == 0) {
        encoded = index.value()->Encode();
        PRIVIM_RETURN_NOT_OK(index.value()->Save(args.dir + "/" + kSketchFile));
      } else if (index.value()->Encode() != encoded) {
        out->Fail("the sketch index differs between identical builds");
      }
    }
  }
  return Status::OK();
}

// The coverage of the served RIS top-k answer, the approximate top-k every
// snapshot serves. A sketch answer is exact on unit weights, so when the
// snapshot has an index its answer must cover exactly what CELF's does.
Result<double> RisCoverage(InfluenceService* reference, uint64_t seed,
                           RunOutput* out) {
  auto answer = [&](const std::string& line) -> Result<JsonValue> {
    Result<privim::serve::ServeRequest> request =
        privim::serve::ParseServeRequest(line);
    if (!request.ok()) return request.status();
    privim::serve::ServeResponse response = reference->Execute(request.value());
    if (!response.status.ok()) return response.status;
    return response.payload;
  };
  auto coverage = [&](const std::string& line) -> Result<double> {
    Result<JsonValue> payload = answer(line);
    if (!payload.ok()) return payload.status();
    std::vector<privim::NodeId> seeds;
    for (const JsonValue& v : payload->Find("seeds")->items()) {
      seeds.push_back(static_cast<privim::NodeId>(v.number_value()));
    }
    return CoveragePct(reference->graph(), seeds);
  };
  if (reference->sketch_active()) {
    Result<double> exact =
        coverage("{\"op\":\"topk\",\"method\":\"sketch\",\"k\":50}");
    if (!exact.ok()) return exact.status();
    if (exact.value() != 100.0) {
      out->Fail("the sketch top-k covers less than CELF's seeds");
    }
  }
  // RIS answers vary with the request seed; average several.
  constexpr int kAnswers = 8;
  double total = 0.0;
  for (int i = 0; i < kAnswers; ++i) {
    Result<double> ris = coverage(
        "{\"op\":\"topk\",\"method\":\"ris\",\"rr_sets\":1000,\"k\":50,"
        "\"seed\":" + std::to_string(seed % 1000000 * kAnswers + i) + "}");
    if (!ris.ok()) return ris.status();
    total += ris.value();
  }
  return total / kAnswers;
}

}  // namespace

Status RunServe(const RunArgs& args, RunOutput* out) {
  privim::SetGlobalThreadPoolSize(
      static_cast<size_t>(args.Int("release_threads")));
  std::vector<double> release_s;
  PRIVIM_RETURN_NOT_OK(Release(args, &release_s, out));
  // peak_rss_mb covers the served program from here on, not the release.
  ResetPeakRss();
  CpuPlan cpus;
  cpus.count = static_cast<int>(std::thread::hardware_concurrency());
  cpus.pin = cpus.count >= 4;
  cpus.Pool();
  const int64_t engine_threads = args.Int("engine_threads");
  privim::SetGlobalThreadPoolSize(static_cast<size_t>(engine_threads));
  cpus.Server();
  const bool infer = args.workload == WorkloadId::kServeInfer;
  const Mix mix = infer ? Mix::kInfer : Mix::kGraph;
  const Framing framing = infer ? Framing::kJsonl : Framing::kHttp;
  const double rate = args.Real("rate");
  out->context.Set("engine_threads", JsonValue::Int(engine_threads));
  out->context.Set("net_loops", JsonValue::Int(args.Int("net_loops")));
  out->context.Set("generator_threads", JsonValue::Int(1));
  out->context.Set("connections", JsonValue::Int(args.Int("connections")));
  out->context.Set("rate_rps", JsonValue::Number(rate));

  // --- setup: fresh snapshot builds, each with a service and listener ---
  Spans setup;
  std::unique_ptr<Server> server;
  for (int64_t rep = 0; rep < args.Int("setup_reps"); ++rep) {
    if (server != nullptr) PRIVIM_RETURN_NOT_OK(server->Stop());
    server.reset();
    const double start = NowSeconds();
    Result<Snapshot> assets = BuildSnapshot(args, &setup);
    if (!assets.ok()) return assets.status();
    Result<std::unique_ptr<Server>> started =
        Server::Start(assets.value(), args, cpus);
    if (!started.ok()) return started.status();
    setup.Record("setup_s", NowSeconds() - start);
    server = std::move(started).value();
  }
  cpus.Generator();
  out->context.Set("generator_pinned", JsonValue::Bool(cpus.pin));
  // Kept out of idle while the server is measured (see cpu.h).
  auto spinners = std::make_unique<IdleSpinners>(
      0, cpus.count - (cpus.pin ? 2 : 1));

  // The output check's reference: an identical snapshot built from the same
  // files once the served program's peak is read, so the peak does not
  // count it. It caches only as much as the stream repeats (the pool).
  std::unique_ptr<InfluenceService> reference;
  auto make_reference = [&]() -> Status {
    Spans untimed;
    Result<Snapshot> assets = BuildSnapshot(args, &untimed);
    if (!assets.ok()) return assets.status();
    privim::serve::ServeOptions options;
    options.cache_capacity = 4 * RequestStream::kPoolSize;
    Result<std::unique_ptr<InfluenceService>> created =
        InfluenceService::Create(assets.value(), options);
    if (!created.ok()) return created.status();
    reference = std::move(created).value();
    return Status::OK();
  };

  const Snapshot served = server->service()->assets();
  const RequestStream stream(mix, served->graph(), args.seed);
  const RequestFn line = [&stream](uint64_t i) { return stream.Line(i); };
  LoadOptions load;
  load.address = server->address();
  load.framing = framing;
  load.connections = static_cast<int>(args.Int("connections"));
  load.rate = rate;
  load.seed = args.seed ^ 0x5EEDULL;
  std::vector<Sample> all;
  auto keep = [&all](const LoadResult& phase) {
    all.insert(all.end(), phase.samples.begin(), phase.samples.end());
  };
  // A generator that sends late measures itself, not the server.
  auto check_lateness = [out](const LoadResult& phase, double lat_p50_s) {
    const double late_p99 = Percentile(phase.lateness_s, 0.99);
    if (late_p99 > kMaxLateShare * lat_p50_s) {
      out->Fail("the generator ran late: p99 " + std::to_string(1e3 * late_p99) +
                " ms against a median latency of " +
                std::to_string(1e3 * lat_p50_s) + " ms");
    }
    return late_p99;
  };
  uint64_t next_index = 0;
  MetricSet& m = out->metrics;
  double peak_rss_mb = 0.0;

  if (!args.trace) {
    LoadOptions closed = load;
    closed.rate = 0.0;
    closed.duration_s = args.seconds * kClosedShare;
    const double steal_closed = StealSeconds();
    Result<LoadResult> qps = RunLoad(closed, line, next_index, NowSeconds);
    if (!qps.ok()) return qps.status();
    next_index += qps->samples.size();
    keep(qps.value());
    load.duration_s = args.seconds - closed.duration_s;
    const double steal_open = StealSeconds();
    Result<LoadResult> lat = RunLoad(load, line, next_index, NowSeconds);
    if (!lat.ok()) return lat.status();
    keep(lat.value());
    const double steal_end = StealSeconds();
    PRIVIM_RETURN_NOT_OK(server->Stop());
    peak_rss_mb = PeakRssMb();

    // The first window is warm-up.
    std::vector<double> windows(qps->window_ok_qps.begin() + 1,
                                qps->window_ok_qps.end());
    // Latency percentiles pooled over every open-loop sample.
    const std::vector<double> latencies = Latencies(lat.value());
    const double lat_p50 = Percentile(latencies, 0.5);
    const double late_p99 = check_lateness(lat.value(), lat_p50);
    PRIVIM_RETURN_NOT_OK(
        m.Add("setup_s", Median(setup.Samples("setup_s")), "s"));
    PRIVIM_RETURN_NOT_OK(m.Add("qps_max", Median(windows), "1/s"));
    PRIVIM_RETURN_NOT_OK(m.Add("lat_p50_ms", 1e3 * lat_p50, "ms"));
    PRIVIM_RETURN_NOT_OK(
        m.Add("lat_p99_ms", 1e3 * Percentile(latencies, 0.99), "ms"));
    out->context.Set("lat_samples",
                     JsonValue::Int(static_cast<int64_t>(latencies.size())));
    out->context.Set("qps_windows",
                     JsonValue::Int(static_cast<int64_t>(windows.size())));
    out->context.Set("gen_late_ms_p99", JsonValue::Number(1e3 * late_p99));
    out->context.Set("gen_inflight_max", JsonValue::Int(lat->inflight_max));
    out->context.Set("steal_ms_closed",
                     JsonValue::Number(1e3 * (steal_open - steal_closed)));
    out->context.Set("steal_ms_open",
                     JsonValue::Number(1e3 * (steal_end - steal_open)));
    PRIVIM_RETURN_NOT_OK(make_reference());
  } else {
    // --- open loop untraced, then with the program's tracing on --------
    // Warm-up (checked, not measured), as the closed loop is untraced.
    LoadOptions warmup = load;
    warmup.rate = 0.0;
    warmup.duration_s = kWarmupSeconds;
    Result<LoadResult> warm = RunLoad(warmup, line, next_index, NowSeconds);
    if (!warm.ok()) return warm.status();
    next_index += warm->samples.size();
    keep(warm.value());
    privim::obs::GlobalMetrics().ResetAll();
    load.duration_s = args.seconds * 0.3;
    Result<LoadResult> plain = RunLoad(load, line, next_index, NowSeconds);
    if (!plain.ok()) return plain.status();
    next_index += plain->samples.size();
    keep(plain.value());
    privim::obs::SetTracingEnabled(true);
    Result<LoadResult> traced = RunLoad(load, line, next_index, NowSeconds);
    privim::obs::SetTracingEnabled(false);
    privim::obs::ClearTrace();
    if (!traced.ok()) return traced.status();
    next_index += traced->samples.size();
    keep(traced.value());
    Result<std::string> dump_text = HttpGet(server->address(), "/v1/metrics");
    if (!dump_text.ok()) return dump_text.status();
    Result<JsonValue> dump = JsonValue::Parse(dump_text.value());
    if (!dump.ok()) return dump.status();

    // --- the same stream in-process through SubmitAsync ----------------
    std::vector<Sample> engine_samples;
    const std::vector<double> engine_lat =
        DriveInProcess(server->service(), stream, next_index, rate,
                       args.seconds * 0.2, load.seed + 1, &engine_samples);
    next_index += engine_samples.size();
    all.insert(all.end(), engine_samples.begin(), engine_samples.end());
    const privim::serve::ServiceStats stats = server->service()->GetStats();
    PRIVIM_RETURN_NOT_OK(server->Stop());
    PRIVIM_RETURN_NOT_OK(make_reference());

    // --- op-by-op replay through each layer ----------------------------
    Spans ops;
    ReplayOps(*served, reference.get(), stream, next_index,
              args.seconds * 0.2, &ops);

    const double lat_plain = Percentile(Latencies(plain.value()), 0.5);
    const double lat_traced = Percentile(Latencies(traced.value()), 0.5);
    const double engine_p50 = Percentile(engine_lat, 0.5);
    int64_t subgraph_requests = 0;
    for (const LoadResult* phase : {&plain.value(), &traced.value()}) {
      for (const Sample& sample : phase->samples) {
        if (stream.Line(sample.request).find("\"subgraph\"") !=
            std::string::npos) {
          ++subgraph_requests;
        }
      }
    }
    auto add_p50 = [&](const char* metric, const Spans& spans,
                       const char* span, double scale, const char* unit) {
      if (spans.Samples(span).empty()) return Status::OK();
      return m.Add(metric, scale * Median(spans.Samples(span)), unit);
    };
    PRIVIM_RETURN_NOT_OK(add_p50("graph.load_s", setup, "graph.load_s", 1, "s"));
    PRIVIM_RETURN_NOT_OK(add_p50("sketch.load_s", setup, "sketch.load_s", 1, "s"));
    PRIVIM_RETURN_NOT_OK(add_p50("assets.build_s", setup, "assets.build_s", 1, "s"));
    PRIVIM_RETURN_NOT_OK(
        add_p50("assets.scores_s", setup, "assets.scores_s", 1, "s"));
    PRIVIM_RETURN_NOT_OK(add_p50("graph.induce_us_p50", ops, "induce", 1e6, "us"));
    PRIVIM_RETURN_NOT_OK(
        add_p50("infer.forward_us_p50", ops, "forward", 1e6, "us"));
    PRIVIM_RETURN_NOT_OK(
        add_p50("im.topk_model_us_p50", ops, "topk_model", 1e6, "us"));
    PRIVIM_RETURN_NOT_OK(
        add_p50("sketch.topk_us_p50", ops, "sketch_topk", 1e6, "us"));
    PRIVIM_RETURN_NOT_OK(add_p50("ris.topk_ms_p50", ops, "ris_topk", 1e3, "ms"));
    PRIVIM_RETURN_NOT_OK(
        add_p50("diffusion.spread_us_p50", ops, "spread", 1e6, "us"));
    PRIVIM_RETURN_NOT_OK(add_p50("serve.parse_us_p50", ops, "parse", 1e6, "us"));
    PRIVIM_RETURN_NOT_OK(
        add_p50("serve.serialize_us_p50", ops, "serialize", 1e6, "us"));
    PRIVIM_RETURN_NOT_OK(add_p50("serve.hit_us_p50", ops, "hit", 1e6, "us"));
    PRIVIM_RETURN_NOT_OK(m.Add("serve.engine_lat_p50_ms", 1e3 * engine_p50, "ms"));
    PRIVIM_RETURN_NOT_OK(m.Add("serve.engine_lat_p99_ms",
                               1e3 * Percentile(engine_lat, 0.99), "ms"));
    const JsonValue& d = dump.value();
    PRIVIM_RETURN_NOT_OK(m.Add(
        "serve.batch_size_mean",
        Ratio(MetricsValue(d, "histograms", "serve.batch.size", "sum"),
              MetricsValue(d, "histograms", "serve.batch.size", "count")),
        "count"));
    PRIVIM_RETURN_NOT_OK(
        m.Add("serve.batch_size_max",
              MetricsValue(d, "histograms", "serve.batch.size", "max"), "count"));
    PRIVIM_RETURN_NOT_OK(m.Add(
        "serve.rejected",
        MetricsValue(d, "counters", "serve.requests.rejected"), "count"));
    const double hits = MetricsValue(d, "counters", "serve.cache.hits");
    PRIVIM_RETURN_NOT_OK(m.Add(
        "serve.cache_hit_ratio",
        Ratio(hits, hits + MetricsValue(d, "counters", "serve.cache.misses")),
        "ratio"));
    const double sketch_hits = MetricsValue(d, "counters", "im.sketch.serve_hits");
    if (served->sketch() != nullptr) {
      PRIVIM_RETURN_NOT_OK(m.Add(
          "sketch.hit_ratio",
          Ratio(sketch_hits,
                sketch_hits + MetricsValue(d, "counters", "im.sketch.fallbacks")),
          "ratio"));
    }
    if (served->has_model()) {
      // Every subgraph request must take exactly one fused forward pass.
      const double fused =
          MetricsValue(d, "counters", "serve.infer.fused_forwards");
      if (fused != static_cast<double>(subgraph_requests)) {
        out->Fail(std::to_string(static_cast<int64_t>(fused)) +
                  " fused forward passes for " +
                  std::to_string(subgraph_requests) + " subgraph requests");
      }
      if (stats.infer_fallbacks != 0) {
        out->Fail("the served snapshot fell back to the tape engine");
      }
      PRIVIM_RETURN_NOT_OK(m.Add(
          "serve.fused_per_request",
          Ratio(fused, static_cast<double>(subgraph_requests)), "ratio"));
      PRIVIM_RETURN_NOT_OK(m.Add("serve.infer_fallbacks",
                                 static_cast<double>(stats.infer_fallbacks),
                                 "count"));
    }
    for (const char* name :
         {"threadpool.tasks", "threadpool.parallel_regions",
          "threadpool.inline_regions"}) {
      PRIVIM_RETURN_NOT_OK(m.Add(name, MetricsValue(d, "counters", name), "count"));
    }
    PRIVIM_RETURN_NOT_OK(m.Add(
        "threadpool.queue_wait_ms_mean",
        1e3 * MetricsValue(d, "histograms", "threadpool.queue_wait_s", "mean"),
        "ms"));
    PRIVIM_RETURN_NOT_OK(
        m.Add("net.overhead_ms_p50", 1e3 * (lat_plain - engine_p50), "ms"));
    PRIVIM_RETURN_NOT_OK(m.Add(
        "gen.late_ms_p99", 1e3 * check_lateness(plain.value(), lat_plain),
        "ms"));
    PRIVIM_RETURN_NOT_OK(m.Add(
        "gen.inflight_max", static_cast<double>(plain->inflight_max), "count"));
    PRIVIM_RETURN_NOT_OK(m.Add(
        "trace.overhead_pct", 100.0 * (lat_traced - lat_plain) / lat_plain, "%"));
  }

  spinners.reset();
  cpus.All();

  // --- output check against the reference snapshot ----------------------
  const CheckResult check =
      CheckSamples(reference.get(), all, line, cpus.count);
  out->attempted += static_cast<int64_t>(all.size());
  out->failed += check.failed;
  out->context.Set("checked", JsonValue::Int(check.checked));
  if (check.mismatched > 0) {
    out->Fail(std::to_string(check.mismatched) +
              " responses differ from the reference, first for " +
              check.first_mismatch);
  }
  if (!args.trace) {
    PRIVIM_RETURN_NOT_OK(m.Add("train_s", Median(release_s), "s"));
    Result<double> coverage = RisCoverage(reference.get(), args.seed, out);
    if (!coverage.ok()) return coverage.status();
    PRIVIM_RETURN_NOT_OK(m.Add("coverage_pct", coverage.value(), "%"));
    PRIVIM_RETURN_NOT_OK(m.Add(
        "ok_frac",
        static_cast<double>(out->attempted - out->failed) /
            static_cast<double>(out->attempted),
        "ratio"));
    PRIVIM_RETURN_NOT_OK(m.Add("peak_rss_mb", peak_rss_mb, "MB"));
  }
  return Status::OK();
}

}  // namespace perfbench
