// Tests for the benchmark's own code: metric names, percentiles, workload
// configs, the open-loop schedule and lateness under a fake clock, response
// framing, request streams and the output check.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "generator.h"
#include "privim/graph/graph.h"
#include "privim/serve/net/group.h"
#include "privim/serve/service.h"
#include "requests.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

using privim::Result;

TEST(MetricName, AcceptsLettersDigitsUnderscoreDotDash) {
  EXPECT_TRUE(IsValidMetricName("lat_p99_ms"));
  EXPECT_TRUE(IsValidMetricName("serve.engine_lat_p50_ms"));
  EXPECT_TRUE(IsValidMetricName("serve-graph.x-1"));
  EXPECT_TRUE(IsValidMetricName("9lives"));
  EXPECT_TRUE(IsValidMetricName(std::string(64, 'a')));
}

TEST(MetricName, RejectsEverythingElse) {
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("_leading"));
  EXPECT_FALSE(IsValidMetricName(".leading"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("lat/ms"));
  EXPECT_FALSE(IsValidMetricName("quote\""));
  EXPECT_FALSE(IsValidMetricName("p99%"));
  EXPECT_FALSE(IsValidMetricName(std::string(65, 'a')));
}

TEST(WorkloadConfig, NeedsExactlyTheWorkloadsKeys) {
  using privim::serve::JsonValue;
  Result<WorkloadId> train = WorkloadNamed("train");
  ASSERT_TRUE(train.ok());
  EXPECT_FALSE(WorkloadNamed("serve").ok());
  auto config = [](const char* text) {
    return JsonValue::Parse(text).value();
  };
  EXPECT_TRUE(
      CheckConfig(*train, config(R"({"pool_threads":3,"setup_reps":9})")).ok());
  // Missing, not positive, not a number, unknown.
  EXPECT_FALSE(CheckConfig(*train, config(R"({"pool_threads":3})")).ok());
  EXPECT_FALSE(
      CheckConfig(*train, config(R"({"pool_threads":0,"setup_reps":9})")).ok());
  EXPECT_FALSE(CheckConfig(
                   *train, config(R"({"pool_threads":"3","setup_reps":9})"))
                   .ok());
  EXPECT_FALSE(
      CheckConfig(*train,
                  config(R"({"pool_threads":3,"setup_reps":9,"rate":1})"))
          .ok());
  // A serving workload needs its own keys, not train's.
  EXPECT_FALSE(CheckConfig(WorkloadId::kServeInfer,
                           config(R"({"pool_threads":3,"setup_reps":9})"))
                   .ok());
}

TEST(MetricSet, RefusesBadNamesDuplicatesAndNonFiniteValues) {
  MetricSet metrics;
  EXPECT_TRUE(metrics.Add("setup_s", 1.5, "s").ok());
  EXPECT_FALSE(metrics.Add("setup_s", 2.0, "s").ok());
  EXPECT_FALSE(metrics.Add("bad name", 1.0, "s").ok());
  EXPECT_FALSE(metrics.Add("nan_s", std::nan(""), "s").ok());
  EXPECT_EQ(metrics.ToJson().Dump(),
            "{\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}}");
}

TEST(Percentile, IsNearestRank) {
  const std::vector<double> ten = {10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
  EXPECT_EQ(Percentile(ten, 0.5), 5);
  EXPECT_EQ(Percentile(ten, 0.9), 9);
  EXPECT_EQ(Percentile(ten, 0.91), 10);
  EXPECT_EQ(Percentile(ten, 0.99), 10);
  EXPECT_EQ(Percentile(ten, 1.0), 10);
  EXPECT_EQ(Percentile(ten, 0.0), 1);
  EXPECT_EQ(Percentile(ten, 0.1), 1);
  EXPECT_EQ(Percentile(ten, 0.11), 2);
  EXPECT_EQ(Percentile({7}, 0.99), 7);
  EXPECT_EQ(Percentile({}, 0.5), 0);
  // Odd counts: the median is the middle sample, never an interpolation.
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2);
}

TEST(Schedule, PoissonOffsetsAreSeededAndInRange) {
  const std::vector<double> a = PoissonOffsets(1000, 2.0, 7);
  EXPECT_EQ(a, PoissonOffsets(1000, 2.0, 7));
  EXPECT_NE(a, PoissonOffsets(1000, 2.0, 8));
  ASSERT_FALSE(a.empty());
  for (size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  // 2000 expected arrivals; a Poisson count is within 5 sigma (~224).
  EXPECT_NEAR(static_cast<double>(a.size()), 2000.0, 224.0);
  EXPECT_TRUE(PoissonOffsets(0, 1.0, 1).empty());
}

TEST(Schedule, PacerReportsDueRequestsAndLatenessUnderAFakeClock) {
  double fake_now = 0.0;
  const Clock clock = [&fake_now] { return fake_now; };
  OpenLoopPacer pacer({0.0, 0.1, 0.2});
  EXPECT_TRUE(pacer.Due(clock()));
  EXPECT_EQ(pacer.MarkSent(clock()), 0u);
  EXPECT_FALSE(pacer.Due(clock()));
  EXPECT_DOUBLE_EQ(pacer.NextDue(), 0.1);

  fake_now = 0.25;  // the generator stalled past two due times
  EXPECT_TRUE(pacer.Due(clock()));
  EXPECT_EQ(pacer.MarkSent(clock()), 1u);
  EXPECT_TRUE(pacer.Due(clock()));
  EXPECT_EQ(pacer.MarkSent(clock()), 2u);
  EXPECT_TRUE(pacer.done());
  EXPECT_FALSE(pacer.Due(clock()));
  ASSERT_EQ(pacer.lateness().size(), 3u);
  EXPECT_DOUBLE_EQ(pacer.lateness()[0], 0.0);
  EXPECT_DOUBLE_EQ(pacer.lateness()[1], 0.15);
  EXPECT_DOUBLE_EQ(pacer.lateness()[2], 0.05);
}

TEST(Framing, HttpRequestCarriesTheLineAsItsBody) {
  EXPECT_EQ(RenderRequest(Framing::kJsonl, "{}"), "{}\n");
  EXPECT_EQ(RenderRequest(Framing::kHttp, "{\"op\":\"info\"}"),
            "POST /v1/query HTTP/1.1\r\nHost: perfbench\r\n"
            "Content-Length: 13\r\n\r\n{\"op\":\"info\"}");
}

TEST(Framing, ReaderSplitsJsonLines) {
  ResponseReader reader(Framing::kJsonl);
  std::string body;
  int status = 0;
  reader.Feed("{\"a\":1}\n{\"b\"", 12);
  ASSERT_TRUE(reader.Next(&body, &status));
  EXPECT_EQ(body, "{\"a\":1}");
  EXPECT_EQ(status, 200);
  EXPECT_FALSE(reader.Next(&body, &status));
  reader.Feed(":2}\n", 4);
  ASSERT_TRUE(reader.Next(&body, &status));
  EXPECT_EQ(body, "{\"b\":2}");
}

TEST(Framing, ReaderWaitsForTheWholeHttpBody) {
  const std::string wire =
      "HTTP/1.1 503 Service Unavailable\r\ncontent-length: 9\r\n"
      "Connection: keep-alive\r\n\r\n{\"x\":1}\n\nHTTP/1.1 200 OK\r\n"
      "Content-Length: 3\r\n\r\n{}\n";
  ResponseReader reader(Framing::kHttp);
  std::string body;
  int status = 0;
  reader.Feed(wire.data(), 60);
  EXPECT_FALSE(reader.Next(&body, &status));
  reader.Feed(wire.data() + 60, wire.size() - 60);
  ASSERT_TRUE(reader.Next(&body, &status));
  EXPECT_EQ(status, 503);
  EXPECT_EQ(body, "{\"x\":1}\n");  // only the final newline is stripped
  ASSERT_TRUE(reader.Next(&body, &status));
  EXPECT_EQ(status, 200);
  EXPECT_EQ(body, "{}");
  EXPECT_TRUE(reader.error().empty());
}

TEST(Framing, ReaderRejectsAMalformedHttpStream) {
  ResponseReader reader(Framing::kHttp);
  const std::string wire = "garbage\r\n\r\n";
  reader.Feed(wire.data(), wire.size());
  std::string body;
  int status = 0;
  EXPECT_FALSE(reader.Next(&body, &status));
  EXPECT_FALSE(reader.error().empty());
}

privim::Graph Ring(int64_t n) {
  privim::GraphBuilder builder(n, /*undirected=*/true);
  for (int64_t v = 0; v < n; ++v) {
    EXPECT_TRUE(builder.AddEdge(static_cast<privim::NodeId>(v),
                                static_cast<privim::NodeId>((v + 1) % n))
                    .ok());
  }
  return builder.Build().value();
}

TEST(Requests, StreamIsAPureFunctionOfSeedAndIndex) {
  const privim::Graph graph = Ring(200);
  const RequestStream a(Mix::kGraph, graph, 3);
  const RequestStream b(Mix::kGraph, graph, 3);
  const RequestStream c(Mix::kGraph, graph, 4);
  int differ = 0;
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(a.Line(i), b.Line(i));
    EXPECT_EQ(a.Line(i).rfind("{\"id\":\"" + std::to_string(i) + "\",", 0),
              0u);
    differ += a.Line(i) != c.Line(i);
  }
  EXPECT_GT(differ, 0);
  const RequestStream infer(Mix::kInfer, graph, 3);
  EXPECT_EQ(infer.Line(9), RequestStream(Mix::kInfer, graph, 3).Line(9));
}

TEST(Requests, EveryLineParsesAndExecutes) {
  const privim::Graph graph = Ring(300);
  auto service = privim::serve::InfluenceService::Create(
                     graph, nullptr, privim::serve::ServeOptions())
                     .value();
  const RequestStream stream(Mix::kGraph, graph, 5);
  for (uint64_t i = 0; i < 200; ++i) {
    const std::string expected = ExpectedResponse(service.get(), stream.Line(i));
    EXPECT_NE(expected.find("\"ok\":true"), std::string::npos) << expected;
  }
}

// A real listener on a small graph, driven by the generator; the output
// check must accept every response and reject a corrupted one.
TEST(Check, AcceptsServedResponsesAndRejectsACorruptedLine) {
  const privim::Graph graph = Ring(300);
  privim::serve::ServeOptions options;
  auto served = privim::serve::InfluenceService::Create(graph, nullptr, options)
                    .value();
  auto reference =
      privim::serve::InfluenceService::Create(graph, nullptr, options).value();
  ASSERT_TRUE(served->Start().ok());
  auto group = privim::serve::net::NetServerGroup::Create(
                   served.get(), privim::serve::net::NetServerGroupOptions())
                   .value();
  std::thread loop([&group] { EXPECT_TRUE(group->Run().ok()); });

  const RequestStream stream(Mix::kGraph, graph, 11);
  const RequestFn line = [&stream](uint64_t i) { return stream.Line(i); };
  LoadOptions load;
  load.address = group->bound_address();
  load.framing = Framing::kHttp;
  load.duration_s = 0.3;
  load.rate = 400;
  Result<LoadResult> run = RunLoad(load, line, 0, NowSeconds);
  group->RequestShutdown();
  loop.join();
  served->Stop();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(run->samples.size(), 20u);
  EXPECT_EQ(run->lateness_s.size(), run->samples.size());

  CheckResult check = CheckSamples(reference.get(), run->samples, line, 2);
  EXPECT_EQ(check.checked, static_cast<int64_t>(run->samples.size()));
  EXPECT_EQ(check.mismatched, 0);
  EXPECT_EQ(check.failed, 0);

  std::vector<Sample> corrupted = run->samples;
  corrupted[3].digest ^= 1;
  check = CheckSamples(reference.get(), corrupted, line, 2);
  EXPECT_EQ(check.mismatched, 1);
  EXPECT_EQ(check.failed, 1);
  EXPECT_EQ(check.first_mismatch, stream.Line(corrupted[3].request));

  // One flipped byte in the body is enough to fail the digest.
  const std::string expected = ExpectedResponse(reference.get(), stream.Line(0));
  std::string corrupted_line = expected;
  corrupted_line[corrupted_line.size() / 2] ^= 0x20;
  EXPECT_NE(BodyDigest(corrupted_line), BodyDigest(expected));
}

}  // namespace
}  // namespace perfbench
