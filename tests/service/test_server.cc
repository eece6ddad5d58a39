/**
 * @file
 * CampaignServer tests: the request->response routing seam
 * (handle()) for every endpoint and error path, and one real
 * socket round trip through serve()/CampaignClient — submit, poll,
 * fetch, metrics, shutdown — over an ephemeral loopback port.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <unistd.h>

#include "common/json.hh"
#include "service/client.hh"
#include "service/runner.hh"
#include "service/server/http_server.hh"

namespace dtann {
namespace {

namespace fs = std::filesystem;

struct StateDir
{
    explicit StateDir(const std::string &stem)
        : path(testing::TempDir() + "dtann_" + stem + "_" +
               std::to_string(::getpid()))
    {
        fs::remove_all(path);
    }
    ~StateDir() { fs::remove_all(path); }

    /** An in-process queue over this directory. */
    JobQueue::Config
    queueConfig(int threads, int runners) const
    {
        JobQueue::Config c;
        c.stateDir = path;
        c.threads = threads;
        c.runners = runners;
        return c;
    }

    std::string path;
};

ScenarioSpec
tinyFig5(const std::string &name, int reps = 4)
{
    ScenarioSpec spec;
    spec.kind = "fig5";
    spec.name = name;
    spec.fig5.repetitions = reps;
    spec.fig5.seed = 7;
    spec.fig5.defectCounts = {2};
    return spec;
}

/** Parse a serialized response from handle(). */
HttpMessage
parseResponse(const std::string &wire)
{
    HttpParser p(HttpParser::Mode::Response);
    p.feed(wire);
    p.finish();
    EXPECT_EQ(p.state(), HttpParser::State::Done) << wire;
    return p.message();
}

HttpMessage
makeRequest(const std::string &method, const std::string &target,
            const std::string &body = "")
{
    HttpMessage req;
    req.method = method;
    req.target = target;
    req.body = body;
    return req;
}

struct ServerFixture
{
    explicit ServerFixture(const std::string &stem)
        : dir(stem), queue(dir.queueConfig(2, 1)),
          server(queue, "127.0.0.1:0")
    {
    }
    StateDir dir;
    JobQueue queue;
    CampaignServer server;
};

TEST(CampaignServer, RoutesJobLifecycle)
{
    ServerFixture fx("srv_routes");
    ScenarioSpec spec = tinyFig5("t");

    HttpMessage posted = parseResponse(fx.server.handle(
        makeRequest("POST", "/jobs", spec.toJson())));
    ASSERT_EQ(posted.status, 201);
    uint64_t id = static_cast<uint64_t>(
        jsonParse(posted.body).at("id").asInt());

    // Status is served while the job is anywhere in its lifecycle.
    HttpMessage status = parseResponse(fx.server.handle(
        makeRequest("GET", "/jobs/" + std::to_string(id))));
    EXPECT_EQ(status.status, 200);
    EXPECT_NE(jsonParse(status.body).at("state").asString(), "");

    // Poll the result endpoint to completion: 202 while pending,
    // then 200 with the envelope.
    HttpMessage result;
    for (int i = 0; i < 600; ++i) {
        result = parseResponse(fx.server.handle(makeRequest(
            "GET", "/jobs/" + std::to_string(id) + "/result")));
        if (result.status != 202)
            break;
        ::usleep(100 * 1000);
    }
    ASSERT_EQ(result.status, 200);
    EXPECT_EQ(result.body, runScenario(spec).json + "\n");
}

TEST(CampaignServer, BadSpecIs400WithParserMessage)
{
    ServerFixture fx("srv_badspec");
    HttpMessage r = parseResponse(
        fx.server.handle(makeRequest("POST", "/jobs", "{oops")));
    EXPECT_EQ(r.status, 400);
    // The daemon relays the JSON parser's own diagnostic.
    EXPECT_NE(jsonParse(r.body).at("error").asString(), "");
}

TEST(CampaignServer, CollidingCellKeysAre400BeforeAnyState)
{
    // A repeated task gives two cells one journal key; admission
    // refuses the spec, naming the key, before a job file exists.
    ServerFixture fx("srv_collide");
    HttpMessage r = parseResponse(fx.server.handle(makeRequest(
        "POST", "/jobs",
        R"({"kind":"fig10","tasks":["iris","iris"],"repetitions":1})")));
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(jsonParse(r.body).at("error").asString().find(
                  "fig10/iris/v0:d0/0"),
              std::string::npos)
        << r.body;
    EXPECT_TRUE(fs::is_empty(fx.dir.path));
}

TEST(CampaignServer, OversizedCampaignIs400BeforeAnyState)
{
    // One cell over kMaxCells: admission counts the spec's rows and
    // refuses it, naming the count, before a job file exists.
    ServerFixture fx("srv_oversized");
    HttpMessage r = parseResponse(fx.server.handle(makeRequest(
        "POST", "/jobs",
        R"({"kind":"fig11","tasks":["iris"],"repetitions":)" +
            std::to_string(kMaxCells + 1) + "}")));
    EXPECT_EQ(r.status, 400);
    EXPECT_NE(jsonParse(r.body).at("error").asString().find(
                  std::to_string(kMaxCells + 1) + " cells"),
              std::string::npos)
        << r.body;
    EXPECT_TRUE(fs::is_empty(fx.dir.path));
}

TEST(CampaignServer, ErrorRoutes)
{
    ServerFixture fx("srv_errors");
    EXPECT_EQ(parseResponse(fx.server.handle(
                                makeRequest("GET", "/jobs/42")))
                  .status,
              404);
    EXPECT_EQ(parseResponse(fx.server.handle(makeRequest(
                                "GET", "/jobs/42/result")))
                  .status,
              404);
    EXPECT_EQ(parseResponse(fx.server.handle(
                                makeRequest("DELETE", "/jobs/42")))
                  .status,
              404);
    EXPECT_EQ(parseResponse(fx.server.handle(
                                makeRequest("GET", "/nope")))
                  .status,
              404);
    EXPECT_EQ(parseResponse(fx.server.handle(
                                makeRequest("PUT", "/jobs/42")))
                  .status,
              405);
    EXPECT_EQ(parseResponse(fx.server.handle(
                                makeRequest("DELETE", "/metrics")))
                  .status,
              405);
    EXPECT_EQ(parseResponse(fx.server.handle(makeRequest(
                                "GET", "/jobs/notanumber")))
                  .status,
              404);
}

TEST(CampaignServer, CancelledJobResultIs410)
{
    ServerFixture fx("srv_cancel");
    HttpMessage posted =
        parseResponse(fx.server.handle(makeRequest(
            "POST", "/jobs", tinyFig5("long", 500).toJson())));
    ASSERT_EQ(posted.status, 201);
    std::string id = std::to_string(
        jsonParse(posted.body).at("id").asInt());

    EXPECT_EQ(parseResponse(fx.server.handle(
                                makeRequest("DELETE", "/jobs/" + id)))
                  .status,
              200);
    HttpMessage result;
    for (int i = 0; i < 600; ++i) {
        result = parseResponse(fx.server.handle(
            makeRequest("GET", "/jobs/" + id + "/result")));
        if (result.status != 202)
            break;
        ::usleep(100 * 1000);
    }
    EXPECT_EQ(result.status, 410);
}

TEST(CampaignServer, MetricsIncludeHttpLatencies)
{
    ServerFixture fx("srv_metrics");
    fx.server.handle(makeRequest("GET", "/jobs/1")); // warm a label
    HttpMessage r = parseResponse(
        fx.server.handle(makeRequest("GET", "/metrics")));
    ASSERT_EQ(r.status, 200);
    JsonValue v = jsonParse(r.body);
    EXPECT_EQ(v.at("http").at("GET /jobs/<id>").at("count").asInt(),
              1);
    EXPECT_EQ(v.at("jobs").at("queued").asInt(), 0);
}

TEST(CampaignServer, MetricsJsonCountsJobsPerBackend)
{
    ServerFixture fx("srv_backends");
    HttpMessage r = parseResponse(
        fx.server.handle(makeRequest("GET", "/metrics")));
    ASSERT_EQ(r.status, 200);
    JsonValue v = jsonParse(r.body);
    // Known backends always report, 0 when idle; fig5 jobs (no
    // backend) land under "none" once submitted.
    EXPECT_EQ(v.at("backends").at("spatial").asInt(), 0);
    EXPECT_EQ(v.at("backends").at("systolic").asInt(), 0);

    ASSERT_EQ(parseResponse(fx.server.handle(makeRequest(
                                "POST", "/jobs",
                                tinyFig5("none", 2).toJson())))
                  .status,
              201);
    r = parseResponse(
        fx.server.handle(makeRequest("GET", "/metrics")));
    EXPECT_EQ(jsonParse(r.body).at("backends").at("none").asInt(), 1);
}

TEST(CampaignServer, MetricsPrometheusExposition)
{
    ServerFixture fx("srv_prom");
    fx.server.handle(makeRequest("GET", "/jobs/1")); // warm a label
    HttpMessage r = parseResponse(fx.server.handle(
        makeRequest("GET", "/metrics?format=prometheus")));
    ASSERT_EQ(r.status, 200);
    EXPECT_EQ(r.header("content-type"), "text/plain; version=0.0.4");
    for (const char *needle :
         {"# TYPE dtann_jobs gauge", "dtann_jobs{state=\"queued\"} 0",
          "dtann_jobs_backend{backend=\"spatial\"} 0",
          "dtann_jobs_backend{backend=\"systolic\"} 0",
          "dtann_queue_depth 0", "dtann_sim_lane_occupancy",
          "dtann_http_requests_total{endpoint=\"GET /jobs/<id>\"} 1"})
        EXPECT_NE(r.body.find(needle), std::string::npos) << needle;

    // The JSON document stays the default, and an explicit
    // format=json still serves it.
    HttpMessage json = parseResponse(fx.server.handle(
        makeRequest("GET", "/metrics?format=json")));
    ASSERT_EQ(json.status, 200);
    EXPECT_NO_THROW(jsonParse(json.body));

    // Unknown formats are a client error, named in the message.
    HttpMessage bad = parseResponse(fx.server.handle(
        makeRequest("GET", "/metrics?format=xml")));
    EXPECT_EQ(bad.status, 400);
    EXPECT_NE(bad.body.find("format=xml"), std::string::npos);
}

TEST(CampaignServer, ShutdownEndpointStopsServing)
{
    ServerFixture fx("srv_shutdown");
    EXPECT_FALSE(fx.server.shutdownRequested());
    HttpMessage r = parseResponse(fx.server.handle(
        makeRequest("POST", "/shutdown?mode=now")));
    EXPECT_EQ(r.status, 200);
    EXPECT_NE(r.body.find("\"mode\":\"now\""), std::string::npos);
    EXPECT_TRUE(fx.server.shutdownRequested());
}

TEST(CampaignServer, SocketRoundTripWithClient)
{
    ServerFixture fx("srv_socket");
    ASSERT_GT(fx.server.port(), 0);
    std::thread serving([&] { fx.server.serve(); });

    ScenarioSpec spec = tinyFig5("t");
    CampaignClient client(fx.server.address());
    uint64_t id = client.submit(spec.toJson());
    EXPECT_EQ(jsonParse(client.status(id)).at("id").asInt(),
              (int64_t)id);

    std::string result;
    for (int i = 0; i < 600; ++i) {
        try {
            result = client.result(id);
            break;
        } catch (const ClientError &e) {
            ASSERT_EQ(e.status, 202) << e.what();
            ::usleep(100 * 1000);
        }
    }
    EXPECT_EQ(result, runScenario(spec).json + "\n");

    EXPECT_THROW(client.result(id + 7), ClientError);
    JsonValue metrics = jsonParse(client.metrics());
    EXPECT_GE(metrics.at("http").at("POST /jobs").at("count").asInt(),
              1);

    client.shutdown();
    serving.join();
    EXPECT_TRUE(fx.server.shutdownRequested());
}

} // namespace
} // namespace dtann
