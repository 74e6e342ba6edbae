// Wire-codec tests (service/wire.hpp): framing, incremental decode, request
// parsing, and — most load-bearing — the byte-for-byte golden rendering of
// response records.  The batch driver (sekitei_serve) and the daemon
// (sekitei_netd) both emit these records through the shared codec; the
// golden strings here are what keeps their output from ever drifting apart.
#include "service/wire.hpp"

#include <gtest/gtest.h>

#include <string>

#include "support/json_reader.hpp"

namespace wire = sekitei::service::wire;
using sekitei::service::Outcome;
using sekitei::service::PlanResponse;

TEST(Frame, EncodeProducesLengthPrefixedBody) {
  EXPECT_EQ(wire::encode_frame("{\"op\":\"plan\"}"), "13\n{\"op\":\"plan\"}\n");
  EXPECT_EQ(wire::encode_frame(""), "0\n\n");
}

TEST(Frame, DecoderRoundTripsWholeFrames) {
  wire::FrameDecoder dec;
  dec.feed(wire::encode_frame("{\"a\":1}") + wire::encode_frame("{\"b\":2}"));
  std::string body;
  ASSERT_EQ(dec.next(body), wire::FrameDecoder::Status::Frame);
  EXPECT_EQ(body, "{\"a\":1}");
  ASSERT_EQ(dec.next(body), wire::FrameDecoder::Status::Frame);
  EXPECT_EQ(body, "{\"b\":2}");
  EXPECT_EQ(dec.next(body), wire::FrameDecoder::Status::NeedMore);
}

TEST(Frame, DecoderHandlesByteAtATimeDelivery) {
  const std::string stream =
      wire::encode_frame("{\"op\":\"healthz\"}") + wire::encode_frame("{}");
  wire::FrameDecoder dec;
  std::string body;
  std::size_t frames = 0;
  for (char c : stream) {
    dec.feed(&c, 1);
    while (dec.next(body) == wire::FrameDecoder::Status::Frame) ++frames;
  }
  EXPECT_EQ(frames, 2u);
}

TEST(Frame, BodyMayContainNewlines) {
  wire::FrameDecoder dec;
  dec.feed(wire::encode_frame("line1\nline2"));
  std::string body;
  ASSERT_EQ(dec.next(body), wire::FrameDecoder::Status::Frame);
  EXPECT_EQ(body, "line1\nline2");
}

TEST(Frame, CarriageReturnBeforeHeaderNewlineTolerated) {
  wire::FrameDecoder dec;
  dec.feed("2\r\nhi\n");
  std::string body;
  ASSERT_EQ(dec.next(body), wire::FrameDecoder::Status::Frame);
  EXPECT_EQ(body, "hi");
}

TEST(Frame, OversizedFrameLatchesError) {
  wire::FrameDecoder dec(16);
  dec.feed("17\n");
  std::string body;
  EXPECT_EQ(dec.next(body), wire::FrameDecoder::Status::Error);
  EXPECT_NE(dec.error().find("exceeds"), std::string::npos);
  // Latched: more input cannot resurrect the stream.
  dec.feed(wire::encode_frame("{}"));
  EXPECT_EQ(dec.next(body), wire::FrameDecoder::Status::Error);
}

TEST(Frame, GarbageHeaderLatchesError) {
  wire::FrameDecoder dec;
  dec.feed("{\"op\":\"plan\"}\n");  // NDJSON without the length prefix
  std::string body;
  EXPECT_EQ(dec.next(body), wire::FrameDecoder::Status::Error);
}

TEST(Frame, BodyNotNewlineTerminatedIsError) {
  wire::FrameDecoder dec;
  dec.feed("2\nabX");
  std::string body;
  EXPECT_EQ(dec.next(body), wire::FrameDecoder::Status::Error);
}

TEST(ParseRequest, DefaultsMatchWireRequestDefaults) {
  wire::WireRequest req;
  std::string err;
  ASSERT_TRUE(wire::parse_request("{\"problem\":\"network {}\"}", req, err)) << err;
  EXPECT_EQ(req.op, wire::WireRequest::Op::Plan);
  EXPECT_EQ(req.problem_text, "network {}");
  EXPECT_TRUE(req.id.empty());
  EXPECT_EQ(req.deadline_ms, 0.0);
  EXPECT_EQ(req.mode, sekitei::core::PlannerOptions::Mode::Leveled);
  EXPECT_TRUE(req.validate);
  EXPECT_FALSE(req.preflight);
  EXPECT_TRUE(req.degrade);
}

TEST(ParseRequest, AllFieldsParsed) {
  wire::WireRequest req;
  std::string err;
  const std::string body =
      "{\"op\":\"plan\",\"id\":\"q7\",\"problem\":\"p\",\"deadline_ms\":250,"
      "\"mode\":\"greedy\",\"validate\":false,\"preflight\":true,"
      "\"degrade\":false}";
  ASSERT_TRUE(wire::parse_request(body, req, err)) << err;
  EXPECT_EQ(req.id, "q7");
  EXPECT_EQ(req.deadline_ms, 250.0);
  EXPECT_EQ(req.mode, sekitei::core::PlannerOptions::Mode::Greedy);
  EXPECT_FALSE(req.validate);
  EXPECT_TRUE(req.preflight);
  EXPECT_FALSE(req.degrade);
}

TEST(ParseRequest, CpModeParsesAndRoundTrips) {
  wire::WireRequest req;
  std::string err;
  ASSERT_TRUE(wire::parse_request("{\"problem\":\"p\",\"mode\":\"cp\"}", req, err))
      << err;
  EXPECT_EQ(req.mode, sekitei::core::PlannerOptions::Mode::Cp);

  wire::WireRequest out;
  out.problem_text = "p";
  out.mode = sekitei::core::PlannerOptions::Mode::Cp;
  wire::WireRequest back;
  ASSERT_TRUE(wire::parse_request(wire::render_request(out), back, err)) << err;
  EXPECT_EQ(back.mode, sekitei::core::PlannerOptions::Mode::Cp);
}

TEST(ParseRequest, IntrospectionOpsNeedNoProblem) {
  wire::WireRequest req;
  std::string err;
  ASSERT_TRUE(wire::parse_request("{\"op\":\"healthz\"}", req, err));
  EXPECT_EQ(req.op, wire::WireRequest::Op::Healthz);
  ASSERT_TRUE(wire::parse_request("{\"op\":\"stats\"}", req, err));
  EXPECT_EQ(req.op, wire::WireRequest::Op::Stats);
}

TEST(ParseRequest, Errors) {
  wire::WireRequest req;
  std::string err;
  EXPECT_FALSE(wire::parse_request("not json", req, err));
  EXPECT_NE(err.find("malformed JSON"), std::string::npos);
  EXPECT_FALSE(wire::parse_request("[1,2]", req, err));
  EXPECT_FALSE(wire::parse_request("{\"op\":\"plan\"}", req, err));
  EXPECT_NE(err.find("problem"), std::string::npos);
  EXPECT_FALSE(wire::parse_request("{\"op\":\"destroy\"}", req, err));
  EXPECT_NE(err.find("unknown op"), std::string::npos);
  EXPECT_FALSE(wire::parse_request("{\"problem\":\"p\",\"mode\":\"x\"}", req, err));
  EXPECT_NE(err.find("unknown mode"), std::string::npos);
  EXPECT_FALSE(wire::parse_request("{\"problem\":42}", req, err));
  EXPECT_NE(err.find("must be a string"), std::string::npos);
  EXPECT_FALSE(wire::parse_request("{\"problem\":\"p\",\"deadline_ms\":\"no\"}", req, err));
  EXPECT_NE(err.find("must be a number"), std::string::npos);
  EXPECT_FALSE(wire::parse_request("{\"problem\":\"p\",\"validate\":1}", req, err));
  EXPECT_NE(err.find("must be a boolean"), std::string::npos);
}

TEST(ParseRequest, DeepNestingIsRejectedWithAnError) {
  // 100k nested arrays would overflow a recursive reader's stack; the
  // nesting cap turns any such frame body into a plain parse error.
  wire::WireRequest req;
  std::string err;
  EXPECT_FALSE(wire::parse_request(std::string(100000, '['), req, err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(wire::parse_request(objects, req, err));
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;

  // The cap itself is still accepted.
  const std::size_t cap = sekitei::json::kMaxDepth;
  sekitei::json::Value v;
  EXPECT_TRUE(sekitei::json::parse(std::string(cap, '[') + std::string(cap, ']'), v));
  EXPECT_FALSE(
      sekitei::json::parse(std::string(cap + 1, '[') + std::string(cap + 1, ']'), v));
}

TEST(RenderRequest, RoundTripsThroughParse) {
  wire::WireRequest out;
  out.id = "rt-1";
  out.problem_text = "network {\n  node n0 { cpu 1; }\n}";
  out.deadline_ms = 125.5;
  out.mode = sekitei::core::PlannerOptions::Mode::Greedy;
  out.validate = false;
  out.preflight = true;
  out.degrade = false;

  wire::WireRequest back;
  std::string err;
  ASSERT_TRUE(wire::parse_request(wire::render_request(out), back, err)) << err;
  EXPECT_EQ(back.id, out.id);
  EXPECT_EQ(back.problem_text, out.problem_text);
  EXPECT_EQ(back.deadline_ms, out.deadline_ms);
  EXPECT_EQ(back.mode, out.mode);
  EXPECT_EQ(back.validate, out.validate);
  EXPECT_EQ(back.preflight, out.preflight);
  EXPECT_EQ(back.degrade, out.degrade);

  wire::WireRequest health;
  health.op = wire::WireRequest::Op::Healthz;
  ASSERT_TRUE(wire::parse_request(wire::render_request(health), back, err));
  EXPECT_EQ(back.op, wire::WireRequest::Op::Healthz);
}

// The golden record: sekitei_serve has emitted exactly this rendering since
// the service PR, and the daemon's response frames reuse it.  A change here
// is a wire-format break — bump deliberately, never accidentally.
TEST(RenderResponse, GoldenRejectedRecord) {
  PlanResponse r = wire::make_rejected("q1", "queue full (3 pending)");
  const std::string expect =
      "{\"request\":\"q1\",\"outcome\":\"rejected\",\"ladder\":\"primary\","
      "\"cache_hit\":false,\"fingerprint\":\"0000000000000000\","
      "\"wait_ms\":0.000,\"compile_ms\":0.000,\"solve_ms\":0.000,"
      "\"failure\":\"queue full (3 pending)\",\"stats\":" +
      sekitei::core::stats_to_json(r.stats) + "}";
  EXPECT_EQ(sekitei::service::response_to_json(r), expect);
  EXPECT_EQ(wire::render_response_line(r),
            sekitei::service::response_to_json(r) + "\n");
  EXPECT_EQ(wire::render_response_frame(r),
            wire::encode_frame(sekitei::service::response_to_json(r)));
}

TEST(RenderResponse, GoldenSolvedRecordWithOptionalKeys) {
  PlanResponse r;
  r.id = "batch/tiny.sk#2";
  r.outcome = Outcome::Solved;
  r.plan.emplace();
  r.plan->cost_lb = 12.5;
  r.cache_hit = true;
  r.fingerprint = 0xdeadbeef01020304ULL;
  r.wait_ms = 1.25;
  r.compile_ms = 3.5;
  r.solve_ms = 40.125;
  r.attempts = 2;
  const std::string expect =
      "{\"request\":\"batch/tiny.sk#2\",\"outcome\":\"solved\","
      "\"ladder\":\"primary\",\"cache_hit\":true,"
      "\"fingerprint\":\"deadbeef01020304\",\"plan_actions\":0,"
      "\"cost_lb\":12.500,\"wait_ms\":1.250,\"compile_ms\":3.500,"
      "\"solve_ms\":40.125,\"attempts\":2,\"stats\":" +
      sekitei::core::stats_to_json(r.stats) + "}";
  EXPECT_EQ(sekitei::service::response_to_json(r), expect);
}

TEST(ParseRequest, RepairOpParsesThePayload) {
  wire::WireRequest req;
  std::string err;
  const std::string body =
      "{\"op\":\"repair\",\"id\":\"d1\",\"problem\":\"p\",\"echo_plan\":true,"
      "\"prior_plan\":[3,1,4],\"choices\":[0.5,1],"
      "\"damage\":{\"failed_nodes\":[\"n1\"],\"failed_links\":[[\"a\",\"b\"]],"
      "\"degraded_nodes\":[{\"node\":\"n2\",\"resource\":\"cpu\",\"capacity\":1}],"
      "\"degraded_links\":[{\"a\":\"x\",\"b\":\"y\",\"resource\":\"lbw\",\"capacity\":40}]},"
      "\"migration_penalty\":2.5,\"reconnect_factor\":0.1,\"migrate_factor\":0.4}";
  ASSERT_TRUE(wire::parse_request(body, req, err)) << err;
  EXPECT_EQ(req.op, wire::WireRequest::Op::Plan);
  EXPECT_TRUE(req.repair);
  EXPECT_TRUE(req.echo_plan);
  EXPECT_EQ(req.prior_plan, (std::vector<std::uint32_t>{3, 1, 4}));
  EXPECT_EQ(req.choices, (std::vector<double>{0.5, 1.0}));
  ASSERT_EQ(req.damage.failed_nodes.size(), 1u);
  EXPECT_EQ(req.damage.failed_nodes[0], "n1");
  ASSERT_EQ(req.damage.failed_links.size(), 1u);
  EXPECT_EQ(req.damage.failed_links[0].first, "a");
  EXPECT_EQ(req.damage.failed_links[0].second, "b");
  ASSERT_EQ(req.damage.degraded_nodes.size(), 1u);
  EXPECT_EQ(req.damage.degraded_nodes[0].node, "n2");
  EXPECT_EQ(req.damage.degraded_nodes[0].resource, "cpu");
  EXPECT_DOUBLE_EQ(req.damage.degraded_nodes[0].capacity, 1.0);
  ASSERT_EQ(req.damage.degraded_links.size(), 1u);
  EXPECT_EQ(req.damage.degraded_links[0].a, "x");
  EXPECT_EQ(req.damage.degraded_links[0].b, "y");
  EXPECT_DOUBLE_EQ(req.damage.degraded_links[0].capacity, 40.0);
  EXPECT_DOUBLE_EQ(req.migration_penalty, 2.5);
  EXPECT_DOUBLE_EQ(req.reconnect_factor, 0.1);
  EXPECT_DOUBLE_EQ(req.migrate_factor, 0.4);
}

TEST(ParseRequest, RepairPayloadErrors) {
  wire::WireRequest req;
  std::string err;
  EXPECT_FALSE(wire::parse_request(
      "{\"op\":\"repair\",\"problem\":\"p\",\"prior_plan\":[-1]}", req, err));
  EXPECT_NE(err.find("action indices"), std::string::npos);
  EXPECT_FALSE(wire::parse_request(
      "{\"op\":\"repair\",\"problem\":\"p\",\"choices\":[\"x\"]}", req, err));
  EXPECT_NE(err.find("array of numbers"), std::string::npos);
  EXPECT_FALSE(
      wire::parse_request("{\"op\":\"repair\",\"problem\":\"p\",\"damage\":3}", req, err));
  EXPECT_NE(err.find("\"damage\" must be an object"), std::string::npos);
  EXPECT_FALSE(wire::parse_request(
      "{\"op\":\"repair\",\"problem\":\"p\",\"damage\":{\"failed_links\":[[\"a\"]]}}", req,
      err));
  EXPECT_NE(err.find("endpoint-name pairs"), std::string::npos);
  EXPECT_FALSE(wire::parse_request(
      "{\"op\":\"repair\",\"problem\":\"p\",\"damage\":{\"degraded_nodes\":[{\"node\":\"\","
      "\"resource\":\"cpu\"}]}}",
      req, err));
  EXPECT_NE(err.find("degraded_nodes"), std::string::npos);
  EXPECT_FALSE(wire::parse_request("{\"op\":\"heal\",\"problem\":\"p\"}", req, err));
  EXPECT_NE(err.find("expected plan, repair, healthz, or stats"), std::string::npos);
}

TEST(RenderRequest, RepairRoundTripsThroughParse) {
  wire::WireRequest out;
  out.id = "d2";
  out.problem_text = "network {}";
  out.repair = true;
  out.echo_plan = true;
  out.prior_plan = {0, 5, 2};
  out.choices = {31.5};
  out.damage.failed_nodes = {"n3"};
  out.damage.failed_links = {{"n0", "n1"}};
  out.damage.degraded_nodes.push_back({"n2", "cpu", 1.5});
  out.damage.degraded_links.push_back({"n2", "n3", "lbw", 40.0});
  out.migration_penalty = 3.0;
  out.reconnect_factor = 0.25;
  out.migrate_factor = 0.5;

  wire::WireRequest back;
  std::string err;
  ASSERT_TRUE(wire::parse_request(wire::render_request(out), back, err)) << err;
  EXPECT_TRUE(back.repair);
  EXPECT_TRUE(back.echo_plan);
  EXPECT_EQ(back.prior_plan, out.prior_plan);
  EXPECT_EQ(back.choices, out.choices);
  EXPECT_EQ(back.damage.failed_nodes, out.damage.failed_nodes);
  EXPECT_EQ(back.damage.failed_links, out.damage.failed_links);
  ASSERT_EQ(back.damage.degraded_nodes.size(), 1u);
  EXPECT_EQ(back.damage.degraded_nodes[0].node, "n2");
  EXPECT_DOUBLE_EQ(back.damage.degraded_nodes[0].capacity, 1.5);
  ASSERT_EQ(back.damage.degraded_links.size(), 1u);
  EXPECT_EQ(back.damage.degraded_links[0].b, "n3");
  EXPECT_DOUBLE_EQ(back.migration_penalty, 3.0);
  EXPECT_DOUBLE_EQ(back.reconnect_factor, 0.25);
  EXPECT_DOUBLE_EQ(back.migrate_factor, 0.5);
}

TEST(RenderRequest, PlainPlanRenderingUnchangedUnlessEchoRequested) {
  wire::WireRequest r;
  r.id = "p1";
  r.problem_text = "p";
  // The pre-repair rendering, byte for byte: no echo_plan, no repair keys.
  EXPECT_EQ(wire::render_request(r),
            "{\"op\":\"plan\",\"id\":\"p1\",\"problem\":\"p\",\"deadline_ms\":0.000,"
            "\"mode\":\"leveled\",\"validate\":true,\"preflight\":false,"
            "\"degrade\":true}");
  r.echo_plan = true;
  EXPECT_EQ(wire::render_request(r),
            "{\"op\":\"plan\",\"id\":\"p1\",\"problem\":\"p\",\"deadline_ms\":0.000,"
            "\"mode\":\"leveled\",\"validate\":true,\"preflight\":false,"
            "\"degrade\":true,\"echo_plan\":true}");
}

// Repair responses extend the golden record with the repaired/migrations/
// reconnects/disruption/repair_cost block and the echoed plan; plain
// responses above stay byte-identical.
TEST(RenderResponse, GoldenRepairRecordWithEchoedPlan) {
  PlanResponse r;
  r.id = "drift-1";
  r.outcome = Outcome::Degraded;
  r.ladder = sekitei::service::LadderStep::FullReplan;
  r.plan.emplace();
  r.plan->cost_lb = 12.5;
  r.repair_requested = true;
  r.repaired = false;
  r.migrations = 1;
  r.reconnects = 2;
  r.disruption = 3;
  r.repair_cost = 20.25;
  r.plan_steps = {4, 7};
  r.choices = {0.5};
  const std::string expect =
      "{\"request\":\"drift-1\",\"outcome\":\"degraded\",\"ladder\":\"full_replan\","
      "\"cache_hit\":false,\"fingerprint\":\"0000000000000000\",\"plan_actions\":0,"
      "\"cost_lb\":12.500,\"repaired\":false,\"migrations\":1,\"reconnects\":2,"
      "\"disruption\":3,\"repair_cost\":20.250,\"plan_steps\":[4,7],"
      "\"choices\":[0.500],\"wait_ms\":0.000,\"compile_ms\":0.000,"
      "\"solve_ms\":0.000,\"stats\":" +
      sekitei::core::stats_to_json(r.stats) + "}";
  EXPECT_EQ(sekitei::service::response_to_json(r), expect);
}

TEST(MakeRejected, CarriesIdAndFailure) {
  const PlanResponse r = wire::make_rejected("x", "draining");
  EXPECT_EQ(r.id, "x");
  EXPECT_EQ(r.outcome, Outcome::Rejected);
  EXPECT_EQ(r.failure, "draining");
  EXPECT_FALSE(r.ok());
}
