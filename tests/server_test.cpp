// Loopback integration tests for the planning daemon (src/server): real TCP
// on an ephemeral port, concurrent pipelined clients, protocol errors,
// quotas, idle timeouts, and the SIGTERM drain path.  The CI TSan job runs
// this suite — session teardown and out-of-order completion are exactly
// where a data race would hide.
#include <gtest/gtest.h>

#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/daemon.hpp"
#include "support/error.hpp"
#include "support/retry.hpp"
#include "support/signal_flag.hpp"

namespace {

using namespace sekitei;
using server::Daemon;
using server::FrameClient;
namespace wire = service::wire;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string data_file(const char* name) {
  return std::string(SEKITEI_TEST_DATA_DIR) + "/" + name;
}

std::string json_field(const std::string& body, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t from = at + needle.size();
  const std::size_t end = body.find('"', from);
  return body.substr(from, end - from);
}

/// A daemon on an ephemeral port serving the media domain, with test-speed
/// ticks (drain and idle decisions land within tens of milliseconds).
Daemon::Options test_options() {
  Daemon::Options opt;
  opt.domain_text = slurp(data_file("media.sk"));
  opt.engine.workers = 2;
  opt.session.poll_tick_ms = 10.0;
  opt.accept_tick_ms = 10.0;
  opt.drain_deadline_ms = 2000.0;
  opt.drain_grace_ms = 2000.0;
  return opt;
}

wire::WireRequest plan_request(std::string id, const std::string& problem) {
  wire::WireRequest req;
  req.id = std::move(id);
  req.problem_text = problem;
  return req;
}

/// A plan request that keeps a worker busy: small.sk under the CP backend
/// searches ~40 ms on a 4-vCPU VM (the leveled search ~11 ms, tiny.sk well
/// under 1 ms), so a test that needs work still in flight has a wide margin
/// over its own scheduling jitter.
wire::WireRequest slow_request(std::string id, const std::string& problem) {
  wire::WireRequest req = plan_request(std::move(id), problem);
  req.mode = core::PlannerOptions::Mode::Cp;
  return req;
}

/// Polls `done` every millisecond for at most `limit_ms`; true once it holds.
template <typename Pred>
bool wait_until(Pred done, double limit_ms) {
  for (double waited = 0.0; !done(); waited += 1.0) {
    if (waited >= limit_ms) return false;
    sleep_ms(1.0);
  }
  return true;
}

TEST(Server, HealthzAndStatsAnswer) {
  Daemon daemon(test_options());
  daemon.start();
  ASSERT_NE(daemon.port(), 0);

  FrameClient client(daemon.port());
  ASSERT_TRUE(client.send(std::string("{\"op\":\"healthz\"}")));
  ASSERT_TRUE(client.send(std::string("{\"op\":\"stats\"}")));
  std::string body;
  ASSERT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Frame);
  EXPECT_NE(body.find("\"healthz\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"sessions\":1"), std::string::npos);
  ASSERT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Frame);
  EXPECT_NE(body.find("\"stats\":1"), std::string::npos);
  EXPECT_NE(body.find("\"metrics\":["), std::string::npos);
  daemon.stop();
}

TEST(Server, PlansOverTheWire) {
  Daemon daemon(test_options());
  daemon.start();
  const std::string tiny = slurp(data_file("tiny.sk"));

  FrameClient client(daemon.port());
  ASSERT_TRUE(client.send(plan_request("t0", tiny)));
  std::string body;
  ASSERT_EQ(client.recv_frame(body, 20000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "request"), "t0");
  EXPECT_EQ(json_field(body, "outcome"), "solved");
  daemon.stop();
}

// Pipelined requests complete out of order: a slow instance submitted first
// must not block the fast one behind it — the whole point of submit_async.
TEST(Server, PipelinedResponsesArriveOutOfOrder) {
  Daemon daemon(test_options());
  daemon.start();
  const std::string slow = slurp(data_file("small.sk"));
  const std::string fast = slurp(data_file("tiny.sk"));

  FrameClient client(daemon.port());
  ASSERT_TRUE(client.send(slow_request("slow", slow)));
  ASSERT_TRUE(client.send(plan_request("fast", fast)));

  std::string first, second;
  ASSERT_EQ(client.recv_frame(first, 30000.0), FrameClient::Recv::Frame);
  ASSERT_EQ(client.recv_frame(second, 30000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(first, "request"), "fast");
  EXPECT_EQ(json_field(second, "request"), "slow");
  EXPECT_EQ(json_field(first, "outcome"), "solved");
  EXPECT_EQ(json_field(second, "outcome"), "solved");
  daemon.stop();
}

TEST(Server, ConcurrentClientsEachGetTheirAnswers) {
  Daemon daemon(test_options());
  daemon.start();
  const std::string tiny = slurp(data_file("tiny.sk"));

  constexpr int kClients = 4, kPerClient = 3;
  std::vector<std::thread> threads;
  std::atomic<int> solved{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      FrameClient client(daemon.port());
      for (int i = 0; i < kPerClient; ++i) {
        ASSERT_TRUE(client.send(plan_request(
            "c" + std::to_string(c) + "-" + std::to_string(i), tiny)));
      }
      for (int i = 0; i < kPerClient; ++i) {
        std::string body;
        ASSERT_EQ(client.recv_frame(body, 30000.0), FrameClient::Recv::Frame);
        if (json_field(body, "outcome") == "solved") ++solved;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(solved.load(), kClients * kPerClient);
  // The served counter bumps after the response frame is written, so give
  // the last completion callback a beat to finish its tail.
  const auto expect_served = static_cast<std::uint64_t>(kClients * kPerClient);
  for (int i = 0; i < 1000 && daemon.requests_served() < expect_served; ++i) {
    sleep_ms(1.0);
  }
  EXPECT_EQ(daemon.requests_served(), expect_served);
  daemon.stop();
}

TEST(Server, OversizedFrameIsRejectedAndConnectionCloses) {
  Daemon::Options opt = test_options();
  opt.session.max_frame_bytes = 1024;
  Daemon daemon(std::move(opt));
  daemon.start();

  FrameClient client(daemon.port());
  ASSERT_TRUE(client.send_raw("2048\n"));  // declared size over the cap
  std::string body;
  ASSERT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "outcome"), "rejected");
  EXPECT_NE(body.find("protocol error"), std::string::npos);
  EXPECT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Closed);
  daemon.stop();
}

TEST(Server, MalformedBodyKeepsSessionAlive) {
  Daemon daemon(test_options());
  daemon.start();

  FrameClient client(daemon.port());
  ASSERT_TRUE(client.send(std::string("this is not json")));
  std::string body;
  ASSERT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "outcome"), "rejected");
  EXPECT_NE(body.find("bad request"), std::string::npos);
  // The framing survived, so the session did too.
  ASSERT_TRUE(client.send(std::string("{\"op\":\"healthz\"}")));
  ASSERT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Frame);
  EXPECT_NE(body.find("\"healthz\""), std::string::npos);
  daemon.stop();
}

TEST(Server, DeeplyNestedBodyIsRejectedAndSessionKeepsServing) {
  Daemon daemon(test_options());
  daemon.start();
  const std::string tiny = slurp(data_file("tiny.sk"));

  FrameClient client(daemon.port());
  ASSERT_TRUE(client.send(std::string(100000, '[')));
  std::string body;
  ASSERT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "outcome"), "rejected");
  EXPECT_NE(body.find("nesting too deep"), std::string::npos) << body;
  // The daemon survived, and so did the session: it still plans.
  ASSERT_TRUE(client.send(plan_request("after", tiny)));
  ASSERT_EQ(client.recv_frame(body, 20000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "request"), "after");
  EXPECT_EQ(json_field(body, "outcome"), "solved");
  daemon.stop();
}

TEST(Server, UnparsableProblemIsRejectedInline) {
  Daemon daemon(test_options());
  daemon.start();

  FrameClient client(daemon.port());
  ASSERT_TRUE(client.send(plan_request("bad", "network { not valid }")));
  std::string body;
  ASSERT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "request"), "bad");
  EXPECT_EQ(json_field(body, "outcome"), "rejected");
  EXPECT_NE(body.find("bad problem"), std::string::npos);
  daemon.stop();
}

TEST(Server, IdleTimeoutClosesQuietConnections) {
  Daemon::Options opt = test_options();
  opt.session.idle_timeout_ms = 100.0;
  Daemon daemon(std::move(opt));
  daemon.start();

  FrameClient client(daemon.port());
  std::string body;
  // No request sent: the daemon closes the connection once idle elapses.
  EXPECT_EQ(client.recv_frame(body, 10000.0), FrameClient::Recv::Closed);
  daemon.stop();
}

TEST(Server, PerConnectionQuotaRejectsTheExcessRequest) {
  Daemon::Options opt = test_options();
  opt.quota.per_conn_inflight = 1;
  Daemon daemon(std::move(opt));
  daemon.start();
  const std::string slow = slurp(data_file("small.sk"));
  const std::string fast = slurp(data_file("tiny.sk"));

  FrameClient client(daemon.port());
  ASSERT_TRUE(client.send(slow_request("first", slow)));
  ASSERT_TRUE(client.send(plan_request("second", fast)));

  // The second frame is processed while the first still occupies the one
  // in-flight slot, so it bounces with a quota rejection — and the client
  // is told it may retry.
  std::string body;
  ASSERT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "request"), "second");
  EXPECT_EQ(json_field(body, "outcome"), "rejected");
  EXPECT_NE(body.find("quota exceeded (conn_quota)"), std::string::npos);
  EXPECT_NE(body.find("retry"), std::string::npos);

  ASSERT_EQ(client.recv_frame(body, 30000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "request"), "first");
  EXPECT_EQ(json_field(body, "outcome"), "solved");
  daemon.stop();
}

TEST(Server, GlobalQuotaFairShareShrinksWithSessions) {
  server::QuotaGate gate({.per_conn_inflight = 16, .global_inflight = 8});
  gate.session_opened();
  EXPECT_EQ(gate.effective_conn_limit(), 8u);
  gate.session_opened();
  EXPECT_EQ(gate.effective_conn_limit(), 4u);
  for (int i = 0; i < 7; ++i) gate.session_opened();
  EXPECT_EQ(gate.effective_conn_limit(), 1u);  // max(1, 8/9)
  for (int i = 0; i < 8; ++i) gate.session_closed();
  EXPECT_EQ(gate.effective_conn_limit(), 8u);

  // Global slots cap admissions across connections regardless of per-conn.
  server::QuotaGate tight({.per_conn_inflight = 0, .global_inflight = 2});
  tight.session_opened();
  EXPECT_EQ(tight.try_acquire(0), server::QuotaGate::Verdict::Admitted);
  EXPECT_EQ(tight.try_acquire(1), server::QuotaGate::Verdict::Admitted);
  EXPECT_EQ(tight.try_acquire(0), server::QuotaGate::Verdict::GlobalQuota);
  tight.release();
  EXPECT_EQ(tight.try_acquire(0), server::QuotaGate::Verdict::Admitted);
}

TEST(Server, DuplicateInFlightIdIsRejected) {
  Daemon daemon(test_options());
  daemon.start();
  const std::string slow = slurp(data_file("small.sk"));

  FrameClient client(daemon.port());
  ASSERT_TRUE(client.send(slow_request("dup", slow)));
  ASSERT_TRUE(client.send(slow_request("dup", slow)));
  std::string body;
  ASSERT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "outcome"), "rejected");
  EXPECT_NE(body.find("duplicate in-flight"), std::string::npos);
  ASSERT_EQ(client.recv_frame(body, 30000.0), FrameClient::Recv::Frame);
  EXPECT_EQ(json_field(body, "outcome"), "solved");
  daemon.stop();
}

// The SIGTERM drain contract: in-flight requests are answered (finished or
// degraded within the drain budget), new plan frames bounce with "draining",
// sessions close, drain() returns, and not one request goes unanswered.
TEST(Server, SigtermDrainAnswersInFlightAndRejectsNew) {
  signal_flag::reset();
  signal_flag::install({SIGTERM});

  Daemon daemon(test_options());
  daemon.start();
  const std::string slow = slurp(data_file("small.sk"));

  FrameClient client(daemon.port());
  // Eight pipelined slow solves on two workers keep the session in-flight
  // for ~150 ms, well past the moment the late request lands below.
  constexpr int kInflight = 8;
  for (int i = 0; i < kInflight; ++i) {
    ASSERT_TRUE(client.send(slow_request("inflight" + std::to_string(i), slow)));
  }
  // Let them reach the engine: queued or running, none answered yet.
  ASSERT_TRUE(wait_until([&] { return daemon.engine().pending() == std::size_t{kInflight}; }, 5000.0));

  std::raise(SIGTERM);
  ASSERT_EQ(signal_flag::fired(), SIGTERM);  // the netd main loop's trigger

  // Drain from another thread (as the daemon main loop would) while the
  // client pushes one more request into the draining session.
  std::thread drainer([&] { EXPECT_TRUE(daemon.drain()); });
  // drain() flips the flag synchronously at entry.
  EXPECT_TRUE(wait_until([&] { return daemon.draining(); }, 5000.0));
  EXPECT_TRUE(client.send(plan_request("late", slow)));

  // Collect every response until the drained daemon closes the session.
  std::vector<std::string> frames;
  for (;;) {
    std::string body;
    const auto rc = client.recv_frame(body, 30000.0);
    if (rc != FrameClient::Recv::Frame) {
      EXPECT_EQ(rc, FrameClient::Recv::Closed);
      break;
    }
    frames.push_back(std::move(body));
  }
  drainer.join();

  int inflight_answered = 0;
  bool late_rejected = false;
  for (const std::string& f : frames) {
    const std::string id = json_field(f, "request");
    if (id.rfind("inflight", 0) == 0) {
      ++inflight_answered;
      // Answered, not dropped: solved normally or degraded/stopped by the
      // tightened drain deadline — every outcome is a response on the wire.
      EXPECT_FALSE(json_field(f, "outcome").empty()) << f;
    } else if (id == "late") {
      EXPECT_EQ(json_field(f, "outcome"), "rejected");
      EXPECT_NE(f.find("draining"), std::string::npos);
      late_rejected = true;
    }
  }
  EXPECT_EQ(inflight_answered, kInflight);
  EXPECT_TRUE(late_rejected);
  EXPECT_EQ(daemon.session_count(), 0u);
  signal_flag::reset();
}

TEST(Server, DrainWithNothingInFlightIsImmediate) {
  Daemon daemon(test_options());
  daemon.start();
  FrameClient client(daemon.port());
  // Wait until the accept loop has picked the connection up; draining
  // before that point resets the half-open connection instead of closing
  // an established session.
  while (daemon.session_count() == 0) sleep_ms(1.0);
  EXPECT_TRUE(daemon.drain());
  // Listener is gone: the session was closed and new connects are refused.
  std::string body;
  EXPECT_EQ(client.recv_frame(body, 5000.0), FrameClient::Recv::Closed);
  EXPECT_THROW(FrameClient(daemon.port()), Error);
}

TEST(Server, ProblemCacheServesRepeatsWithoutReparsing) {
  Daemon daemon(test_options());
  daemon.start();
  const std::string tiny = slurp(data_file("tiny.sk"));

  FrameClient client(daemon.port());
  // Sequential, not pipelined: concurrent repeats could both miss the
  // compiled cache while racing through compilation on separate workers.
  int cache_hits = 0;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.send(plan_request("r" + std::to_string(i), tiny)));
    std::string body;
    ASSERT_EQ(client.recv_frame(body, 30000.0), FrameClient::Recv::Frame);
    EXPECT_EQ(json_field(body, "outcome"), "solved");
    if (body.find("\"cache_hit\":true") != std::string::npos) ++cache_hits;
  }
  // Same text => same LoadedProblem => same fingerprint: the engine's
  // compiled cache hits on every repeat.
  EXPECT_GE(cache_hits, 2);
  daemon.stop();
}

}  // namespace
