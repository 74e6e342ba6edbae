// Concurrency substrate of the planning service: stop tokens (cancellation +
// deadlines), the fixed thread pool, and per-thread trace ids.
#include <atomic>
#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/stop_token.hpp"
#include "support/thread_pool.hpp"
#include "support/trace.hpp"

namespace sekitei {
namespace {

// ---------------------------------------------------------------------------
// StopToken / StopSource

TEST(StopTokenTest, DefaultTokenNeverStops) {
  StopToken t;
  EXPECT_FALSE(t.stop_possible());
  EXPECT_FALSE(t.stop_requested());
  EXPECT_EQ(t.reason(), StopReason::None);
}

TEST(StopTokenTest, RequestStopIsVisibleToAllTokens) {
  StopSource src;
  StopToken a = src.token();
  StopToken b = src.token();
  EXPECT_TRUE(a.stop_possible());
  EXPECT_FALSE(a.stop_requested());

  src.request_stop();
  EXPECT_TRUE(a.stop_requested());
  EXPECT_TRUE(b.stop_requested());
  EXPECT_EQ(a.reason(), StopReason::Cancelled);
}

TEST(StopTokenTest, ExpiredDeadlineStops) {
  StopSource src = StopSource::with_deadline_ms(-1.0);
  EXPECT_TRUE(src.token().stop_requested());
  EXPECT_EQ(src.token().reason(), StopReason::DeadlineExceeded);
}

TEST(StopTokenTest, FarDeadlineDoesNotStop) {
  StopSource src = StopSource::with_deadline_ms(1e9);
  EXPECT_FALSE(src.token().stop_requested());
  EXPECT_EQ(src.token().reason(), StopReason::None);
}

TEST(StopTokenTest, DeadlineArmableAfterTokenWasHandedOut) {
  // The engine arms the deadline at submit time, after the caller already
  // holds tokens — the armed deadline must reach them.
  StopSource src;
  StopToken t = src.token();
  EXPECT_FALSE(t.stop_requested());
  src.arm_deadline_ms(-1.0);
  EXPECT_TRUE(t.stop_requested());
  EXPECT_EQ(t.reason(), StopReason::DeadlineExceeded);
}

TEST(StopTokenTest, CancellationWinsOverDeadline) {
  StopSource src = StopSource::with_deadline_ms(-1.0);
  src.request_stop();
  EXPECT_EQ(src.token().reason(), StopReason::Cancelled);
}

TEST(StopTokenTest, ReasonNames) {
  EXPECT_STREQ(stop_reason_name(StopReason::None), "none");
  EXPECT_STREQ(stop_reason_name(StopReason::Cancelled), "cancelled");
  EXPECT_STREQ(stop_reason_name(StopReason::DeadlineExceeded), "deadline_exceeded");
}

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.worker_count(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor drains the queue before joining
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkersClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
}

TEST(ThreadPoolTest, QueueBuildsUpBehindABlockedWorker) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::promise<void> started;
  pool.submit([&started, open] {
    started.set_value();
    open.wait();
  });
  started.get_future().wait();  // the lone worker is now parked on the gate

  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(pool.queued(), 5u);
  EXPECT_EQ(ran.load(), 0);

  gate.set_value();
  pool.shutdown(/*drain=*/true);
  EXPECT_EQ(ran.load(), 5);
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.shutdown();
  std::atomic<bool> ran{false};
  const auto caller = std::this_thread::get_id();
  std::thread::id job_thread;
  pool.submit([&] {
    job_thread = std::this_thread::get_id();
    ran.store(true);
  });
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(job_thread, caller);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // must not hang or crash
}

// ---------------------------------------------------------------------------
// Trace thread ids

TEST(TraceThreadIdTest, StablePerThreadAndDistinctAcrossThreads) {
  const std::uint32_t mine = trace::current_thread_id();
  EXPECT_GT(mine, 0u);
  EXPECT_EQ(trace::current_thread_id(), mine);  // stable on repeat calls

  std::uint32_t other = 0;
  std::thread([&other] { other = trace::current_thread_id(); }).join();
  EXPECT_GT(other, 0u);
  EXPECT_NE(other, mine);
}

TEST(TraceThreadIdTest, EventsRecordTheRecordingThread) {
  trace::Collector collector;
  trace::install(&collector);
  { trace::Span span("from-main"); }
  std::thread([] { trace::Span span("from-worker"); }).join();
  trace::uninstall();

  const std::vector<trace::Event> events = collector.events();
  ASSERT_EQ(events.size(), 2u);
  std::uint32_t main_tid = 0, worker_tid = 0;
  for (const trace::Event& e : events) {
    if (e.name == "from-main") main_tid = e.tid;
    if (e.name == "from-worker") worker_tid = e.tid;
  }
  EXPECT_GT(main_tid, 0u);
  EXPECT_GT(worker_tid, 0u);
  EXPECT_NE(main_tid, worker_tid);

  // The Chrome trace JSON carries both tids, so the viewer shows two tracks.
  const std::string json = collector.to_json();
  EXPECT_NE(json.find("\"tid\":" + std::to_string(main_tid)), std::string::npos);
  EXPECT_NE(json.find("\"tid\":" + std::to_string(worker_tid)), std::string::npos);
}

TEST(TraceThreadIdTest, PoolWorkersGetDistinctTids) {
  trace::Collector collector;
  trace::install(&collector);
  {
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> open = gate.get_future().share();
    std::atomic<int> parked{0};
    // Park both workers so the two spans are guaranteed to come from two
    // different threads.
    for (int i = 0; i < 2; ++i) {
      pool.submit([&parked, open] {
        { trace::Span span("pool-span"); }
        parked.fetch_add(1);
        open.wait();
      });
    }
    while (parked.load() < 2) std::this_thread::yield();
    gate.set_value();
  }
  trace::uninstall();

  std::vector<std::uint32_t> tids;
  for (const trace::Event& e : collector.events()) {
    if (e.name == "pool-span") tids.push_back(e.tid);
  }
  ASSERT_EQ(tids.size(), 2u);
  EXPECT_NE(tids[0], tids[1]);
}

}  // namespace
}  // namespace sekitei
