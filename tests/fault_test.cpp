// Deterministic fault injection: spec parsing, nth-hit/single-shot firing
// semantics, and — the point of the exercise — proof that every injected
// fault surfaces as a *classified* service response (rejected / degraded /
// solved-anyway), never a crash, a hang, or a leaked pending slot.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "domains/media.hpp"
#include "model/textio.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"

namespace sekitei {
namespace {

namespace media = domains::media;

std::shared_ptr<const model::LoadedProblem> tiny_loaded() {
  auto inst = media::tiny();
  return service::make_loaded(std::move(inst->domain), std::move(inst->net),
                              std::move(inst->problem), media::scenario('C'));
}

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// ---------------------------------------------------------------------------
// Registry semantics

TEST_F(FaultTest, UnarmedPointsAreFree) {
  EXPECT_EQ(fault::armed_count(), 0u);
  EXPECT_FALSE(fault::hit("never.armed"));
  EXPECT_EQ(fault::hits("never.armed"), 0u);
}

TEST_F(FaultTest, FailModeFiresOnTheNthHitExactlyOnce) {
  fault::arm("p", /*fire_on_nth=*/3, fault::Mode::Fail);
  EXPECT_EQ(fault::armed_count(), 1u);
  EXPECT_FALSE(fault::hit("p"));  // 1st
  EXPECT_FALSE(fault::hit("p"));  // 2nd
  EXPECT_TRUE(fault::hit("p"));   // 3rd: fires
  EXPECT_FALSE(fault::hit("p"));  // single-shot: never again
  // The 4th evaluation took the nothing-armed fast path, so only 3 counted.
  EXPECT_EQ(fault::hits("p"), 3u);
  EXPECT_EQ(fault::armed_count(), 0u);  // fired faults no longer count
}

TEST_F(FaultTest, ThrowModeRaisesSekiteiError) {
  fault::arm("q", 1, fault::Mode::Throw);
  EXPECT_THROW(fault::hit("q"), Error);
  EXPECT_FALSE(fault::hit("q"));  // spent
}

TEST_F(FaultTest, ReArmingResetsTheCounter) {
  fault::arm("r", 2, fault::Mode::Fail);
  EXPECT_FALSE(fault::hit("r"));
  fault::arm("r", 2, fault::Mode::Fail);  // reset: the next hit is the 1st again
  EXPECT_FALSE(fault::hit("r"));
  EXPECT_TRUE(fault::hit("r"));
}

TEST_F(FaultTest, ConfigureParsesTheEnvSyntax) {
  EXPECT_TRUE(fault::configure("a.b:2:fail,c.d:1:throw,e.f:5"));
  const auto all = fault::status();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].point, "a.b");
  EXPECT_EQ(all[0].fire_on_nth, 2u);
  EXPECT_EQ(all[0].mode, fault::Mode::Fail);
  EXPECT_EQ(all[1].point, "c.d");
  EXPECT_EQ(all[1].mode, fault::Mode::Throw);
  EXPECT_EQ(all[2].point, "e.f");
  EXPECT_EQ(all[2].fire_on_nth, 5u);
  EXPECT_EQ(all[2].mode, fault::Mode::Throw);  // throw is the default
}

TEST_F(FaultTest, ConfigureRejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(fault::configure("no-colon", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fault::configure("p:notanumber", &error));
  EXPECT_FALSE(fault::configure("p:1:explode", &error));
  EXPECT_FALSE(fault::configure(":1", &error));
}

// ---------------------------------------------------------------------------
// End-to-end: every injected fault yields a classified response

TEST_F(FaultTest, LoaderReadFaultRaisesError) {
  fault::arm("loader.read", 1, fault::Mode::Fail);  // loaders can only raise
  EXPECT_THROW(model::load_problem("", ""), Error);
  // Spent: the next load proceeds (and fails normally on the empty domain).
  EXPECT_THROW(model::load_problem("", ""), Error);
}

TEST_F(FaultTest, CacheInsertFailureOnlyCostsTheCaching) {
  service::PlanningEngine engine({.workers = 1});
  fault::arm("cache.insert", 1, fault::Mode::Fail);

  service::PlanRequest first;
  first.problem = tiny_loaded();
  EXPECT_EQ(engine.plan(std::move(first)).outcome, service::Outcome::Solved);

  // The entry was compiled but never cached, so the same content misses
  // again; this insert (the fault is spent) sticks.
  service::PlanRequest second;
  second.problem = tiny_loaded();
  EXPECT_FALSE(engine.plan(std::move(second)).cache_hit);
  service::PlanRequest third;
  third.problem = tiny_loaded();
  EXPECT_TRUE(engine.plan(std::move(third)).cache_hit);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST_F(FaultTest, CacheInsertThrowIsClassifiedRejected) {
  service::PlanningEngine engine({.workers = 1});
  fault::arm("cache.insert", 1, fault::Mode::Throw);

  service::PlanRequest req;
  req.id = "doomed";
  req.problem = tiny_loaded();
  const service::PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, service::Outcome::Rejected);
  EXPECT_NE(r.failure.find("cache.insert"), std::string::npos) << r.failure;

  // No leaked pending slot, and the worker survived the throw.
  EXPECT_EQ(engine.pending(), 0u);
  service::PlanRequest retry;
  retry.problem = tiny_loaded();
  EXPECT_EQ(engine.plan(std::move(retry)).outcome, service::Outcome::Solved);
}

TEST_F(FaultTest, EngineJobThrowIsClassifiedRejected) {
  service::PlanningEngine engine({.workers = 1});
  fault::arm("engine.job", 1, fault::Mode::Throw);

  service::PlanRequest req;
  req.problem = tiny_loaded();
  const service::PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, service::Outcome::Rejected);
  EXPECT_NE(r.failure.find("engine.job"), std::string::npos) << r.failure;
  EXPECT_EQ(engine.pending(), 0u);

  service::PlanRequest retry;
  retry.problem = tiny_loaded();
  EXPECT_EQ(engine.plan(std::move(retry)).outcome, service::Outcome::Solved);
}

TEST_F(FaultTest, DroppedPoolJobStillAnswersItsFuture) {
  service::PlanningEngine engine({.workers = 1});
  // The pool-level fault destroys the job's std::function without running
  // it; the job guard's destructor must answer the future anyway — the
  // alternative is response.get() hanging forever.
  fault::arm("pool.job", 1, fault::Mode::Fail);

  service::PlanRequest req;
  req.id = "dropped";
  req.problem = tiny_loaded();
  const service::PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, service::Outcome::Rejected);
  EXPECT_NE(r.failure.find("dropped"), std::string::npos) << r.failure;
  EXPECT_EQ(engine.pending(), 0u);

  // The worker thread survived and serves the next request.
  service::PlanRequest retry;
  retry.problem = tiny_loaded();
  EXPECT_EQ(engine.plan(std::move(retry)).outcome, service::Outcome::Solved);
}

TEST_F(FaultTest, ReplayValidateFaultNeverHangsTheRequest) {
  service::PlanningEngine engine({.workers = 1});
  fault::arm("replay.validate", 1, fault::Mode::Fail);

  service::PlanRequest req;
  req.problem = tiny_loaded();
  const service::PlanResponse r = engine.plan(std::move(req));
  // A single rejected from-init replay is recoverable (the search keeps
  // going), so the request answers with a normal classification either way.
  EXPECT_TRUE(r.outcome == service::Outcome::Solved ||
              r.outcome == service::Outcome::Infeasible)
      << service::outcome_name(r.outcome);
  EXPECT_EQ(engine.pending(), 0u);

  service::PlanRequest retry;
  retry.problem = tiny_loaded();
  EXPECT_EQ(engine.plan(std::move(retry)).outcome, service::Outcome::Solved);
}

TEST_F(FaultTest, ReplayValidateFaultReachesTheCpAcceptanceCheck) {
  // CP accepts a complete assignment through the same from-init replay as
  // the RG, so the point fires inside a mode: cp solve too.
  service::PlanningEngine engine({.workers = 1});
  fault::arm("replay.validate", 1, fault::Mode::Fail);

  service::PlanRequest req;
  req.problem = tiny_loaded();
  req.mode = core::PlannerOptions::Mode::Cp;
  const service::PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(fault::armed_count(), 0u) << "the CP solve never reached replay.validate";
  EXPECT_TRUE(r.outcome == service::Outcome::Solved ||
              r.outcome == service::Outcome::Infeasible)
      << service::outcome_name(r.outcome);
  EXPECT_EQ(engine.pending(), 0u);

  service::PlanRequest retry;
  retry.problem = tiny_loaded();
  retry.mode = core::PlannerOptions::Mode::Cp;
  EXPECT_EQ(engine.plan(std::move(retry)).outcome, service::Outcome::Solved);
}

}  // namespace
}  // namespace sekitei
