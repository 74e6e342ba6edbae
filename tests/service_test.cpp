// End-to-end tests of the concurrent planning service: content
// fingerprinting, determinism across worker counts, deadlines and
// cancellation (with partial stats), admission control, and the engine's use
// of the compiled-problem cache.
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "model/fingerprint.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"

namespace sekitei::service {
namespace {

namespace media = domains::media;

std::shared_ptr<const model::LoadedProblem> loaded_instance(
    std::unique_ptr<media::Instance> inst, char scenario) {
  return make_loaded(std::move(inst->domain), std::move(inst->net), std::move(inst->problem),
                     media::scenario(scenario));
}

// ---------------------------------------------------------------------------
// Fingerprints

TEST(FingerprintTest, IndependentlyBuiltIdenticalInstancesHashEqually) {
  auto a = media::tiny();
  auto b = media::tiny();
  EXPECT_EQ(model::fingerprint(a->problem, media::scenario('C')),
            model::fingerprint(b->problem, media::scenario('C')));
}

TEST(FingerprintTest, ContentPerturbationsChangeTheHash) {
  const auto base = model::fingerprint(media::tiny()->problem, media::scenario('C'));

  media::Params p;
  p.client_demand += 1.0;
  EXPECT_NE(model::fingerprint(media::tiny(p)->problem, media::scenario('C')), base);

  // Same instance, different level scenario.
  EXPECT_NE(model::fingerprint(media::tiny()->problem, media::scenario('B')), base);

  // Different network shape entirely.
  EXPECT_NE(model::fingerprint(media::small()->problem, media::scenario('C')), base);
}

// ---------------------------------------------------------------------------
// Outcomes

TEST(OutcomeTest, NamesAndExitCodes) {
  EXPECT_STREQ(outcome_name(Outcome::Solved), "solved");
  EXPECT_STREQ(outcome_name(Outcome::Infeasible), "infeasible");
  EXPECT_STREQ(outcome_name(Outcome::DeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(outcome_name(Outcome::Cancelled), "cancelled");
  EXPECT_STREQ(outcome_name(Outcome::Rejected), "rejected");

  EXPECT_EQ(outcome_exit_code(Outcome::Solved), 0);
  EXPECT_EQ(outcome_exit_code(Outcome::Infeasible), 1);
  // 2 is reserved for usage/input errors in the CLI drivers.
  EXPECT_EQ(outcome_exit_code(Outcome::DeadlineExceeded), 3);
  EXPECT_EQ(outcome_exit_code(Outcome::Cancelled), 4);
  EXPECT_EQ(outcome_exit_code(Outcome::Rejected), 5);
}

// ---------------------------------------------------------------------------
// Engine basics

TEST(ServiceTest, SolvesTheTinyInstance) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req;
  req.id = "tiny";
  req.problem = loaded_instance(media::tiny(), 'C');
  const PlanResponse r = engine.plan(std::move(req));

  EXPECT_EQ(r.outcome, Outcome::Solved);
  EXPECT_TRUE(r.ok());
  ASSERT_TRUE(r.plan.has_value());
  EXPECT_FALSE(r.plan_text.empty());
  EXPECT_NE(r.fingerprint, 0u);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_GT(r.stats.rg_expansions, 0u);

  const std::string json = response_to_json(r);
  EXPECT_NE(json.find("\"request\":\"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"solved\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
}

TEST(ServiceTest, PlansAreIdenticalAcrossWorkerCounts) {
  auto problem = loaded_instance(media::tiny(), 'C');

  PlanningEngine one({.workers = 1});
  PlanRequest ref_req;
  ref_req.id = "ref";
  ref_req.problem = problem;
  const PlanResponse reference = one.plan(std::move(ref_req));
  ASSERT_TRUE(reference.ok());
  ASSERT_FALSE(reference.plan_text.empty());

  PlanningEngine eight({.workers = 8});
  std::vector<PlanningEngine::Ticket> tickets;
  for (int i = 0; i < 16; ++i) {
    PlanRequest req;
    req.id = "r" + std::to_string(i);
    req.problem = problem;
    tickets.push_back(eight.submit(std::move(req)));
  }
  for (auto& ticket : tickets) {
    const PlanResponse r = ticket.response.get();
    ASSERT_TRUE(r.ok()) << r.failure;
    // Byte-identical plan renderings: scheduling order must not leak into
    // planning decisions.
    EXPECT_EQ(r.plan_text, reference.plan_text);
    EXPECT_EQ(r.fingerprint, reference.fingerprint);
  }
}

TEST(ServiceTest, SecondIdenticalRequestHitsTheCompiledCache) {
  PlanningEngine engine({.workers = 1});
  auto problem = loaded_instance(media::tiny(), 'C');

  PlanRequest first;
  first.problem = problem;
  EXPECT_FALSE(engine.plan(std::move(first)).cache_hit);

  // Same content through a *different* LoadedProblem object: the cache keys
  // on the fingerprint, not the pointer.
  PlanRequest second;
  second.problem = loaded_instance(media::tiny(), 'C');
  EXPECT_TRUE(engine.plan(std::move(second)).cache_hit);

  const auto stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

// ---------------------------------------------------------------------------
// Deadlines & cancellation

TEST(ServiceTest, ExpiredDeadlineYieldsDeadlineExceededAndNoPlan) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req;
  req.problem = loaded_instance(media::small(), 'C');
  req.deadline_ms = 1e-6;  // expires before the worker can start planning
  const PlanResponse r = engine.plan(std::move(req));

  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  EXPECT_FALSE(r.plan.has_value());
  EXPECT_FALSE(r.failure.empty());
  EXPECT_EQ(outcome_exit_code(r.outcome), 3);
}

TEST(ServiceTest, EngineDefaultDeadlineApplies) {
  PlanningEngine engine({.workers = 1, .default_deadline_ms = 1e-6});
  PlanRequest req;
  req.problem = loaded_instance(media::tiny(), 'C');
  EXPECT_EQ(engine.plan(std::move(req)).outcome, Outcome::DeadlineExceeded);
}

TEST(ServiceTest, CancelledBeforeSubmitYieldsCancelled) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req;
  req.problem = loaded_instance(media::tiny(), 'C');
  req.stop.request_stop();  // explicit cancel wins even with a deadline armed
  req.deadline_ms = 1e-6;
  const PlanResponse r = engine.plan(std::move(req));

  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  EXPECT_FALSE(r.plan.has_value());
  EXPECT_EQ(outcome_exit_code(r.outcome), 4);
}

TEST(ServiceTest, TicketCancelStopsTheRequest) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req;
  req.problem = loaded_instance(media::tiny(), 'C');
  PlanningEngine::Ticket ticket = engine.submit(std::move(req));
  ticket.cancel();  // may land before, during, or after planning
  const PlanResponse r = ticket.response.get();
  // Depending on when the cancel lands the request either finished or was
  // cancelled — both are valid; what must never happen is a hang or a
  // misclassified deadline.
  EXPECT_TRUE(r.outcome == Outcome::Solved || r.outcome == Outcome::Cancelled);
}

TEST(PlannerStopTest, MidSearchStopReturnsPartialStats) {
  // Deterministic mid-search stop: a progress observer at cadence 1 requests
  // the stop after five RG expansions.
  auto inst = media::small();
  auto cp = model::compile(inst->problem, media::scenario('C'));

  StopSource src;
  core::PlannerOptions opt;
  opt.stop = src.token();
  opt.progress_every = 1;
  int calls = 0;
  opt.progress = [&](const core::PlannerStats&) {
    if (++calls == 5) src.request_stop();
  };

  core::Sekitei planner(cp, opt);
  const core::PlanResult r = planner.plan();

  EXPECT_FALSE(r.plan.has_value());
  EXPECT_TRUE(r.stats.stopped);
  EXPECT_FALSE(r.failure.empty());
  // The partial snapshot carries the work done up to the stop.
  EXPECT_GT(r.stats.plrg_props, 0u);
  EXPECT_GT(r.stats.rg_expansions, 0u);
  EXPECT_LT(r.stats.rg_expansions, 64u);  // stopped early, not at exhaustion
}

namespace {

/// Small with 80 evenly spaced M cutpoints (T/I/Z proportional): 6.7M level
/// combinations and 128k actions, about a second of grounding in Release.
std::shared_ptr<const model::LoadedProblem> cutpoint_bomb() {
  std::vector<double> cuts;
  for (int k = 1; k <= 80; ++k) cuts.push_back(2.5 * k);
  auto inst = media::small();
  return make_loaded(std::move(inst->domain), std::move(inst->net), std::move(inst->problem),
                     media::scenario_with_cuts(std::move(cuts)));
}

}  // namespace

TEST(ServiceTest, CompileHonoursTheDeadline) {
  PlanningEngine engine({.workers = 1});
  PlanRequest bomb;
  bomb.id = "bomb";
  bomb.problem = cutpoint_bomb();
  bomb.deadline_ms = 100;
  const auto t0 = std::chrono::steady_clock::now();
  const PlanResponse r = engine.plan(std::move(bomb));
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  EXPECT_EQ(r.failure, "stopped during compile");
  EXPECT_LT(ms, 600.0);
  EXPECT_GT(r.compile_ms, 0.0);
  // The stopped compile is not cached, and the worker serves the next
  // request normally.
  EXPECT_EQ(engine.cache_stats().entries, 0u);
  PlanRequest next;
  next.problem = loaded_instance(media::small(), 'C');
  EXPECT_EQ(engine.plan(std::move(next)).outcome, Outcome::Solved);
  EXPECT_EQ(engine.cache_stats().entries, 1u);
}

TEST(ServiceTest, CancelDuringCompileYieldsCancelled) {
  PlanningEngine engine({.workers = 1});
  PlanRequest bomb;
  bomb.problem = cutpoint_bomb();
  PlanningEngine::Ticket ticket = engine.submit(std::move(bomb));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ticket.cancel();
  const PlanResponse r = ticket.response.get();
  EXPECT_EQ(r.outcome, Outcome::Cancelled);
  // A worker that had not picked the job up yet answers before compiling.
  EXPECT_TRUE(r.failure == "stopped during compile" ||
              r.failure == "stopped before planning started")
      << r.failure;
  EXPECT_EQ(engine.cache_stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Admission control

TEST(ServiceTest, NullProblemIsRejected) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req;
  req.id = "empty";
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::Rejected);
  EXPECT_FALSE(r.failure.empty());
  EXPECT_EQ(outcome_exit_code(r.outcome), 5);
}

TEST(ServiceTest, CompileErrorYieldsRejectedAndWorkerSurvives) {
  PlanningEngine engine({.workers = 1});

  // Parses fine but fails semantic checks in compile(), which runs inside the
  // worker — the resulting sekitei::Error must come back as Rejected, not
  // terminate the process or leave the future unfulfilled.
  auto inst = media::tiny();
  inst->problem.preplaced.emplace_back("NoSuchComponent", 0);
  PlanRequest bad;
  bad.id = "bad";
  bad.problem = loaded_instance(std::move(inst), 'C');
  const PlanResponse r = engine.plan(std::move(bad));
  EXPECT_EQ(r.outcome, Outcome::Rejected);
  EXPECT_NE(r.failure.find("unknown component"), std::string::npos) << r.failure;

  // The pending slot was released and the worker is still alive: a
  // well-formed follow-up request is served normally.
  EXPECT_EQ(engine.pending(), 0u);
  PlanRequest good;
  good.id = "good";
  good.problem = loaded_instance(media::tiny(), 'C');
  EXPECT_EQ(engine.plan(std::move(good)).outcome, Outcome::Solved);
}

// ---------------------------------------------------------------------------
// Pre-flight infeasibility analysis

namespace {

/// The lint corpus's value-capped chain: logically reachable, provably
/// infeasible on producible values — search would exhaust, preflight won't.
constexpr const char* kCappedDomain = R"(
param demand = 90;
param serverCap = 60;
interface M {
  property ibw degradable;
  cross {
    M.ibw' := min(M.ibw, link.lbw);
    link.lbw -= min(M.ibw, link.lbw);
  }
  cost 1;
}
interface A {
  property x degradable;
  cross {
    A.x' := min(A.x, link.lbw);
    link.lbw -= min(A.x, link.lbw);
  }
  cost 1;
}
component Server {
  implements M;
  effects { M.ibw := serverCap; }
  cost 1;
}
component Amp {
  requires M;
  implements A;
  conditions { node.cpu >= 1; }
  effects {
    A.x := M.ibw;
    node.cpu -= 1;
  }
  cost 1;
}
component Client {
  requires A;
  conditions { A.x >= demand; }
  cost 1;
}
)";

constexpr const char* kCappedProblem = R"(
network {
  node n0 { cpu 30; }
  node n1 { cpu 30; }
  link n0 n1 lan { lbw 150; delay 1; }
}
problem {
  goal Client at n1;
}
scenario {
  levels M.ibw { 50 }
  levels A.x { 50 }
}
)";

std::shared_ptr<const model::LoadedProblem> loaded_from_text(const char* domain,
                                                             const char* problem) {
  return std::shared_ptr<const model::LoadedProblem>(model::load_problem(domain, problem));
}

}  // namespace

TEST(PreflightServiceTest, RejectsProvablyInfeasibleWithoutSearching) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req;
  req.id = "capped";
  req.problem = loaded_from_text(kCappedDomain, kCappedProblem);
  req.preflight = true;
  const PlanResponse r = engine.plan(std::move(req));

  EXPECT_EQ(r.outcome, Outcome::Infeasible);
  EXPECT_FALSE(r.plan.has_value());
  EXPECT_TRUE(r.preflight_ran);
  EXPECT_TRUE(r.preflight_rejected);
  EXPECT_GT(r.preflight_sweeps, 0u);
  EXPECT_EQ(r.failure.rfind("SK001", 0), 0u) << r.failure;
  // The verdict came before any search: planner time and stats stay zero.
  EXPECT_EQ(r.solve_ms, 0.0);
  EXPECT_EQ(r.stats.rg_nodes, 0u);
  EXPECT_EQ(r.stats.plrg_props, 0u);
  EXPECT_EQ(engine.preflight_rejections(), 1u);

  const std::string json = response_to_json(r);
  EXPECT_NE(json.find("\"preflight_rejected\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"preflight_ms\""), std::string::npos);
}

TEST(PreflightServiceTest, EngineWideOptionAppliesToEveryRequest) {
  PlanningEngine engine({.workers = 1, .preflight = true});
  PlanRequest req;
  req.id = "capped-engine-wide";
  req.problem = loaded_from_text(kCappedDomain, kCappedProblem);
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::Infeasible);
  EXPECT_TRUE(r.preflight_rejected);
}

TEST(PreflightServiceTest, FeasibleInstancePassesThroughToTheSolver) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req;
  req.id = "tiny-preflight";
  req.problem = loaded_instance(media::tiny(), 'C');
  req.preflight = true;
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::Solved);
  EXPECT_TRUE(r.preflight_ran);
  EXPECT_FALSE(r.preflight_rejected);
  EXPECT_EQ(engine.preflight_rejections(), 0u);
}

TEST(PreflightServiceTest, OffByDefaultAndAbsentFromTheJson) {
  PlanningEngine engine({.workers = 1});
  PlanRequest req;
  req.id = "tiny-default";
  req.problem = loaded_instance(media::tiny(), 'C');
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::Solved);
  EXPECT_FALSE(r.preflight_ran);
  // With preflight off the response JSON is exactly the pre-analyzer shape:
  // no preflight_* keys at all.
  EXPECT_EQ(response_to_json(r).find("preflight"), std::string::npos);
}

TEST(PreflightServiceTest, DisabledPreflightStillAnswersInfeasibleViaSearch) {
  // Same capped instance, preflight off: the search exhausts and reaches the
  // same verdict the slow way — behaviour identical to the pre-analyzer
  // engine, with no preflight fields set.
  PlanningEngine engine({.workers = 1});
  PlanRequest req;
  req.id = "capped-no-preflight";
  req.problem = loaded_from_text(kCappedDomain, kCappedProblem);
  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::Infeasible);
  EXPECT_FALSE(r.preflight_ran);
  EXPECT_GT(r.stats.rg_nodes, 0u) << "the verdict must have come from the search";
}

TEST(ServiceTest, QueueFullRejectsImmediately) {
  PlanningEngine engine({.workers = 1, .max_pending = 1});

  PlanRequest slow;
  slow.id = "slow";
  slow.problem = loaded_instance(media::small(), 'C');  // long enough to occupy
  PlanningEngine::Ticket first = engine.submit(std::move(slow));

  PlanRequest second;
  second.id = "turned-away";
  second.problem = loaded_instance(media::tiny(), 'C');
  const PlanResponse rejected = engine.submit(std::move(second)).response.get();
  EXPECT_EQ(rejected.outcome, Outcome::Rejected);
  EXPECT_NE(rejected.failure.find("queue full"), std::string::npos);

  EXPECT_TRUE(first.response.get().ok());
}

}  // namespace
}  // namespace sekitei::service
