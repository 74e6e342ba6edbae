// The graceful-degradation ladder: the runner driven by fake rungs over
// every row of both rung lists, and end to end through the engine — anytime
// incumbents returned on a mid-search stop, the greedy retry on the reserved
// budget, and the master switch that restores strict pre-ladder behavior.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "domains/media.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"

namespace sekitei::service {
namespace {

namespace media = domains::media;

std::shared_ptr<const model::LoadedProblem> loaded(std::unique_ptr<media::Instance> inst,
                                                   char scenario) {
  return make_loaded(std::move(inst->domain), std::move(inst->net), std::move(inst->problem),
                     media::scenario(scenario));
}

TEST(DegradeTest, DegradedNamesExitCodeAndOk) {
  EXPECT_STREQ(outcome_name(Outcome::Degraded), "degraded");
  EXPECT_EQ(outcome_exit_code(Outcome::Degraded), 6);
  EXPECT_STREQ(ladder_step_name(LadderStep::Primary), "primary");
  EXPECT_STREQ(ladder_step_name(LadderStep::AnytimeIncumbent), "anytime_incumbent");
  EXPECT_STREQ(ladder_step_name(LadderStep::GreedyFallback), "greedy_fallback");

  PlanResponse r;
  r.outcome = Outcome::Degraded;
  EXPECT_TRUE(r.ok());
}

TEST(DegradeTest, MidSearchStopReturnsTheAnytimeIncumbent) {
  PlanningEngine engine({.workers = 1});

  PlanRequest req;
  req.id = "anytime";
  req.problem = loaded(media::small(), 'C');
  req.progress_every = 1;
  // Deterministic stop: the moment the search records its first incumbent
  // (a goal-satisfying child awaiting its optimality proof), cut it short.
  StopSource stop = req.stop;
  req.progress = [stop](const core::PlannerStats& s) mutable {
    if (s.rg_incumbents > 0) stop.request_stop();
  };

  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.failure;
  EXPECT_EQ(r.ladder, LadderStep::AnytimeIncumbent);
  EXPECT_TRUE(r.ok());
  ASSERT_TRUE(r.plan.has_value());
  EXPECT_FALSE(r.plan_text.empty());
  EXPECT_TRUE(r.stats.stopped);
  EXPECT_TRUE(r.stats.suboptimal_on_stop);
  EXPECT_GE(r.stats.rg_incumbents, 1u);
  // The incumbent's cost can exceed the admissible bound still open, never
  // undercut it — the reported optimality gap is cost - open_cost_lb >= 0.
  EXPECT_GT(r.stats.incumbent_cost, 0.0);
  EXPECT_LE(r.stats.open_cost_lb, r.stats.incumbent_cost + 1e-9);
  EXPECT_FALSE(r.failure.empty());

  const std::string json = response_to_json(r);
  EXPECT_NE(json.find("\"outcome\":\"degraded\""), std::string::npos);
  EXPECT_NE(json.find("\"ladder\":\"anytime_incumbent\""), std::string::npos);
  EXPECT_NE(json.find("\"suboptimal_on_stop\":true"), std::string::npos);
}

TEST(DegradeTest, ExhaustedPrimaryBudgetFallsBackToGreedy) {
  PlanningEngine engine({.workers = 1});

  // A fat WAN link makes the worst-case (greedy) plan feasible: the stream
  // is forwarded whole, no splitting needed.
  media::Params p;
  p.wan_bw = 200.0;

  PlanRequest req;
  req.id = "fallback";
  req.problem = loaded(media::tiny(p), 'C');
  req.deadline_ms = 10000.0;  // generous total budget...
  req.degrade.primary_fraction = 1e-9;  // ...but a hopeless primary slice
  req.progress_every = 1;

  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.failure;
  EXPECT_EQ(r.ladder, LadderStep::GreedyFallback);
  ASSERT_TRUE(r.plan.has_value());
  EXPECT_FALSE(r.plan_text.empty());
  EXPECT_GT(r.fallback_ms, 0.0);
  EXPECT_FALSE(r.failure.empty());

  const std::string json = response_to_json(r);
  EXPECT_NE(json.find("\"ladder\":\"greedy_fallback\""), std::string::npos);
  EXPECT_NE(json.find("\"fallback_ms\":"), std::string::npos);
}

TEST(DegradeTest, LadderDisabledRestoresStrictDeadlineBehavior) {
  PlanningEngine engine({.workers = 1});

  PlanRequest req;
  req.problem = loaded(media::small(), 'C');
  req.deadline_ms = 1e-6;  // expires before planning starts
  req.degrade.enabled = false;

  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  EXPECT_FALSE(r.plan.has_value());
  EXPECT_EQ(r.ladder, LadderStep::Primary);
}

TEST(DegradeTest, LadderPolicyDoesNotChangeUnstoppedPlans) {
  // Acceptance criterion: with no deadline pressure the ladder is inert —
  // plans are byte-identical whether the policy is on or off.
  PlanningEngine engine({.workers = 1});

  PlanRequest on;
  on.problem = loaded(media::tiny(), 'C');
  const PlanResponse with_ladder = engine.plan(std::move(on));
  ASSERT_EQ(with_ladder.outcome, Outcome::Solved);

  PlanRequest off;
  off.problem = loaded(media::tiny(), 'C');
  off.degrade.enabled = false;
  const PlanResponse without_ladder = engine.plan(std::move(off));
  ASSERT_EQ(without_ladder.outcome, Outcome::Solved);

  EXPECT_EQ(with_ladder.plan_text, without_ladder.plan_text);
  EXPECT_EQ(with_ladder.ladder, LadderStep::Primary);
  EXPECT_EQ(without_ladder.ladder, LadderStep::Primary);
}

TEST(DegradeTest, NoIncumbentExpiredBudgetWithoutFallbackIsDeadlineExceeded) {
  PlanningEngine engine({.workers = 1});

  PlanRequest req;
  req.problem = loaded(media::small(), 'C');
  req.deadline_ms = 1e-6;

  const PlanResponse r = engine.plan(std::move(req));
  EXPECT_EQ(r.outcome, Outcome::DeadlineExceeded);
  EXPECT_FALSE(r.plan.has_value());
  EXPECT_EQ(outcome_exit_code(r.outcome), 3);
}

TEST(DegradeTest, CpRequestCutWithoutIncumbentGetsNoGreedyRung) {
  // The same instance and cut in both modes: at the first progress tick the
  // deadline is moved into the past, before any incumbent exists.  Only the
  // Leveled request has a greedy rung to fall to.
  media::Params p;
  p.wan_bw = 200.0;
  const auto answer = [&](core::PlannerOptions::Mode mode) {
    PlanningEngine engine({.workers = 1});
    PlanRequest req;
    req.problem = loaded(media::tiny(p), 'C');
    req.mode = mode;
    req.deadline_ms = 10000.0;
    req.progress_every = 1;
    StopSource stop = req.stop;
    auto cut = std::make_shared<bool>(false);
    req.progress = [stop, cut](const core::PlannerStats&) mutable {
      if (*cut) return;
      *cut = true;
      stop.arm_deadline_at_ns(1);
    };
    return engine.plan(std::move(req));
  };

  const PlanResponse cp = answer(core::PlannerOptions::Mode::Cp);
  EXPECT_EQ(cp.outcome, Outcome::DeadlineExceeded) << cp.failure;
  EXPECT_EQ(cp.ladder, LadderStep::Primary);
  EXPECT_FALSE(cp.plan.has_value());
  EXPECT_EQ(cp.fallback_ms, 0.0);

  const PlanResponse leveled = answer(core::PlannerOptions::Mode::Leveled);
  EXPECT_EQ(leveled.outcome, Outcome::Degraded) << leveled.failure;
  EXPECT_EQ(leveled.ladder, LadderStep::GreedyFallback);
}

// ---- The runner over fake rungs ------------------------------------------

/// LimitNoPlan: the search ran out of its node budget, unstopped, with no
/// plan — no proof of anything.
enum class Answer { None, Plan, StoppedPlan, NoPlan, StoppedNoPlan, LimitNoPlan };
enum class Stop { Live, NoDeadline, Expired, Cancelled };

/// Canned planner answer of rung `tag`: its stats carry the tag in
/// rg_expansions and its failure text names it, so a row can tell which
/// rung's answer the response reports.
core::PlanResult canned(Answer a, std::uint64_t tag) {
  core::PlanResult r;
  r.stats.rg_expansions = tag;
  r.stats.stopped = a == Answer::StoppedPlan || a == Answer::StoppedNoPlan;
  r.stats.hit_search_limit = a == Answer::LimitNoPlan;
  r.stats.incumbent_cost = 5.0;
  r.stats.open_cost_lb = 4.0;
  r.failure = "rung " + std::to_string(tag);
  if (a == Answer::Plan || a == Answer::StoppedPlan) {
    r.plan.emplace();
    r.plan->cost_lb = 10.0 * static_cast<double>(tag);
  }
  return r;
}

/// The rung lists the engine builds, with fake solves.
enum class List { Plain, PlainSingle, Repair, RepairSingle };

struct Row {
  const char* name;
  List list;
  Stop stop;
  Answer first;
  Answer second;  // None: the row expects the second rung not to run
  bool cancel_in_second = false;
  Outcome outcome;
  LadderStep ladder;
  std::uint64_t stats_from;  // tag of the rung whose stats are reported
  const char* failure;
};

const Row kRows[] = {
    // Plain requests: the requested search, then the greedy retry.
    {"plain solved", List::Plain, Stop::Live, Answer::Plan, Answer::None, false,
     Outcome::Solved, LadderStep::Primary, 1, ""},
    {"plain anytime incumbent", List::Plain, Stop::Expired, Answer::StoppedPlan, Answer::None,
     false, Outcome::Degraded, LadderStep::AnytimeIncumbent, 1,
     "deadline_exceeded fired mid-search; returning best incumbent (cost 5.000, open lower "
     "bound 4.000)"},
    {"plain incumbent under cancel", List::Plain, Stop::Cancelled, Answer::StoppedPlan,
     Answer::None, false, Outcome::Degraded, LadderStep::AnytimeIncumbent, 1,
     "cancelled fired mid-search; returning best incumbent (cost 5.000, open lower bound "
     "4.000)"},
    {"plain proven infeasible", List::Plain, Stop::Live, Answer::NoPlan, Answer::None, false,
     Outcome::Infeasible, LadderStep::Primary, 1, "rung 1"},
    {"plain cancelled", List::Plain, Stop::Cancelled, Answer::StoppedNoPlan, Answer::None, false,
     Outcome::Cancelled, LadderStep::Primary, 1, "rung 1"},
    {"plain budget gone", List::Plain, Stop::Expired, Answer::StoppedNoPlan, Answer::None, false,
     Outcome::DeadlineExceeded, LadderStep::Primary, 1, "rung 1"},
    {"greedy plan", List::Plain, Stop::Live, Answer::StoppedNoPlan, Answer::Plan, false,
     Outcome::Degraded, LadderStep::GreedyFallback, 2, "second rung (cost lb 20.000)"},
    // A plan-less end names the last rung that ran.
    {"greedy infeasible", List::Plain, Stop::Live, Answer::StoppedNoPlan, Answer::NoPlan, false,
     Outcome::DeadlineExceeded, LadderStep::GreedyFallback, 1, "rung 1"},
    {"greedy stopped", List::Plain, Stop::Live, Answer::StoppedNoPlan, Answer::StoppedNoPlan,
     false, Outcome::DeadlineExceeded, LadderStep::GreedyFallback, 1, "rung 1"},
    {"greedy cancelled", List::Plain, Stop::Live, Answer::StoppedNoPlan, Answer::StoppedNoPlan,
     true, Outcome::Cancelled, LadderStep::GreedyFallback, 2, "rung 1"},
    // An exhausted search budget is no proof of infeasibility.
    {"plain search limit, greedy plan", List::Plain, Stop::Live, Answer::LimitNoPlan,
     Answer::Plan, false, Outcome::Degraded, LadderStep::GreedyFallback, 2,
     "second rung (cost lb 20.000)"},
    {"plain search limit, greedy infeasible", List::Plain, Stop::Live, Answer::LimitNoPlan,
     Answer::NoPlan, false, Outcome::DeadlineExceeded, LadderStep::GreedyFallback, 1,
     "rung 1"},
    // Cp mode, degrade off or no deadline: the requested search alone.
    {"cp cut without incumbent", List::PlainSingle, Stop::Expired, Answer::StoppedNoPlan,
     Answer::None, false, Outcome::DeadlineExceeded, LadderStep::Primary, 1, "rung 1"},
    {"single proven infeasible", List::PlainSingle, Stop::Live, Answer::NoPlan, Answer::None,
     false, Outcome::Infeasible, LadderStep::Primary, 1, "rung 1"},
    {"single search limit", List::PlainSingle, Stop::NoDeadline, Answer::LimitNoPlan,
     Answer::None, false, Outcome::DeadlineExceeded, LadderStep::Primary, 1, "rung 1"},
    // Repair requests: the repair search, then the full replan.
    {"repair solved", List::Repair, Stop::Live, Answer::Plan, Answer::None, false,
     Outcome::Solved, LadderStep::Primary, 1, ""},
    {"repair anytime incumbent", List::Repair, Stop::Expired, Answer::StoppedPlan, Answer::None,
     false, Outcome::Degraded, LadderStep::AnytimeIncumbent, 1,
     "deadline_exceeded fired mid-repair; returning best incumbent (cost 5.000, open lower "
     "bound 4.000)"},
    {"repair cancelled", List::Repair, Stop::Cancelled, Answer::StoppedNoPlan, Answer::None,
     false, Outcome::Cancelled, LadderStep::Primary, 1, "rung 1"},
    {"repair cut, replan plan", List::Repair, Stop::Live, Answer::StoppedNoPlan, Answer::Plan,
     false, Outcome::Degraded, LadderStep::FullReplan, 2, "second rung (cost lb 20.000)"},
    {"pinned infeasible, replan plan", List::Repair, Stop::Live, Answer::NoPlan, Answer::Plan,
     false, Outcome::Degraded, LadderStep::FullReplan, 2, "second rung (cost lb 20.000)"},
    {"pinned infeasible, no deadline", List::Repair, Stop::NoDeadline, Answer::NoPlan,
     Answer::Plan, false, Outcome::Degraded, LadderStep::FullReplan, 2,
     "second rung (cost lb 20.000)"},
    {"pinned and replan infeasible", List::Repair, Stop::Live, Answer::NoPlan, Answer::NoPlan,
     false, Outcome::Infeasible, LadderStep::FullReplan, 2, "rung 2"},
    // The unproven pinned infeasibility is no proof: a cut replan answers
    // deadline_exceeded, never infeasible.
    {"pinned infeasible, replan stopped", List::Repair, Stop::Live, Answer::NoPlan,
     Answer::StoppedNoPlan, false, Outcome::DeadlineExceeded, LadderStep::FullReplan, 1,
     "rung 1"},
    // Nor is a replan that exhausted its search budget, deadline or not.
    {"pinned infeasible, replan search limit", List::Repair, Stop::NoDeadline, Answer::NoPlan,
     Answer::LimitNoPlan, false, Outcome::DeadlineExceeded, LadderStep::FullReplan, 1,
     "rung 1"},
    {"repair search limit, replan infeasible", List::Repair, Stop::Live, Answer::LimitNoPlan,
     Answer::NoPlan, false, Outcome::Infeasible, LadderStep::FullReplan, 2, "rung 2"},
    {"pinned infeasible, budget gone", List::Repair, Stop::Expired, Answer::NoPlan,
     Answer::None, false, Outcome::DeadlineExceeded, LadderStep::Primary, 1, "rung 1"},
    {"replan cancelled", List::Repair, Stop::Live, Answer::StoppedNoPlan, Answer::StoppedNoPlan,
     true, Outcome::Cancelled, LadderStep::FullReplan, 2, "rung 1"},
    // Degrade off: the repair search alone keeps its verdict.
    {"repair alone infeasible", List::RepairSingle, Stop::Live, Answer::NoPlan, Answer::None,
     false, Outcome::Infeasible, LadderStep::Primary, 1, "rung 1"},
    {"repair alone cut", List::RepairSingle, Stop::Expired, Answer::StoppedNoPlan, Answer::None,
     false, Outcome::DeadlineExceeded, LadderStep::Primary, 1, "rung 1"},
    {"repair alone search limit", List::RepairSingle, Stop::Live, Answer::LimitNoPlan,
     Answer::None, false, Outcome::DeadlineExceeded, LadderStep::Primary, 1, "rung 1"},
};

TEST(DegradeTest, LadderRunnerTable) {
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.name);
    StopSource stop;
    switch (row.stop) {
      case Stop::Live: stop.arm_deadline_ms(3.6e6); break;
      case Stop::NoDeadline: break;
      case Stop::Expired: stop.arm_deadline_at_ns(1); break;
      case Stop::Cancelled:
        stop.arm_deadline_ms(3.6e6);
        stop.request_stop();
        break;
    }
    int ran = 0;
    const auto rung = [&](LadderStep step, Answer answer, bool cancel, bool proves,
                          const char* failure) {
      return Rung{step,
                  [&ran, &stop, answer, cancel] {
                    ++ran;
                    if (cancel) stop.request_stop();
                    return canned(answer, static_cast<std::uint64_t>(ran));
                  },
                  proves, failure};
    };
    const bool repair = row.list == List::Repair || row.list == List::RepairSingle;
    const bool single = row.list == List::PlainSingle || row.list == List::RepairSingle;
    std::vector<Rung> rungs;
    rungs.push_back(rung(LadderStep::Primary, row.first, false, !repair || single,
                         repair ? "mid-repair" : "mid-search"));
    if (!single) {
      rungs.push_back(rung(repair ? LadderStep::FullReplan : LadderStep::GreedyFallback,
                           row.second, row.cancel_in_second, repair, "second rung"));
    }

    PlanResponse r;
    run_ladder(rungs, stop, 0.6, r);
    EXPECT_EQ(ran, row.second == Answer::None ? 1 : 2);
    EXPECT_EQ(r.outcome, row.outcome);
    EXPECT_EQ(r.ladder, row.ladder);
    EXPECT_EQ(r.stats.rg_expansions, row.stats_from);
    EXPECT_EQ(r.failure, row.failure);
    EXPECT_EQ(r.plan.has_value(), r.ok());
    EXPECT_GE(r.solve_ms, r.fallback_ms);
    if (ran == 1) {
      EXPECT_EQ(r.fallback_ms, 0.0);
    }
  }
}

TEST(DegradeTest, LadderRunnerSplitsOneBudget) {
  StopSource stop;
  stop.arm_deadline_ms(3.6e6);
  const std::int64_t t_end = stop.deadline_epoch_ns();
  std::vector<std::int64_t> seen;
  const auto rung = [&](LadderStep step, Answer answer) {
    return Rung{step,
                [&seen, &stop, answer] {
                  seen.push_back(stop.deadline_epoch_ns());
                  return canned(answer, seen.size());
                },
                false, "rung"};
  };

  // Two rungs: the first gets primary_fraction of the budget, the second
  // is re-armed to the true deadline.
  const std::int64_t start = StopSource::now_epoch_ns();
  PlanResponse r;
  run_ladder({rung(LadderStep::Primary, Answer::StoppedNoPlan),
              rung(LadderStep::GreedyFallback, Answer::Plan)},
             stop, 0.25, r);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_GE(seen[0], start + (t_end - start) / 5);
  EXPECT_LE(seen[0], start + (t_end - start) / 3);
  EXPECT_EQ(seen[1], t_end);

  // One rung, or a fraction outside (0, 1): nothing is held in reserve.
  seen.clear();
  run_ladder({rung(LadderStep::Primary, Answer::Plan)}, stop, 0.25, r);
  run_ladder({rung(LadderStep::Primary, Answer::StoppedNoPlan),
              rung(LadderStep::GreedyFallback, Answer::Plan)},
             stop, 1.0, r);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{t_end, t_end, t_end}));
}

}  // namespace
}  // namespace sekitei::service
