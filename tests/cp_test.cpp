// CP branch-and-bound backend (src/cp): the second optimizing backend must
// agree with the RG A* search on every example instance (same optimal cost,
// same infeasibility verdicts), its lex-leader symmetry breaking must prune
// branches without changing the answer, a mid-search deadline must surface
// partial stats with stats.stopped, mode=cp through the planning service
// must stay byte-identical across worker counts, and the cost-bounded passes
// must keep Table-2 branch counts pinned and every row inside the budget.
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/symmetry.hpp"
#include "core/planner.hpp"
#include "cp/search.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "model/textio.hpp"
#include "service/engine.hpp"
#include "sim/executor.hpp"
#include "support/stop_token.hpp"

#ifndef SEKITEI_TEST_DATA_DIR
#error "SEKITEI_TEST_DATA_DIR must point at examples/data (set by CMake)"
#endif

namespace sekitei {
namespace {

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

/// A compiled instance that keeps its LoadedProblem alive (the compiled
/// problem borrows the network/domain/problem it was built from).
struct Inst {
  std::shared_ptr<const model::LoadedProblem> lp;
  model::CompiledProblem cp;
};

Inst compile_text(const std::string& domain, const std::string& problem) {
  auto lp = model::load_problem(domain, problem);
  model::CompiledProblem cp = model::compile(lp->problem, lp->scenario);
  return {std::move(lp), std::move(cp)};
}

core::PlanResult run_mode(const model::CompiledProblem& cp,
                          core::PlannerOptions::Mode mode) {
  core::PlannerOptions opt;
  opt.mode = mode;
  core::Sekitei planner(cp, opt);
  sim::Executor exec(cp);
  return planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
}

/// CP on one Table-2 row, with the simulator as the acceptance check (as the
/// planner facade and bench_cp wire it).
cp::Result solve_table2(const domains::media::Instance& inst, char scenario) {
  const model::CompiledProblem cp_model =
      model::compile(inst.problem, domains::media::scenario(scenario));
  sim::Executor exec(cp_model);
  cp::Options opt;
  opt.validate = [&](std::span<const ActionId> steps, double) {
    core::Plan plan;
    plan.steps.assign(steps.begin(), steps.end());
    return exec.execute(plan).feasible;
  };
  return cp::solve(cp_model, opt);
}

/// Hub-and-spoke drop-off: s -LAN- m_i -WAN- cl for K link-for-link
/// identical middles (bench_symmetry's star family).  The WAN legs sit
/// below the raw T demand, so every route needs the Zip/Unzip detour.
std::string star_problem(int middles) {
  std::string text = "network {\n  node s { cpu 30; }\n";
  for (int i = 1; i <= middles; ++i) {
    text += "  node m" + std::to_string(i) + " { cpu 30; }\n";
  }
  text += "  node cl { cpu 30; }\n";
  for (int i = 1; i <= middles; ++i) {
    const std::string m = "m" + std::to_string(i);
    text += "  link s " + m + " lan { lbw 150; delay 1; }\n";
    text += "  link " + m + " cl wan { lbw 66; delay 10; }\n";
  }
  text +=
      "}\n"
      "problem {\n"
      "  stream M.ibw at s = [0, 200];\n"
      "  preplaced Server at s;\n"
      "  forbid Server;\n"
      "  restrict Client to cl;\n"
      "  goal Client at cl;\n"
      "}\n"
      "scenario {\n"
      "  levels M.ibw { 90, 100 }\n"
      "  levels T.ibw { 63, 70 }\n"
      "  levels I.ibw { 27, 30 }\n"
      "  levels Z.ibw { 31.5, 35 }\n"
      "}\n";
  return text;
}

/// Producer/consumer pair whose only route degrades M below the demand:
/// provably infeasible under every level choice.
constexpr const char* kTinyDomain = R"(
interface M {
  property ibw degradable;
  cross {
    M.ibw' := min(M.ibw, link.lbw);
    link.lbw -= min(M.ibw, link.lbw);
  }
  cost 1;
}
component Server {
  implements M;
  effects { M.ibw := 100; }
  cost 1;
}
component Client {
  requires M;
  conditions { M.ibw >= 50; }
  cost 1;
}
)";

constexpr const char* kInfeasibleProblem = R"(
network {
  node a { cpu 30; }
  node b { cpu 30; }
  link a b lan { lbw 10; delay 1; }
}
problem {
  preplaced Server at a;
  forbid Server;
  goal Client at b;
}
scenario {
  levels M.ibw { 50 }
}
)";

/// Two producers sharing one link into a consumer that needs both streams.
/// Each stream fits the link alone (30 <= 40), together they exceed it
/// (60 > 40): every action grounds, only exhaustive search proves
/// infeasibility.
constexpr const char* kContentionDomain = R"(
interface A {
  property ibw degradable;
  cross {
    A.ibw' := min(A.ibw, link.lbw);
    link.lbw -= min(A.ibw, link.lbw);
  }
  cost 1;
}
interface B {
  property ibw degradable;
  cross {
    B.ibw' := min(B.ibw, link.lbw);
    link.lbw -= min(B.ibw, link.lbw);
  }
  cost 1;
}
component SrcA {
  implements A;
  effects { A.ibw := 100; }
  cost 1;
}
component SrcB {
  implements B;
  effects { B.ibw := 100; }
  cost 1;
}
component Sink {
  requires A, B;
  conditions { A.ibw >= 30; B.ibw >= 30; }
  cost 1;
}
)";

constexpr const char* kContentionProblem = R"(
network {
  node a { cpu 30; }
  node b { cpu 30; }
  link a b lan { lbw 40; delay 1; }
}
problem {
  stream A.ibw at a = [0, 200];
  stream B.ibw at a = [0, 200];
  preplaced SrcA at a;
  preplaced SrcB at a;
  forbid SrcA;
  forbid SrcB;
  goal Sink at b;
}
scenario {
  levels A.ibw { 30 }
  levels B.ibw { 30 }
}
)";

TEST(CpBackend, MatchesRgCostOnEveryExampleInstance) {
  const std::string domain = slurp(data_file("media.sk"));
  for (const char* name : {"tiny.sk", "small.sk", "diamond.sk"}) {
    SCOPED_TRACE(name);
    const Inst inst = compile_text(domain, slurp(data_file(name)));
    const core::PlanResult rg = run_mode(inst.cp, core::PlannerOptions::Mode::Leveled);
    const core::PlanResult cp = run_mode(inst.cp, core::PlannerOptions::Mode::Cp);
    ASSERT_TRUE(rg.ok()) << rg.failure;
    ASSERT_TRUE(cp.ok()) << cp.failure;
    EXPECT_NEAR(cp.plan->cost_lb, rg.plan->cost_lb, 1e-9);
    // An exhaustive CP run proves its answer: never flagged suboptimal.
    EXPECT_FALSE(cp.stats.suboptimal_on_stop);
    EXPECT_FALSE(cp.stats.stopped);
    EXPECT_GT(cp.stats.rg_expansions, 0u);
  }
}

TEST(CpBackend, AgreesWithRgOnStaticInfeasibility) {
  // The only route degrades M below the demand, so the degrading cross never
  // grounds: both backends report the goal logically unreachable.
  const Inst inst = compile_text(kTinyDomain, kInfeasibleProblem);
  const core::PlanResult rg = run_mode(inst.cp, core::PlannerOptions::Mode::Leveled);
  const core::PlanResult cp = run_mode(inst.cp, core::PlannerOptions::Mode::Cp);
  EXPECT_FALSE(rg.ok());
  EXPECT_FALSE(cp.ok());
  EXPECT_FALSE(cp.stats.stopped);
  EXPECT_FALSE(cp.stats.hit_search_limit);
  EXPECT_NE(cp.failure.find("unreachable"), std::string::npos) << cp.failure;
}

TEST(CpBackend, AgreesWithRgOnSearchProvenInfeasibility) {
  const Inst inst = compile_text(kContentionDomain, kContentionProblem);

  const core::PlanResult rg = run_mode(inst.cp, core::PlannerOptions::Mode::Leveled);
  EXPECT_FALSE(rg.ok());

  const cp::Result bnb = cp::solve(inst.cp);
  EXPECT_FALSE(bnb.ok());
  // The CP run must *prove* infeasibility by exhausting the space, not
  // merely fail to find a plan.
  EXPECT_TRUE(bnb.stats.proven);
  EXPECT_FALSE(bnb.stats.logically_unreachable);
  EXPECT_FALSE(bnb.stats.stopped);
  EXPECT_NE(bnb.failure.find("no resource-feasible plan"), std::string::npos)
      << bnb.failure;
}

TEST(CpBackend, LexLeaderPruningCutsBranchesOnSymmetricStar) {
  const std::string domain = slurp(data_file("media.sk"));
  Inst inst = compile_text(domain, star_problem(3));
  analysis::attach_symmetry(inst.cp);
  ASSERT_GE(inst.cp.symmetric_class_count, 1u);

  sim::Executor exec(inst.cp);
  cp::Options base;
  base.validate = [&](std::span<const ActionId> steps, double) {
    core::Plan plan;
    plan.steps.assign(steps.begin(), steps.end());
    return exec.execute(plan).feasible;
  };

  cp::Options with = base;
  with.symmetry_breaking = true;
  const cp::Result pruned = cp::solve(inst.cp, with);

  cp::Options without = base;
  without.symmetry_breaking = false;
  const cp::Result unpruned = cp::solve(inst.cp, without);

  ASSERT_TRUE(pruned.ok()) << pruned.failure;
  ASSERT_TRUE(unpruned.ok()) << unpruned.failure;
  // Lex-leader ordering removes twin branches, never plans: strictly fewer
  // branches, identical optimal cost.
  EXPECT_NEAR(pruned.cost, unpruned.cost, 1e-9);
  EXPECT_LT(pruned.stats.branches, unpruned.stats.branches);
  EXPECT_GT(pruned.stats.pruned_symmetry, 0u);
  EXPECT_EQ(unpruned.stats.pruned_symmetry, 0u);
}

TEST(CpBackend, DeadlineMidSearchReturnsPartialStatsWithStopped) {
  const std::string domain = slurp(data_file("media.sk"));
  const Inst inst = compile_text(domain, slurp(data_file("small.sk")));

  StopSource stop;
  cp::Options opt;
  opt.stop = stop.token();
  opt.progress_every = 64;
  std::uint64_t ticks = 0;
  opt.progress = [&](const cp::Stats&) {
    if (++ticks >= 4) stop.request_stop();
  };
  const cp::Result r = cp::solve(inst.cp, opt);

  // small.sk needs ~14k visited nodes exhaustively; four 64-node ticks stop
  // the search far short of that, mid-pass.
  EXPECT_TRUE(r.stats.stopped);
  EXPECT_FALSE(r.stats.proven);
  EXPECT_GT(r.stats.branches, 0u);
  EXPECT_LT(r.stats.branches, 10000u);
  EXPECT_GT(r.stats.propagations, 0u);
  if (!r.ok()) {
    EXPECT_NE(r.failure.find("stopped"), std::string::npos) << r.failure;
  }
}

TEST(CpBackend, SmallCExactCountsArePinned) {
  // Each cost-bounded pass admits as many cut nodes as the previous pass
  // visited; raising the threshold to the cheapest cut f instead took 286
  // passes and 501306 branches here.
  const cp::Result r = solve_table2(*domains::media::small(), 'C');
  ASSERT_TRUE(r.ok()) << r.failure;
  EXPECT_TRUE(r.stats.proven);
  EXPECT_NEAR(r.cost, 63.85, 1e-9);
  EXPECT_EQ(r.stats.branches, 13766u);
  EXPECT_EQ(r.stats.passes, 13u);
}

TEST(CpBackend, SmallEAndLargeCDAreProvenWithinTheBudget) {
  // Raising the threshold to the cheapest cut f, these exhaust the
  // 2^21-branch budget without a plan.
  const auto small = domains::media::small();
  const auto large = domains::media::large();
  for (const auto& [inst, scenario] : {std::pair{small.get(), 'E'}, std::pair{large.get(), 'C'},
                                       std::pair{large.get(), 'D'}}) {
    SCOPED_TRACE(scenario);
    const cp::Result r = solve_table2(*inst, scenario);
    ASSERT_TRUE(r.ok()) << r.failure;
    EXPECT_TRUE(r.stats.proven);
    EXPECT_FALSE(r.stats.hit_node_limit);
    EXPECT_NEAR(r.cost, 63.85, 1e-9);  // the RG's optimum
  }
}

TEST(CpBackend, TinyBAndSmallBVisitNoExtraBranches) {
  // The larger threshold steps cost these rows nothing: raising the
  // threshold to the cheapest cut f visits 109 and 587 branches.
  const cp::Result tiny = solve_table2(*domains::media::tiny(), 'B');
  const cp::Result small = solve_table2(*domains::media::small(), 'B');
  ASSERT_TRUE(tiny.ok()) << tiny.failure;
  ASSERT_TRUE(small.ok()) << small.failure;
  EXPECT_LE(tiny.stats.branches, 109u);
  EXPECT_LE(small.stats.branches, 587u);
}

TEST(CpBackend, SmallBSimulatesEachRejectedAssignmentOnce) {
  // Every cost-bounded pass re-walks the earlier ones; a complete
  // assignment the simulator rejected is remembered, not simulated again,
  // and still counts as a rejection.  Simulating every visit took 64
  // validator calls here.
  const auto inst = domains::media::small();
  model::CompiledProblem cp_model = model::compile(inst->problem, domains::media::scenario('B'));
  analysis::attach_symmetry(cp_model);
  sim::Executor exec(cp_model);
  std::uint64_t calls = 0;
  cp::Options opt;
  opt.validate = [&](std::span<const ActionId> steps, double) {
    ++calls;
    core::Plan plan;
    plan.steps.assign(steps.begin(), steps.end());
    return exec.execute(plan).feasible;
  };
  const cp::Result r = cp::solve(cp_model, opt);
  ASSERT_TRUE(r.ok()) << r.failure;
  EXPECT_NEAR(r.cost, 10.0, 1e-9);
  EXPECT_EQ(r.stats.branches, 587u);
  EXPECT_EQ(r.stats.propagations, 709u);
  EXPECT_EQ(r.stats.sim_rejections, 63u);
  EXPECT_EQ(calls, 50u);  // 49 distinct rejected assignments + the accepted one
}

TEST(CpBackend, StoppedStatsSurfaceThroughThePlannerFacade) {
  const std::string domain = slurp(data_file("media.sk"));
  const Inst inst = compile_text(domain, slurp(data_file("small.sk")));

  StopSource stop;
  core::PlannerOptions opt;
  opt.mode = core::PlannerOptions::Mode::Cp;
  opt.stop = stop.token();
  opt.progress_every = 64;
  std::uint64_t ticks = 0;
  opt.progress = [&](const core::PlannerStats&) {
    if (++ticks >= 4) stop.request_stop();
  };
  core::Sekitei planner(inst.cp, opt);
  const core::PlanResult r = planner.plan();

  EXPECT_TRUE(r.stats.stopped);
  EXPECT_GT(r.stats.rg_expansions, 0u);
  if (r.ok()) {
    EXPECT_TRUE(r.stats.suboptimal_on_stop);
  }
}

TEST(CpBackend, ServiceModeCpIsByteIdenticalAcrossWorkerCounts) {
  const std::shared_ptr<const model::LoadedProblem> shared =
      model::load_problem(slurp(data_file("media.sk")), slurp(data_file("tiny.sk")));
  auto make_request = [&](const char* id) {
    service::PlanRequest req;
    req.id = id;
    req.problem = shared;
    req.mode = core::PlannerOptions::Mode::Cp;
    return req;
  };

  service::PlanResponse first;
  {
    service::PlanningEngine one({.workers = 1});
    first = one.plan(make_request("cp-jobs1"));
  }
  ASSERT_EQ(first.outcome, service::Outcome::Solved);

  constexpr std::size_t kJobs = 4;
  service::PlanningEngine many({.workers = kJobs});
  std::vector<service::PlanningEngine::Ticket> tickets;
  tickets.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    tickets.push_back(many.submit(make_request("cp-jobsN")));
  }
  for (auto& t : tickets) {
    const service::PlanResponse r = t.response.get();
    EXPECT_EQ(r.outcome, first.outcome);
    EXPECT_EQ(r.plan_text, first.plan_text);
    ASSERT_TRUE(r.plan.has_value());
    EXPECT_EQ(r.plan->cost_lb, first.plan->cost_lb);
  }
}

}  // namespace
}  // namespace sekitei
