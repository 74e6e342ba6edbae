// Unit tests for the concrete executor (sim/executor): greedy-within-level
// choice resolution, bisection, level containment, degradable clamping,
// resource accounting, and a golden file of every report the simulator
// hands the planners' validator.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "analysis/symmetry.hpp"
#include "core/planner.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "sim/executor.hpp"

#ifndef SEKITEI_TEST_SIM_GOLDEN
#error "SEKITEI_TEST_SIM_GOLDEN must name tests/sim_reports.golden (set by CMake)"
#endif

namespace sekitei::sim {
namespace {

using domains::media::scenario;

struct Solved {
  std::unique_ptr<domains::media::Instance> inst;
  model::CompiledProblem cp;
  core::Plan plan;
};

Solved solve_tiny(char sc) {
  Solved s;
  s.inst = domains::media::tiny();
  s.cp = model::compile(s.inst->problem, scenario(sc));
  core::Sekitei planner(s.cp);
  Executor exec(s.cp);
  auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  EXPECT_TRUE(r.ok()) << r.failure;
  if (r.ok()) s.plan = *r.plan;
  return s;
}

TEST(Executor, ChoiceCountMatchesProblem) {
  Solved s = solve_tiny('C');
  Executor exec(s.cp);
  EXPECT_EQ(exec.choice_count(), 1u);  // the server's [0,200] production
}

TEST(Executor, AttemptRespectsChoiceBounds) {
  Solved s = solve_tiny('C');
  Executor exec(s.cp);
  const double too_much[] = {250.0};
  auto rep = exec.attempt(s.plan, too_much);
  EXPECT_FALSE(rep.feasible);
  EXPECT_NE(rep.failure.find("choice"), std::string::npos);
}

TEST(Executor, AttemptBelowLevelFloorFails) {
  // The plan's Splitter runs at level [90,100); producing only 50 units
  // violates the level containment check.
  Solved s = solve_tiny('C');
  Executor exec(s.cp);
  const double x[] = {50.0};
  EXPECT_FALSE(exec.attempt(s.plan, x).feasible);
}

TEST(Executor, AttemptAtLevelMaxSucceeds) {
  Solved s = solve_tiny('C');
  Executor exec(s.cp);
  const double x[] = {99.0};
  auto rep = exec.attempt(s.plan, x);
  ASSERT_TRUE(rep.feasible) << rep.failure;
  // 99 units: Z + I = 0.35*99 + 0.3*99 = 64.35 over the WAN.
  EXPECT_NEAR(rep.max_reserved(net::LinkClass::Wan), 64.35, 1e-6);
}

TEST(Executor, ExecuteMaximizesWithinLevel) {
  Solved s = solve_tiny('C');
  Executor exec(s.cp);
  auto rep = exec.execute(s.plan);
  ASSERT_TRUE(rep.feasible);
  // Greedy-within-level: reservation at the level's supremum (100 units up
  // to the level epsilon), possibly satisfied by degrading a larger choice.
  EXPECT_NEAR(rep.max_reserved(net::LinkClass::Wan), 65.0, 1e-3);
}

TEST(Executor, NodeAccountingMatchesProfile) {
  Solved s = solve_tiny('C');
  Executor exec(s.cp);
  auto rep = exec.execute(s.plan);
  ASSERT_TRUE(rep.feasible);
  // Splitter (M/5 = 20) + Zip (T/10 = 7) on the server; Unzip (Z/5 = 7) +
  // Merger (M/5 = 20) on the client: 27 CPU each at M = 100.
  ASSERT_EQ(rep.node_use.size(), 2u);
  for (const NodeUse& nu : rep.node_use) EXPECT_NEAR(nu.used, 27.0, 1e-3);
}

TEST(Executor, ActualCostIsConsistentAndAboveLowerBound) {
  Solved s = solve_tiny('C');
  Executor exec(s.cp);
  auto rep = exec.execute(s.plan);
  ASSERT_TRUE(rep.feasible);
  EXPECT_GE(rep.actual_cost, s.plan.cost_lb - 1e-9);
  // At M = 100: Sp 11 + Zip 8 + crossZ 4.5 + crossI 4 + Unzip 4.5 + Mr 11
  // + Client 1 = 44.
  EXPECT_NEAR(rep.actual_cost, 44.0, 1e-2);
}

TEST(Executor, RejectsOutOfOrderPlan) {
  // Reversing the plan consumes streams before they are produced.
  Solved s = solve_tiny('C');
  core::Plan reversed = s.plan;
  std::reverse(reversed.steps.begin(), reversed.steps.end());
  Executor exec(s.cp);
  auto rep = exec.execute(reversed);
  EXPECT_FALSE(rep.feasible);
  EXPECT_NE(rep.failure.find("never produced"), std::string::npos);
}

TEST(Executor, RejectsTruncatedPlan) {
  Solved s = solve_tiny('C');
  core::Plan cut = s.plan;
  cut.steps.pop_back();          // drop the client
  cut.steps.erase(cut.steps.begin());  // and the splitter
  Executor exec(s.cp);
  EXPECT_FALSE(exec.execute(cut).feasible);
}

TEST(Executor, FinalVarsExposeDeliveredStream) {
  Solved s = solve_tiny('C');
  Executor exec(s.cp);
  auto rep = exec.execute(s.plan);
  ASSERT_TRUE(rep.feasible);
  bool found = false;
  for (const auto& [var, val] : rep.final_vars) {
    const model::VarKey& k = s.cp.vars.key(var);
    if (k.kind == model::VarKind::IfaceProp && s.cp.iface_names[k.a] == "M" &&
        NodeId(k.b) == s.inst->client) {
      EXPECT_NEAR(val, 100.0, 1e-3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
  EXPECT_FALSE(std::isnan(rep.final_value(rep.final_vars.front().first)));
}

TEST(Executor, ScenarioBReservesHundredOnLans) {
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('B'));
  core::Sekitei planner(cp);
  Executor exec(cp);
  auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(r.ok());
  auto rep = exec.execute(*r.plan);
  ASSERT_TRUE(rep.feasible);
  // Every LAN link on the forwarding path carries the full reservation.
  int lan_links_used = 0;
  for (const LinkUse& lu : rep.link_use) {
    if (lu.cls == net::LinkClass::Lan) {
      ++lan_links_used;
      EXPECT_NEAR(lu.used, 100.0, 1e-3);
    }
  }
  EXPECT_EQ(lan_links_used, 3);
  EXPECT_NEAR(rep.total_reserved(net::LinkClass::Lan), 300.0, 1e-2);
}

std::string g17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One golden line: the plan's steps and every field of its report.
std::string report_line(const core::Plan& plan, const ExecutionReport& rep) {
  std::string line = "steps";
  for (ActionId a : plan.steps) line += ' ' + std::to_string(a.index());
  line += " | feasible " + std::to_string(rep.feasible ? 1 : 0);
  line += " | failure " + rep.failure;
  line += " | choices";
  for (double c : rep.choices) line += ' ' + g17(c);
  line += " | cost " + g17(rep.actual_cost);
  line += " | links";
  for (const LinkUse& u : rep.link_use) {
    line += ' ' + std::to_string(u.link.index()) + ':' + net::link_class_name(u.cls) + '=' +
            g17(u.used);
  }
  line += " | nodes";
  for (const NodeUse& u : rep.node_use) {
    line += ' ' + std::to_string(u.node.index()) + '=' + g17(u.used);
  }
  line += " | vars";
  for (const auto& [var, val] : rep.final_vars) {
    line += ' ' + std::to_string(var.index()) + '=' + g17(val);
  }
  return line + '\n';
}

/// Every report the simulator hands the validator while the planner solves
/// Tiny/B and Small/B in both modes and Large/B leveled, compiled with the
/// symmetry partition attached as the engine does.  A candidate validated
/// twice is listed at its first call only.
std::string validator_reports() {
  using Mode = core::PlannerOptions::Mode;
  const auto tiny = domains::media::tiny();
  const auto small = domains::media::small();
  const auto large = domains::media::large();
  struct Case {
    const char* name;
    const domains::media::Instance* inst;
    Mode mode;
  };
  const Case cases[] = {{"tiny/B leveled", tiny.get(), Mode::Leveled},
                        {"tiny/B cp", tiny.get(), Mode::Cp},
                        {"small/B leveled", small.get(), Mode::Leveled},
                        {"small/B cp", small.get(), Mode::Cp},
                        {"large/B leveled", large.get(), Mode::Leveled}};
  std::string out;
  for (const Case& c : cases) {
    model::CompiledProblem cp = model::compile(c.inst->problem, scenario('B'));
    analysis::attach_symmetry(cp);
    core::PlannerOptions opt;
    opt.mode = c.mode;
    core::Sekitei planner(cp, opt);
    Executor exec(cp);
    std::set<std::vector<ActionId>> seen;
    out += std::string("# ") + c.name + '\n';
    const core::PlanResult r = planner.plan([&](const core::Plan& p) {
      const ExecutionReport rep = exec.execute(p);
      if (seen.insert(p.steps).second) out += report_line(p, rep);
      return rep.feasible;
    });
    out += "# plan " + (r.ok() ? g17(r.plan->cost_lb) : r.failure) + '\n';
  }
  return out;
}

TEST(Executor, ValidatorReportsMatchTheGoldenFile) {
  std::ifstream in(SEKITEI_TEST_SIM_GOLDEN);
  ASSERT_TRUE(in) << "cannot open " << SEKITEI_TEST_SIM_GOLDEN;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(validator_reports(), golden.str());
}

}  // namespace
}  // namespace sekitei::sim
