// Tests for the search phases: PLRG admissibility and relevance, the
// proposition-set store, the SLRG set-cost oracle, and RG/A* optimality
// properties.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/planner.hpp"
#include "core/plrg.hpp"
#include "core/set_store.hpp"
#include "core/slrg.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "model/hmax.hpp"
#include "sim/executor.hpp"

namespace sekitei::core {
namespace {

using domains::media::scenario;

CostFn leveled_cost(const model::CompiledProblem& cp) {
  return [&cp](ActionId a) { return cp.actions[a.index()].cost_lb; };
}

TEST(Plrg, InitialPropsCostZero) {
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);
  for (PropId p : cp.init_props) {
    if (plrg.reachable(p)) {
      EXPECT_DOUBLE_EQ(plrg.cost(p), 0.0);
    }
  }
}

TEST(Plrg, GoalReachableWithFiniteCost) {
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);
  ASSERT_TRUE(plrg.reachable(cp.goal_prop));
  EXPECT_GT(plrg.cost(cp.goal_prop), 0.0);
}

TEST(Plrg, CostIsAdmissibleAgainstRealPlan) {
  // PLRG cost of the goal is "a lower bound on the actual cost of achieving
  // a proposition" (Section 3.2.1).
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);

  Sekitei planner(cp);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(r.ok());
  EXPECT_LE(plrg.cost(cp.goal_prop), r.plan->cost_lb + 1e-9);
}

TEST(Plrg, UnreachableGoalDetected) {
  // No component implements what a lonely goal needs: remove all streams.
  auto inst = domains::media::tiny();
  model::CppProblem prob = inst->problem;
  prob.initial_streams.clear();  // the server offers nothing
  auto cp = model::compile(prob, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);
  EXPECT_FALSE(plrg.reachable(cp.goal_prop));
}

TEST(Plrg, RelevantActionsAreSubsetOfAll) {
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);
  EXPECT_GT(plrg.action_nodes(), 0u);
  EXPECT_LE(plrg.action_nodes(), cp.actions.size());
  for (ActionId a : plrg.relevant_actions()) EXPECT_TRUE(plrg.relevant(a));
}

TEST(Hmax, GoalRelevantFixpointEqualsWholeGraphFixpoint) {
  // The PLRG and the CP bound both solve the fixpoint on the goal-relevant
  // subgraph only.  Every regression state lies in that subgraph, so this
  // equality is what makes the restriction lose nothing.
  for (const char size : {'T', 'S', 'L'}) {
    const auto inst = size == 'T'   ? domains::media::tiny()
                      : size == 'S' ? domains::media::small()
                                    : domains::media::large();
    for (const char sc : {'B', 'C', 'D', 'E'}) {
      SCOPED_TRACE((std::string{size, '/', sc}));
      const auto cp = model::compile(inst->problem, scenario(sc));
      std::vector<double> action_cost(cp.actions.size());
      for (std::size_t a = 0; a < action_cost.size(); ++a) {
        action_cost[a] = cp.actions[a].cost_lb;
      }
      std::vector<PropId> all_props;
      for (std::uint32_t p = 0; p < cp.props.size(); ++p) all_props.emplace_back(p);
      std::vector<ActionId> all_actions;
      for (std::uint32_t a = 0; a < cp.actions.size(); ++a) all_actions.emplace_back(a);

      const model::RelevantGraph rel = model::relevant_graph(cp, cp.goal_props);
      std::vector<double> restricted;
      std::vector<double> whole;
      model::hmax_fixpoint(cp, rel.props, rel.actions, action_cost, restricted);
      model::hmax_fixpoint(cp, all_props, all_actions, action_cost, whole);
      ASSERT_FALSE(rel.props.empty());
      for (PropId p : rel.props) {
        EXPECT_EQ(restricted[p.index()], whole[p.index()]) << cp.describe(p);
      }
    }
  }
}

std::vector<PropId> props(std::initializer_list<std::uint32_t> ids) {
  std::vector<PropId> out;
  for (const std::uint32_t i : ids) out.emplace_back(i);
  return out;
}

TEST(SetStore, EqualRunsShareOneId) {
  SetStore store;
  const SetId a = store.intern(props({1, 4, 9}));
  const SetId b = store.intern(props({1, 4, 10}));
  const SetId prefix = store.intern(props({1, 4}));
  EXPECT_EQ(store.intern(props({1, 4, 9})), a);
  EXPECT_NE(a, b);
  EXPECT_NE(a, prefix);
  EXPECT_NE(b, prefix);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(std::ranges::equal(store.get(a), props({1, 4, 9})));
  EXPECT_TRUE(std::ranges::equal(store.get(b), props({1, 4, 10})));
}

TEST(SetStore, EmptySetIsOneSet) {
  SetStore store;
  const SetId empty = store.intern(std::vector<PropId>{});
  EXPECT_EQ(store.intern(std::span<const PropId>{}), empty);
  EXPECT_TRUE(store.get(empty).empty());
  EXPECT_NE(store.intern(props({0})), empty);
  EXPECT_EQ(store.size(), 2u);
}

TEST(SetStore, SetLongerThanABlock) {
  SetStore store;
  std::vector<PropId> big;
  for (std::uint32_t i = 0; i < SetStore::kBlock + 7; ++i) big.emplace_back(i);
  const SetId before = store.intern(props({3}));
  const SetId id = store.intern(big);
  const SetId after = store.intern(props({5}));
  EXPECT_EQ(store.intern(big), id);
  EXPECT_TRUE(std::ranges::equal(store.get(id), big));
  EXPECT_TRUE(std::ranges::equal(store.get(before), props({3})));
  EXPECT_TRUE(std::ranges::equal(store.get(after), props({5})));
}

TEST(SetStore, SpansSurviveBlockBoundariesAndIndexGrowth) {
  // 3000 sets of 90-109 ids fill several 64Ki-id blocks and double the
  // 1024-slot index a few times; every span taken along the way must still
  // point at its set, and every set must still find its id.
  SetStore store;
  std::vector<std::vector<PropId>> sets;
  std::vector<std::span<const PropId>> spans;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    std::vector<PropId> s;
    for (std::uint32_t j = 0; j < 90 + i % 20; ++j) s.emplace_back(i + j * 3001);
    const SetId id = store.intern(s);
    ASSERT_EQ(id.index(), i);
    spans.push_back(store.get(id));
    sets.push_back(std::move(s));
  }
  for (std::uint32_t i = 0; i < sets.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(spans[i], sets[i])) << i;
    EXPECT_EQ(store.get(SetId(i)).data(), spans[i].data()) << i;
    EXPECT_EQ(store.intern(sets[i]).index(), i) << i;
  }
  EXPECT_EQ(store.size(), sets.size());
}

struct ConstantHash {
  std::uint64_t operator()(std::span<const PropId>) const noexcept { return 7; }
};

TEST(SetStore, CollidingHashesResolveByContents) {
  // Every set hashes alike, so lookups probe one long cluster (through two
  // index doublings) and must tell the sets apart by their contents.
  BasicSetStore<ConstantHash> store;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(store.intern(props({i, i + 1})).index(), i);
  }
  for (std::uint32_t i = 0; i < 2000; ++i) {
    EXPECT_EQ(store.intern(props({i, i + 1})).index(), i);
    EXPECT_TRUE(std::ranges::equal(store.get(SetId(i)), props({i, i + 1})));
  }
  EXPECT_EQ(store.intern(props({0})).index(), 2000u);
}

TEST(Slrg, GoalSetCostDominatesPlrg) {
  // "The estimate of the cost of a set of propositions by the SLRG is more
  //  accurate than that obtained directly from the PLRG."
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);
  Slrg slrg(cp, plrg, leveled_cost(cp));
  const std::vector<PropId> goal{cp.goal_prop};
  const double c = slrg.estimate(goal);
  EXPECT_GE(c, plrg.set_cost(goal) - 1e-9);
  EXPECT_LT(c, kInf);
}

TEST(Slrg, EstimateIsAdmissible) {
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);
  Slrg slrg(cp, plrg, leveled_cost(cp));
  const double c_logical = slrg.estimate({cp.goal_prop});

  Sekitei planner(cp);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(r.ok());
  EXPECT_LE(c_logical, r.plan->cost_lb + 1e-9);
}

TEST(Slrg, MemoizationIsConsistent) {
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);
  Slrg slrg(cp, plrg, leveled_cost(cp));
  const std::vector<PropId> goal{cp.goal_prop};
  const double first = slrg.estimate(goal);
  const std::size_t sets_after_first = slrg.set_count();
  const double second = slrg.estimate(goal);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(slrg.set_count(), sets_after_first) << "second query must be a pure lookup";
}

TEST(Slrg, SubsetOfInitCostsZero) {
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);
  Slrg slrg(cp, plrg, leveled_cost(cp));
  ASSERT_FALSE(cp.init_props.empty());
  EXPECT_DOUBLE_EQ(slrg.estimate({cp.init_props.front()}), 0.0);
}

TEST(Slrg, EstimateByVectorAndBySetIdAgree) {
  // The vector overload interns and forwards: two fresh oracles asked the
  // same sets, one by vector and one by id, answer and work alike.
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(std::span<const PropId>(cp.goal_props));
  Slrg by_vector(cp, plrg, leveled_cost(cp));
  Slrg by_id(cp, plrg, leveled_cost(cp));
  std::vector<std::vector<PropId>> queries{cp.goal_props};
  std::vector<PropId> regressed;
  for (PropId p : cp.goal_props) {
    for (ActionId a : cp.achievers_of(p)) {
      model::regress(cp, cp.goal_props, a, regressed);
      queries.push_back(regressed);
    }
  }
  for (const std::vector<PropId>& q : queries) {
    EXPECT_EQ(by_vector.estimate(q), by_id.estimate(by_id.sets().intern(q)));
  }
  EXPECT_EQ(by_vector.set_count(), by_id.set_count());
  EXPECT_EQ(by_vector.memo_hits(), by_id.memo_hits());
  EXPECT_EQ(by_vector.memo_misses(), by_id.memo_misses());
}

TEST(Rg, PlanCostEqualsSumOfStepCosts) {
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  Sekitei planner(cp);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(r.ok());
  double sum = 0;
  for (ActionId a : r.plan->steps) sum += cp.actions[a.index()].cost_lb;
  EXPECT_NEAR(sum, r.plan->cost_lb, 1e-9);
}

TEST(Rg, OptimalityAcrossScenarios) {
  // C, D and E must all find the same optimal cost (Table 2, column 2).
  auto inst = domains::media::small();
  double costs[3];
  int i = 0;
  for (char sc : {'C', 'D', 'E'}) {
    auto cp = model::compile(inst->problem, scenario(sc));
    Sekitei planner(cp);
    sim::Executor exec(cp);
    auto r = planner.plan([&](const Plan& p) { return exec.execute(p).feasible; });
    ASSERT_TRUE(r.ok()) << sc;
    costs[i++] = r.plan->cost_lb;
  }
  EXPECT_NEAR(costs[0], costs[1], 1e-9);
  EXPECT_NEAR(costs[0], costs[2], 1e-9);
}

TEST(Rg, NoPlanWhenDemandExceedsProduction) {
  domains::media::Params p;
  p.client_demand = 250.0;  // the server only produces 200
  auto inst = domains::media::small(p);
  auto cp = model::compile(inst->problem,
                           domains::media::scenario_with_cuts({250, 260}));
  Sekitei planner(cp);
  auto r = planner.plan();
  EXPECT_FALSE(r.ok());
  // Under scenario C the 200 units reach the top level [100, inf), so the
  // goal is logically reachable and only the resource replay refutes it.
  // An SLRG out of budget still answers admissibly, so the RG's exhausted
  // open list proves infeasibility; it is not a search limit.
  auto tiny = domains::media::tiny(p);
  const auto cp_c = model::compile(tiny->problem, scenario('C'));
  PlannerOptions starved;
  starved.max_slrg_sets = 1;
  const PlanResult s = Sekitei(cp_c, starved).plan();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(s.stats.hit_search_limit);
  EXPECT_EQ(s.failure, "no resource-feasible plan exists under the given levels");
}

TEST(Rg, SlrgBudgetOutIsNotASearchLimit) {
  // Large/C's SLRG queries run out of budget; the solve is still complete.
  auto inst = domains::media::large();
  auto cp = model::compile(inst->problem, scenario('C'));
  Sekitei planner(cp);
  sim::Executor exec(cp);
  const PlanResult r = planner.plan([&](const Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(r.ok()) << r.failure;
  EXPECT_FALSE(r.stats.hit_search_limit);
}

TEST(Rg, SearchLimitReportsGracefully) {
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  PlannerOptions opt;
  opt.max_rg_expansions = 1;  // absurdly small
  Sekitei planner(cp, opt);
  auto r = planner.plan();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.stats.hit_search_limit);
  EXPECT_NE(r.failure.find("limit"), std::string::npos);
}

TEST(Rg, StatsArePopulated) {
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  Sekitei planner(cp);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.stats.total_actions, cp.actions.size());
  EXPECT_GT(r.stats.plrg_props, 0u);
  EXPECT_GT(r.stats.plrg_actions, 0u);
  EXPECT_GT(r.stats.slrg_sets, 0u);
  EXPECT_GT(r.stats.rg_nodes, 0u);
  EXPECT_GE(r.stats.rg_nodes, r.stats.rg_open_left);
}

PlanResult plan_validated(const model::CompiledProblem& cp, const PlannerOptions& opt = {}) {
  Sekitei planner(cp, opt);
  sim::Executor exec(cp);
  return planner.plan([&](const Plan& p) { return exec.execute(p).feasible; });
}

TEST(Rg, SearchIsDeterministic) {
  // The open list is totally ordered, so the same problem gives the same
  // plan and the same work in every run; each planner runs its own Rg.
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  const PlanResult a = plan_validated(cp);
  const PlanResult b = plan_validated(cp);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.plan->str(cp), b.plan->str(cp));
  EXPECT_EQ(a.stats.rg_expansions, b.stats.rg_expansions);
  EXPECT_EQ(a.stats.rg_nodes, b.stats.rg_nodes);
  EXPECT_EQ(a.stats.replay_calls, b.stats.replay_calls);
  EXPECT_EQ(a.stats.slrg_sets, b.stats.slrg_sets);

}

TEST(Rg, SmallCExactCountsArePinned) {
  // How sets are stored must not change what the search does: these are
  // the counts of the vector-keyed memos that the SetStore replaced.
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  const PlanResult r = plan_validated(cp);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.stats.slrg_sets, 4441u);
  EXPECT_EQ(r.stats.rg_expansions, 2024u);
  EXPECT_EQ(r.stats.rg_nodes, 16641u);
  EXPECT_EQ(r.stats.replay_calls, 2071u);
}

TEST(Rg, ScenarioEBranchesLikeD) {
  // E splits each link crossing by bandwidth level; the RG branches once
  // per variant group and refines to actions only at the goal, so E costs
  // about what D costs (ungrouped, E made 479,387 nodes against D's 16,641).
  auto inst = domains::media::small();
  const auto cp_d = model::compile(inst->problem, scenario('D'));
  const auto cp_e = model::compile(inst->problem, scenario('E'));
  ASSERT_TRUE(cp_d.groups.empty());
  ASSERT_FALSE(cp_e.groups.empty());
  const PlanResult d = plan_validated(cp_d);
  const PlanResult e = plan_validated(cp_e);
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.stats.rg_expansions, 1708u);
  EXPECT_EQ(e.stats.rg_nodes, 14481u);
  EXPECT_LE(e.stats.rg_expansions, 2 * d.stats.rg_expansions);
  EXPECT_LE(e.stats.rg_nodes, 2 * d.stats.rg_nodes);
  EXPECT_NEAR(e.plan->cost_lb, d.plan->cost_lb, 1e-9);
  double sum = 0.0;
  for (ActionId a : e.plan->steps) {
    ASSERT_LT(a.index(), cp_e.actions.size());
    sum += cp_e.actions[a.index()].cost_lb;
  }
  EXPECT_NEAR(sum, e.plan->cost_lb, 1e-9);
}

TEST(Rg, GreedySmallEBranchesOnActions) {
  // Worst-case replay is not monotone in the intervals, so greedy mode
  // branches on actions, not on variant groups: the ungrouped counts.
  auto inst = domains::media::small();
  const auto cp = model::compile(inst->problem, scenario('E'));
  PlannerOptions opt;
  opt.mode = PlannerOptions::Mode::Greedy;
  opt.max_rg_expansions = 20000;
  const PlanResult r = plan_validated(cp, opt);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.stats.hit_search_limit);
  EXPECT_EQ(r.stats.rg_expansions, 20001u);
  EXPECT_EQ(r.stats.rg_nodes, 255078u);
  EXPECT_EQ(r.stats.replay_calls, 99103u);
  EXPECT_EQ(r.stats.slrg_sets, 37529u);
}

TEST(Rg, ReplayGatePrunesResourceInfeasibleTails) {
  // Tiny's 70-unit WAN link cannot carry the full stream, so the logically
  // cheapest tails fail the resource replay: the optimum (40.3) costs more
  // than the logical bound of the goal, and only the gate can tell.
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  Plrg plrg(cp, leveled_cost(cp));
  plrg.build(cp.goal_prop);
  Slrg slrg(cp, plrg, leveled_cost(cp));
  const double logical = slrg.estimate(cp.goal_props);

  const PlanResult r = plan_validated(cp);
  ASSERT_TRUE(r.ok()) << r.failure;
  EXPECT_NEAR(r.plan->cost_lb, 40.3, 1e-9);
  EXPECT_LT(logical, r.plan->cost_lb - 1e-9);
  EXPECT_GT(r.stats.rg_pruned_by_replay, 0u);
}

TEST(Rg, ReplayRunsOncePerExpansion) {
  // A tail is replayed when its node is popped, not when it is generated:
  // nodes left in the open list cost no replay.
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  const PlanResult r = plan_validated(cp);
  ASSERT_TRUE(r.ok());
  ASSERT_GT(r.stats.rg_expansions, 0u);
  EXPECT_LT(static_cast<double>(r.stats.replay_calls),
            1.1 * static_cast<double>(r.stats.rg_expansions));
  EXPECT_GT(r.stats.rg_nodes, r.stats.rg_expansions);
}

TEST(Rg, AnytimeTrackingKeepsThePlan) {
  // A far deadline arms incumbent tracking, which replays goal-satisfying
  // children when they are generated; the returned plan must not change.
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, scenario('C'));
  const PlanResult plain = plan_validated(cp);
  PlannerOptions opt;
  opt.stop = StopSource::with_deadline_ms(1e9).token();
  const PlanResult armed = plan_validated(cp, opt);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(armed.ok());
  EXPECT_EQ(plain.plan->str(cp), armed.plan->str(cp));
  EXPECT_EQ(plain.plan->cost_lb, armed.plan->cost_lb);
  EXPECT_GT(armed.stats.rg_incumbents, 0u);
  EXPECT_FALSE(armed.stats.suboptimal_on_stop);
  EXPECT_EQ(plain.stats.rg_expansions, armed.stats.rg_expansions);
}

TEST(Rg, GreedyModeUsesUniformCosts) {
  // In greedy mode the planner optimizes plan length; the Tiny plan has 7
  // actions but greedy cannot accept it (worst-case reservation) — on a
  // *relaxed* problem where greedy succeeds, its plan must be the shortest.
  domains::media::Params p;
  p.client_demand = 60.0;  // direct crossing (70 units) now suffices
  auto inst = domains::media::tiny(p);
  auto cp = model::compile(inst->problem, domains::media::scenario('A'));
  PlannerOptions opt;
  opt.mode = PlannerOptions::Mode::Greedy;
  Sekitei planner(cp, opt);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const Plan& pl) { return exec.execute(pl).feasible; });
  ASSERT_TRUE(r.ok()) << r.failure;
  EXPECT_EQ(r.plan->size(), 2u);  // cross M + place Client
}

}  // namespace
}  // namespace sekitei::core
