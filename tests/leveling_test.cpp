// Tests for the CPP compiler (model/compile): grounding, leveling, static
// pruning (Fig. 7), optimistic maps, cost bounds, initial state and the
// degradable achiever closure.
#include <gtest/gtest.h>

#include "domains/media.hpp"
#include "model/compile.hpp"
#include "support/error.hpp"

namespace sekitei::model {
namespace {

using domains::media::scenario;

struct Counts {
  int place = 0;
  int cross = 0;
};

Counts count_kind(const CompiledProblem& cp, const std::string& name) {
  Counts c;
  for (const GroundAction& a : cp.actions) {
    if (a.kind == ActionKind::Place) {
      if (cp.domain->component_at(a.spec_index).name == name) ++c.place;
    } else {
      if (cp.iface_names[a.spec_index] == name) ++c.cross;
    }
  }
  return c;
}

TEST(Leveling, ScenarioAHasTrivialLevels) {
  auto inst = domains::media::tiny();
  auto cp = compile(inst->problem, scenario('A'));
  for (const auto& info : cp.iface_levels) EXPECT_EQ(info.levels.count(), 1u);
  // One action per (component, node) / (iface, direction): no level blowup.
  EXPECT_EQ(count_kind(cp, "Splitter").place, 2);
  EXPECT_EQ(count_kind(cp, "M").cross, 2);  // both directions of one link
}

TEST(Leveling, ActionCountGrowsWithLevels) {
  auto inst = domains::media::tiny();
  const std::size_t a = compile(inst->problem, scenario('A')).actions.size();
  const std::size_t b = compile(inst->problem, scenario('B')).actions.size();
  const std::size_t c = compile(inst->problem, scenario('C')).actions.size();
  const std::size_t d = compile(inst->problem, scenario('D')).actions.size();
  const std::size_t e = compile(inst->problem, scenario('E')).actions.size();
  // Table 2, column 5: 32 < 46 < 76 < 174 in the paper; exact counts differ
  // but the strict growth must hold.
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  EXPECT_LT(d, e);
}

TEST(Leveling, Fig7PruningOfHighLevelsOverThinLink) {
  // "Actions for crossing the link with the M stream with levels above 1 are
  // pruned during the leveling because of limited link bandwidth."
  auto inst = domains::media::tiny();  // single 70-unit WAN link
  auto cp = compile(inst->problem, scenario('D'));  // M cuts {30,70,90,100}
  for (const GroundAction& a : cp.actions) {
    if (a.kind != ActionKind::Cross || cp.iface_names[a.spec_index] != "M") continue;
    // Output levels 2..4 start at 70/90/100 — impossible over a 70 link.
    EXPECT_LE(a.out_levels[0], 1u) << cp.describe(ActionId(
        static_cast<std::uint32_t>(&a - cp.actions.data())));
  }
  EXPECT_GT(cp.combos_considered - cp.actions.size(), 0u);
}

TEST(Leveling, MergerRatioPrunesMismatchedLevelPairs) {
  // T*3 == I*7 restricts input-level combinations to proportional pairs
  // ("additional (in)equalities ... limit possible combinations").
  auto inst = domains::media::tiny();
  auto cp = compile(inst->problem, scenario('D'));
  int merger_actions = 0;
  for (const GroundAction& a : cp.actions) {
    if (a.kind == ActionKind::Place &&
        cp.domain->component_at(a.spec_index).name == "Merger") {
      ++merger_actions;
      // Proportional T/I level sets make compatible pairs share the index
      // except at interval boundaries.
      EXPECT_LE(static_cast<int>(a.in_levels[0]) - static_cast<int>(a.in_levels[1]), 1);
      EXPECT_LE(static_cast<int>(a.in_levels[1]) - static_cast<int>(a.in_levels[0]), 1);
    }
  }
  // Without the equality there would be 5*5*5 = 125 combos per node.
  EXPECT_GT(merger_actions, 0);
  EXPECT_LT(merger_actions, 50);
}

TEST(Leveling, PlacementRulesRespected) {
  auto inst = domains::media::small();
  auto cp = compile(inst->problem, scenario('C'));
  EXPECT_EQ(count_kind(cp, "Server").place, 0) << "Server is never re-placed";
  for (const GroundAction& a : cp.actions) {
    if (a.kind == ActionKind::Place &&
        cp.domain->component_at(a.spec_index).name == "Client") {
      EXPECT_EQ(a.node, inst->client);
    }
  }
}

TEST(Leveling, CostBoundsReflectLevelFloors) {
  auto inst = domains::media::tiny();
  auto cp = compile(inst->problem, scenario('C'));
  for (const GroundAction& a : cp.actions) {
    EXPECT_GT(a.cost_lb, 0.0);
    EXPECT_GE(a.cost_ub, a.cost_lb);
    if (a.kind == ActionKind::Place &&
        cp.domain->component_at(a.spec_index).name == "Splitter" && a.in_levels[0] == 1) {
      // Splitter at M level [90,100): cost = 1 + 90/10 = 10 at the floor.
      EXPECT_NEAR(a.cost_lb, 10.0, 1e-6);
      EXPECT_NEAR(a.cost_ub, 11.0, 1e-3);
    }
  }
}

TEST(Leveling, ScenarioEAddsLinkLevelParameters) {
  auto inst = domains::media::tiny();
  auto cpD = compile(inst->problem, scenario('D'));
  auto cpE = compile(inst->problem, scenario('E'));
  // E instantiates cross actions per link-bandwidth level as well.
  EXPECT_GT(cpE.combos_considered, cpD.combos_considered);
  EXPECT_GT(count_kind(cpE, "M").cross, count_kind(cpD, "M").cross);
}

TEST(InitialState, ServerStreamAvailableAtEveryReachableLevel) {
  auto inst = domains::media::tiny();
  auto cp = compile(inst->problem, scenario('D'));
  std::uint32_t m_index = UINT32_MAX;
  for (std::uint32_t i = 0; i < cp.iface_names.size(); ++i) {
    if (cp.iface_names[i] == "M") m_index = i;
  }
  ASSERT_NE(m_index, UINT32_MAX);
  // [0,200] production choice covers all five levels.
  int avail_levels = 0;
  for (PropId p : cp.init_props) {
    const PropKey& k = cp.props.key(p);
    if (k.kind == PropKind::Avail && k.entity == m_index && NodeId(k.node) == inst->server) {
      ++avail_levels;
    }
  }
  EXPECT_EQ(avail_levels, 5);
}

TEST(InitialState, CapacitiesEnterMapAsPoints) {
  auto inst = domains::media::tiny();
  auto cp = compile(inst->problem, scenario('C'));
  int points = 0, choices = 0;
  for (const InitMapEntry& e : cp.init_map) {
    if (e.value.is_point()) {
      ++points;
    } else {
      ++choices;
    }
  }
  EXPECT_EQ(choices, 1);  // only the server's [0,200] production
  EXPECT_GE(points, 3);   // 2x cpu + lbw + delay + stream defaults
}

TEST(InitialState, GoalIsClientPlacement) {
  auto inst = domains::media::tiny();
  auto cp = compile(inst->problem, scenario('C'));
  const PropKey& k = cp.props.key(cp.goal_prop);
  EXPECT_EQ(k.kind, PropKind::Placed);
  EXPECT_EQ(cp.domain->component_at(k.entity).name, "Client");
  EXPECT_EQ(NodeId(k.node), inst->client);
}

TEST(Achievers, DegradableClosureSupportsLowerLevels) {
  auto inst = domains::media::tiny();
  auto cp = compile(inst->problem, scenario('D'));
  // Find a Merger action producing M at some level k > 0; it must be
  // registered as an achiever of every avail(M, node, j<k).
  for (std::uint32_t ai = 0; ai < cp.actions.size(); ++ai) {
    const GroundAction& a = cp.actions[ai];
    if (a.kind != ActionKind::Place ||
        cp.domain->component_at(a.spec_index).name != "Merger" || a.out_levels[0] == 0) {
      continue;
    }
    std::uint32_t m_index = 0;
    for (std::uint32_t i = 0; i < cp.iface_names.size(); ++i) {
      if (cp.iface_names[i] == "M") m_index = i;
    }
    for (std::uint32_t j = 0; j < a.out_levels[0]; ++j) {
      const PropId p = cp.props.find_avail(InterfaceId(m_index), a.node, j);
      ASSERT_TRUE(p.valid());
      const auto& ach = cp.achievers_of(p);
      EXPECT_TRUE(std::binary_search(ach.begin(), ach.end(), ActionId(ai)))
          << "level " << j << " not supported by producer at level " << a.out_levels[0];
    }
    return;  // one producer suffices
  }
  FAIL() << "no leveled Merger producer found";
}

TEST(Compile, DescribeRendersHumanReadably) {
  auto inst = domains::media::tiny();
  auto cp = compile(inst->problem, scenario('C'));
  bool saw_place = false, saw_cross = false;
  for (std::uint32_t ai = 0; ai < cp.actions.size(); ++ai) {
    const std::string s = cp.describe(ActionId(ai));
    if (s.rfind("place ", 0) == 0) saw_place = true;
    if (s.rfind("cross ", 0) == 0) saw_cross = true;
  }
  EXPECT_TRUE(saw_place);
  EXPECT_TRUE(saw_cross);
  EXPECT_NE(cp.describe(cp.goal_prop).find("placed(Client"), std::string::npos);
}

TEST(Compile, RejectsTwoLeveledPropertiesOnOneInterface) {
  auto dom = spec::parse_domain(R"(
    interface X { property a; property b; }
    component C { requires X; }
  )");
  net::Network net;
  NodeId n = net.add_node("n", {{"cpu", 10}});
  CppProblem prob;
  prob.network = &net;
  prob.domain = &dom;
  prob.goal_component = "C";
  prob.goal_node = n;
  spec::LevelScenario sc;
  sc.iface_levels[{"X", "a"}] = spec::LevelSet({1});
  sc.iface_levels[{"X", "b"}] = spec::LevelSet({1});
  EXPECT_THROW(compile(prob, sc), Error);
}

TEST(Compile, UnknownGoalComponentRaises) {
  auto inst = domains::media::tiny();
  CppProblem prob = inst->problem;
  prob.goal_component = "Nope";
  EXPECT_THROW(compile(prob, scenario('C')), Error);
}

}  // namespace
}  // namespace sekitei::model
