// Unit tests for the optimistic-map replay engine (model/replay) — the Fig. 8
// machinery: interval merging, degradable/upgradable shifts, condition
// narrowing, effect execution and the greedy worst-case mode.
#include <gtest/gtest.h>

#include "domains/media.hpp"
#include "model/compile.hpp"
#include "model/replay.hpp"
#include "model/textio.hpp"
#include "support/rng.hpp"
#include "testing/workload.hpp"

namespace sekitei::model {
namespace {

using domains::media::scenario;

/// Finds one action by predicate; fails the test if absent.
template <class Pred>
ActionId find_action(const model::CompiledProblem& cp, Pred pred) {
  for (std::uint32_t i = 0; i < cp.actions.size(); ++i) {
    if (pred(cp.actions[i])) return ActionId(i);
  }
  ADD_FAILURE() << "required action not found";
  return ActionId{};
}

ActionId place_of(const model::CompiledProblem& cp, const std::string& comp, NodeId node,
                  std::uint32_t in_level) {
  return find_action(cp, [&](const model::GroundAction& a) {
    if (a.kind != model::ActionKind::Place ||
        cp.domain->component_at(a.spec_index).name != comp || !(a.node == node)) {
      return false;
    }
    for (std::uint32_t l : a.in_levels) {
      if (l != in_level) return false;
    }
    for (std::uint32_t l : a.out_levels) {
      if (l != in_level) return false;
    }
    return true;
  });
}

ActionId cross_of(const model::CompiledProblem& cp, const std::string& iface, NodeId from,
                  std::uint32_t in_level, std::uint32_t out_level = UINT32_MAX) {
  return find_action(cp, [&](const model::GroundAction& a) {
    return a.kind == model::ActionKind::Cross && cp.iface_names[a.spec_index] == iface &&
           a.node == from && a.in_levels[0] == in_level &&
           (out_level == UINT32_MAX || a.out_levels[0] == out_level);
  });
}

TEST(Replay, EmptyTailFromInitSucceeds) {
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  Replayer r(cp);
  EXPECT_TRUE(r.replay({}, true, ReplayMode::Optimistic));
}

TEST(Replay, DirectCrossThenClientFailsOnDemand) {
  // cross M over the 70-unit link, then require >= 90 at the client: the
  // narrowing of the client's condition empties the interval.
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('B'));
  const ActionId cross = cross_of(cp, "M", inst->server, 0);
  const ActionId client = place_of(cp, "Client", inst->client, 0);
  Replayer r(cp);
  const ActionId tail[] = {cross, client};
  EXPECT_FALSE(r.replay(tail, true, ReplayMode::Optimistic));
  EXPECT_FALSE(r.failure().empty());
}

TEST(Replay, SplitterChainSucceedsWithinLevels) {
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  const ActionId sp = place_of(cp, "Splitter", inst->server, 1);
  const ActionId zip = place_of(cp, "Zip", inst->server, 1);
  const ActionId cz = cross_of(cp, "Z", inst->server, 1, 1);
  const ActionId ci = cross_of(cp, "I", inst->server, 1, 1);
  const ActionId uz = place_of(cp, "Unzip", inst->client, 1);
  const ActionId mr = place_of(cp, "Merger", inst->client, 1);
  const ActionId cl = place_of(cp, "Client", inst->client, 1);
  Replayer r(cp);
  const ActionId tail[] = {sp, zip, cz, ci, uz, mr, cl};
  EXPECT_TRUE(r.replay(tail, true, ReplayMode::Optimistic)) << r.failure();
}

TEST(Replay, PartialTailUsesOptimisticFirstMention) {
  // A tail that starts mid-plan (client only): the M stream at the client is
  // unknown, so its optimistic interval applies and the tail is accepted.
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  const ActionId cl = place_of(cp, "Client", inst->client, 1);
  Replayer r(cp);
  const ActionId tail[] = {cl};
  EXPECT_TRUE(r.replay(tail, false, ReplayMode::Optimistic));
}

TEST(Replay, WorstCaseCollapsesUnknownsToMaximum) {
  // Greedy mode: the Splitter's unknown input collapses to +inf upstream, so
  // its CPU condition certainly fails (the essence of Scenario 1).
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('A'));
  const ActionId sp = place_of(cp, "Splitter", inst->server, 0);
  Replayer r(cp);
  const ActionId tail[] = {sp};
  EXPECT_FALSE(r.replay(tail, false, ReplayMode::WorstCase));
  EXPECT_TRUE(r.replay(tail, false, ReplayMode::Optimistic))
      << "the leveled planner keeps the branch alive: the splitter COULD "
         "process little";
}

TEST(Replay, WorstCaseFromInitUsesFullProduction) {
  // From the initial state the greedy mode pushes all 200 units: the
  // splitter needs 40 CPU > 30 and fails even though levels would allow less.
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('A'));
  const ActionId sp = place_of(cp, "Splitter", inst->server, 0);
  Replayer r(cp);
  const ActionId tail[] = {sp};
  EXPECT_FALSE(r.replay(tail, true, ReplayMode::WorstCase));
  EXPECT_NE(r.failure().find("condition failed"), std::string::npos) << r.failure();
}

TEST(Replay, LinkConsumptionAccumulatesAcrossCrossings) {
  // Scenario E levels the link bandwidth; crossing Z then I over the same
  // link forces both reservations into one leveled link interval.  Choosing
  // the top link level for both is consistent; the replay tracks the pool.
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('E'));
  // Find Z and I crossings with compatible link levels.
  std::vector<ActionId> zs, is;
  for (std::uint32_t i = 0; i < cp.actions.size(); ++i) {
    const model::GroundAction& a = cp.actions[i];
    if (a.kind != model::ActionKind::Cross || a.node != inst->server) continue;
    if (cp.iface_names[a.spec_index] == "Z" && a.in_levels[0] == 1) zs.emplace_back(i);
    if (cp.iface_names[a.spec_index] == "I" && a.in_levels[0] == 1) is.emplace_back(i);
  }
  ASSERT_FALSE(zs.empty());
  ASSERT_FALSE(is.empty());
  bool some_pair_ok = false;
  Replayer r(cp);
  for (ActionId z : zs) {
    for (ActionId i : is) {
      const ActionId tail[] = {z, i};
      some_pair_ok = some_pair_ok || r.replay(tail, true, ReplayMode::Optimistic);
    }
  }
  EXPECT_TRUE(some_pair_ok);
}

TEST(Replay, DegradableInputAcceptsHigherProduction) {
  // Init provides M in [0,200]; the Splitter at level [90,100) merges the
  // degradable input down into its level instead of failing.
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  const ActionId sp = place_of(cp, "Splitter", inst->server, 1);
  Replayer r(cp);
  const ActionId tail[] = {sp};
  ASSERT_TRUE(r.replay(tail, true, ReplayMode::Optimistic)) << r.failure();
}

TEST(Replay, ResourceMapEpochReuseIsClean) {
  // Two consecutive replays must not leak state across runs.
  auto inst = domains::media::tiny();
  auto cp = model::compile(inst->problem, scenario('C'));
  const ActionId sp = place_of(cp, "Splitter", inst->server, 1);
  const ActionId zip = place_of(cp, "Zip", inst->server, 1);
  Replayer r(cp);
  const ActionId t1[] = {sp, zip};
  const ActionId t2[] = {zip};  // zip alone lacks its T input value from sp
  ASSERT_TRUE(r.replay(t1, true, ReplayMode::Optimistic));
  // t2 from init: T@server never produced; the zip's optimistic input
  // interval applies (no stale T from the previous replay), and the replay
  // still succeeds *optimistically* — but the map must not contain sp's
  // narrowed values.
  ASSERT_TRUE(r.replay(t2, true, ReplayMode::Optimistic));
  bool found_m_from_prev = false;
  for (std::size_t v = 0; v < cp.vars.size(); ++v) {
    const model::VarKey& k = cp.vars.key(VarId(static_cast<std::uint32_t>(v)));
    if (k.kind == model::VarKind::IfaceProp && cp.iface_names[k.a] == "I") {
      found_m_from_prev = found_m_from_prev || r.map().has(VarId(static_cast<std::uint32_t>(v)));
    }
  }
  EXPECT_FALSE(found_m_from_prev) << "I stream produced by sp leaked into the next replay";
}

/// The RG replays a variant-group step as its group's hull, so the hull
/// must over-approximate every member: it contains each member's intervals,
/// and a tail with each step replaced by its group step replays whenever
/// the ground tail does (from the initial state and not from it).
void check_hulls(const CompiledProblem& cp, std::uint64_t seed) {
  ASSERT_FALSE(cp.groups.empty());
  for (const VariantGroup& g : cp.groups) {
    ASSERT_GE(g.members.size(), 2u);
    EXPECT_EQ(g.hull.cost_lb, cp.actions[g.members.front().index()].cost_lb);
    for (const ActionId m : g.members) {
      const GroundAction& act = cp.actions[m.index()];
      EXPECT_EQ(cp.group_of[m.index()], static_cast<std::uint32_t>(&g - cp.groups.data()));
      EXPECT_EQ(act.pre, g.hull.pre);
      EXPECT_EQ(act.eff, g.hull.eff);
      EXPECT_EQ(act.slot_vars, g.hull.slot_vars);
      EXPECT_LE(g.hull.cost_lb, act.cost_lb);
      for (std::size_t s = 0; s < act.slot_opt.size(); ++s) {
        EXPECT_TRUE(g.hull.slot_opt[s].contains(act.slot_opt[s]))
            << cp.describe(m) << " slot " << s << ": " << g.hull.slot_opt[s].str() << " vs "
            << act.slot_opt[s].str();
      }
    }
  }

  SplitMix64 rng(seed);
  Replayer ground(cp);
  Replayer hulls(cp);
  std::vector<ActionId> tail, lifted;
  std::uint32_t replayed[2] = {0, 0};
  for (int trial = 0; trial < 10000; ++trial) {
    tail.clear();
    lifted.clear();
    const std::uint64_t len = 1 + rng.next_below(5);
    for (std::uint64_t i = 0; i < len; ++i) {
      ActionId a(static_cast<std::uint32_t>(rng.next_below(cp.actions.size())));
      if (rng.chance(0.5)) {  // most actions have no variants: favour those that do
        const VariantGroup& g = cp.groups[rng.next_below(cp.groups.size())];
        a = g.members[rng.next_below(g.members.size())];
      }
      tail.push_back(a);
      lifted.push_back(cp.step_of(a));
    }
    for (const bool from_init : {false, true}) {
      if (!ground.replay(tail, from_init, ReplayMode::Optimistic)) continue;
      ++replayed[from_init ? 1 : 0];
      EXPECT_TRUE(hulls.replay(lifted, from_init, ReplayMode::Optimistic))
          << "trial " << trial << (from_init ? " from init: " : ": ") << hulls.failure();
    }
  }
  EXPECT_GT(replayed[0], 300u);
  EXPECT_GT(replayed[1], 300u);
}

TEST(Replay, VariantHullsOverApproximateMediaE) {
  const auto tiny = domains::media::tiny();
  check_hulls(model::compile(tiny->problem, scenario('E')), 7);
  const auto small = domains::media::small();
  check_hulls(model::compile(small->problem, scenario('E')), 7);
}

TEST(Replay, VariantHullsOverApproximateGeneratedInstance) {
  // The first generated instance that levels link bandwidth and yields
  // variant groups.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const testing::GenInstance gen = testing::generate(seed);
    if (gen.link_cuts.empty()) continue;
    const auto lp = model::load_problem(gen.domain_text(), gen.problem_text());
    const CompiledProblem cp = model::compile(lp->problem, lp->scenario);
    if (cp.groups.empty()) continue;
    SCOPED_TRACE("seed " + std::to_string(seed));
    check_hulls(cp, seed);
    return;
  }
  FAIL() << "no generated instance with variant groups";
}

}  // namespace
}  // namespace sekitei::model
