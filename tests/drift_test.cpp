// Drift-resilient replanning through the service: repair requests through
// PlanningEngine::process (survivors, churn accounting, the FullReplan
// ladder rung, repair metrics) and byte-level agreement between an
// in-process repair and the same repair served over the daemon's wire.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "model/textio.hpp"
#include "repair/repair.hpp"
#include "server/client.hpp"
#include "server/daemon.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"
#include "service/wire.hpp"
#include "sim/executor.hpp"
#include "support/fault.hpp"
#include "support/json_reader.hpp"
#include "support/metrics.hpp"

namespace sekitei::service {
namespace {

namespace media = domains::media;

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

/// Diamond instance solved through a 1-worker engine with the plan echoed,
/// plus the loaded problem both the base and the repair request share.
struct Solved {
  std::shared_ptr<const model::LoadedProblem> problem;
  PlanResponse base;
};

Solved solve_diamond(PlanningEngine& engine) {
  Solved s;
  auto inst = media::diamond();
  s.problem = make_loaded(std::move(inst->domain), std::move(inst->net),
                          std::move(inst->problem), media::scenario('C'));
  PlanRequest req;
  req.id = "base";
  req.problem = s.problem;
  req.echo_plan = true;
  s.base = engine.plan(std::move(req));
  return s;
}

core::Plan prior_from_echo(const PlanResponse& r) {
  core::Plan prior;
  for (const std::uint32_t idx : r.plan_steps) prior.steps.emplace_back(idx);
  return prior;
}

/// The WAN link the echoed plan crosses.
LinkId used_wan_link(const model::LoadedProblem& lp, const core::Plan& prior) {
  const model::CompiledProblem cp = model::compile(lp.problem, lp.scenario);
  for (const ActionId a : prior.steps) {
    const model::GroundAction& act = cp.actions[a.index()];
    if (act.kind == model::ActionKind::Cross &&
        lp.net.link(act.link).cls == net::LinkClass::Wan) {
      return act.link;
    }
  }
  return LinkId{};
}

PlanRequest repair_request(const Solved& s, repair::Damage damage,
                           double migration_penalty = 0.0) {
  PlanRequest req;
  req.id = "repair";
  req.problem = s.problem;
  req.repair.emplace();
  req.repair->prior_plan = prior_from_echo(s.base);
  req.repair->choices = s.base.choices;
  req.repair->damage = std::move(damage);
  req.repair->migration_penalty = migration_penalty;
  return req;
}

TEST(DriftTest, RepairRequestRepairsInPlace) {
  PlanningEngine engine({.workers = 1});
  const Solved s = solve_diamond(engine);
  ASSERT_TRUE(s.base.ok()) << s.base.failure;
  ASSERT_FALSE(s.base.plan_steps.empty());
  ASSERT_FALSE(s.base.choices.empty());

  repair::Damage dmg;
  dmg.failed_links.push_back(used_wan_link(*s.problem, prior_from_echo(s.base)));
  ASSERT_TRUE(dmg.failed_links[0].valid());

  const PlanResponse r = engine.plan(repair_request(s, dmg, /*migration_penalty=*/2.0));
  ASSERT_EQ(r.outcome, Outcome::Solved) << r.failure;
  EXPECT_TRUE(r.repair_requested);
  EXPECT_TRUE(r.repaired);
  EXPECT_EQ(r.ladder, LadderStep::Primary);
  ASSERT_TRUE(r.plan.has_value());
  // The reroute re-establishes the cut-off components at their original
  // nodes: no migrations, no lost placements — and a patch strictly smaller
  // than redeploying everything.
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.disruption, 0u);
  EXPECT_LT(r.plan->size(), prior_from_echo(s.base).size());
  EXPECT_DOUBLE_EQ(r.repair_cost, r.plan->cost_lb);
}

TEST(DriftTest, CapacityDegradationOnlyRepairsWithZeroMigrations) {
  PlanningEngine engine({.workers = 1});
  const Solved s = solve_diamond(engine);
  ASSERT_TRUE(s.base.ok()) << s.base.failure;

  // Capacity drift, not binary failure: the crossed WAN link shrinks to a
  // sliver of bandwidth.  The contract-violation fixpoint evicts the
  // overdrawn crossing, and the repair reroutes over the parallel WAN route
  // re-establishing every component in place: a zero-migration RECONNECT
  // patch.
  repair::Damage dmg;
  const LinkId wan = used_wan_link(*s.problem, prior_from_echo(s.base));
  ASSERT_TRUE(wan.valid());
  dmg.degraded_links.push_back({wan, "lbw", 1.0});
  ASSERT_TRUE(dmg.failed_nodes.empty() && dmg.failed_links.empty());

  const PlanResponse r = engine.plan(repair_request(s, dmg, /*migration_penalty=*/5.0));
  ASSERT_TRUE(r.ok()) << r.failure;
  EXPECT_TRUE(r.repaired);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.disruption, 0u);
  EXPECT_DOUBLE_EQ(r.repair_cost, r.plan->cost_lb);
}

TEST(DriftTest, RepairPlanFaultFallsDownLadderToFullReplan) {
  PlanningEngine engine({.workers = 1});
  const Solved s = solve_diamond(engine);
  ASSERT_TRUE(s.base.ok()) << s.base.failure;

  repair::Damage dmg;
  dmg.failed_links.push_back(used_wan_link(*s.problem, prior_from_echo(s.base)));

  // Fail mode at repair.plan behaves exactly like the repair search's budget
  // slice expiring with no incumbent: the ladder must answer with a full
  // replan on the damaged network, not a bare deadline_exceeded.
  fault::arm("repair.plan", 1, fault::Mode::Fail);
  const PlanResponse r = engine.plan(repair_request(s, dmg));
  fault::disarm_all();

  EXPECT_EQ(r.outcome, Outcome::Degraded) << r.failure;
  EXPECT_EQ(r.ladder, LadderStep::FullReplan);
  EXPECT_TRUE(r.repair_requested);
  EXPECT_FALSE(r.repaired);
  ASSERT_TRUE(r.plan.has_value());
  EXPECT_NE(r.failure.find("full replan"), std::string::npos);
}

TEST(DriftTest, RepairSurvivorsFaultAnswersRejected) {
  PlanningEngine engine({.workers = 1});
  const Solved s = solve_diamond(engine);
  ASSERT_TRUE(s.base.ok()) << s.base.failure;

  repair::Damage dmg;
  dmg.failed_links.push_back(used_wan_link(*s.problem, prior_from_echo(s.base)));

  fault::arm("repair.survivors", 1, fault::Mode::Throw);
  const PlanResponse r = engine.plan(repair_request(s, dmg));
  fault::disarm_all();

  EXPECT_EQ(r.outcome, Outcome::Rejected);
  EXPECT_NE(r.failure.find("repair.survivors"), std::string::npos);
}

TEST(DriftTest, UnsurvivableDriftRejectedByPreflightWithoutSearch) {
  PlanningEngine engine({.workers = 1});
  const Solved s = solve_diamond(engine);
  ASSERT_TRUE(s.base.ok()) << s.base.failure;

  // Sever every link: the goal stream cannot reach the goal node on the bare
  // damaged network, so no rung of the ladder — repair, anytime, greedy or
  // full replan — could ever produce a plan.
  repair::Damage dmg;
  for (std::uint32_t l = 0; l < s.problem->net.link_count(); ++l) {
    dmg.failed_links.push_back(LinkId(l));
  }
  PlanRequest req = repair_request(s, std::move(dmg));
  req.preflight = true;
  const PlanResponse r = engine.plan(std::move(req));

  EXPECT_EQ(r.outcome, Outcome::Infeasible);
  EXPECT_TRUE(r.repair_preflight_ran);
  EXPECT_TRUE(r.repair_preflight_rejected);
  // The certificate is produced by the static fixpoint, never by search.
  EXPECT_EQ(r.stats.rg_expansions, 0u);
  EXPECT_NE(r.failure.find("unsurvivable drift"), std::string::npos) << r.failure;
}

TEST(DriftTest, SurvivableDriftPassesPreflightAndStillRepairs) {
  PlanningEngine engine({.workers = 1});
  const Solved s = solve_diamond(engine);
  ASSERT_TRUE(s.base.ok()) << s.base.failure;

  repair::Damage dmg;
  dmg.failed_links.push_back(used_wan_link(*s.problem, prior_from_echo(s.base)));
  PlanRequest req = repair_request(s, std::move(dmg));
  req.preflight = true;
  const PlanResponse r = engine.plan(std::move(req));

  ASSERT_EQ(r.outcome, Outcome::Solved) << r.failure;
  EXPECT_TRUE(r.repair_preflight_ran);
  EXPECT_FALSE(r.repair_preflight_rejected);
  EXPECT_TRUE(r.repaired);
}

TEST(DriftTest, RepairWithoutPriorPlanIsAReplanOnTheDamagedNetwork) {
  PlanningEngine::Options opts;
  opts.workers = 1;
  PlanningEngine engine(opts);
  const Solved s = solve_diamond(engine);
  ASSERT_TRUE(s.base.ok()) << s.base.failure;

  repair::Damage dmg;
  dmg.failed_links.push_back(used_wan_link(*s.problem, prior_from_echo(s.base)));
  ASSERT_TRUE(dmg.failed_links[0].valid());

  // No prior plan means no survivors: the repair search runs on the bare
  // damaged network and must answer what a direct solve of it answers.
  PlanRequest req;
  req.id = "replan";
  req.problem = s.problem;
  req.repair.emplace();
  req.repair->damage = dmg;
  const PlanResponse r = engine.plan(std::move(req));
  ASSERT_EQ(r.outcome, Outcome::Solved) << r.failure;
  EXPECT_EQ(r.ladder, LadderStep::Primary);
  EXPECT_TRUE(r.repair_requested);
  ASSERT_TRUE(r.plan.has_value());
  EXPECT_NEAR(r.plan->cost_lb, 63.85, 1e-9);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.reconnects, 0u);
  EXPECT_EQ(r.disruption, 0u);

  const model::LoadedProblem& lp = *s.problem;
  const net::Network bare = repair::damaged_copy(lp.net, dmg, nullptr);
  model::CppProblem fresh = lp.problem;
  fresh.network = &bare;
  const model::CompiledProblem bcp = model::compile(fresh, lp.scenario);
  core::Sekitei planner(bcp);
  sim::Executor exec(bcp);
  const auto direct =
      planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(r.plan->cost_lb, direct.plan->cost_lb);
  EXPECT_EQ(r.plan->str(bcp), direct.plan->str(bcp));
}

TEST(DriftTest, RepairMetricsCountOutcomesAndMigrations) {
  const auto total = [](const char* name) {
    std::uint64_t sum = 0;
    for (const metrics::MetricSnapshot& m : metrics::registry().snapshot()) {
      if (m.name == name) sum += m.kind == metrics::Kind::Histogram ? m.hist_count : m.counter;
    }
    return sum;
  };
  const std::uint64_t repairs_before = total("service.repairs");
  const std::uint64_t migrations_before = total("repair.migrations");

  PlanningEngine engine({.workers = 1});
  const Solved s = solve_diamond(engine);
  ASSERT_TRUE(s.base.ok());
  repair::Damage dmg;
  dmg.failed_links.push_back(used_wan_link(*s.problem, prior_from_echo(s.base)));
  const PlanResponse r = engine.plan(repair_request(s, dmg));
  ASSERT_TRUE(r.ok()) << r.failure;

  EXPECT_EQ(total("service.repairs"), repairs_before + 1);
  EXPECT_EQ(total("repair.migrations"), migrations_before + 1);
}

TEST(DriftTest, RepairOverDaemonWireMatchesInProcess) {
  const std::string domain_text = slurp(data_file("media.sk"));
  const std::string problem_text = slurp(data_file("small.sk"));

  // Solve once in-process with the plan echoed, exactly as a wire client
  // would via echo_plan.
  std::shared_ptr<const model::LoadedProblem> lp =
      model::load_problem(domain_text, problem_text);
  PlanningEngine engine({.workers = 1});
  PlanRequest base_req;
  base_req.id = "base";
  base_req.problem = lp;
  base_req.echo_plan = true;
  const PlanResponse base = engine.plan(std::move(base_req));
  ASSERT_TRUE(base.ok()) << base.failure;
  ASSERT_FALSE(base.plan_steps.empty());

  // The drift event the fuzzer's drift oracle uses, mapped to wire names.
  const core::Plan prior = prior_from_echo(base);
  const model::CompiledProblem cp = model::compile(lp->problem, lp->scenario);
  const repair::Damage damage = repair::seeded_drift(cp, prior, /*seed=*/7);
  ASSERT_FALSE(damage.empty());

  wire::WireRequest w;
  w.id = "drift";
  w.problem_text = problem_text;
  w.repair = true;
  w.prior_plan = base.plan_steps;
  w.choices = base.choices;
  w.migration_penalty = 2.0;
  for (const NodeId n : damage.failed_nodes) {
    w.damage.failed_nodes.push_back(lp->net.node(n).name);
  }
  for (const LinkId l : damage.failed_links) {
    w.damage.failed_links.emplace_back(lp->net.node(lp->net.link(l).a).name,
                                       lp->net.node(lp->net.link(l).b).name);
  }
  for (const repair::DegradedNode& dn : damage.degraded_nodes) {
    w.damage.degraded_nodes.push_back({lp->net.node(dn.node).name, dn.resource, dn.capacity});
  }
  for (const repair::DegradedLink& dl : damage.degraded_links) {
    w.damage.degraded_links.push_back({lp->net.node(lp->net.link(dl.link).a).name,
                                       lp->net.node(lp->net.link(dl.link).b).name, dl.resource,
                                       dl.capacity});
  }

  // In-process reference: resolve the wire payload exactly as the daemon
  // does, then plan.
  RepairSpec spec;
  std::string error;
  ASSERT_TRUE(wire::resolve_repair(w, *lp, spec, error)) << error;
  PlanRequest rep_req;
  rep_req.id = "drift";
  rep_req.problem = lp;
  rep_req.repair = std::move(spec);
  const PlanResponse local = engine.plan(std::move(rep_req));

  // The same frame over a real loopback daemon.
  server::Daemon::Options opt;
  opt.domain_text = domain_text;
  opt.engine.workers = 1;
  opt.session.poll_tick_ms = 10.0;
  opt.accept_tick_ms = 10.0;
  server::Daemon daemon(std::move(opt));
  daemon.start();
  ASSERT_NE(daemon.port(), 0);
  server::FrameClient client(daemon.port());
  ASSERT_TRUE(client.send(w));
  std::string body;
  ASSERT_EQ(client.recv_frame(body, 30000.0), server::FrameClient::Recv::Frame);
  daemon.stop();

  json::Value v;
  ASSERT_TRUE(json::parse(body, v)) << body;
  ASSERT_TRUE(v.is_object());
  const auto str = [&](const char* key) {
    const json::Value* f = v.find(key);
    return f != nullptr && f->is_string() ? f->str : std::string{};
  };
  const auto num = [&](const char* key) {
    const json::Value* f = v.find(key);
    return f != nullptr && f->is_number() ? f->number : -1.0;
  };
  const auto boolean = [&](const char* key) {
    const json::Value* f = v.find(key);
    return f != nullptr && f->is_bool() && f->boolean;
  };
  EXPECT_EQ(str("outcome"), outcome_name(local.outcome));
  EXPECT_EQ(str("ladder"), ladder_step_name(local.ladder));
  EXPECT_EQ(boolean("repaired"), local.repaired);
  EXPECT_EQ(num("migrations"), local.migrations);
  EXPECT_EQ(num("reconnects"), local.reconnects);
  EXPECT_EQ(num("disruption"), local.disruption);
  ASSERT_TRUE(local.plan.has_value()) << local.failure;
  EXPECT_EQ(num("plan_actions"), static_cast<double>(local.plan->size()));
  EXPECT_NEAR(num("cost_lb"), local.plan->cost_lb, 1e-3);
  EXPECT_NEAR(num("repair_cost"), local.repair_cost, 1e-3);
}

TEST(DriftTest, ResolveRepairRejectsUnknownNames) {
  std::shared_ptr<const model::LoadedProblem> lp = model::load_problem(
      slurp(data_file("media.sk")), slurp(data_file("small.sk")));
  wire::WireRequest w;
  w.repair = true;
  RepairSpec spec;
  std::string error;

  w.damage.failed_nodes.push_back("n_missing");
  EXPECT_FALSE(wire::resolve_repair(w, *lp, spec, error));
  EXPECT_NE(error.find("unknown node \"n_missing\""), std::string::npos);

  w.damage.failed_nodes.clear();
  w.damage.failed_links.emplace_back("n0", "n4");  // both exist, not adjacent
  EXPECT_FALSE(wire::resolve_repair(w, *lp, spec, error));
  EXPECT_NE(error.find("no link between"), std::string::npos);
}

TEST(DriftTest, SeededDriftIsDeterministic) {
  std::shared_ptr<const model::LoadedProblem> lp = model::load_problem(
      slurp(data_file("media.sk")), slurp(data_file("small.sk")));
  const model::CompiledProblem cp = model::compile(lp->problem, lp->scenario);
  core::Sekitei planner(cp);
  sim::Executor exec(cp);
  const auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(r.ok());

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const repair::Damage a = repair::seeded_drift(cp, *r.plan, seed);
    const repair::Damage b = repair::seeded_drift(cp, *r.plan, seed);
    EXPECT_FALSE(a.empty());
    ASSERT_EQ(a.failed_nodes.size(), b.failed_nodes.size());
    ASSERT_EQ(a.failed_links.size(), b.failed_links.size());
    ASSERT_EQ(a.degraded_nodes.size(), b.degraded_nodes.size());
    ASSERT_EQ(a.degraded_links.size(), b.degraded_links.size());
    for (std::size_t i = 0; i < a.failed_nodes.size(); ++i) {
      EXPECT_EQ(a.failed_nodes[i], b.failed_nodes[i]);
    }
    for (std::size_t i = 0; i < a.degraded_nodes.size(); ++i) {
      EXPECT_EQ(a.degraded_nodes[i].node, b.degraded_nodes[i].node);
      EXPECT_DOUBLE_EQ(a.degraded_nodes[i].capacity, b.degraded_nodes[i].capacity);
    }
  }
}

}  // namespace
}  // namespace sekitei::service
