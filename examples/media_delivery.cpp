// Media stream delivery across the paper's three networks.
//
//   $ ./example_media_delivery [tiny|small|large] [A|B|C|D|E]
//
// Compiles the chosen network under the chosen Table-1 level scenario, plans,
// executes, and prints a full deployment report: the plan, the produced
// bandwidth, and per-link/per-node reservations — everything an operator
// would need to audit the deployment.
#include <cstdio>
#include <cstring>
#include <string>

#include "core/planner.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "net/export.hpp"
#include "sim/executor.hpp"
#include "support/timer.hpp"

int main(int argc, char** argv) {
  using namespace sekitei;

  const std::string which = argc > 1 ? argv[1] : "small";
  const char scenario = argc > 2 ? argv[2][0] : 'C';

  std::unique_ptr<domains::media::Instance> inst;
  if (which == "tiny") {
    inst = domains::media::tiny();
  } else if (which == "large") {
    inst = domains::media::large();
  } else {
    inst = domains::media::small();
  }
  std::printf("network '%s': %zu nodes, %zu links; scenario %c\n", which.c_str(),
              inst->net.node_count(), inst->net.link_count(), scenario);

  Stopwatch total;
  auto cp = model::compile(inst->problem, domains::media::scenario(scenario));
  std::printf("leveling: %zu ground actions (%llu combos considered, %llu pruned)\n",
              cp.actions.size(), (unsigned long long)cp.combos_considered,
              (unsigned long long)(cp.combos_considered - cp.actions.size()));

  core::PlannerOptions opt;
  if (scenario == 'A') opt.mode = core::PlannerOptions::Mode::Greedy;
  core::Sekitei planner(cp, opt);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  const double ms = total.elapsed_ms();

  std::printf("PLRG: %llu props / %llu actions; SLRG: %llu sets; RG: %llu nodes (%llu in queue)\n",
              (unsigned long long)r.stats.plrg_props, (unsigned long long)r.stats.plrg_actions,
              (unsigned long long)r.stats.slrg_sets, (unsigned long long)r.stats.rg_nodes,
              (unsigned long long)r.stats.rg_open_left);
  std::printf("time: %.1f ms total — %.1f ms graph construction + %.1f ms search\n", ms,
              r.stats.time_graph_ms, r.stats.time_search_ms);

  if (!r.ok()) {
    std::printf("no plan: %s\n", r.failure.c_str());
    return scenario == 'A' ? 0 : 1;  // scenario A is *supposed* to fail
  }

  std::printf("\nplan (%zu actions, cost lower bound %.2f):\n%s", r.plan->size(),
              r.plan->cost_lb, r.plan->str(cp).c_str());

  auto rep = exec.execute(*r.plan);
  if (!rep.feasible) {
    std::printf("execution failed: %s\n", rep.failure.c_str());
    return 1;
  }
  std::printf("\nrealized cost: %.2f\n", rep.actual_cost);
  std::printf("max reserved LAN bandwidth: %.1f\n", rep.max_reserved(net::LinkClass::Lan));
  std::printf("max reserved WAN bandwidth: %.1f\n", rep.max_reserved(net::LinkClass::Wan));
  for (const auto& lu : rep.link_use) {
    const net::Link& l = inst->net.link(lu.link);
    std::printf("  link %s-%s (%s): %.1f reserved\n", inst->net.node(l.a).name.c_str(),
                inst->net.node(l.b).name.c_str(), net::link_class_name(lu.cls), lu.used);
  }
  for (const auto& nu : rep.node_use) {
    std::printf("  node %s: %.1f cpu\n", inst->net.node(nu.node).name.c_str(), nu.used);
  }
  return 0;
}
