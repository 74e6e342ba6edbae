// Deployment repair and adaptation — the paper's stated future work
// (Section 6): "we also intend to use our planner for repairing and adapting
// existing deployments by introducing operators for migrating and
// reconnecting components.  Separate operators are necessary, because the
// cost of migration differs from that of the initial deployment."
//
// Model: after a network change (failed links/nodes), the surviving part of
// the old deployment becomes the *initial state* of a new CPP:
//   1. a provenance walk over the executed plan keeps exactly the actions
//      whose node/link survived and whose consumed streams survived — an
//      executable sub-plan;
//   2. the sub-plan is re-executed to obtain the survivors' concrete stream
//      values and their residual resource consumption (components that died
//      are torn down and release their resources);
//   3. the repair problem = damaged network minus residual consumption,
//      surviving components pre-placed, surviving streams initial; placement
//      actions re-costed:
//        * RECONNECT — re-place on the node where the component already
//          runs (cheapest, only the linkage is re-established),
//        * MIGRATE — place on a different node while it exists elsewhere,
//        * fresh deployment at full cost otherwise.
// Running the standard planner on this problem yields a repair plan that
// naturally reuses what survived.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "model/compile.hpp"
#include "model/problem.hpp"
#include "sim/executor.hpp"

namespace sekitei::repair {

/// Capacity degradation (the common drift case — bandwidth drops, CPU
/// contention — as opposed to binary failure).  `capacity` is the resource's
/// new absolute value; it is applied as min(old, capacity), so drift never
/// *raises* a capacity through this channel.
struct DegradedNode {
  NodeId node;
  std::string resource;  // e.g. "cpu"
  double capacity = 0.0;
};

struct DegradedLink {
  LinkId link;
  std::string resource;  // e.g. "lbw"
  double capacity = 0.0;
};

struct Damage {
  std::vector<LinkId> failed_links;
  std::vector<NodeId> failed_nodes;
  std::vector<DegradedLink> degraded_links;
  std::vector<DegradedNode> degraded_nodes;

  [[nodiscard]] bool link_failed(LinkId l) const;
  [[nodiscard]] bool node_failed(NodeId n) const;
  [[nodiscard]] bool empty() const {
    return failed_links.empty() && failed_nodes.empty() && degraded_links.empty() &&
           degraded_nodes.empty();
  }
};

/// What remains of a running deployment.
struct Survivors {
  core::Plan subplan;  // surviving actions, original order (executable)
  std::vector<std::pair<std::string, NodeId>> placements;
  std::vector<model::InitialStream> streams;  // live streams at concrete values
  sim::ExecutionReport residual;  // sub-plan execution: what survivors consume
};

/// Provenance walk + sub-plan re-execution (see file comment).
/// `choices` are the original execution's production choices
/// (ExecutionReport::choices).  `drop_goal_component` excludes the goal
/// component from survivors so the repair plan re-validates delivery.
///
/// Degraded capacities follow the resource-contract model (Le Sommer):
/// a degradation is a renegotiated contract, and a survivor whose residual
/// consumption exceeds the new capacity has its contract violated — the
/// entity is treated as failed *for survivor selection only* (the network
/// keeps the degraded capacity) and the walk repeats until no survivor
/// overdraws a degraded link's "lbw" or node's "cpu".  The effective-failed
/// set grows monotonically, so the fixpoint terminates.
[[nodiscard]] Survivors compute_survivors(const model::CompiledProblem& cp,
                                          const core::Plan& plan,
                                          std::span<const double> choices,
                                          const Damage& damage,
                                          bool drop_goal_component = true);

/// A copy of `net` with failed links removed, failed nodes stripped of links
/// and resources, degraded capacities clamped to their new values, and
/// (optionally) the survivors' residual consumption deducted from link
/// bandwidth / node cpu.  Node ids are preserved.
[[nodiscard]] net::Network damaged_copy(const net::Network& net, const Damage& damage,
                                        const sim::ExecutionReport* residual = nullptr);

struct AdaptationCosts {
  double reconnect_factor = 0.2;  // re-place on the same node
  double migrate_factor = 0.6;    // re-place on a different node
};

/// Re-costs the compiled problem's placement actions according to the old
/// deployment (see file comment).  Call after model::compile() on the repair
/// problem, before planning.
void apply_adaptation_costs(model::CompiledProblem& cp, const Survivors& survivors,
                            const AdaptationCosts& costs);

/// Assembles the repair CPP: `base` with the damaged network substituted,
/// surviving placements pre-placed, and surviving streams initial.
/// The returned problem points at `damaged_net` and base.domain.
[[nodiscard]] model::CppProblem repair_problem(const model::CppProblem& base,
                                               const net::Network& damaged_net,
                                               const Survivors& survivors);

/// Deterministically derives a plausible drift event from a solved instance
/// (shared by the drift oracle, `sekitei_serve --drift` and perfbench's drift
/// workload).  By seed % 4: fail a link the plan crossed / degrade a
/// crossed link's "lbw" / fail a node hosting a placed component (never the
/// goal node, a source node, or a preplaced node) / degrade such a node's
/// "cpu" hard enough to evict its tenant.  Falls back down that list when a
/// variant has no candidate; the result may be empty only for plans that
/// place nothing and cross nothing.
[[nodiscard]] Damage seeded_drift(const model::CompiledProblem& cp, const core::Plan& plan,
                                  std::uint64_t seed);

}  // namespace sekitei::repair
