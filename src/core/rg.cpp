#include "core/rg.hpp"

#include <algorithm>
#include <queue>

#include "support/log.hpp"
#include "support/sorted_vec.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

Rg::Rg(const model::CompiledProblem& cp, Slrg& slrg, const Plrg& plrg, CostFn cost)
    : cp_(cp), slrg_(slrg), plrg_(plrg), cost_fn_(std::move(cost)), commute_(cp) {}

void Rg::tail_of(std::uint32_t idx, std::vector<ActionId>& steps) const {
  steps.clear();
  for (std::uint32_t cur = idx; pool_[cur].action.valid(); cur = pool_[cur].parent) {
    steps.push_back(pool_[cur].action);
  }
}

double Rg::path_cost(std::span<const ActionId> tail) const {
  double g = 0.0;
  for (auto it = tail.rbegin(); it != tail.rend(); ++it) g += cost_fn_(cp_.representative(*it));
  return g;
}

std::optional<Plan> Rg::search(const std::vector<PropId>& goal_set, const Options& options,
                               const Validator& validate, PlannerStats& stats) {
  struct Open {
    double f;
    double g;
    std::uint32_t node;
    bool refine;  // a split copy: goal-tested and split further, never expanded
    bool operator<(const Open& o) const {
      if (f != o.f) return f > o.f;  // min-heap on f
      if (g != o.g) return g < o.g;  // tie-break: prefer deeper (larger g)
      return node < o.node;          // then the newest node: a total order
    }
  };
  std::priority_queue<Open> open;
  const auto push = [&](const Open& o) {
    open.push(o);
    if (open.size() > stats.rg_peak_open) stats.rg_peak_open = open.size();
  };
  model::Replayer replayer(cp_);
  SetStore& store = slrg_.sets();
  pool_.clear();
  // Branch on variant groups only under optimistic replay (see the header).
  const bool grouped =
      options.replay_mode == model::ReplayMode::Optimistic && !cp_.groups.empty();
  const auto has_group_step = [&](const std::vector<ActionId>& steps) {
    return grouped && std::any_of(steps.begin(), steps.end(),
                                  [&](ActionId s) { return cp_.is_group_step(s); });
  };

  const SetId root = store.intern(goal_set);
  pool_.push_back(Node{ActionId{}, 0, root});
  open.push({slrg_.estimate(root), 0.0, 0, false});
  stats.rg_nodes = 1;
  stats.rg_peak_open = 1;

  // Anytime incumbent: the cheapest goal-satisfying node seen so far whose
  // all-ground tail replays from the initial state and passes validation.
  // Only tracked when a stop can actually fire, so deadline-free searches
  // stay byte-identical.
  const bool anytime = options.anytime && options.stop.stop_possible();
  struct Incumbent {
    bool have = false;
    std::uint32_t node = 0;
    double g = 0.0;
  } incumbent;
  // Best admissible f still open when the search is cut short (a lower bound
  // on the optimal cost, reported next to the incumbent's cost).
  double frontier_lb = kInf;

  // A goal-satisfying node is a complete feasible plan even though A* has
  // not proven it optimal yet (it stays in the open list until its f value
  // surfaces).  Record the cheapest one that passes the resource gate, the
  // initial-state replay and validation so a stop mid-proof can still
  // answer with a plan.
  const auto consider_incumbent = [&](std::uint32_t idx, double g) {
    if (!anytime || (incumbent.have && g >= incumbent.g) ||
        !sorted_subset(store.get(pool_[idx].state), cp_.init_props)) {
      return;
    }
    tail_of(idx, probe_);
    if (has_group_step(probe_)) return;
    if (!replayer.replay(probe_, /*from_init=*/false, options.replay_mode) ||
        !replayer.replay(probe_, /*from_init=*/true, options.replay_mode)) {
      return;
    }
    if (validate) {
      Plan candidate;
      candidate.steps = probe_;
      candidate.cost_lb = g;
      trace::Span vspan("rg.validate_incumbent", "search");
      if (!validate(candidate)) return;
    }
    incumbent = {true, idx, g};
    ++stats.rg_incumbents;
    stats.incumbent_cost = incumbent.g;
    SEKITEI_LOG_DEBUG("core.rg", "incumbent recorded", log::kv("cost", incumbent.g),
                      log::kv("steps", probe_.size()),
                      log::kv("expansions", stats.rg_expansions));
  };

  // Refinement of a goal node whose tail holds a group step: the nodes from
  // the group step nearest the node down to the node are copied once per
  // member, the member in place of the group step, and each copy is pushed
  // with its exact g (its f, the state holding initially).
  const auto split = [&](std::uint32_t node) {
    chain_.clear();
    std::uint32_t at = node;
    for (; !cp_.is_group_step(pool_[at].action); at = pool_[at].parent) chain_.push_back(at);
    const Node group = pool_[at];
    const model::VariantGroup& variants = cp_.groups[group.action.index() - cp_.actions.size()];
    for (const ActionId member : variants.members) {
      auto leaf = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{member, group.parent, group.state});
      for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
        pool_.push_back(Node{pool_[*it].action, leaf, pool_[*it].state});
        leaf = static_cast<std::uint32_t>(pool_.size() - 1);
      }
      stats.rg_nodes += chain_.size() + 1;
      tail_of(leaf, probe_);
      const double g = path_cost(probe_);
      push({g, g, leaf, true});
      consider_incumbent(leaf, g);
    }
  };

  // One cadence for the progress observer and the stop poll; checked with a
  // single comparison per expansion so an idle observer adds nothing
  // measurable to the search.
  const std::uint64_t tick_every = std::max<std::uint64_t>(1, options.progress_every);

  while (!open.empty()) {
    const Open cur = open.top();
    open.pop();
    // Replay the tail in the optimistic maps (Fig. 8) and prune on resource
    // failure.  The gate runs at the pop (see the header): most generated
    // nodes are never popped, and f = g + h does not depend on the replay.
    tail_of(cur.node, tail_);
    if (!tail_.empty() && !replayer.replay(tail_, /*from_init=*/false, options.replay_mode)) {
      ++stats.rg_pruned_by_replay;
      continue;
    }
    // Stable through the child loop: store blocks never move.
    const SetId state_id = pool_[cur.node].state;
    const std::span<const PropId> state = store.get(state_id);
    ++stats.rg_expansions;
    if (stats.rg_expansions > options.max_expansions) {
      stats.hit_search_limit = true;
      frontier_lb = open.empty() ? cur.f : std::min(cur.f, open.top().f);
      break;
    }
    if (stats.rg_expansions % tick_every == 0) {
      stats.rg_open_left = open.size();
      stats.replay_calls = replayer.calls();
      // Live frontier bound for observers (the flight recorder's "best f"):
      // cur.f is the smallest admissible f at this expansion, i.e. the same
      // lower bound a stop would report.  Refreshed only under anytime
      // tracking, so stop-free runs report byte-identical stats.
      if (anytime) stats.open_cost_lb = cur.f;
      SEKITEI_LOG_TRACE("core.rg", "progress", log::kv("expansions", stats.rg_expansions),
                        log::kv("nodes", stats.rg_nodes), log::kv("open", stats.rg_open_left),
                        log::kv("f", cur.f));
      if (options.progress) options.progress(stats);
      // Checked *after* the observer so a stop it requests takes effect this
      // very iteration — before the goal test below can pop the proven
      // optimum and moot the stop (observers stop-on-first-incumbent).
      if (options.stop.stop_requested()) {
        stats.stopped = true;
        frontier_lb = open.empty() ? cur.f : std::min(cur.f, open.top().f);
        break;
      }
    }

    // Goal test: all propositions hold initially and the all-ground tail
    // executes in the initial-state resource map.  A tail with a group step
    // is split into its members first.
    if (sorted_subset(state, cp_.init_props)) {
      if (has_group_step(tail_)) {
        split(cur.node);
      } else if (replayer.replay(tail_, /*from_init=*/true, options.replay_mode)) {
        Plan plan;
        plan.steps = tail_;
        plan.cost_lb = cur.g;
        bool accepted = true;
        if (validate) {
          trace::Span vspan("rg.validate", "search");
          accepted = validate(plan);
        }
        if (accepted) {
          stats.rg_open_left = open.size();
          stats.replay_calls = replayer.calls();
          return plan;
        }
        ++stats.sim_rejections;
        SEKITEI_LOG_DEBUG("core.rg", "validator rejected candidate",
                          log::kv("steps", plan.steps.size()), log::kv("cost_lb", plan.cost_lb),
                          log::kv("rejections", stats.sim_rejections));
      } else {
        ++stats.rg_pruned_by_replay;
      }
      // A rejected candidate node may still have regressions worth trying
      // (e.g. produce more of a stream elsewhere), so fall through.
    }
    if (cur.refine) continue;

    // Symmetry pruning state: which nodes the tail-so-far already commits to
    // (nodes of open propositions plus nodes touched by tail actions).  Any
    // transposition of two *unused* interchangeable twins fixes this whole
    // search node, so only the smallest unused twin needs to be introduced.
    const bool sym = options.symmetry_pruning && cp_.symmetric_class_count > 0;
    if (sym) {
      used_.assign(cp_.net->node_count(), 0);
      for (PropId p : state) used_[cp_.props.key(p).node] = 1;
      for (ActionId s : tail_) {
        const model::GroundAction& act = cp_.step_action(s);
        if (act.node.valid()) used_[act.node.index()] = 1;
        if (act.node2.valid()) used_[act.node2.index()] = 1;
      }
    }

    // Candidate steps: achievers of any unsatisfied proposition, one step
    // per variant group.
    cands_.clear();
    for (PropId p : state) {
      if (cp_.init_holds(p)) continue;
      for (ActionId a : cp_.achievers_of(p)) {
        if (!plrg_.relevant(a)) continue;
        sorted_insert(cands_, grouped ? cp_.step_of(a) : a);
      }
    }

    // Members of a group share sites, variables, pre and eff, so every test
    // below gives one answer for the whole group: it runs on the
    // representative.
    const ActionId b = tail_.empty() ? ActionId{} : cp_.representative(tail_.front());
    for (ActionId s : cands_) {
      const ActionId a = cp_.representative(s);
      // Commutativity pruning: `a` executes right before this node's
      // action; if they commute (disjoint resources, neither supports the
      // other's preconditions), only the ascending-id order is explored.
      // Any plan has such a canonical reordering (adjacent independent swaps
      // preserve the replay outcome exactly), so completeness is kept while
      // the factorial interleavings of parallel stream chains collapse.
      if (b.valid() && a > b && commute_.independent(a, b)) continue;
      if (sym && cp_.twin_blocked(a, used_)) {
        ++stats.pruned_placements;
        continue;
      }
      if (options.forbid_repeated_actions &&
          std::find(tail_.begin(), tail_.end(), s) != tail_.end()) {
        continue;
      }
      model::regress(cp_, state, a, regressed_);
      const SetId nxt = store.intern(regressed_);
      if (nxt == state_id) continue;
      const double h = slrg_.estimate(nxt);
      if (h == kInf) continue;

      const double g = cur.g + cost_fn_(a);
      const auto child = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{s, cur.node, nxt});
      ++stats.rg_nodes;
      push({g + h, g, child, false});
      consider_incumbent(child, g);
    }
  }
  stats.rg_open_left = open.size();
  stats.replay_calls = replayer.calls();

  // Search cut short with an incumbent in hand: return it (guard-replayed
  // once more from the initial state) instead of discarding a feasible plan.
  if (incumbent.have && (stats.stopped || stats.hit_search_limit)) {
    tail_of(incumbent.node, probe_);
    if (replayer.replay(probe_, /*from_init=*/true, options.replay_mode)) {
      stats.replay_calls = replayer.calls();
      stats.suboptimal_on_stop = true;
      stats.incumbent_cost = incumbent.g;
      stats.open_cost_lb = frontier_lb == kInf ? incumbent.g : frontier_lb;
      SEKITEI_LOG_INFO("core.rg", "returning anytime incumbent",
                       log::kv("cost", incumbent.g), log::kv("open_lb", stats.open_cost_lb),
                       log::kv("expansions", stats.rg_expansions));
      Plan plan;
      plan.steps = probe_;
      plan.cost_lb = incumbent.g;
      return plan;
    }
  }
  return std::nullopt;
}

}  // namespace sekitei::core
