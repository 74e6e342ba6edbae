#include "core/rg.hpp"

#include <algorithm>
#include <queue>

#include "support/log.hpp"
#include "support/sorted_vec.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

Rg::Rg(const model::CompiledProblem& cp, Slrg& slrg, const Plrg& plrg, CostFn cost)
    : cp_(cp), slrg_(slrg), plrg_(plrg), cost_fn_(std::move(cost)), commute_(cp) {}

std::vector<ActionId> Rg::tail_of(std::uint32_t idx) const {
  std::vector<ActionId> steps;
  std::uint32_t cur = idx;
  while (pool_[cur].action.valid()) {
    steps.push_back(pool_[cur].action);
    cur = pool_[cur].parent;
  }
  return steps;  // deepest node's action first == execution order
}

std::optional<Plan> Rg::search(const std::vector<PropId>& goal_set, const Options& options,
                               const Validator& validate, PlannerStats& stats) {
  struct Open {
    double f;
    double g;
    std::uint32_t node;
    bool operator<(const Open& o) const {
      if (f != o.f) return f > o.f;  // min-heap on f
      if (g != o.g) return g < o.g;  // tie-break: prefer deeper (larger g)
      return node < o.node;          // then the newest node: a total order
    }
  };
  std::priority_queue<Open> open;
  model::Replayer replayer(cp_);
  SetStore& store = slrg_.sets();
  pool_.clear();

  const SetId root = store.intern(goal_set);
  pool_.push_back(Node{ActionId{}, 0, root});
  open.push({slrg_.estimate(root), 0.0, 0});
  stats.rg_nodes = 1;
  stats.rg_peak_open = 1;

  // Anytime incumbent: the cheapest goal-satisfying child seen so far that
  // replays from the initial state and passes validation.  Only tracked when
  // a stop can actually fire, so deadline-free searches stay byte-identical.
  const bool anytime = options.anytime && options.stop.stop_possible();
  struct Incumbent {
    bool have = false;
    std::uint32_t node = 0;
    double g = 0.0;
  } incumbent;
  // Best admissible f still open when the search is cut short (a lower bound
  // on the optimal cost, reported next to the incumbent's cost).
  double frontier_lb = kInf;

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
    std::vector<ActionId> tail = tail_of(cur.node);
    if (pool_[cur.node].action.valid()) {
      if (!replayer.replay(tail, /*from_init=*/false, options.replay_mode)) {
        ++stats.rg_pruned_by_replay;
        continue;
      }
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

    // Goal test: all propositions hold initially and the tail executes in
    // the initial-state resource map.
    if (sorted_subset(state, cp_.init_props)) {
      if (replayer.replay(tail, /*from_init=*/true, options.replay_mode)) {
        Plan plan;
        plan.steps = std::move(tail);
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

    // Symmetry pruning state: which nodes the tail-so-far already commits to
    // (nodes of open propositions plus nodes touched by tail actions).  Any
    // transposition of two *unused* interchangeable twins fixes this whole
    // search node, so only the smallest unused twin needs to be introduced.
    const bool sym = options.symmetry_pruning && cp_.symmetric_class_count > 0;
    std::vector<char> used;
    if (sym) {
      used.assign(cp_.net->node_count(), 0);
      for (PropId p : state) used[cp_.props.key(p).node] = 1;
      for (std::uint32_t w = cur.node; pool_[w].action.valid(); w = pool_[w].parent) {
        const model::GroundAction& act = cp_.actions[pool_[w].action.index()];
        if (act.node.valid()) used[act.node.index()] = 1;
        if (act.node2.valid()) used[act.node2.index()] = 1;
      }
    }

    // Candidate actions: achievers of any unsatisfied proposition.
    std::vector<ActionId> cands;
    for (PropId p : state) {
      if (cp_.init_holds(p)) continue;
      for (ActionId a : cp_.achievers_of(p)) {
        if (!plrg_.relevant(a)) continue;
        sorted_insert(cands, a);
      }
    }

    for (ActionId a : cands) {
      // Commutativity pruning: `a` executes right before this node's
      // action; if they commute (disjoint resources, neither supports the
      // other's preconditions), only the ascending-id order is explored.
      // Any plan has such a canonical reordering (adjacent independent swaps
      // preserve the replay outcome exactly), so completeness is kept while
      // the factorial interleavings of parallel stream chains collapse.
      if (pool_[cur.node].action.valid()) {
        const ActionId b = pool_[cur.node].action;
        if (a > b && commute_.independent(a, b)) continue;
      }
      if (sym && cp_.twin_blocked(a, used)) {
        ++stats.pruned_placements;
        continue;
      }
      if (options.forbid_repeated_actions) {
        bool seen = false;
        for (std::uint32_t w = cur.node; pool_[w].action.valid(); w = pool_[w].parent) {
          if (pool_[w].action == a) {
            seen = true;
            break;
          }
        }
        if (seen) continue;
      }
      model::regress(cp_, state, a, regressed_);
      const SetId nxt = store.intern(regressed_);
      if (nxt == state_id) continue;
      const double h = slrg_.estimate(nxt);
      if (h == kInf) continue;

      const double g = cur.g + cost_fn_(a);
      const std::uint32_t child = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(Node{a, cur.node, nxt});
      ++stats.rg_nodes;
      open.push({g + h, g, child});
      if (open.size() > stats.rg_peak_open) stats.rg_peak_open = open.size();

      // Anytime incumbent: a goal-satisfying child is a complete feasible
      // plan even though A* has not proven it optimal yet (it stays in the
      // open list until its f value surfaces).  Record the cheapest one that
      // passes the resource gate, the initial-state replay and validation so
      // a stop mid-proof can still answer with a plan.
      if (!anytime || (incumbent.have && g >= incumbent.g) ||
          !sorted_subset(store.get(nxt), cp_.init_props)) {
        continue;
      }
      const std::vector<ActionId> child_tail = tail_of(child);
      if (replayer.replay(child_tail, /*from_init=*/false, options.replay_mode) &&
          replayer.replay(child_tail, /*from_init=*/true, options.replay_mode)) {
        bool accepted = true;
        if (validate) {
          Plan candidate;
          candidate.steps = child_tail;
          candidate.cost_lb = g;
          trace::Span vspan("rg.validate_incumbent", "search");
          accepted = validate(candidate);
        }
        if (accepted) {
          incumbent = {true, child, g};
          ++stats.rg_incumbents;
          stats.incumbent_cost = incumbent.g;
          SEKITEI_LOG_DEBUG("core.rg", "incumbent recorded",
                            log::kv("cost", incumbent.g), log::kv("steps", child_tail.size()),
                            log::kv("expansions", stats.rg_expansions));
        }
      }
    }
  }
  stats.rg_open_left = open.size();
  stats.replay_calls = replayer.calls();

  // Search cut short with an incumbent in hand: return it (guard-replayed
  // once more from the initial state) instead of discarding a feasible plan.
  if (incumbent.have && (stats.stopped || stats.hit_search_limit)) {
    std::vector<ActionId> steps = tail_of(incumbent.node);
    if (replayer.replay(steps, /*from_init=*/true, options.replay_mode)) {
      stats.replay_calls = replayer.calls();
      stats.suboptimal_on_stop = true;
      stats.incumbent_cost = incumbent.g;
      stats.open_cost_lb = frontier_lb == kInf ? incumbent.g : frontier_lb;
      SEKITEI_LOG_INFO("core.rg", "returning anytime incumbent",
                       log::kv("cost", incumbent.g), log::kv("open_lb", stats.open_cost_lb),
                       log::kv("expansions", stats.rg_expansions));
      Plan plan;
      plan.steps = std::move(steps);
      plan.cost_lb = incumbent.g;
      return plan;
    }
  }
  return std::nullopt;
}

}  // namespace sekitei::core
