#include "core/planner.hpp"

#include "core/plrg.hpp"
#include "core/rg.hpp"
#include "core/slrg.hpp"
#include "cp/search.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace sekitei::core {

namespace {

/// Folds CP branch-and-bound statistics into the planner stats snapshot.
/// Field mapping keeps the existing keys (and hence stats_to_json, the
/// flight recorder and every bench record) unchanged: expansions = visited
/// nodes, replay = propagation, peak open = peak DFS depth.
void fold_cp_stats(const cp::Stats& st, PlannerStats& out) {
  out.rg_expansions = st.branches;
  out.rg_nodes = st.nodes;
  out.rg_peak_open = st.peak_depth;
  out.rg_pruned_by_replay = st.pruned_by_propagation;
  out.pruned_placements = st.pruned_symmetry;
  out.replay_calls = st.propagations;
  out.sim_rejections = st.sim_rejections;
  out.rg_incumbents = st.incumbents;
  out.incumbent_cost = st.incumbent_cost;
  out.logically_unreachable = st.logically_unreachable;
  out.hit_search_limit = st.hit_node_limit;
  out.stopped = st.stopped;
  if (st.stopped || st.hit_node_limit) out.open_cost_lb = st.lower_bound;
  out.time_graph_ms = st.bound_ms;
  out.time_search_ms = st.search_ms;
}

PlanResult plan_cp(const model::CompiledProblem& cp, const PlannerOptions& options,
                   const std::function<bool(const Plan&)>& validate) {
  PlanResult result;
  result.stats.total_actions = cp.actions.size();

  cp::Options co;
  co.symmetry_breaking = options.symmetry_pruning;
  co.forbid_repeated_actions = options.forbid_repeated_actions;
  co.max_nodes = options.max_rg_expansions;
  co.progress_every = options.progress_every;
  co.stop = options.stop;
  co.anytime = options.anytime;
  if (validate) {
    co.validate = [&](std::span<const ActionId> steps, double cost) {
      Plan candidate;
      candidate.steps.assign(steps.begin(), steps.end());
      candidate.cost_lb = cost;
      return validate(candidate);
    };
  }
  if (options.progress) {
    co.progress = [&](const cp::Stats& st) {
      PlannerStats snap = result.stats;
      fold_cp_stats(st, snap);
      options.progress(snap);
    };
  }

  cp::Result r = cp::solve(cp, co);
  fold_cp_stats(r.stats, result.stats);
  if (r.ok()) {
    Plan plan;
    plan.steps = std::move(*r.steps);
    plan.cost_lb = r.cost;
    result.plan = std::move(plan);
    result.stats.suboptimal_on_stop = !r.stats.proven;
  }
  result.failure = std::move(r.failure);

  SEKITEI_LOG_INFO("core.planner", result.ok() ? "plan found" : "no plan", log::kv("mode", "cp"),
                   log::kv("plan_actions", result.ok() ? result.plan->size() : 0),
                   log::kv("rg_expansions", result.stats.rg_expansions),
                   log::kv("graph_ms", result.stats.time_graph_ms),
                   log::kv("search_ms", result.stats.time_search_ms));
  return result;
}

}  // namespace

Sekitei::Sekitei(const model::CompiledProblem& cp, PlannerOptions options)
    : cp_(cp), options_(options) {}

PlanResult Sekitei::plan(const std::function<bool(const Plan&)>& validate) {
  trace::Span plan_span("planner.plan");
  if (options_.mode == PlannerOptions::Mode::Cp) return plan_cp(cp_, options_, validate);
  PlanResult result;
  result.stats.total_actions = cp_.actions.size();
  // Phases 1 and 2: ended explicitly once the goal query is answered, or by
  // whichever early exit comes first.
  trace::Span graph_span("planner.graph", "graph", &result.stats.time_graph_ms);

  const CostFn cost = options_.mode == PlannerOptions::Mode::Greedy
                          ? CostFn([](ActionId) { return 1.0; })
                          : CostFn([this](ActionId a) { return cp_.actions[a.index()].cost_lb; });

  // Phase 1: per-proposition logical regression graph (all goals at once).
  Plrg plrg(cp_, cost, options_.stop);
  plrg.build(std::span<const PropId>(cp_.goal_props));

  // Phase 2 oracle; constructed up front so that every exit path below can
  // report the same stats snapshot through `finish`.
  SlrgLimits slrg_limits;
  slrg_limits.max_sets = options_.max_slrg_sets;
  slrg_limits.symmetry_pruning = options_.symmetry_pruning;
  Slrg slrg(cp_, plrg, cost, slrg_limits, options_.stop);

  // Single exit point: whatever path ends the plan() call, the stats carry
  // the same complete snapshot (graph sizes, memo counters, limit flags).
  auto finish = [&](std::string failure) -> PlanResult {
    graph_span.finish();
    result.stats.plrg_props = plrg.prop_nodes();
    result.stats.plrg_actions = plrg.action_nodes();
    result.stats.slrg_sets = slrg.set_count();
    result.stats.slrg_memo_hits = slrg.memo_hits();
    result.stats.slrg_memo_misses = slrg.memo_misses();
    result.stats.pruned_placements += slrg.symmetry_pruned();
    result.failure = std::move(failure);
    SEKITEI_LOG_INFO("core.planner", result.ok() ? "plan found" : "no plan",
                     log::kv("mode", options_.mode == PlannerOptions::Mode::Greedy ? "greedy"
                                                                                   : "leveled"),
                     log::kv("plan_actions", result.ok() ? result.plan->size() : 0),
                     log::kv("rg_expansions", result.stats.rg_expansions),
                     log::kv("graph_ms", result.stats.time_graph_ms),
                     log::kv("search_ms", result.stats.time_search_ms));
    return std::move(result);
  };

  // A stop during the PLRG build leaves a truncated graph whose costs must
  // not be interpreted (a goal can look unreachable merely because expansion
  // was cut short), so bail out before the reachability checks.
  if (options_.stop.stop_requested()) {
    result.stats.stopped = true;
    return finish("stopped during graph construction");
  }

  for (PropId g : cp_.goal_props) {
    if (!plrg.reachable(g)) {
      result.stats.logically_unreachable = true;
      return finish("goal " + cp_.describe(g) + " is logically unreachable");
    }
  }

  // Phase 2: set costs (the memoized SLRG oracle), seeded by the goal query.
  const std::vector<PropId>& goal_set = cp_.goal_props;
  double logical_cost;
  {
    trace::Span span("slrg.seed_goal_query", "graph");
    logical_cost = slrg.c_logical(goal_set);
  }
  graph_span.finish();
  SEKITEI_LOG_DEBUG("core.planner", "graph construction complete",
                    log::kv("plrg_props", plrg.prop_nodes()),
                    log::kv("plrg_actions", plrg.action_nodes()),
                    log::kv("slrg_sets", slrg.set_count()),
                    log::kv("c_logical", logical_cost),
                    log::kv("ms", result.stats.time_graph_ms));
  if (options_.stop.stop_requested()) {
    result.stats.stopped = true;
    return finish("stopped during graph construction");
  }
  if (logical_cost == kInf) {
    result.stats.logically_unreachable = true;
    return finish("no logically consistent action sequence reaches the goal");
  }

  // Phase 3: the main regression graph with optimistic-map replay.
  Rg::Options rg_opts;
  rg_opts.max_expansions = options_.max_rg_expansions;
  rg_opts.forbid_repeated_actions = options_.forbid_repeated_actions;
  rg_opts.symmetry_pruning = options_.symmetry_pruning;
  rg_opts.replay_mode = options_.mode == PlannerOptions::Mode::Greedy
                            ? model::ReplayMode::WorstCase
                            : model::ReplayMode::Optimistic;
  rg_opts.progress = options_.progress;
  rg_opts.progress_every = options_.progress_every;
  rg_opts.stop = options_.stop;
  rg_opts.anytime = options_.anytime;
  trace::Span search_span("rg.search", "search", &result.stats.time_search_ms);
  Rg rg(cp_, slrg, plrg, cost);
  std::optional<Plan> plan = rg.search(goal_set, rg_opts, validate, result.stats);
  search_span.finish();

  if (plan) {
    result.plan = std::move(plan);
    return finish({});
  }
  if (result.stats.stopped) return finish("stopped before the search completed");
  // An SLRG query that runs out of budget still answers with an admissible
  // bound, so only the RG's own budget makes the search incomplete.
  return finish(result.stats.hit_search_limit
                    ? "search limit exhausted before finding a plan"
                    : "no resource-feasible plan exists under the given levels");
}

}  // namespace sekitei::core
