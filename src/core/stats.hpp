// Planner work statistics — the quantities Table 2 reports, plus the
// per-phase diagnostics the observability layer exposes.
#pragma once

#include <cstdint>
#include <string>

namespace sekitei::core {

struct PlannerStats {
  // Column 5: "total # of actions evaluated after leveling and pruning".
  std::uint64_t total_actions = 0;

  // Column 6: PLRG proposition / action node counts.
  std::uint64_t plrg_props = 0;
  std::uint64_t plrg_actions = 0;

  // Column 7: SLRG set-node count.
  std::uint64_t slrg_sets = 0;

  // Column 8: RG nodes created / left in the A* queue at solution time.
  // rg_nodes counts every generated node, before its tail is replayed (the
  // replay gate runs when a node is popped); both include such nodes.
  std::uint64_t rg_nodes = 0;
  std::uint64_t rg_open_left = 0;

  // Column 9: the paper reports the planning time as *two* numbers —
  // regression-graph construction (PLRG build + seeding the SLRG oracle)
  // and the RG search proper.
  double time_graph_ms = 0.0;
  double time_search_ms = 0.0;
  [[nodiscard]] double time_total_ms() const { return time_graph_ms + time_search_ms; }

  // Extra diagnostics (not in the paper's table).
  /// RG nodes popped whose tail passed the replay gate.
  std::uint64_t rg_expansions = 0;
  /// Popped RG tails that failed the optimistic replay, plus goal-satisfying
  /// tails that failed the replay from the initial state.
  std::uint64_t rg_pruned_by_replay = 0;
  /// Candidate actions skipped by symmetry pruning (RG + SLRG): introducing
  /// a fresh node when a smaller-index interchangeable twin was still unused.
  std::uint64_t pruned_placements = 0;
  /// Largest RG open list, counting nodes whose tail is not yet replayed.
  std::uint64_t rg_peak_open = 0;
  std::uint64_t slrg_memo_hits = 0;    // estimate() served from exact/weak caches
  std::uint64_t slrg_memo_misses = 0;  // estimate() that ran an A* query
  std::uint64_t replay_calls = 0;
  std::uint64_t sim_rejections = 0;

  // Anytime search (graceful degradation): when a stop token is armed the RG
  // search records the best feasible plan seen so far ("the incumbent") as
  // goal-satisfying children are generated, and returns it if the stop fires
  // before optimality is proven.
  /// Incumbent improvements recorded during the search (0 = none seen).
  std::uint64_t rg_incumbents = 0;
  /// Cost (g) of the best incumbent; meaningful when rg_incumbents > 0.
  double incumbent_cost = 0.0;
  /// Best admissible f value still open when the search was cut short — a
  /// lower bound on the optimal cost, so the optimality gap of a returned
  /// incumbent is at most incumbent_cost - open_cost_lb.  Under anytime
  /// tracking it is additionally refreshed at every progress tick, so
  /// observers (the service's flight recorder) see a live frontier bound.
  double open_cost_lb = 0.0;

  bool logically_unreachable = false;
  bool hit_search_limit = false;
  /// A cooperative stop (deadline or cancellation, PlannerOptions::stop)
  /// ended a phase early; the remaining counters are a partial snapshot of
  /// the work done up to that point.
  bool stopped = false;
  /// The returned plan is the stop-time incumbent, not a proven optimum.
  bool suboptimal_on_stop = false;
};

/// Serializes the stats as one compact JSON object with a fixed key order
/// (machine-readable run records; every bench emits one per planner run).
/// Times are rendered with fixed three-decimal precision so the output is
/// byte-stable for a given stats value.
[[nodiscard]] std::string stats_to_json(const PlannerStats& stats);

}  // namespace sekitei::core
