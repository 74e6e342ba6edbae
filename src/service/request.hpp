// Request/response types of the concurrent planning service.
//
// A PlanRequest bundles a loaded CPP instance with planning options, an
// optional deadline, and a cancellation handle; the engine (service/engine.hpp)
// answers with a PlanResponse whose `outcome` classifies what happened:
//
//   solved             a validated plan was found
//   infeasible         the planner proved no plan exists
//   degraded           the deadline (or a cancel) cut the search short but a
//                      feasible plan is still returned: the anytime
//                      incumbent of the stopped first search, or the plan of
//                      a later rung on the remaining budget.  `ladder`
//                      records which rung answered.
//   deadline_exceeded  the request's deadline fired, or a search ran out of
//                      its node budget, before any plan was found
//   cancelled          StopSource::request_stop() ended the request early
//   rejected           the engine refused the request (queue full, no problem)
//
// The degradation ladder (per-request policy, PlanRequest::degrade) is one
// runner (engine.hpp's run_ladder) over one of two rung lists:
//
//   plain request                       repair request (PlanRequest::repair)
//   1. the requested search             1. repair search, survivors pinned
//   2. greedy retry (greedy_fallback)   2. full replan from scratch on the
//      Leveled mode + deadline only        damaged network (full_replan)
//
//   rung 1 ──found──▶ solved
//     │ stop, incumbent in hand ──▶ degraded (anytime_incumbent)
//     │ no plan, infeasibility not proven
//     ▼
//   rung 2 on the remaining budget ──found──▶ degraded (greedy_fallback |
//     │ nothing                                          full_replan)
//     ▼
//   infeasible (an unstopped rung within its search limit whose answer is
//   proof: the plain search, the full replan, the repair search when no
//   replan follows it) / deadline_exceeded (otherwise)
//
// On deadline_exceeded/cancelled the response still carries the partial
// PlannerStats accumulated up to the stop — a served client can see how far
// planning got.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include <vector>

#include "core/plan.hpp"
#include "core/planner.hpp"
#include "core/stats.hpp"
#include "model/textio.hpp"
#include "repair/repair.hpp"
#include "support/stop_token.hpp"

namespace sekitei::service {

enum class Outcome : unsigned char {
  Solved,
  Infeasible,
  DeadlineExceeded,
  Cancelled,
  Rejected,
  Degraded,
};

[[nodiscard]] const char* outcome_name(Outcome o);

/// Process exit code convention shared by the CLI drivers: solved = 0,
/// infeasible = 1 (2 stays reserved for usage/input errors), deadline = 3,
/// cancelled = 4, rejected = 5, degraded = 6.
[[nodiscard]] int outcome_exit_code(Outcome o);

/// Which rung of the degradation ladder produced the response.
enum class LadderStep : unsigned char {
  Primary,           // the requested (usually optimal) search answered
  AnytimeIncumbent,  // the stopped search's best incumbent plan
  GreedyFallback,    // greedy retry on the remaining budget
  FullReplan,        // repair could not beat the budget: replanned from
                     // scratch on the damaged network (repair requests only)
};

[[nodiscard]] const char* ladder_step_name(LadderStep s);

/// Per-request graceful-degradation policy.
struct DegradePolicy {
  /// Master switch: when false the request behaves exactly like the pre-
  /// ladder engine (a fired deadline answers deadline_exceeded, full stop).
  bool enabled = true;
  /// Share of the remaining deadline budget granted to the first rung when a
  /// second one follows; the rest is held in reserve for it.  Values outside
  /// (0, 1) give the first rung everything (no reserve).
  double primary_fraction = 0.6;
};

/// Repair payload: turns a PlanRequest into a drift-resilient replanning
/// request.  The engine computes the survivors of `prior_plan` under
/// `damage` (repair/repair.hpp), plans a minimally-disruptive patch on the
/// damaged network with RECONNECT/MIGRATE-discounted placement costs, and
/// reports `repair_cost = plan cost + migration_penalty * migrations`.  When
/// the repair search cannot answer inside its budget slice, the ladder falls
/// to a full replan from scratch on the damaged network (LadderStep::
/// FullReplan) instead of silently shipping nothing.
struct RepairSpec {
  /// The previously shipped plan; action ids index the deterministic compile
  /// of this request's problem.
  core::Plan prior_plan;
  /// The prior execution's production choices (ExecutionReport::choices,
  /// init_map order).  Empty means "no survivors": the repair degenerates to
  /// a from-scratch replan on the damaged network.
  std::vector<double> choices;
  repair::Damage damage;
  /// Added to the reported repair cost once per migrated component — the
  /// client's knob for how much deployment stability is worth.
  double migration_penalty = 0.0;
  repair::AdaptationCosts costs;
};

struct PlanRequest {
  /// Caller-chosen label echoed in the response (e.g. "small.sk#3").
  std::string id;

  /// The instance to plan.  Shared ownership: the engine pins it for as long
  /// as the compiled-problem cache references it.
  std::shared_ptr<const model::LoadedProblem> problem;

  core::PlannerOptions::Mode mode = core::PlannerOptions::Mode::Leveled;

  /// Per-request deadline in milliseconds; <= 0 falls back to the engine's
  /// default (whose own <= 0 means "no deadline").
  double deadline_ms = 0.0;

  /// Concretely validate candidate plans through the simulator before
  /// accepting them (the full solve_file pipeline).
  bool validate = true;

  /// Run the pre-flight infeasibility analyzer (analysis/analyzer.hpp) after
  /// compile and before any search: a provably-infeasible instance answers
  /// Infeasible immediately, without consuming the search budget.  Also
  /// enabled engine-wide by PlanningEngine::Options::preflight.  Off by
  /// default: with it off the engine's behaviour is unchanged.
  bool preflight = false;

  /// Cancellation handle: request_stop() cancels this request whether it is
  /// still queued or already planning.  The engine arms the deadline on this
  /// same source at submit time, so one token answers both questions.
  StopSource stop;

  /// Stop-poll cadence of the search loops (PlannerOptions::progress_every).
  /// The service default is finer than the planner's 8192 so deadlines are
  /// honoured promptly on small problems.
  std::uint64_t progress_every = 1024;

  /// Graceful-degradation ladder policy for this request.
  DegradePolicy degrade;

  /// Present on repair requests (see RepairSpec).
  std::optional<RepairSpec> repair;

  /// Echo the winning plan's action indices and execution choices in the
  /// response (PlanResponse::plan_steps/choices) so a wire client can later
  /// resubmit them as a RepairSpec.  Off by default: the echo costs one
  /// extra plan execution when validation is off.
  bool echo_plan = false;

  /// Optional progress observer forwarded to PlannerOptions::progress (the
  /// worker invokes it from the search loop; it may call request_stop() on
  /// the request's own StopSource).
  std::function<void(const core::PlannerStats&)> progress;
};

struct PlanResponse {
  std::string id;
  Outcome outcome = Outcome::Rejected;
  std::optional<core::Plan> plan;
  /// Fig.-4-style rendering of the plan (empty when there is none); rendered
  /// by the worker while it still holds the compiled problem.
  std::string plan_text;
  core::PlannerStats stats;
  std::string failure;  // human-readable reason when outcome != solved

  /// Which ladder rung answered: the rung that produced the plan, or for a
  /// plan-less outcome the last rung that ran (Primary if none did).
  LadderStep ladder = LadderStep::Primary;

  std::uint64_t fingerprint = 0;  // compiled-problem cache key
  bool cache_hit = false;
  double compile_ms = 0.0;   // grounding+leveling time (0.0 on cache hits)
  double solve_ms = 0.0;     // planner time across every ladder attempt
  double fallback_ms = 0.0;  // share of solve_ms spent in rungs after the first
  double wait_ms = 0.0;      // time spent queued before a worker picked it up
  /// Pre-flight infeasibility analysis (only meaningful when it ran).
  bool preflight_ran = false;
  bool preflight_rejected = false;  // answered Infeasible without any search
  double preflight_ms = 0.0;
  std::uint32_t preflight_sweeps = 0;  // fixpoint sweeps the analysis took
  /// Submission attempts the client made (> 1 after admission-control
  /// retries, e.g. sekitei_serve's jittered backoff).
  std::uint32_t attempts = 1;

  /// Symmetric node classes (>= 2 interchangeable members) the analysis layer
  /// attached to the compiled problem this answer planned against; 0 when the
  /// instance has none.  Rendered on the wire only when non-zero.
  std::uint32_t symmetry_classes = 0;

  /// Repair pre-flight cut: before any repair search, the goal's relaxed
  /// reachability is checked on the *bare* damaged network (no survivors
  /// pinned).  Unreachable there means unreachable for the repair and the
  /// full replan alike, so the request answers Infeasible with a sound
  /// certificate instead of burning its whole budget.  Only meaningful on
  /// repair requests with pre-flight enabled.
  bool repair_preflight_ran = false;
  bool repair_preflight_rejected = false;
  double repair_preflight_ms = 0.0;

  /// Repair accounting (only meaningful when `repair_requested`; the wire
  /// rendering emits the block exactly then, keeping plain records stable).
  bool repair_requested = false;
  /// True when the shipped plan reuses the survivors (any rung above
  /// FullReplan); false once the ladder fell to a from-scratch replan.
  bool repaired = false;
  std::uint32_t migrations = 0;  // surviving components re-placed elsewhere
  std::uint32_t reconnects = 0;  // surviving components re-placed in situ
  /// Deployment churn: migrations plus prior placements that neither
  /// survived nor were re-established at their original node.
  std::uint32_t disruption = 0;
  /// plan->cost_lb + migration_penalty * migrations (the ladder's yardstick).
  double repair_cost = 0.0;

  /// Echo of the winning plan for later repair submission (echo_plan only):
  /// action indices into the compile the plan was found against, plus the
  /// validated execution's production choices.
  std::vector<std::uint32_t> plan_steps;
  std::vector<double> choices;

  /// True when the response carries a usable plan (optimal or degraded).
  [[nodiscard]] bool ok() const {
    return outcome == Outcome::Solved || outcome == Outcome::Degraded;
  }
};

/// One NDJSON record for a response:
///   {"request":"...","outcome":"solved","cache_hit":true,...,"stats":{...}}
/// The fingerprint is rendered as a hex string (64-bit values do not survive
/// JSON number parsers).  Used by the sekitei_serve driver, the network
/// daemon's response frames, and the tests; the definition lives with the
/// rest of the wire codec (service/wire.cpp) and is pinned byte-for-byte by
/// wire_test.cpp.
[[nodiscard]] std::string response_to_json(const PlanResponse& r);

/// Builds a heap-pinned LoadedProblem from parts: moves them in and re-points
/// the CppProblem at the moved-to network/domain.  This is how programmatic
/// instances (e.g. domains::media) enter the service, which otherwise feeds
/// on parsed .sk files.
[[nodiscard]] std::shared_ptr<model::LoadedProblem> make_loaded(spec::DomainSpec domain,
                                                                net::Network net,
                                                                model::CppProblem problem,
                                                                spec::LevelScenario scenario);

}  // namespace sekitei::service
