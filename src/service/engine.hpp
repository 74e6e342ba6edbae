// The concurrent planning engine: accepts PlanRequests, schedules them on a
// fixed thread pool, and returns futures of PlanResponse.
//
//   service::PlanningEngine engine({.workers = 4, .default_deadline_ms = 500});
//   auto ticket = engine.submit({.id = "q1", .problem = lp});
//   ...
//   service::PlanResponse r = ticket.response.get();
//
// Per request the worker: (1) computes the content fingerprint and asks the
// sharded LRU compiled-problem cache, compiling only on a miss; (2) builds
// the request's rung list — plain requests: the requested search, then a
// greedy retry; repair requests: the repair search, then a full replan (see
// request.hpp); (3) hands it to run_ladder(), which runs the three-phase
// Sekitei planner rung by rung on one split budget, with the request's stop
// token plumbed into every phase, and classifies the result into an
// Outcome.  Deadlines and cancellation are cooperative: the token is polled
// at the planner's progress cadence, so responses to a fired deadline
// arrive within one progress tick, carrying the partial stats accumulated
// so far.
//
// Robustness: every submitted job carries a guard that answers its future
// with Rejected and releases the pending slot from the guard's destructor if
// the job is ever dropped without completing (an injected worker fault, a
// non-draining shutdown) — a submitted request can never hang its client or
// leak a pending slot.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <string>
#include <vector>

#include "service/compiled_cache.hpp"
#include "service/request.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace sekitei::service {

/// One rung of the degradation ladder.
struct Rung {
  LadderStep step = LadderStep::Primary;  // reported for a plan from a later rung
  /// The rung's attempt, run under the request's re-armed stop token.
  std::function<core::PlanResult()> solve;
  /// An unstopped answer without a plan proves that no plan exists.  False
  /// for rungs that solve a stricter problem than the request asks about:
  /// the greedy worst-case reservation, and the repair with survivors
  /// pinned while a full replan follows it.
  bool proves_infeasible = false;
  /// Names a degraded plan from this rung in PlanResponse::failure.  The
  /// first rung's text reads "<stop reason> fired <failure>; returning best
  /// incumbent ..."; a later rung's is followed by its plan's cost bound.
  const char* failure = "";
};

/// The degradation ladder: runs `rungs` in order on one budget and fills
/// r.outcome, ladder, stats, failure, plan, solve_ms and fallback_ms.
///  - Budget: with a deadline armed on `stop` and more than one rung, the
///    first rung gets `primary_fraction` of the remaining budget (values
///    outside (0, 1) give it everything); each later rung is re-armed to the
///    true deadline, and is skipped once that has passed.
///  - A plan from an unstopped first rung is solved/primary; from a stopped
///    first rung degraded/anytime_incumbent; from a later rung degraded with
///    that rung's step.
///  - A stopped rung under a cancelled token answers cancelled.
///  - A plan-less rung answers infeasible only if it ran unstopped, did not
///    hit its search limit, and proves_infeasible; otherwise the next rung
///    runs, and when none is left the answer is deadline_exceeded with the
///    first rung's stats.
///  - r.ladder names the last rung that ran (anytime_incumbent for a plan
///    from a stopped first rung).
void run_ladder(const std::vector<Rung>& rungs, StopSource& stop, double primary_fraction,
                PlanResponse& r);

class PlanningEngine {
 public:
  struct Options {
    std::size_t workers = 0;           // 0 = std::thread::hardware_concurrency()
    std::size_t cache_capacity = 128;  // compiled problems; 0 disables caching
    std::size_t cache_shards = 8;
    double default_deadline_ms = 0.0;  // <= 0 = no default deadline
    /// Reject new submissions while this many requests are queued or running
    /// (admission control); 0 = unbounded.
    std::size_t max_pending = 0;
    /// Run the pre-flight infeasibility analyzer on every request (the
    /// engine-wide counterpart of PlanRequest::preflight).
    bool preflight = false;
    /// Search flight recorder (service/flight_recorder.hpp): when a dump
    /// destination is set, every request samples RG progress into a ring of
    /// `flight_capacity` entries and non-solved outcomes (deadline_exceeded,
    /// degraded, cancelled, infeasible-after-search) dump it as NDJSON —
    /// `flight_dir` writes <dir>/<sanitized id>.flight.ndjson, `flight_sink`
    /// receives the rendered dump instead (takes precedence; called
    /// concurrently from worker threads, so it must be thread-safe).
    std::size_t flight_capacity = 256;
    std::string flight_dir{};
    std::function<void(const std::string& ndjson)> flight_sink{};
  };

  /// Handle returned by submit(): the response future plus the cancellation
  /// source (shared with the request; cancel() stops the request whether it
  /// is still queued or already planning).
  struct Ticket {
    std::future<PlanResponse> response;
    StopSource stop;

    void cancel() { stop.request_stop(); }
  };

  // Not a `= {}` default argument: NSDMIs of a nested class are not usable
  // in default arguments of the enclosing class (GCC rejects it).
  PlanningEngine() : PlanningEngine(Options{}) {}
  explicit PlanningEngine(Options options);
  /// Drains queued requests, then joins the workers.
  ~PlanningEngine() = default;

  PlanningEngine(const PlanningEngine&) = delete;
  PlanningEngine& operator=(const PlanningEngine&) = delete;

  [[nodiscard]] Ticket submit(PlanRequest request);

  /// Callback form of submit(), for callers that complete requests out of
  /// order without parking a thread per future (the network daemon's
  /// sessions).  `done` is invoked exactly once — from a worker thread on
  /// the normal path, inline on admission rejection — and must be
  /// thread-safe against other completions.  Cancellation stays available
  /// through the StopSource the caller put into the request.
  void submit_async(PlanRequest request,
                    std::function<void(PlanResponse&&)> done);

  /// Convenience: submit + wait.
  [[nodiscard]] PlanResponse plan(PlanRequest request);

  [[nodiscard]] CompiledProblemCache::Stats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] std::size_t worker_count() const { return pool_.worker_count(); }
  /// Requests accepted but not yet answered (queued + running).  Backed by
  /// the process-wide metrics registry ("service.pending"{engine=...}); the
  /// accessor semantics are unchanged from the pre-registry atomics.
  [[nodiscard]] std::size_t pending() const {
    const std::int64_t v = pending_->value();
    return v > 0 ? static_cast<std::size_t>(v) : 0;
  }
  /// Requests answered Infeasible by the pre-flight analyzer alone (no
  /// search was run for them).
  [[nodiscard]] std::uint64_t preflight_rejections() const {
    return preflight_rejections_->value();
  }
  /// Value of the "engine" label this instance reports its per-engine
  /// metrics under ("0", "1", ... in construction order, process-wide).
  [[nodiscard]] const std::string& metrics_label() const { return engine_label_; }

 private:
  /// Non-const request: run_ladder() re-arms the deadline on the request's
  /// own StopSource to split one budget across rungs.  The wrapper owns
  /// per-request observability (flight recorder, per-outcome / ladder
  /// counters) and answers a stopped compile; process_inner() compiles,
  /// pre-flights and runs the plain rung list, filling `r` in place.
  [[nodiscard]] PlanResponse process(PlanRequest& request, double wait_ms);
  void process_inner(PlanRequest& request, PlanResponse& r);
  /// The repair path (PlanRequest::repair): survivors, the discounted repair
  /// compile, the repair rung list, and churn accounting for the shipped
  /// plan.  Fills `r` in place; `cp` is the cached compile of the request's
  /// (base) problem.
  void process_repair(PlanRequest& request, PlanResponse& r,
                      const model::CompiledProblem& cp);

  Options options_;
  CompiledProblemCache cache_;
  std::string engine_label_;
  // Registry-owned instruments (stable addresses for the engine's lifetime).
  // pending_/preflight_rejections_ are load-bearing (accessors above, the
  // admission-control check), so they are plain calls, never compiled out.
  metrics::Gauge* pending_ = nullptr;
  metrics::Gauge* queue_depth_ = nullptr;
  metrics::Counter* preflight_rejections_ = nullptr;
  // Repair pre-flight cut tallies ("service.repair_preflight"{outcome=...}):
  // drift requests proven unsurvivable before any repair search vs passed on.
  metrics::Counter* repair_preflight_rejected_ = nullptr;
  metrics::Counter* repair_preflight_passed_ = nullptr;
  std::array<metrics::Counter*, 6> outcome_counters_{};  // indexed by Outcome
  std::array<metrics::Counter*, 4> ladder_counters_{};   // indexed by LadderStep
  std::array<metrics::Counter*, 6> repair_counters_{};   // repair requests by Outcome
  metrics::Histogram* latency_hist_ = nullptr;
  metrics::Histogram* queue_wait_hist_ = nullptr;
  metrics::Histogram* repair_migrations_hist_ = nullptr;
  ThreadPool pool_;  // last member: destroyed (joined) first, while the cache
                     // and options it reads are still alive
};

}  // namespace sekitei::service
