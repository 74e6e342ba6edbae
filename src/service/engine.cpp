#include "service/engine.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <optional>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/symmetry.hpp"
#include "model/fingerprint.hpp"
#include "service/flight_recorder.hpp"
#include "sim/executor.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace sekitei::service {

namespace {

std::size_t default_workers(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Request ids become file names for --flight-dir dumps; anything outside
/// [A-Za-z0-9._-] is replaced so "tiny.sk#3" cannot escape the directory.
std::string sanitize_for_filename(const std::string& id) {
  std::string out = id.empty() ? std::string("request") : id;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

/// Owned by the job closure.  Exactly one of two things happens to a
/// submitted job: it runs to completion (complete() answers the sink —
/// a promise for submit(), the caller's callback for submit_async() — and
/// releases the pending slot), or its std::function is destroyed without
/// running — worker fault, non-draining shutdown — and the guard's
/// destructor answers with Rejected instead.  Either way the sink always
/// fires exactly once and the pending slot is always released: no hang,
/// no leak.
struct JobGuard {
  std::function<void(PlanResponse&&)> sink;
  metrics::Gauge* pending;
  std::string id;
  bool done = false;

  JobGuard(std::function<void(PlanResponse&&)> s, metrics::Gauge* slots,
           std::string request_id)
      : sink(std::move(s)), pending(slots), id(std::move(request_id)) {}

  void complete(PlanResponse&& r) {
    if (done) return;
    done = true;
    pending->add(-1);
    sink(std::move(r));
  }

  ~JobGuard() {
    if (done) return;
    PlanResponse r;
    r.id = id;
    r.outcome = Outcome::Rejected;
    r.failure = "job dropped before completion (worker fault or shutdown)";
    SEKITEI_LOG_WARN("service.engine", "job dropped", log::kv("id", id.c_str()));
    complete(std::move(r));
  }
};

/// Engines in one process share the registry, but tests construct fresh
/// engines and expect their counters to start at zero — so each instance
/// reports under its own "engine" label, numbered in construction order.
std::string next_engine_label() {
  static std::atomic<std::uint64_t> constructed{0};
  return std::to_string(constructed.fetch_add(1, std::memory_order_relaxed));
}

/// One planner attempt: what every ladder rung's solve runs, against the
/// compile it plans on, under the request's (possibly re-armed) stop token.
/// Observes the planner phase histograms.
core::PlanResult attempt(const PlanRequest& request, const model::CompiledProblem& target,
                         core::PlannerOptions::Mode mode) {
  core::PlannerOptions opt;
  opt.mode = mode;
  opt.stop = request.stop.token();
  opt.progress_every = request.progress_every;
  opt.progress = request.progress;
  opt.anytime = request.degrade.enabled;
  core::Sekitei planner(target, opt);
  core::PlanResult result;
  if (request.validate) {
    sim::Executor exec(target);
    result = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  } else {
    result = planner.plan();
  }
  [[maybe_unused]] constexpr std::array<const char*, 3> kModeNames{"leveled", "greedy", "cp"};
  [[maybe_unused]] const char* mode_name = kModeNames[static_cast<std::size_t>(mode)];
  SEKITEI_METRIC(metrics::registry()
                     .histogram("planner.graph_ms", {{"mode", mode_name}})
                     .observe(result.stats.time_graph_ms));
  // A logically unreachable goal ends the run before any search.
  if (!result.stats.logically_unreachable) {
    SEKITEI_METRIC(metrics::registry()
                       .histogram("planner.search_ms", {{"mode", mode_name}})
                       .observe(result.stats.time_search_ms));
  }
  return result;
}

/// Renders the shipped plan against `target`, the compile its action ids
/// index, and echoes it for a later repair submission when asked.
void adopt_plan(const PlanRequest& request, const model::CompiledProblem& target,
                PlanResponse& r) {
  r.plan_text = r.plan->str(target);
  if (!request.echo_plan) return;
  r.plan_steps.reserve(r.plan->steps.size());
  for (const ActionId aid : r.plan->steps) r.plan_steps.push_back(aid.index());
  sim::Executor echo_exec(target);
  const sim::ExecutionReport echoed = echo_exec.execute(*r.plan);
  if (echoed.feasible) r.choices = echoed.choices;
}

/// The pre-flight step of both request paths, run when the request or the
/// engine asks for it: analyzes `cp`, fills the preflight_* fields of `r`
/// and returns "<code> <reason>" when `cp` is proven infeasible, "" when it
/// is not.  The analysis is one-sided — it only ever rejects instances no
/// plan can exist for — so an inconclusive verdict simply falls through.
std::string preflight_step(bool enabled, const model::CompiledProblem& cp, PlanResponse& r,
                           metrics::Counter& rejections) {
  if (!enabled) return {};
  if (SEKITEI_FAULT_POINT("preflight")) {
    raise("injected fault at preflight");
  }
  trace::Span span("service.preflight", "service", &r.preflight_ms);
  const analysis::PreflightVerdict verdict = analysis::preflight(cp);
  span.finish();
  r.preflight_ran = true;
  r.preflight_sweeps = verdict.sweeps;
  if (!verdict.infeasible) return {};
  r.preflight_rejected = true;
  rejections.add(1);
  SEKITEI_LOG_INFO("service.engine", "preflight rejected request",
                   log::kv("id", r.id.c_str()), log::kv("code", verdict.code));
  return std::string(verdict.code) + " " + verdict.reason;
}

}  // namespace

PlanningEngine::PlanningEngine(Options options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity, options_.cache_shards),
      engine_label_(next_engine_label()),
      pool_(default_workers(options_.workers)) {
  // Register this engine's series once; the pointers stay valid for the
  // registry's (process) lifetime.  These are direct calls — not macros — so
  // the accessors and admission control behave identically in
  // SEKITEI_METRICS_DISABLED builds.
  metrics::Registry& reg = metrics::registry();
  const metrics::Labels eng{{"engine", engine_label_}};
  pending_ = &reg.gauge("service.pending", eng);
  queue_depth_ = &reg.gauge("service.queue_depth", eng);
  preflight_rejections_ = &reg.counter("service.preflight.rejections", eng);
  repair_preflight_rejected_ = &reg.counter(
      "service.repair_preflight", {{"engine", engine_label_}, {"outcome", "rejected"}});
  repair_preflight_passed_ = &reg.counter(
      "service.repair_preflight", {{"engine", engine_label_}, {"outcome", "passed"}});
  for (std::size_t i = 0; i < outcome_counters_.size(); ++i) {
    outcome_counters_[i] = &reg.counter(
        "service.requests",
        {{"engine", engine_label_}, {"outcome", outcome_name(static_cast<Outcome>(i))}});
  }
  for (std::size_t i = 0; i < ladder_counters_.size(); ++i) {
    ladder_counters_[i] = &reg.counter(
        "service.ladder",
        {{"engine", engine_label_}, {"step", ladder_step_name(static_cast<LadderStep>(i))}});
  }
  for (std::size_t i = 0; i < repair_counters_.size(); ++i) {
    repair_counters_[i] = &reg.counter(
        "service.repairs",
        {{"engine", engine_label_}, {"outcome", outcome_name(static_cast<Outcome>(i))}});
  }
  latency_hist_ = &reg.histogram("service.latency_ms", eng);
  queue_wait_hist_ = &reg.histogram("service.queue_wait_ms", eng);
  repair_migrations_hist_ = &reg.histogram("repair.migrations", eng);
}

PlanningEngine::Ticket PlanningEngine::submit(PlanRequest request) {
  Ticket ticket;
  ticket.stop = request.stop;
  auto promise = std::make_shared<std::promise<PlanResponse>>();
  ticket.response = promise->get_future();
  submit_async(std::move(request),
               [promise](PlanResponse&& r) { promise->set_value(std::move(r)); });
  return ticket;
}

void PlanningEngine::submit_async(PlanRequest request,
                                  std::function<void(PlanResponse&&)> done) {
  const double deadline_ms =
      request.deadline_ms > 0.0 ? request.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms > 0.0) request.stop.arm_deadline_ms(deadline_ms);

  // Reserve the pending slot before checking the bound: check-then-increment
  // would let N concurrent submitters all pass the check and overshoot
  // max_pending.  Gauge::add returns the post-add value, so `prior` keeps
  // the exact fetch_add semantics the pre-registry atomic had.
  const std::size_t prior = static_cast<std::size_t>(pending_->add(1)) - 1;
  if (options_.max_pending != 0 && prior >= options_.max_pending) {
    pending_->add(-1);
    PlanResponse r;
    r.id = request.id;
    r.outcome = Outcome::Rejected;
    r.failure = "queue full (max_pending = " + std::to_string(options_.max_pending) + ")";
    SEKITEI_LOG_WARN("service.engine", "request rejected", log::kv("id", r.id.c_str()),
                     log::kv("pending", prior));
    SEKITEI_METRIC(outcome_counters_[static_cast<std::size_t>(Outcome::Rejected)]->add(1));
    done(std::move(r));
    return;
  }

  const Stopwatch queued;  // measures time until a worker picks the job up
  SEKITEI_METRIC(queue_depth_->add(1));
  auto req = std::make_shared<PlanRequest>(std::move(request));
  auto guard = std::make_shared<JobGuard>(std::move(done), pending_, req->id);
  pool_.submit([this, req, guard, queued] {
    const double wait_ms = queued.elapsed_ms();
    SEKITEI_METRIC(queue_depth_->add(-1));
    SEKITEI_METRIC(queue_wait_hist_->observe(wait_ms));
    PlanResponse r;
    try {
      // Worker-job-start fault point: a throw here (or anywhere below) is
      // classified as Rejected; the guard still releases the pending slot.
      if (SEKITEI_FAULT_POINT("engine.job")) {
        raise("injected fault at engine.job");
      }
      r = process(*req, wait_ms);
    } catch (const std::exception& e) {
      // compile() raises sekitei::Error on semantically invalid input (the
      // loader only parses, so e.g. "preplaced: unknown component" first
      // surfaces here).  Answer Rejected instead of letting the exception
      // tear down the worker and leave the future unfulfilled.
      r = PlanResponse{};
      r.id = req->id;
      r.wait_ms = wait_ms;
      r.outcome = Outcome::Rejected;
      r.failure = e.what();
      SEKITEI_LOG_WARN("service.engine", "request failed", log::kv("id", r.id.c_str()),
                       log::kv("error", e.what()));
    }
    // End-to-end latency (queue wait + processing) and the per-outcome
    // tally, recorded on every path through the worker including the
    // exception handler above.
    SEKITEI_METRIC(latency_hist_->observe(queued.elapsed_ms()));
    SEKITEI_METRIC(outcome_counters_[static_cast<std::size_t>(r.outcome)]->add(1));
    guard->complete(std::move(r));
  });
}

PlanResponse PlanningEngine::plan(PlanRequest request) {
  return submit(std::move(request)).response.get();
}

PlanResponse PlanningEngine::process(PlanRequest& request, double wait_ms) {
  // Per-request observability wrapper around the planning logic.  The flight
  // recorder piggybacks on the request's progress callback (one Sample per
  // RG progress tick), so an idle configuration — no sink, no dir — costs
  // nothing beyond this branch.
  const bool record_flight = options_.flight_sink || !options_.flight_dir.empty();
  std::optional<FlightRecorder> recorder;
  const std::function<void(const core::PlannerStats&)> inner_progress = request.progress;
  if (record_flight) {
    FlightRecorder& rec =
        recorder.emplace(options_.flight_capacity == 0 ? 1 : options_.flight_capacity);
    request.progress = [&rec, inner_progress](const core::PlannerStats& stats) {
      rec.record(stats);
      if (inner_progress) inner_progress(stats);
    };
  }

  PlanResponse r;
  r.id = request.id;
  r.wait_ms = wait_ms;
  try {
    process_inner(request, r);
  } catch (const Error& e) {
    // A compile the request's token stopped (the cached compile, the repair
    // compile or the bare damaged one) answers like a stopped search; the
    // cache never saw the entry.
    if (!std::string_view(e.what()).starts_with(model::kCompileStopped)) throw;
    r.outcome = request.stop.token().reason() == StopReason::Cancelled
                    ? Outcome::Cancelled
                    : Outcome::DeadlineExceeded;
    r.failure = "stopped during compile";
  }
  request.progress = inner_progress;  // drop the dangling recorder capture
  SEKITEI_LOG_INFO("service.engine", "request served", log::kv("id", r.id.c_str()),
                   log::kv("outcome", outcome_name(r.outcome)),
                   log::kv("ladder", ladder_step_name(r.ladder)),
                   log::kv("repair", r.repair_requested), log::kv("cache_hit", r.cache_hit),
                   log::kv("wait_ms", r.wait_ms), log::kv("solve_ms", r.solve_ms),
                   log::kv("repaired", r.repaired), log::kv("migrations", r.migrations));

  if (r.ok()) {
    SEKITEI_METRIC(ladder_counters_[static_cast<std::size_t>(r.ladder)]->add(1));
  }
  if (r.repair_requested) {
    SEKITEI_METRIC(repair_counters_[static_cast<std::size_t>(r.outcome)]->add(1));
    if (r.ok()) SEKITEI_METRIC(repair_migrations_hist_->observe(r.migrations));
  }
  // Dump the recording for every answer the caller will want to autopsy:
  // deadline/cancel/degraded cut the search short, infeasible-after-search
  // shows where the frontier died.  Solved requests (and Rejected ones,
  // which never searched) stay quiet.
  if (record_flight && r.outcome != Outcome::Solved && r.outcome != Outcome::Rejected) {
    const std::string dump = recorder->to_ndjson(r.id, outcome_name(r.outcome));
    if (options_.flight_sink) {
      options_.flight_sink(dump);
    } else {
      const std::string path =
          options_.flight_dir + "/" + sanitize_for_filename(r.id) + ".flight.ndjson";
      std::ofstream out(path, std::ios::trunc);
      if (out) {
        out << dump;
        SEKITEI_LOG_INFO("service.engine", "flight recording dumped",
                         log::kv("id", r.id.c_str()), log::kv("path", path.c_str()),
                         log::kv("samples", recorder->size()));
      } else {
        SEKITEI_LOG_WARN("service.engine", "flight dump failed",
                         log::kv("id", r.id.c_str()), log::kv("path", path.c_str()));
      }
    }
  }
  return r;
}

void run_ladder(const std::vector<Rung>& rungs, StopSource& stop, double primary_fraction,
                PlanResponse& r) {
  // Budget split.  t_end is the request's true deadline; when another rung
  // follows, the first one only gets primary_fraction of what remains and
  // each later rung is re-armed to t_end on the same StopSource.
  // Cancellation still wins at any point (a separate flag on the shared
  // state).
  const StopToken token = stop.token();
  const std::int64_t t_end = stop.deadline_epoch_ns();
  if (rungs.size() > 1 && t_end != 0 && primary_fraction > 0.0 && primary_fraction < 1.0) {
    const std::int64_t now = StopSource::now_epoch_ns();
    if (t_end > now) {
      stop.arm_deadline_at_ns(
          now + static_cast<std::int64_t>(static_cast<double>(t_end - now) * primary_fraction));
    }
  }

  r.outcome = Outcome::DeadlineExceeded;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (i > 0 && t_end != 0) {
      if (t_end <= StopSource::now_epoch_ns()) return;  // budget already gone
      stop.arm_deadline_at_ns(t_end);
    }
    double rung_ms = 0.0;
    trace::Span span(ladder_step_name(rungs[i].step), "ladder", &rung_ms);
    core::PlanResult result = rungs[i].solve();
    span.finish();
    r.solve_ms += rung_ms;
    if (i > 0) r.fallback_ms += rung_ms;
    r.ladder = rungs[i].step;
    // A plan-less answer reports the first rung's stats and failure unless
    // a later rung ends the ladder with its own.
    if (i == 0) {
      r.stats = result.stats;
      r.failure = result.failure;
    }
    const bool stopped = result.stats.stopped;
    if (result.plan) {
      r.stats = result.stats;
      r.plan = std::move(result.plan);
      if (i == 0 && !stopped) {
        r.outcome = Outcome::Solved;
        r.failure.clear();
        return;
      }
      r.outcome = Outcome::Degraded;
      char buf[160];
      if (i == 0) {
        // The stopped search held a replay-validated incumbent.
        r.ladder = LadderStep::AnytimeIncumbent;
        std::snprintf(buf, sizeof buf,
                      "%s fired %s; returning best incumbent (cost %.3f, open lower bound %.3f)",
                      stop_reason_name(token.reason()), rungs[0].failure,
                      r.stats.incumbent_cost, r.stats.open_cost_lb);
      } else {
        std::snprintf(buf, sizeof buf, "%s (cost lb %.3f)", rungs[i].failure,
                      r.plan->cost_lb);
      }
      r.failure = buf;
      return;
    }
    if (stopped && token.reason() == StopReason::Cancelled) {
      r.outcome = Outcome::Cancelled;
      r.stats = result.stats;
      return;
    }
    // A search that ran out of its node budget proves nothing.
    if (!stopped && !result.stats.hit_search_limit && rungs[i].proves_infeasible) {
      r.outcome = Outcome::Infeasible;
      r.stats = result.stats;
      r.failure = result.failure;
      return;
    }
  }
}

void PlanningEngine::process_inner(PlanRequest& request, PlanResponse& r) {
  trace::Span span("service.request", "service");

  if (!request.problem) {
    r.outcome = Outcome::Rejected;
    r.failure = "request carries no problem";
    return;
  }
  const StopToken token = request.stop.token();
  // Died in the queue (cancelled, or the deadline fired before any worker
  // freed up): answer without touching the planner.
  if (token.stop_requested()) {
    r.outcome = token.reason() == StopReason::Cancelled ? Outcome::Cancelled
                                                        : Outcome::DeadlineExceeded;
    r.failure = "stopped before planning started";
    return;
  }

  r.fingerprint = model::fingerprint(request.problem->problem, request.problem->scenario);
  auto [entry, hit] = cache_.get_or_compile(r.fingerprint, [&] {
    auto made = std::make_shared<CompiledEntry>();
    trace::Span compile_span("service.compile", "service", &r.compile_ms);
    made->source = request.problem;
    made->cp = model::compile(request.problem->problem, request.problem->scenario, token);
    // Attach the node symmetry partition before the entry is published to
    // the cache (it is immutable — and shared across workers — afterwards);
    // the searches prune interchangeable twins against it.
    analysis::attach_symmetry(made->cp);
    compile_span.finish();
    return made;
  });
  r.cache_hit = hit;
  const model::CompiledProblem& cp = entry->cp;
  r.symmetry_classes = cp.symmetric_class_count;

  if (request.repair) {
    process_repair(request, r, cp);
    return;
  }

  // Pre-flight: a provably-infeasible instance is answered here, before a
  // search budget (or the degradation ladder) is committed to it.
  if (std::string failure =
          preflight_step(request.preflight || options_.preflight, cp, r, *preflight_rejections_);
      !failure.empty()) {
    r.outcome = Outcome::Infeasible;
    r.failure = std::move(failure);
    return;
  }

  // The plain rung list: the requested search, then — for Leveled requests
  // with an armed deadline — a greedy retry on the reserved remainder.
  std::vector<Rung> rungs;
  rungs.push_back({LadderStep::Primary, [&] { return attempt(request, cp, request.mode); },
                   /*proves_infeasible=*/true, "mid-search"});
  if (request.degrade.enabled && request.mode == core::PlannerOptions::Mode::Leveled &&
      request.stop.deadline_epoch_ns() != 0) {
    // A greedy "infeasible" is NOT proof for the leveled semantics (the
    // worst-case reservation is strictly more conservative).
    rungs.push_back({LadderStep::GreedyFallback,
                     [&] { return attempt(request, cp, core::PlannerOptions::Mode::Greedy); },
                     /*proves_infeasible=*/false,
                     "deadline fired before the optimal search finished; greedy fallback plan"});
  }
  run_ladder(rungs, request.stop, request.degrade.primary_fraction, r);
  if (r.plan) adopt_plan(request, cp, r);
}

namespace {

/// Deployment-churn accounting for a shipped (repair or replan) plan.
/// `plan_cp` is the compile the plan's action ids index; `base_cp` is the
/// compile the prior plan's ids index.
void count_churn(const model::CompiledProblem& plan_cp, const core::Plan& plan,
                 const model::CompiledProblem& base_cp, const core::Plan& prior,
                 const repair::Survivors& survivors, PlanResponse& r) {
  std::vector<std::pair<std::string, NodeId>> placed;
  for (const ActionId aid : plan.steps) {
    const model::GroundAction& act = plan_cp.actions[aid.index()];
    if (act.kind != model::ActionKind::Place) continue;
    placed.emplace_back(plan_cp.domain->component_at(act.spec_index).name, act.node);
  }
  const auto survived = [&](const std::string& comp, const NodeId* node) {
    for (const auto& [name, at] : survivors.placements) {
      if (name == comp && (node == nullptr || at == *node)) return true;
    }
    return false;
  };
  r.migrations = 0;
  r.reconnects = 0;
  for (const auto& [comp, node] : placed) {
    if (survived(comp, &node)) {
      ++r.reconnects;
    } else if (survived(comp, nullptr)) {
      ++r.migrations;
    }
  }
  // Lost: prior placements that neither survived nor were re-established at
  // their original node by the new plan (e.g. a tenant of a failed node that
  // nothing re-places).  A survivor re-placed elsewhere is a migration, not
  // a loss — counting it under both would double-charge the churn.
  std::uint32_t lost = 0;
  for (const ActionId aid : prior.steps) {
    const model::GroundAction& act = base_cp.actions[aid.index()];
    if (act.kind != model::ActionKind::Place) continue;
    const std::string& comp = base_cp.domain->component_at(act.spec_index).name;
    if (survived(comp, &act.node)) continue;
    bool reestablished = false;
    for (const auto& [name, node] : placed) {
      if (name == comp && node == act.node) reestablished = true;
    }
    if (!reestablished && survived(comp, nullptr)) continue;  // migrated survivor
    if (!reestablished) ++lost;
  }
  r.disruption = r.migrations + lost;
}

}  // namespace

void PlanningEngine::process_repair(PlanRequest& request, PlanResponse& r,
                                    const model::CompiledProblem& cp) {
  trace::Span span("service.repair", "service");
  const RepairSpec& spec = *request.repair;
  r.repair_requested = true;

  for (const ActionId aid : spec.prior_plan.steps) {
    if (aid.index() >= cp.actions.size()) {
      r.outcome = Outcome::Rejected;
      r.failure = "repair: prior-plan action " + std::to_string(aid.index()) +
                  " out of range (problem compiles to " +
                  std::to_string(cp.actions.size()) + " actions)";
      return;
    }
  }

  // The bare damaged CPP — no survivors pinned, every capacity free — is
  // the most permissive problem any rung will ever solve.  Compiled at most
  // once, by whichever of the repair pre-flight cut and the FullReplan rung
  // needs it first.
  const net::Network bare = repair::damaged_copy(*cp.net, spec.damage, nullptr);
  model::CppProblem fresh = *cp.problem;
  fresh.network = &bare;
  std::optional<model::CompiledProblem> bcp;
  const auto bare_compile = [&]() -> const model::CompiledProblem& {
    if (!bcp) {
      bcp.emplace(model::compile(fresh, cp.scenario, request.stop.token()));
      analysis::attach_symmetry(*bcp);
    }
    return *bcp;
  };

  // Repair pre-flight cut: before computing survivors or spending any search
  // budget, test the goal's relaxed reachability on the bare damaged
  // network.  "Unreachable there" is a sound certificate that the drift is
  // unsurvivable: answer Infeasible immediately instead of burning the
  // deadline on the repair search and the full replan.
  if (request.preflight || options_.preflight) {
    if (SEKITEI_FAULT_POINT("repair.preflight")) {
      raise("injected fault at repair.preflight");
    }
    trace::Span span("service.repair_preflight", "service", &r.repair_preflight_ms);
    const analysis::PreflightVerdict verdict = analysis::preflight(bare_compile());
    span.finish();
    r.repair_preflight_ran = true;
    if (verdict.infeasible) {
      r.repair_preflight_rejected = true;
      SEKITEI_METRIC(repair_preflight_rejected_->add(1));
      r.symmetry_classes = bcp->symmetric_class_count;
      r.outcome = Outcome::Infeasible;
      r.failure = "unsurvivable drift: " + std::string(verdict.code) + " " + verdict.reason;
      SEKITEI_LOG_INFO("service.engine", "repair preflight rejected request",
                       log::kv("id", r.id.c_str()), log::kv("code", verdict.code));
      return;
    }
    SEKITEI_METRIC(repair_preflight_passed_->add(1));
  }

  // Survivors of the prior deployment under the damage delta.  An empty
  // prior plan means "no survivors": the repair degenerates to a replan on
  // the damaged network, the same answer as a plain solve of the bare
  // damaged compile.
  if (SEKITEI_FAULT_POINT("repair.survivors")) {
    raise("injected fault at repair.survivors");
  }
  repair::Survivors survivors;
  const bool have_prior = !spec.prior_plan.steps.empty();
  if (have_prior) {
    survivors = repair::compute_survivors(cp, spec.prior_plan, spec.choices, spec.damage);
  }

  // The repair CPP: damaged network minus the survivors' residual
  // consumption, survivors pre-placed, their streams initial, placement
  // actions discounted to RECONNECT/MIGRATE rates.  Compiled locally — the
  // damaged network is request-specific, so the compiled-problem cache
  // cannot serve it.
  trace::Span compile_span("service.repair_compile", "service", &r.compile_ms);
  const net::Network damaged =
      repair::damaged_copy(*cp.net, spec.damage, have_prior ? &survivors.residual : nullptr);
  const model::CppProblem rp = repair::repair_problem(*cp.problem, damaged, survivors);
  model::CompiledProblem rcp = model::compile(rp, cp.scenario, request.stop.token());
  repair::apply_adaptation_costs(rcp, survivors, spec.costs);
  // Discounted costs only vary at survivor nodes, which repair_problem()
  // pre-places (pinned singletons in the partition), so twin pruning on the
  // repair compile stays cost-exact.
  analysis::attach_symmetry(rcp);
  compile_span.finish();
  r.symmetry_classes = rcp.symmetric_class_count;

  // Set when preflight proves the repair CPP infeasible.
  const std::string preflight_failure =
      preflight_step(request.preflight || options_.preflight, rcp, r, *preflight_rejections_);

  // The repair rung list: the repair search, then — when degradation is on
  // — a full replan from scratch on the bare damaged network at full
  // capacities and undiscounted costs.  Infeasible *with the survivors
  // pinned* is not infeasible outright (tearing everything down frees their
  // resources), so the repair rung only proves infeasibility when no
  // replan follows it.
  std::vector<Rung> rungs;
  rungs.push_back({LadderStep::Primary,
                   [&] {
                     core::PlanResult skipped;
                     skipped.failure = preflight_failure;
                     // Deterministic mid-repair failure for tests and the CI
                     // fault matrix: Fail mode behaves exactly like the
                     // repair search's budget slice expiring with no
                     // incumbent in hand.
                     skipped.stats.stopped = SEKITEI_FAULT_POINT("repair.plan");
                     if (skipped.stats.stopped || !preflight_failure.empty()) return skipped;
                     return attempt(request, rcp, request.mode);
                   },
                   /*proves_infeasible=*/!request.degrade.enabled, "mid-repair"});
  if (request.degrade.enabled) {
    rungs.push_back({LadderStep::FullReplan,
                     [&] { return attempt(request, bare_compile(), request.mode); },
                     /*proves_infeasible=*/true,
                     "repair could not answer within its budget; full replan on the damaged "
                     "network"});
  }
  run_ladder(rungs, request.stop, request.degrade.primary_fraction, r);
  if (!r.plan) return;

  const bool replanned = r.ladder == LadderStep::FullReplan;
  const model::CompiledProblem& target = replanned ? *bcp : rcp;
  adopt_plan(request, target, r);
  count_churn(target, *r.plan, cp, spec.prior_plan, survivors, r);
  r.repair_cost = r.plan->cost_lb + spec.migration_penalty * r.migrations;
  r.repaired = !replanned;
  r.symmetry_classes = target.symmetric_class_count;
}

}  // namespace sekitei::service
