// Microbenchmarks (google-benchmark) for the planner's hot paths: expression
// evaluation, interval evaluation, plan-tail replay, the simulator's
// acceptance check, problem leveling, and the PLRG/SLRG construction.  These guard the constant factors behind
// Table 2's planning-time column.
//
// The BM_Trace* group guards the observability layer's idle cost: with the
// instrumentation compiled in but no collector installed, a span or counter
// must stay in the low-nanosecond range so end-to-end planning keeps well
// under the 2% overhead budget (compare BM_EndToEndPlanSmall against
// BM_EndToEndPlanSmallTraced for the *enabled* cost).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"
#include "core/planner.hpp"
#include "core/plrg.hpp"
#include "core/slrg.hpp"
#include "domains/media.hpp"
#include "expr/parser.hpp"
#include "expr/program.hpp"
#include "model/compile.hpp"
#include "model/replay.hpp"
#include "sim/executor.hpp"
#include "support/trace.hpp"

namespace {

using namespace sekitei;

expr::Program compile_expr(const std::string& src) {
  std::map<std::string, std::uint32_t> slots;
  auto resolve = [&](const expr::RoleRef& r) -> std::uint32_t {
    auto k = r.str();
    auto it = slots.find(k);
    if (it != slots.end()) return it->second;
    const std::uint32_t s = static_cast<std::uint32_t>(slots.size());
    slots.emplace(k, s);
    return s;
  };
  auto ast = expr::parse_expr_string(src);
  return expr::Program::compile(*ast, resolve);
}

void BM_ExprScalarEval(benchmark::State& state) {
  expr::Program p = compile_expr("min(M.ibw, link.lbw) + (T.ibw + I.ibw) / 5 - Z.ibw / 10");
  const double slots[] = {100, 70, 63, 27, 31.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.eval(slots));
  }
}
BENCHMARK(BM_ExprScalarEval);

void BM_ExprIntervalEval(benchmark::State& state) {
  expr::Program p = compile_expr("min(M.ibw, link.lbw) + (T.ibw + I.ibw) / 5 - Z.ibw / 10");
  const Interval slots[] = {{90, 100, true}, {0, 70}, {63, 70, true}, {27, 30, true},
                            {31.5, 35, true}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.eval_interval(slots));
  }
}
BENCHMARK(BM_ExprIntervalEval);

void BM_TableEval(benchmark::State& state) {
  expr::Program p = compile_expr("table(M.ibw; 0:0, 40:2, 80:6, 120:14, 200:30)");
  double x = 0;
  for (auto _ : state) {
    const double slots[] = {x};
    benchmark::DoNotOptimize(p.eval(slots));
    x = x < 200 ? x + 1 : 0;
  }
}
BENCHMARK(BM_TableEval);

void BM_CompileTiny(benchmark::State& state) {
  auto inst = domains::media::tiny();
  const auto scenario = domains::media::scenario('C');
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::compile(inst->problem, scenario));
  }
}
BENCHMARK(BM_CompileTiny);

void BM_CompileLarge(benchmark::State& state) {
  auto inst = domains::media::large();
  const auto scenario = domains::media::scenario(static_cast<char>('B' + state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::compile(inst->problem, scenario));
  }
  state.SetLabel(std::string("scenario ") + static_cast<char>('B' + state.range(0)));
}
BENCHMARK(BM_CompileLarge)->DenseRange(0, 3);

void BM_ReplayPlanTail(benchmark::State& state) {
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, domains::media::scenario('C'));
  core::Sekitei planner(cp);
  auto r = planner.plan();
  if (!r.ok()) {
    state.SkipWithError("no plan");
    return;
  }
  model::Replayer replayer(cp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        replayer.replay(r.plan->steps, /*from_init=*/true, model::ReplayMode::Optimistic));
  }
}
BENCHMARK(BM_ReplayPlanTail);

/// The first candidate the simulator rejects and the plan it accepts while
/// the CP backend solves Small/B (the perfbench `cp` workload's main class).
struct SmallBCandidates {
  std::unique_ptr<domains::media::Instance> inst = domains::media::small();
  model::CompiledProblem cp = model::compile(inst->problem, domains::media::scenario('B'));
  core::Plan rejected, accepted;

  SmallBCandidates() {
    core::PlannerOptions opt;
    opt.mode = core::PlannerOptions::Mode::Cp;
    core::Sekitei planner(cp, opt);
    sim::Executor exec(cp);
    const auto r = planner.plan([&](const core::Plan& p) {
      const bool ok = exec.execute(p).feasible;
      if (!ok && rejected.steps.empty()) rejected = p;
      return ok;
    });
    if (r.ok()) accepted = *r.plan;
  }
};

void sim_execute(benchmark::State& state, bool feasible) {
  const SmallBCandidates c;
  const core::Plan& plan = feasible ? c.accepted : c.rejected;
  if (plan.steps.empty()) {
    state.SkipWithError("no candidate");
    return;
  }
  sim::Executor exec(c.cp);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.execute(plan).feasible);
  }
}

/// A rejection: the top point fails, then the grid scan and bisection run.
void BM_SimExecuteRejected(benchmark::State& state) { sim_execute(state, false); }
BENCHMARK(BM_SimExecuteRejected);

void BM_SimExecuteAccepted(benchmark::State& state) { sim_execute(state, true); }
BENCHMARK(BM_SimExecuteAccepted);

void BM_PlrgBuild(benchmark::State& state) {
  auto inst = domains::media::large();
  auto cp = model::compile(inst->problem, domains::media::scenario('C'));
  const core::CostFn cost = [&cp](ActionId a) { return cp.actions[a.index()].cost_lb; };
  for (auto _ : state) {
    core::Plrg plrg(cp, cost);
    plrg.build(cp.goal_prop);
    benchmark::DoNotOptimize(plrg.cost(cp.goal_prop));
  }
}
BENCHMARK(BM_PlrgBuild);

void BM_EndToEndPlanSmall(benchmark::State& state) {
  auto inst = domains::media::small();
  const auto scenario = domains::media::scenario('C');
  for (auto _ : state) {
    auto cp = model::compile(inst->problem, scenario);
    core::Sekitei planner(cp);
    auto r = planner.plan();
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_EndToEndPlanSmall)->Unit(benchmark::kMillisecond);

// ---- observability-layer overhead guards ------------------------------

void BM_TraceSpanNoCollector(benchmark::State& state) {
  // The idle fast path: one relaxed load + branch per span end-to-end.
  for (auto _ : state) {
    trace::Span span("bench.noop");
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanNoCollector);

void BM_TraceSpanTimedNoCollector(benchmark::State& state) {
  // A span that fills a reported field: two clock reads and one add, with
  // or without a collector.
  double ms = 0.0;
  for (auto _ : state) {
    trace::Span span("bench.noop", "planner", &ms);
    benchmark::DoNotOptimize(&span);
  }
  benchmark::DoNotOptimize(ms);
}
BENCHMARK(BM_TraceSpanTimedNoCollector);

void BM_TraceSpanWithCollector(benchmark::State& state) {
  trace::Collector collector;
  trace::install(&collector);
  for (auto _ : state) {
    trace::Span span("bench.noop");
    benchmark::DoNotOptimize(&span);
  }
  trace::uninstall();
  state.SetLabel(std::to_string(collector.event_count()) + " events recorded");
}
BENCHMARK(BM_TraceSpanWithCollector);

void BM_EndToEndPlanSmallTraced(benchmark::State& state) {
  // Same workload as BM_EndToEndPlanSmall but with a live collector; the
  // difference between the two is the *enabled* tracing cost.
  auto inst = domains::media::small();
  const auto scenario = domains::media::scenario('C');
  trace::Collector collector;
  trace::install(&collector);
  for (auto _ : state) {
    auto cp = model::compile(inst->problem, scenario);
    core::Sekitei planner(cp);
    auto r = planner.plan();
    benchmark::DoNotOptimize(r.ok());
  }
  trace::uninstall();
}
BENCHMARK(BM_EndToEndPlanSmallTraced)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // One machine-readable planner-run record for the trajectory, matching
  // the schema the table/figure benches emit.
  auto inst = sekitei::domains::media::small();
  auto cp = sekitei::model::compile(inst->problem, sekitei::domains::media::scenario('C'));
  sekitei::core::Sekitei planner(cp);
  auto r = planner.plan();
  sekitei::benchjson::emit("micro",
                           {sekitei::benchjson::kv("net", "Small"),
                            sekitei::benchjson::kv("scenario", "C"),
                            sekitei::benchjson::kv("plan_found", r.ok())},
                           &r.stats);
  return 0;
}
