// Helper translation unit for the determinism guard in stats_test.cpp.
//
// This file is compiled with -DSEKITEI_LOG_DISABLED (see tests/CMakeLists.txt
// — the name deliberately avoids the *_test.cpp glob), so every SEKITEI_LOG_*
// macro here expands to nothing and trace::Span records no event.  The
// planner library itself is still the instrumented build; the guard asserts
// that (a) the macros really compile out — their arguments are never
// evaluated, (b) a span with a field to fill still times, and (c) the plan
// produced from this quiet TU is byte-identical to one produced while
// logging and tracing are fully live.
#include "core/planner.hpp"
#include "domains/media.hpp"
#include "model/compile.hpp"
#include "sim/executor.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

#ifndef SEKITEI_LOG_DISABLED
#error "stats_log_disabled.cpp must be compiled with -DSEKITEI_LOG_DISABLED"
#endif

namespace sekitei::testing {

std::string plan_small_c_quiet(double* cost_out, int* log_args_evaluated) {
  int evaluated = 0;
  // With the macros compiled out this argument expression must not run.
  SEKITEI_LOG_ERROR("tests.quiet", "must vanish", log::kv("side_effect", ++evaluated));
  if (log_args_evaluated != nullptr) *log_args_evaluated = evaluated;
  trace::Span span("tests.quiet");  // records nothing here: must still compile

  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, domains::media::scenario('C'));
  core::Sekitei planner(cp);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  if (!r.ok()) return {};
  if (cost_out != nullptr) *cost_out = r.plan->cost_lb;
  return r.plan->str(cp);
}

double quiet_timed_span_ms() {
  double ms = 0.0;
  {
    trace::Span span("tests.quiet_timed", "t", &ms);
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + i;
  }
  return ms;
}

}  // namespace sekitei::testing
