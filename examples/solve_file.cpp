// Command-line planner: load a component domain and a problem description
// from files, plan, execute, and report — the full paper pipeline without
// writing a line of C++.
//
//   $ ./example_solve_file <domain.sk> <problem.sk> [--greedy] [--plan-only]
//                          [--deadline-ms <D>] [--trace <file>] [--stats-json]
//                          [--lint] [--log <level>]
//
// --lint runs the static-analysis battery (analysis/analyzer.hpp) over the
// compiled instance and prints its findings before planning; when the
// analysis proves the instance infeasible the search is skipped entirely
// and the exit code is 1 (the no-plan code).
//
// --deadline-ms bounds the planning time: when the deadline fires the run
// stops cooperatively at the next progress tick.  If the stopped search held
// a replay-validated incumbent plan it is reported anyway and the exit code
// is 6 (degraded: feasible but not proven optimal); with no incumbent the
// exit code is 3 (deadline exceeded), after the partial planner stats.
//
// SEKITEI_FAULTS=<point>:<nth>[:throw|:fail][,...] arms deterministic fault
// injection before anything is loaded (support/fault.hpp).
//
// --trace writes a Chrome trace-event JSON file (load in chrome://tracing or
// https://ui.perfetto.dev) covering compile, the planner phases and the
// validating executor.  --stats-json prints the PlannerStats record as one
// JSON line.  --log installs a stderr text sink at the given level
// (trace|debug|info|warn|error).
//
// Sample inputs live in examples/data/ (the paper's Fig. 3 scenario):
//
//   $ ./example_solve_file examples/data/media.sk examples/data/tiny.sk
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "core/planner.hpp"
#include "core/stats.hpp"
#include "model/compile.hpp"
#include "model/textio.hpp"
#include "sim/executor.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/stop_token.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace {

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) sekitei::raise(std::string("cannot open ") + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sekitei;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <domain.sk> <problem.sk> [--greedy] [--plan-only]\n"
                 "          [--deadline-ms <D>] [--trace <file>] [--stats-json]\n"
                 "          [--lint] [--log <level>]\n",
                 argv[0]);
    return 2;
  }
  {
    std::string fault_error;
    if (!fault::install_from_env("SEKITEI_FAULTS", &fault_error)) {
      std::fprintf(stderr, "error: SEKITEI_FAULTS: %s\n", fault_error.c_str());
      return 2;
    }
  }
  bool greedy = false, plan_only = false, stats_json = false, lint = false;
  double deadline_ms = 0.0;
  const char* trace_path = nullptr;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--greedy") == 0) {
      greedy = true;
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--plan-only") == 0) {
      plan_only = true;
    } else if (std::strcmp(argv[i], "--stats-json") == 0) {
      stats_json = true;
    } else if (std::strcmp(argv[i], "--lint") == 0) {
      lint = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--log") == 0 && i + 1 < argc) {
      const char* name = argv[++i];
#ifndef SEKITEI_LOG_DISABLED
      const log::Level lvl = log::parse_level(name);
      log::set_level(lvl);
      if (lvl != log::Level::Off) {
        log::add_sink(std::make_shared<log::StreamSink>(stderr));
      } else if (std::strcmp(name, "off") != 0) {
        std::fprintf(stderr, "unknown log level '%s'\n", name);
        return 2;
      }
#else
      std::fprintf(stderr, "--log %s ignored: built with SEKITEI_LOG_DISABLED\n", name);
#endif
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    }
  }

  trace::Collector collector;
  if (trace_path) trace::install(&collector);

  try {
    auto lp = model::load_problem(slurp(argv[1]), slurp(argv[2]));
    std::printf("domain: %zu interfaces, %zu components; network: %zu nodes, %zu links\n",
                lp->domain.interface_count(), lp->domain.component_count(),
                lp->net.node_count(), lp->net.link_count());

    Stopwatch watch;
    auto cp = [&] {
      trace::Span span("model.compile", "compile");
      return model::compile(lp->problem, lp->scenario);
    }();
    std::printf("leveling: %zu ground actions (%llu combos, %llu pruned)\n", cp.actions.size(),
                (unsigned long long)cp.combos_considered,
                (unsigned long long)(cp.combos_considered - cp.actions.size()));

    if (lint) {
      const analysis::AnalysisReport report = analysis::analyze(cp);
      std::printf("\nlint:\n%s\n", report.render_text().c_str());
      if (report.provably_infeasible) {
        std::printf("no plan: pre-flight analysis proves the instance "
                    "infeasible; search skipped\n");
        return 1;
      }
    }

    core::PlannerOptions opt;
    if (greedy) opt.mode = core::PlannerOptions::Mode::Greedy;
    StopSource stop;
    if (deadline_ms > 0.0) {
      stop.arm_deadline_ms(deadline_ms);
      opt.stop = stop.token();
      opt.anytime = true;        // keep the best incumbent in case the deadline fires
      opt.progress_every = 128;  // finer polling so the deadline is honoured
    }
    core::Sekitei planner(cp, opt);
    sim::Executor exec(cp);
    auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
    std::printf("planning: %.1f ms — graph %.1f ms + search %.1f ms "
                "(PLRG %llu/%llu, SLRG %llu, RG %llu)\n",
                watch.elapsed_ms(), r.stats.time_graph_ms, r.stats.time_search_ms,
                (unsigned long long)r.stats.plrg_props, (unsigned long long)r.stats.plrg_actions,
                (unsigned long long)r.stats.slrg_sets, (unsigned long long)r.stats.rg_nodes);
    if (stats_json) std::printf("%s\n", core::stats_to_json(r.stats).c_str());
    if (trace_path) {
      trace::uninstall();
      if (!collector.write_json(trace_path)) {
        std::fprintf(stderr, "error: cannot write trace to %s\n", trace_path);
        return 2;
      }
      std::printf("trace: %zu events written to %s\n", collector.event_count(), trace_path);
    }
    if (r.stats.stopped && !r.ok()) {
      std::printf("deadline exceeded after %.1f ms: %s (stats above are partial)\n",
                  watch.elapsed_ms(), r.failure.c_str());
      return 3;
    }
    if (!r.ok()) {
      std::printf("no plan: %s\n", r.failure.c_str());
      return 1;
    }
    int exit_code = 0;
    if (r.stats.suboptimal_on_stop) {
      // The deadline cut the proof short but the search held an incumbent.
      std::printf("degraded: deadline fired mid-search; best incumbent plan follows "
                  "(cost %.3f, open lower bound %.3f — not proven optimal)\n",
                  r.stats.incumbent_cost, r.stats.open_cost_lb);
      exit_code = 6;
    }
    std::printf("\nplan (%zu actions, cost lower bound %.3f):\n%s", r.plan->size(),
                r.plan->cost_lb, r.plan->str(cp).c_str());
    if (plan_only) return exit_code;

    auto rep = exec.execute(*r.plan);
    if (!rep.feasible) {
      std::printf("execution failed: %s\n", rep.failure.c_str());
      return 1;
    }
    std::printf("\nexecution: feasible; realized cost %.3f\n", rep.actual_cost);
    for (const auto& lu : rep.link_use) {
      const net::Link& l = lp->net.link(lu.link);
      std::printf("  %s-%s (%s): %.2f bandwidth reserved\n", lp->net.node(l.a).name.c_str(),
                  lp->net.node(l.b).name.c_str(), net::link_class_name(lu.cls), lu.used);
    }
    for (const auto& nu : rep.node_use) {
      std::printf("  %s: %.2f cpu\n", lp->net.node(nu.node).name.c_str(), nu.used);
    }
    return exit_code;
  } catch (const Error& e) {
    if (trace_path) trace::uninstall();
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
