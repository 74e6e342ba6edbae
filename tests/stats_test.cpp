// Observability suite: the stats_to_json serializer (golden string + JSON
// round-trip), trace spans and the Chrome trace-event export, the timing
// fields the engine reports against the spans that fill them, the log gate
// and NDJSON sink, the progress observer, the single-exit stats population
// on early-return planner paths, and the SEKITEI_LOG_DISABLED determinism
// guard (a quiet TU must produce a byte-identical plan).
//
// When examples/CMakeLists.txt defines SEKITEI_SOLVE_FILE_BIN this suite also
// runs example_solve_file --trace end-to-end and parses the emitted file —
// the acceptance check that the trace really is Chrome-trace-format JSON.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <sys/wait.h>

#include "core/planner.hpp"
#include "core/stats.hpp"
#include "domains/media.hpp"
#include "support/json_reader.hpp"
#include "model/compile.hpp"
#include "service/engine.hpp"
#include "sim/executor.hpp"
#include "support/log.hpp"
#include "support/trace.hpp"

namespace sekitei::testing {
// Defined in stats_log_disabled.cpp, compiled with -DSEKITEI_LOG_DISABLED.
std::string plan_small_c_quiet(double* cost_out, int* log_args_evaluated);
// Runs one span with a field to fill, and nothing else, in the quiet TU.
double quiet_timed_span_ms();
}  // namespace sekitei::testing

namespace sekitei {
namespace {

using core::PlannerStats;

// ---- stats_to_json ----------------------------------------------------

TEST(StatsJson, GoldenString) {
  PlannerStats s;
  s.total_actions = 68;
  s.plrg_props = 17;
  s.plrg_actions = 34;
  s.slrg_sets = 301;
  s.rg_nodes = 154;
  s.rg_open_left = 102;
  s.time_graph_ms = 1.5;
  s.time_search_ms = 2.25;
  s.rg_expansions = 52;
  s.rg_pruned_by_replay = 129;
  s.rg_peak_open = 103;
  s.slrg_memo_hits = 261;
  s.slrg_memo_misses = 9;
  s.replay_calls = 283;
  s.sim_rejections = 4;
  s.logically_unreachable = false;
  s.hit_search_limit = true;
  EXPECT_EQ(core::stats_to_json(s),
            "{\"total_actions\":68,\"plrg_props\":17,\"plrg_actions\":34,"
            "\"slrg_sets\":301,\"rg_nodes\":154,\"rg_open_left\":102,"
            "\"time_graph_ms\":1.500,\"time_search_ms\":2.250,"
            "\"time_total_ms\":3.750,\"rg_expansions\":52,"
            "\"rg_pruned_by_replay\":129,\"pruned_placements\":0,"
            "\"rg_peak_open\":103,"
            "\"slrg_memo_hits\":261,\"slrg_memo_misses\":9,"
            "\"replay_calls\":283,\"sim_rejections\":4,"
            "\"rg_incumbents\":0,\"incumbent_cost\":0.000,\"open_cost_lb\":0.000,"
            "\"logically_unreachable\":false,\"hit_search_limit\":true,"
            "\"stopped\":false,\"suboptimal_on_stop\":false}");
}

TEST(StatsJson, RoundTripThroughParser) {
  PlannerStats s;
  s.total_actions = 7;
  s.rg_peak_open = 12345;
  s.time_graph_ms = 0.125;
  s.logically_unreachable = true;
  sekitei::json::Value v;
  std::string err;
  ASSERT_TRUE(sekitei::json::parse(core::stats_to_json(s), v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.obj->size(), 24u);
  ASSERT_NE(v.find("total_actions"), nullptr);
  EXPECT_DOUBLE_EQ(v.find("total_actions")->number, 7.0);
  EXPECT_DOUBLE_EQ(v.find("rg_peak_open")->number, 12345.0);
  EXPECT_DOUBLE_EQ(v.find("time_graph_ms")->number, 0.125);
  EXPECT_DOUBLE_EQ(v.find("time_total_ms")->number, 0.125);
  EXPECT_TRUE(v.find("logically_unreachable")->boolean);
  EXPECT_FALSE(v.find("hit_search_limit")->boolean);
}

// ---- trace collector ---------------------------------------------------

TEST(Trace, SpanNestingAndOrdering) {
  trace::Collector c;
  trace::install(&c);
  {
    trace::Span outer("outer", "t");
    {
      trace::Span inner("inner", "t");
    }
    trace::Span sibling("sibling", "t");
  }
  trace::uninstall();

  const auto events = c.events();
  ASSERT_EQ(events.size(), 3u);
  // Spans are recorded when they *end*: inner, then sibling, then outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "sibling");
  EXPECT_EQ(events[2].name, "outer");
  // The outer span must fully contain both children.
  EXPECT_LE(events[2].ts_us, events[0].ts_us);
  EXPECT_GE(events[2].ts_us + events[2].dur_us, events[1].ts_us + events[1].dur_us);
  // The sibling starts no earlier than the inner span ended.
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
}

TEST(Trace, SpanFinishIsIdempotent) {
  trace::Collector c;
  trace::install(&c);
  {
    trace::Span s("once");
    s.finish();
    s.finish();  // second call must not record again
  }
  trace::uninstall();
  EXPECT_EQ(c.event_count(), 1u);
}

TEST(Trace, NoCollectorIsInert) {
  ASSERT_EQ(trace::collector(), nullptr);
  trace::Span s("unrecorded");
  s.finish();
  EXPECT_EQ(trace::collector(), nullptr);
}

TEST(Trace, TimedSpanFillsItsFieldWithoutCollector) {
  ASSERT_EQ(trace::collector(), nullptr);
  double ms = 1.0;  // a span adds to its field, it does not overwrite it
  {
    trace::Span s("unrecorded", "t", &ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    s.finish();
    s.finish();  // idempotent: adds once
  }
  EXPECT_GE(ms, 3.0);
  EXPECT_LT(ms, 1000.0);
}

TEST(Trace, TimedSpanEventMatchesItsField) {
  trace::Collector c;
  trace::install(&c);
  double ms = 0.0;
  { trace::Span s("timed", "t", &ms); }
  trace::uninstall();
  const auto events = c.events();
  ASSERT_EQ(events.size(), 1u);
  // One pair of clock reads feeds both: the field and the event agree.
  EXPECT_NEAR(events[0].dur_us / 1000.0, ms, 1e-9);
}

TEST(Trace, ToJsonIsChromeTraceFormat) {
  trace::Collector c;
  trace::install(&c);
  {
    trace::Span s("phase \"one\"", "t");  // quotes must be escaped
    trace::Span inner("inner", "u");
  }
  trace::uninstall();

  sekitei::json::Value v;
  std::string err;
  ASSERT_TRUE(sekitei::json::parse(c.to_json(), v, &err)) << err;
  const sekitei::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->arr->size(), 2u);
  std::vector<std::string> names;
  for (const auto& e : *events->arr) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("cat"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("dur"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    EXPECT_EQ(e.find("ph")->str, "X");
    names.push_back(e.find("name")->str);
  }
  // Recorded when they end: the inner span first.
  EXPECT_EQ(names, (std::vector<std::string>{"inner", "phase \"one\""}));
}

// ---- reported timing fields against their spans -------------------------

/// Summed duration (ms) and count of the recorded spans named `name`.
struct SpanSum {
  double ms = 0.0;
  int count = 0;
};

SpanSum spans(const std::vector<trace::Event>& events, std::string_view name) {
  SpanSum s;
  for (const trace::Event& e : events) {
    if (e.name != name) continue;
    s.ms += e.dur_us / 1000.0;
    ++s.count;
  }
  return s;
}

std::shared_ptr<const model::LoadedProblem> tiny_c() {
  auto inst = domains::media::tiny();
  return service::make_loaded(std::move(inst->domain), std::move(inst->net),
                              std::move(inst->problem), domains::media::scenario('C'));
}

service::PlanRequest plain_request(core::PlannerOptions::Mode mode) {
  service::PlanRequest req;
  req.id = "plain";
  req.problem = tiny_c();
  req.mode = mode;
  req.preflight = true;
  return req;
}

service::PlanRequest repair_request() {
  service::PlanRequest req = plain_request(core::PlannerOptions::Mode::Leveled);
  req.id = "repair";
  req.repair.emplace();  // no prior plan, no damage: a replan on the same network
  return req;
}

/// Serves `req` on a fresh engine (a compiled-cache miss) with a collector
/// installed, or none; returns the response and the recorded events.
std::pair<service::PlanResponse, std::vector<trace::Event>> serve(service::PlanRequest req,
                                                                  bool collect) {
  trace::Collector c;
  if (collect) trace::install(&c);
  service::PlanningEngine engine({.workers = 1});
  service::PlanResponse r = engine.plan(std::move(req));
  trace::uninstall();
  return {std::move(r), c.events()};
}

constexpr double kOneMicrosecondMs = 1e-3;

TEST(TimingSpans, LeveledRequestFieldsEqualTheirSpans) {
  const auto [r, ev] = serve(plain_request(core::PlannerOptions::Mode::Leveled), true);
  ASSERT_EQ(r.outcome, service::Outcome::Solved) << r.failure;
  ASSERT_FALSE(r.cache_hit);
  ASSERT_TRUE(r.preflight_ran);
  EXPECT_EQ(spans(ev, "service.compile").count, 1);
  EXPECT_NEAR(r.compile_ms, spans(ev, "service.compile").ms, kOneMicrosecondMs);
  EXPECT_NEAR(r.preflight_ms, spans(ev, "service.preflight").ms, kOneMicrosecondMs);
  EXPECT_EQ(spans(ev, "primary").count, 1);
  EXPECT_NEAR(r.solve_ms, spans(ev, "primary").ms + spans(ev, "greedy_fallback").ms,
              kOneMicrosecondMs);
  EXPECT_NEAR(r.fallback_ms, spans(ev, "greedy_fallback").ms, kOneMicrosecondMs);
  EXPECT_EQ(spans(ev, "planner.graph").count, 1);
  EXPECT_NEAR(r.stats.time_graph_ms, spans(ev, "planner.graph").ms, kOneMicrosecondMs);
  EXPECT_EQ(spans(ev, "rg.search").count, 1);
  EXPECT_NEAR(r.stats.time_search_ms, spans(ev, "rg.search").ms, kOneMicrosecondMs);
}

TEST(TimingSpans, RepairRequestFieldsEqualTheirSpans) {
  const auto [r, ev] = serve(repair_request(), true);
  ASSERT_EQ(r.outcome, service::Outcome::Solved) << r.failure;
  ASSERT_TRUE(r.repair_requested);
  ASSERT_TRUE(r.repair_preflight_ran);
  EXPECT_EQ(spans(ev, "service.repair_compile").count, 1);
  EXPECT_NEAR(r.compile_ms,
              spans(ev, "service.compile").ms + spans(ev, "service.repair_compile").ms,
              kOneMicrosecondMs);
  EXPECT_NEAR(r.repair_preflight_ms, spans(ev, "service.repair_preflight").ms,
              kOneMicrosecondMs);
  EXPECT_NEAR(r.preflight_ms, spans(ev, "service.preflight").ms, kOneMicrosecondMs);
  EXPECT_NEAR(r.solve_ms, spans(ev, "primary").ms + spans(ev, "full_replan").ms,
              kOneMicrosecondMs);
  EXPECT_NEAR(r.fallback_ms, spans(ev, "full_replan").ms, kOneMicrosecondMs);
}

TEST(TimingSpans, CpRequestFieldsEqualTheirSpans) {
  const auto [r, ev] = serve(plain_request(core::PlannerOptions::Mode::Cp), true);
  ASSERT_EQ(r.outcome, service::Outcome::Solved) << r.failure;
  EXPECT_EQ(spans(ev, "cp.bound").count, 1);
  EXPECT_EQ(spans(ev, "cp.search").count, 1);
  EXPECT_NEAR(r.stats.time_graph_ms, spans(ev, "cp.bound").ms, kOneMicrosecondMs);
  EXPECT_NEAR(r.stats.time_search_ms, spans(ev, "cp.search").ms, kOneMicrosecondMs);
  EXPECT_NEAR(r.solve_ms, spans(ev, "primary").ms, kOneMicrosecondMs);
}

TEST(TimingSpans, FieldsAreTimedWithoutCollector) {
  for (service::PlanRequest req : {plain_request(core::PlannerOptions::Mode::Leveled),
                                   repair_request(),
                                   plain_request(core::PlannerOptions::Mode::Cp)}) {
    const std::string id = req.id;
    const auto [r, ev] = serve(std::move(req), false);
    ASSERT_EQ(r.outcome, service::Outcome::Solved) << id << ": " << r.failure;
    EXPECT_TRUE(ev.empty()) << id;
    EXPECT_GT(r.compile_ms, 0.0) << id;
    EXPECT_GT(r.solve_ms, 0.0) << id;
    EXPECT_GT(r.stats.time_search_ms, 0.0) << id;
  }
}

// ---- log gate and sinks -------------------------------------------------

class CaptureSink : public log::Sink {
 public:
  void write(const log::Record& record) override {
    lines.push_back(log::JsonLinesSink::render(record));
  }
  std::vector<std::string> lines;
};

TEST(Log, GateNeedsBothSinkAndLevel) {
  log::clear_sinks();
  log::set_level(log::Level::Info);
  EXPECT_FALSE(log::enabled(log::Level::Error)) << "no sink registered";

  auto sink = std::make_shared<CaptureSink>();
  log::add_sink(sink);
  EXPECT_TRUE(log::enabled(log::Level::Info));
  EXPECT_FALSE(log::enabled(log::Level::Debug));
  log::set_level(log::Level::Warn);
  EXPECT_FALSE(log::enabled(log::Level::Info));
  EXPECT_TRUE(log::enabled(log::Level::Warn));

  log::clear_sinks();
  log::set_level(log::Level::Info);
  EXPECT_FALSE(log::enabled(log::Level::Error));
}

TEST(Log, JsonLinesSinkRendersStructuredRecord) {
  log::clear_sinks();
  log::set_level(log::Level::Debug);
  auto sink = std::make_shared<CaptureSink>();
  log::add_sink(sink);
  SEKITEI_LOG_DEBUG("tests.log", "hello \"world\"", log::kv("n", 42),
                    log::kv("ratio", 0.5), log::kv("ok", true), log::kv("who", "a\nb"));
  log::clear_sinks();
  log::set_level(log::Level::Info);

  ASSERT_EQ(sink->lines.size(), 1u);
  sekitei::json::Value v;
  std::string err;
  ASSERT_TRUE(sekitei::json::parse(sink->lines[0], v, &err)) << err << "\n" << sink->lines[0];
  EXPECT_EQ(v.find("level")->str, "debug");
  EXPECT_EQ(v.find("component")->str, "tests.log");
  EXPECT_EQ(v.find("message")->str, "hello \"world\"");
  EXPECT_DOUBLE_EQ(v.find("n")->number, 42.0);
  EXPECT_DOUBLE_EQ(v.find("ratio")->number, 0.5);
  EXPECT_TRUE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("who")->str, "a\nb");
}

TEST(Log, ParseLevelRoundTrip) {
  EXPECT_EQ(log::parse_level("trace"), log::Level::Trace);
  EXPECT_EQ(log::parse_level("debug"), log::Level::Debug);
  EXPECT_EQ(log::parse_level("info"), log::Level::Info);
  EXPECT_EQ(log::parse_level("warn"), log::Level::Warn);
  EXPECT_EQ(log::parse_level("error"), log::Level::Error);
  EXPECT_EQ(log::parse_level("bogus"), log::Level::Off);
}

// ---- planner integration -------------------------------------------------

TEST(PlannerObservability, ProgressObserverFires) {
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, domains::media::scenario('C'));
  core::PlannerOptions opt;
  std::uint64_t calls = 0, last_expansions = 0;
  bool monotone = true;
  opt.progress_every = 1;
  opt.progress = [&](const PlannerStats& s) {
    ++calls;
    if (s.rg_expansions < last_expansions) monotone = false;
    last_expansions = s.rg_expansions;
  };
  core::Sekitei planner(cp, opt);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(r.ok());
  EXPECT_GT(calls, 0u);
  EXPECT_TRUE(monotone);
  EXPECT_LE(last_expansions, r.stats.rg_expansions);
}

TEST(PlannerObservability, PhaseTimesAndDiagnosticsPopulated) {
  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, domains::media::scenario('C'));
  core::Sekitei planner(cp);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.stats.time_graph_ms, 0.0);
  EXPECT_GT(r.stats.time_search_ms, 0.0);
  EXPECT_NEAR(r.stats.time_total_ms(), r.stats.time_graph_ms + r.stats.time_search_ms, 1e-12);
  EXPECT_GE(r.stats.rg_peak_open, r.stats.rg_open_left);
  EXPECT_GT(r.stats.replay_calls, 0u);
  EXPECT_GT(r.stats.slrg_memo_hits + r.stats.slrg_memo_misses, 0u);
}

TEST(PlannerObservability, EarlyReturnStillPopulatesStats) {
  // Unsatisfiable demand: the planner bails before the RG search, but the
  // single-exit path must still fill in the graph-phase stats (the seed bug:
  // early returns used to leave PLRG/SLRG counters at zero).
  domains::media::Params p;
  p.client_demand = 250.0;  // the server only produces 200
  auto inst = domains::media::small(p);
  auto cp = model::compile(inst->problem,
                           domains::media::scenario_with_cuts({250, 260}));
  core::Sekitei planner(cp);
  auto r = planner.plan();
  ASSERT_FALSE(r.ok());
  EXPECT_GT(r.stats.plrg_props, 0u);
  EXPECT_GT(r.stats.plrg_actions, 0u);
  EXPECT_GE(r.stats.time_graph_ms, 0.0);
  sekitei::json::Value v;
  std::string err;
  ASSERT_TRUE(sekitei::json::parse(core::stats_to_json(r.stats), v, &err)) << err;
}

TEST(PlannerObservability, LogDisabledPlanIsByteIdentical) {
  // The quiet TU (compiled with SEKITEI_LOG_DISABLED) and a fully observed
  // run must produce the same plan, byte for byte: instrumentation only
  // watches, it never steers.
  int evaluated = -1;
  double quiet_cost = 0.0;
  const std::string quiet = testing::plan_small_c_quiet(&quiet_cost, &evaluated);
  ASSERT_FALSE(quiet.empty());
  EXPECT_EQ(evaluated, 0) << "disabled log macro evaluated its arguments";

  log::clear_sinks();
  log::set_level(log::Level::Trace);
  auto sink = std::make_shared<CaptureSink>();
  log::add_sink(sink);
  trace::Collector c;
  trace::install(&c);

  auto inst = domains::media::small();
  auto cp = model::compile(inst->problem, domains::media::scenario('C'));
  core::Sekitei planner(cp);
  sim::Executor exec(cp);
  auto r = planner.plan([&](const core::Plan& p) { return exec.execute(p).feasible; });

  trace::uninstall();
  log::clear_sinks();
  log::set_level(log::Level::Info);

  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.plan->str(cp), quiet);
  EXPECT_DOUBLE_EQ(r.plan->cost_lb, quiet_cost);
  EXPECT_GT(sink->lines.size(), 0u) << "observed run produced no log records";
  EXPECT_GT(c.event_count(), 0u) << "observed run produced no trace events";
}

TEST(PlannerObservability, LogDisabledTimedSpanFillsFieldWithoutEvent) {
  // A span compiled with SEKITEI_LOG_DISABLED records no event even with a
  // collector installed, but a span with a field to fill still times.
  trace::Collector c;
  trace::install(&c);
  const double ms = testing::quiet_timed_span_ms();
  trace::uninstall();
  EXPECT_GT(ms, 0.0);
  EXPECT_EQ(c.event_count(), 0u);
}

// ---- solve_file CLI end-to-end -------------------------------------------

#ifdef SEKITEI_SOLVE_FILE_BIN
TEST(SolveFileCli, TraceFileIsValidChromeTrace) {
  const std::string trace_path = ::testing::TempDir() + "sekitei_cli_trace.json";
  const std::string cmd = std::string("\"") + SEKITEI_SOLVE_FILE_BIN + "\" \"" +
                          SEKITEI_EXAMPLES_DATA_DIR + "/media.sk\" \"" +
                          SEKITEI_EXAMPLES_DATA_DIR + "/tiny.sk\" --plan-only --trace \"" +
                          trace_path + "\" > /dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file not written: " << trace_path;
  std::ostringstream os;
  os << in.rdbuf();

  sekitei::json::Value v;
  std::string err;
  ASSERT_TRUE(sekitei::json::parse(os.str(), v, &err)) << err;
  const sekitei::json::Value* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GT(events->arr->size(), 0u);
  bool saw_plrg = false, saw_search = false, saw_plan = false;
  for (const auto& e : *events->arr) {
    ASSERT_TRUE(e.is_object());
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("ph"), nullptr);
    ASSERT_NE(e.find("ts"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    const std::string& name = e.find("name")->str;
    saw_plrg = saw_plrg || name == "plrg.build";
    saw_search = saw_search || name == "rg.search";
    saw_plan = saw_plan || name == "planner.plan";
  }
  EXPECT_TRUE(saw_plrg);
  EXPECT_TRUE(saw_search);
  EXPECT_TRUE(saw_plan);
  std::remove(trace_path.c_str());
}

/// Runs example_solve_file on media.sk with its first `cost 1;` replaced by
/// `cost <formula>;` and returns the exit status.
int solve_with_cost_formula(const std::string& formula, const std::string& stem) {
  std::ifstream in(std::string(SEKITEI_EXAMPLES_DATA_DIR) + "/media.sk");
  std::ostringstream os;
  os << in.rdbuf();
  std::string domain = os.str();
  const std::size_t at = domain.find("cost 1;");
  EXPECT_NE(at, std::string::npos);
  domain.replace(at, 7, "cost " + formula + ";");
  const std::string path = ::testing::TempDir() + stem + ".sk";
  std::ofstream(path) << domain;
  const std::string cmd = std::string("\"") + SEKITEI_SOLVE_FILE_BIN + "\" \"" + path +
                          "\" \"" + SEKITEI_EXAMPLES_DATA_DIR +
                          "/tiny.sk\" --plan-only > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  std::remove(path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(SolveFileCli, ExpressionBombsExitWithInputError) {
  // A crash (exit 139 from the shell) would read as -1 or 139 here.
  std::string nested = std::string(100000, '(') + "1" + std::string(100000, ')');
  EXPECT_EQ(solve_with_cost_formula(nested, "sekitei_nested_bomb"), 2);
  std::string chain = "1";
  for (int i = 1; i < 200000; ++i) chain += "+1";
  EXPECT_EQ(solve_with_cost_formula(chain, "sekitei_chain_bomb"), 2);
  EXPECT_EQ(solve_with_cost_formula("1", "sekitei_unchanged"), 0);
}
#endif  // SEKITEI_SOLVE_FILE_BIN

}  // namespace
}  // namespace sekitei
