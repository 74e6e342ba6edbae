#include "workloads.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "analysis/analyzer.hpp"
#include "analysis/symmetry.hpp"
#include "core/planner.hpp"
#include "cp/search.hpp"
#include "inputs.hpp"
#include "measure.hpp"
#include "model/compile.hpp"
#include "model/fingerprint.hpp"
#include "model/textio.hpp"
#include "repair/repair.hpp"
#include "server/client.hpp"
#include "service/engine.hpp"
#include "service/wire.hpp"
#include "sim/executor.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/json_reader.hpp"
#include "testing/validator.hpp"

extern char** environ;

namespace perfbench {

namespace {

using namespace sekitei;
using Mode = core::PlannerOptions::Mode;

// The closed loop: one client with one request outstanding, served by one
// engine worker.  With 3 clients and 3 workers on a 4-core host, requests
// slowed each other down by whatever ran beside them (Small/B's p90 doubled
// next to Small/C solves), and the percentiles moved with that from run to
// run; one request at a time measures the request alone.
constexpr std::size_t kWorkers = 1;
// Far above any class's latency: a request that needs it is a failure, but
// it cannot park a worker (and the run) indefinitely.
constexpr double kDeadlineMs = 30000.0;
constexpr double kRecvTimeoutMs = 60000.0;
// Drift damage deltas: 8 per kind of delta on the Large/C base plan, spread
// over each kind's capacity drops (see drift_pool), and few enough that a run
// cycles through the whole pool several times.
constexpr std::size_t kPoolSize = 64;
constexpr double kCostTolerance = 5e-3;      // Table-2 costs are given to 2 decimals
constexpr std::uint32_t kSetupRequest = 1u << 30;  // span request ids of set-up trees

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced run (BENCHMARK.json lists the same names
// and units).

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kPerLayer[] = {
    {"server.overhead_ms_p50", "ms"},
    {"server.retries", "count"},
    {"wire.parse_request_us", "us"},
    {"wire.decode_us", "us"},
    {"wire.render_us", "us"},
    {"wire.response_bytes", "bytes"},
    {"engine.wait_ms_p50", "ms"},
    {"cache.hit_rate", "ratio"},
    {"engine.unattributed_ms", "ms"},
    {"textio.load_ms", "ms"},
    {"fingerprint_us", "us"},
    {"compile_ms", "ms"},
    {"compile.actions", "count"},
    {"symmetry.attach_ms", "ms"},
    {"preflight_ms", "ms"},
    {"plan_ms", "ms"},
    {"plrg_ms", "ms"},
    {"rg_ms", "ms"},
    {"slrg.sets", "count"},
    {"slrg.memo_hit_rate", "ratio"},
    {"rg.expansions", "count"},
    {"rg.nodes", "count"},
    {"replay.calls", "count"},
    {"replay.calls_per_expansion", "ratio"},
    {"replay.prune_ratio", "ratio"},
    {"rg.pruned_placements", "count"},
    {"cp.solve_ms", "ms"},
    {"cp.branches", "count"},
    {"cp.pruned_symmetry", "count"},
    {"sim.execute_us", "us"},
    {"sim.rejections", "count"},
    {"repair.survivors_us", "us"},
    {"repair.problem_us", "us"},
    {"repair.compile_ms", "ms"},
    {"repair.search_ms", "ms"},
    {"repair.in_place_frac", "ratio"},
    {"repair.migrations_mean", "count"},
    {"ladder.full_replan_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

// ---------------------------------------------------------------------------
// JSON output.

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// "<prefix><n>", built by appending: GCC 12 reports a false -Wrestrict on
/// `"r" + std::to_string(n)`.
std::string tagged(const char* prefix, std::uint64_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

std::string quote(const std::string& s) {
  std::string out;
  json::append_escaped(out, s);
  return out;
}

/// Builds one JSON object member by member.
class Obj {
 public:
  Obj& raw(const std::string& key, const std::string& json) {
    out_ += out_.empty() ? "{" : ",";
    out_ += quote(key) + ":" + json;
    return *this;
  }
  Obj& num(const std::string& key, double v) { return raw(key, perfbench::num(v)); }
  Obj& str(const std::string& key, const std::string& v) { return raw(key, quote(v)); }
  [[nodiscard]] std::string done() const { return out_.empty() ? "{}" : out_ + "}"; }

 private:
  std::string out_;
};

// ---------------------------------------------------------------------------
// Per-request bookkeeping.

/// The counts that must repeat exactly for a given input, run after run.
struct Counts {
  std::uint64_t actions = 0;
  std::uint64_t expansions = 0;  // RG expansions, or CP branches in mode cp
  std::uint64_t replay_calls = 0;
  std::uint64_t slrg_sets = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const core::PlannerStats& s) {
  return {s.total_actions, s.rg_expansions, s.replay_calls, s.slrg_sets};
}

std::string counts_json(const Counts& c) {
  return Obj()
      .num("compile.actions", static_cast<double>(c.actions))
      .num("expansions", static_cast<double>(c.expansions))
      .num("replay.calls", static_cast<double>(c.replay_calls))
      .num("slrg.sets", static_cast<double>(c.slrg_sets))
      .done();
}

/// One answered (or failed) request, as the client saw it.
struct Reply {
  double ms = 0.0;  // submit -> response line rendered (in process) / frame received (wire)
  bool ok = false;
  std::string error;
  Counts counts;
  double wait_ms = 0.0, compile_ms = 0.0, preflight_ms = 0.0, solve_ms = 0.0;
  bool cache_hit = false;
  bool repaired = false;
  bool full_replan = false;
  std::uint32_t migrations = 0;
  std::uint32_t retries = 0;
  std::size_t bytes = 0;
  std::optional<core::Plan> plan;  // drift: re-proved after the window
};

/// What one request asks: a class, plus (drift) one delta of the damage pool.
struct Item {
  std::uint32_t cls = 0;
  int pool = -1;
  std::string key;  // exact-count key: class name, or the delta's seed
  int weight = 1;
};

// ---------------------------------------------------------------------------
// The daemon process of the wire workload.

class Netd {
 public:
  Netd(const std::string& binary, const std::string& domain_path, const std::string& log_path) {
    int fds[2];
    if (::pipe(fds) != 0) raise("pipe failed");
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const std::string jobs = std::to_string(kWorkers);
    std::vector<std::string> args = {binary, domain_path, "--port", "0", "--jobs", jobs};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    if (rc != 0) {
      ::close(fds[0]);
      raise("cannot start " + binary + ": " + std::strerror(rc));
    }
    out_ = ::fdopen(fds[0], "r");
    char line[256] = {0};
    if (out_ == nullptr || std::fgets(line, sizeof line, out_) == nullptr) {
      stop();
      raise("sekitei_netd exited before listening (see " + log_path + ")");
    }
    json::Value v;
    const json::Value* port = nullptr;
    if (json::parse(line, v)) port = v.find("port");
    if (port == nullptr || !port->is_number()) {
      stop();
      raise(std::string("unexpected sekitei_netd banner: ") + line);
    }
    port_ = static_cast<std::uint16_t>(port->number);
  }
  ~Netd() { stop(); }
  Netd(const Netd&) = delete;
  Netd& operator=(const Netd&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] double peak_rss_mb() const {
    return pid_ > 0 ? perfbench::peak_rss_mb(std::to_string(pid_)) : 0.0;
  }

  /// SIGTERM (the daemon drains) and wait until the process has ended.
  void stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
    }
    if (out_ != nullptr) {
      std::fclose(out_);
      out_ = nullptr;
    }
  }

 private:
  pid_t pid_ = -1;
  std::FILE* out_ = nullptr;
  std::uint16_t port_ = 0;
};

// ---------------------------------------------------------------------------
// Workload state: inputs, the serving engine or daemon, and the client.

struct Bench {
  RunOptions opt;
  Workload w;
  std::vector<Item> items;
  std::vector<std::shared_ptr<const model::LoadedProblem>> problems;  // per class
  std::unique_ptr<service::PlanningEngine> engine;                     // in process
  // drift
  std::shared_ptr<const model::CompiledProblem> base_cp;
  core::Plan prior;
  std::vector<double> choices;
  std::vector<Delta> pool;
  // wire
  std::string domain_path;
  std::unique_ptr<Netd> netd;
  std::optional<server::FrameClient> client;

  std::uint64_t warm_failed = 0;  // wrong answers during set-up
  std::vector<std::string> errors;

  [[nodiscard]] bool wire() const { return w.name == "wire"; }
  [[nodiscard]] bool drift() const { return w.name == "drift"; }

  void note_error(const std::string& e) {
    if (errors.size() < 20) errors.push_back(e);
  }
};

void check_plain(const Class& c, const std::string& outcome, double cost, Reply& r) {
  if (outcome != "solved") {
    r.error = c.name + ": outcome " + outcome;
  } else if (std::fabs(cost - c.expected_cost) > kCostTolerance) {
    r.error = c.name + ": cost " + num(cost) + " != Table-2 " + num(c.expected_cost);
  } else {
    r.ok = true;
  }
}

service::PlanRequest make_request(const Bench& b, const Item& it, std::string id) {
  const Class& c = b.w.classes[it.cls];
  service::PlanRequest req;
  req.id = std::move(id);
  req.problem = b.problems[it.cls];
  req.mode = c.mode;
  req.deadline_ms = kDeadlineMs;
  req.validate = true;
  if (it.pool >= 0) {
    req.preflight = true;
    service::RepairSpec spec;
    spec.prior_plan = b.prior;
    spec.choices = b.choices;
    spec.damage = b.pool[static_cast<std::size_t>(it.pool)].damage;
    req.repair = std::move(spec);
  }
  return req;
}

Reply reply_from(const Bench& b, const Item& it, const service::PlanResponse& resp,
                 double ms, std::size_t bytes) {
  Reply r;
  r.ms = ms;
  r.bytes = bytes;
  r.counts = counts_of(resp.stats);
  r.wait_ms = resp.wait_ms;
  r.compile_ms = resp.compile_ms;
  r.preflight_ms = resp.preflight_ms;
  r.solve_ms = resp.solve_ms;
  r.cache_hit = resp.cache_hit;
  r.repaired = resp.repaired;
  r.full_replan = resp.ladder == service::LadderStep::FullReplan;
  r.migrations = resp.migrations;
  const Class& c = b.w.classes[it.cls];
  if (it.pool < 0) {
    check_plain(c, service::outcome_name(resp.outcome), resp.plan ? resp.plan->cost_lb : -1.0,
                r);
  } else if (resp.outcome != service::Outcome::Solved || !resp.plan || !resp.repaired) {
    r.error = it.key + ": repair answered " + service::outcome_name(resp.outcome) + " (" +
              service::ladder_step_name(resp.ladder) + ") " + resp.failure;
  } else {
    r.ok = true;  // provisional: the plan is re-proved after the window
    r.plan = resp.plan;
  }
  return r;
}

/// One in-process request: submit, wait, render the response line.
Reply engine_call(Bench& b, const Item& it, const std::string& id) {
  service::PlanRequest req = make_request(b, it, id);
  const Clock::time_point t0 = Clock::now();
  const service::PlanResponse resp = b.engine->plan(std::move(req));
  const std::string line = service::wire::render_response_line(resp);
  const double ms = ms_between(t0, Clock::now());
  return reply_from(b, it, resp, ms, line.size());
}

service::wire::WireRequest wire_request(const Bench& b, const Item& it, std::string id) {
  const Class& c = b.w.classes[it.cls];
  service::wire::WireRequest wr;
  wr.id = std::move(id);
  wr.problem_text = c.problem_text;
  wr.deadline_ms = kDeadlineMs;
  wr.mode = c.mode;
  return wr;
}

double field(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f != nullptr && f->is_number() ? f->number : 0.0;
}

/// One wire request on connection `conn`: send the frame, wait for the
/// response frame.  Quota rejections are retried (and counted).
Reply wire_call(Bench& b, server::FrameClient& conn, const Item& it, const std::string& id) {
  const Class& c = b.w.classes[it.cls];
  const std::string body = service::wire::render_request(wire_request(b, it, id));
  Reply r;
  std::string got;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    if (!conn.send(body)) {
      r.error = c.name + ": send failed";
      return r;
    }
    const auto rc = conn.recv_frame(got, kRecvTimeoutMs);
    if (rc != server::FrameClient::Recv::Frame) {
      r.error = c.name + (rc == server::FrameClient::Recv::Timeout ? ": timed out" : ": lost");
      return r;
    }
    if (got.find("\"outcome\":\"rejected\"") != std::string::npos &&
        got.find("retry") != std::string::npos && r.retries < 100) {
      ++r.retries;
      continue;
    }
    break;
  }
  r.ms = ms_between(t0, Clock::now());
  r.bytes = got.size();
  json::Value v;
  if (!json::parse(got, v) || !v.is_object()) {
    r.error = c.name + ": unparsable response";
    return r;
  }
  const json::Value* rid = v.find("request");
  const json::Value* outcome = v.find("outcome");
  if (rid == nullptr || !rid->is_string() || rid->str != id) {
    r.error = c.name + ": response for another request";
    return r;
  }
  r.wait_ms = field(v, "wait_ms");
  r.compile_ms = field(v, "compile_ms");
  r.preflight_ms = field(v, "preflight_ms");
  r.solve_ms = field(v, "solve_ms");
  const json::Value* hit = v.find("cache_hit");
  r.cache_hit = hit != nullptr && hit->is_bool() && hit->boolean;
  if (const json::Value* st = v.find("stats")) {
    const auto u = [&](const char* k) { return static_cast<std::uint64_t>(field(*st, k)); };
    r.counts = {u("total_actions"), u("rg_expansions"), u("replay_calls"), u("slrg_sets")};
  }
  check_plain(c, outcome != nullptr && outcome->is_string() ? outcome->str : "?",
              v.find("cost_lb") != nullptr ? field(v, "cost_lb") : -1.0, r);
  return r;
}

/// The warm-up pass: one request of each of `items`, one after another (so
/// that the memory high-water mark it leaves does not depend on how threads
/// interleave).  Returns the replies.
std::vector<Reply> warm_up(Bench& b, const std::vector<std::size_t>& items,
                           const std::function<Reply(const Item&)>& call) {
  std::vector<Reply> replies;
  for (const std::size_t i : items) {
    replies.push_back(call(b.items[i]));
    if (!replies.back().ok) {
      ++b.warm_failed;
      b.note_error("warm-up: " + replies.back().error);
    }
  }
  return replies;
}

/// The request items: one per class, or (drift) one per pool delta.
void make_items(Bench& b) {
  b.items.clear();
  if (b.drift()) {
    for (std::size_t i = 0; i < b.pool.size(); ++i) {
      Item it;
      it.pool = static_cast<int>(i);
      it.key = tagged("Large/C+drift", b.pool[i].seed);
      b.items.push_back(it);
    }
    return;
  }
  for (std::uint32_t c = 0; c < b.w.classes.size(); ++c) {
    Item it;
    it.cls = c;
    it.key = b.w.classes[c].name;
    it.weight = b.w.classes[c].weight;
    b.items.push_back(it);
  }
}

/// The kind of a drift delta: what fails or degrades, and where.
std::string kind_of(const Bench& b, const Item& it) {
  return describe(*b.base_cp, b.pool[static_cast<std::size_t>(it.pool)].damage, false);
}

/// The middle delta of each kind in the drift pool (drift_pool groups the
/// pool by kind): set-up warms these up and the traced run replays them.
std::vector<std::size_t> kind_representatives(const Bench& b) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  for (std::size_t i = 1; i <= b.items.size(); ++i) {
    if (i == b.items.size() || kind_of(b, b.items[i]) != kind_of(b, b.items[start])) {
      out.push_back(start + (i - start) / 2);
      start = i;
    }
  }
  return out;
}

/// Drift's mix rule.  Eight kinds of equal share put p50 exactly where the
/// fourth-fastest kind meets the fifth, so it jumped between their latency
/// clusters from seed to seed (69-101 ms).  Ordering the kinds by the exact
/// work their warm-up representative did (expansions, replay calls and SLRG
/// sets, which repeat exactly), the kind at the median counts twice: p50
/// then lies inside that one kind.
void weigh_median_kind(Bench& b, const std::vector<std::size_t>& reps,
                       const std::vector<Reply>& replies) {
  std::vector<std::pair<std::uint64_t, std::size_t>> by_work;
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const Counts& c = replies[k].counts;
    by_work.emplace_back(c.expansions + c.replay_calls + c.slrg_sets, reps[k]);
  }
  std::sort(by_work.begin(), by_work.end());
  const std::string median_kind = kind_of(b, b.items[by_work[by_work.size() / 2].second]);
  for (Item& it : b.items) it.weight = kind_of(b, it) == median_kind ? 2 : 1;
}

/// Set-up, timed: parse every input, start the engine or daemon, compile
/// every distinct problem cold, (drift) solve the base plan and build the
/// damage pool, and run one warm-up pass.  Returns seconds.
double setup(Bench& b) {
  // Tear the previous set-up down first, untimed.
  b.client.reset();
  b.netd.reset();
  b.engine.reset();
  const Clock::time_point t0 = Clock::now();
  b.problems.clear();
  for (const Class& c : b.w.classes) {
    b.problems.push_back(model::load_problem(domain_text(), c.problem_text));
  }
  std::vector<std::size_t> warm;
  if (b.wire()) {
    b.netd = std::make_unique<Netd>(b.opt.netd, b.domain_path, b.opt.workdir + "/netd.log");
    b.client.emplace(b.netd->port());
    for (std::size_t i = 0; i < b.items.size(); ++i) warm.push_back(i);
    std::uint32_t n = 0;
    (void)warm_up(b, warm, [&](const Item& it) {
      return wire_call(b, *b.client, it, tagged("warm", n++));
    });
    return ms_between(t0, Clock::now()) / 1000.0;
  }

  service::PlanningEngine::Options eo;
  eo.workers = kWorkers;
  b.engine = std::make_unique<service::PlanningEngine>(eo);
  if (b.drift()) {
    // The base plan the repairs start from, solved (and compiled cold) by the
    // engine itself; the pool's deltas are derived from it.
    Item base;
    service::PlanRequest req = make_request(b, base, "base");
    req.echo_plan = true;
    const service::PlanResponse resp = b.engine->plan(std::move(req));
    if (resp.outcome != service::Outcome::Solved || !resp.plan) {
      raise("drift base plan: " + std::string(service::outcome_name(resp.outcome)) + " " +
            resp.failure);
    }
    b.prior = *resp.plan;
    b.choices = resp.choices;
    auto cp = std::make_shared<model::CompiledProblem>(
        model::compile(b.problems[0]->problem, b.problems[0]->scenario));
    analysis::attach_symmetry(*cp);
    b.base_cp = cp;
    b.pool = drift_pool(*b.base_cp, b.prior, b.opt.seed, kPoolSize);
    make_items(b);
    warm = kind_representatives(b);
  } else {
    for (std::size_t i = 0; i < b.items.size(); ++i) warm.push_back(i);
  }
  std::uint32_t n = 0;
  const std::vector<Reply> warmed = warm_up(b, warm, [&](const Item& it) {
    return engine_call(b, it, tagged("warm", n++));
  });
  if (b.drift()) weigh_median_kind(b, warm, warmed);
  return ms_between(t0, Clock::now()) / 1000.0;
}

/// The groups request_order spreads through each block: a class's copies,
/// or (drift) the deltas of one kind.
std::vector<std::vector<std::uint32_t>> order_groups(const Bench& b) {
  std::vector<std::vector<std::uint32_t>> groups;
  for (std::uint32_t i = 0; i < b.items.size(); ++i) {
    if (!b.drift() || i == 0 || kind_of(b, b.items[i]) != kind_of(b, b.items[i - 1])) {
      groups.emplace_back();
    }
    groups.back().insert(groups.back().end(), static_cast<std::size_t>(b.items[i].weight), i);
  }
  return groups;
}

/// Exact-count self-check: every reply of one item must carry the counts of
/// the first.  Returns false (and notes why) on a mismatch.
bool check_counts(Bench& b, std::map<std::string, Counts>& seen, const std::string& key,
                  const Counts& c, const char* where) {
  const auto [it, fresh] = seen.emplace(key, c);
  if (fresh || it->second == c) return true;
  b.note_error(std::string("exact counts of ") + key + " differ (" + where + "): " +
               counts_json(it->second) + " vs " + counts_json(c));
  return false;
}

/// A repair problem rebuilt independently of the engine, with the network
/// and problem its compile points into.
struct Rebuilt {
  std::unique_ptr<net::Network> net;
  std::unique_ptr<model::CppProblem> problem;
  std::unique_ptr<model::CompiledProblem> cp;
};

/// Re-proves a repair plan on an independently rebuilt repair problem (the
/// walk, residual deduction and compile are deterministic, so action ids
/// line up with the engine's).  Called outside the timed window.
bool reprove(Bench& b, const Item& it, const core::Plan& plan, std::map<int, Rebuilt>& cache) {
  Rebuilt& r = cache[it.pool];
  if (!r.cp) {
    const repair::Damage& dmg = b.pool[static_cast<std::size_t>(it.pool)].damage;
    const repair::Survivors survivors =
        repair::compute_survivors(*b.base_cp, b.prior, b.choices, dmg);
    r.net = std::make_unique<net::Network>(
        repair::damaged_copy(*b.base_cp->net, dmg, &survivors.residual));
    r.problem = std::make_unique<model::CppProblem>(
        repair::repair_problem(*b.base_cp->problem, *r.net, survivors));
    r.cp = std::make_unique<model::CompiledProblem>(model::compile(*r.problem, b.base_cp->scenario));
    repair::apply_adaptation_costs(*r.cp, survivors, {});
  }
  const testing::Validation v = testing::validate_plan(*r.cp, plan);
  if (!v.ok) b.note_error(it.key + ": repair plan failed re-validation: " + v.failure);
  return v.ok;
}

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics from the closed loop.

struct Metric {
  std::string name, unit;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The host-speed diagnostic: the probe loop at the start and end of the
/// run, and the share of all CPU time the hypervisor stole in between.
struct HostProbe {
  int cpu = -1;  // the CPU the run is pinned to, -1 when unpinned
  double start_ms = host_speed_ms();
  CpuTicks start_ticks = cpu_ticks();

  [[nodiscard]] std::string json() const {
    const CpuTicks now = cpu_ticks();
    const double total = static_cast<double>(now.total - start_ticks.total);
    return Obj()
        .num("cpu", cpu)
        .num("loop_ms_start", start_ms)
        .num("loop_ms_end", host_speed_ms())
        .num("steal_frac", total > 0.0 ? static_cast<double>(now.steal - start_ticks.steal) / total
                                       : 0.0)
        .done();
  }
};

void print_result(const Bench& b, bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, Obj detail, const HostProbe& host) {
  Obj m, md;
  for (const Metric& x : metrics) {
    m.raw(x.name, Obj().num("value", x.value).str("unit", x.unit).done());
    md.raw(x.name, Obj().num("value", x.value).str("unit", x.unit)
                       .num("samples", static_cast<double>(x.samples)).done());
  }
  detail.str("workload", b.w.name)
      .num("seed", static_cast<double>(b.opt.seed))
      .num("trace", b.opt.trace ? 1 : 0)
      .raw("metrics", md.done())
      .raw("host", host.json());
  std::string errs = "[";
  for (std::size_t i = 0; i < b.errors.size(); ++i) errs += (i ? "," : "") + quote(b.errors[i]);
  detail.raw("errors", errs + "]");
  std::printf("%s\n", detail.done().c_str());
  std::printf("%s\n", Obj()
                          .raw("correct", correct ? "true" : "false")
                          .num("attempted", static_cast<double>(attempted))
                          .num("failed", static_cast<double>(failed))
                          .raw("metrics", m.done())
                          .done()
                          .c_str());
  std::fflush(stdout);
}

struct Sample {
  double ms;
  std::uint32_t item;
};

int run_untraced(Bench& b, const HostProbe& host) {
  // The high-water mark is read after the first set-up: a fresh process
  // that has parsed, compiled and served every class once, one after
  // another.  Over the window it moved with the pool's heaviest repairs.
  const int setups = b.wire() ? 15 : 3;
  std::vector<double> setup_s;
  double peak_mb = 0.0;
  for (int i = 0; i < setups; ++i) {
    setup_s.push_back(setup(b));
    if (i == 0) peak_mb = b.wire() ? b.netd->peak_rss_mb() : peak_rss_mb();
  }
  // The window holds whole blocks, so that every class is in it in its exact
  // share: cut anywhere else, the heavy classes' count in the window (and so
  // req_per_s) moved by one request of seconds from seed to seed.  It ends on
  // the block boundary nearest to --seconds, at least one block in.
  const std::vector<std::vector<std::uint32_t>> groups = order_groups(b);
  std::size_t block = 0;
  for (const auto& g : groups) block += g.size();
  const std::vector<std::uint32_t> order =
      request_order(groups, b.opt.seed, std::size_t{1} << 20);

  std::vector<Reply> replies;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && i % block == 0) {
      const double elapsed = ms_between(start, Clock::now()) / 1000.0;
      const double per_block = elapsed * static_cast<double>(block) / static_cast<double>(i);
      if (elapsed + per_block / 2.0 >= b.opt.seconds) break;
    }
    const Item& it = b.items[order[i]];
    const std::string id = tagged("r", i);
    replies.push_back(b.wire() ? wire_call(b, *b.client, it, id) : engine_call(b, it, id));
  }
  const double window_s = ms_between(start, Clock::now()) / 1000.0;

  if (b.netd) b.netd->stop();

  // Correctness, outside the window.
  bool counts_ok = true;
  std::map<std::string, Counts> seen;
  std::map<int, Rebuilt> rcps;
  std::vector<Sample> samples;
  std::uint64_t attempted = 0, failed = 0;
  for (std::size_t k = 0; k < replies.size(); ++k) {
    const Reply& r = replies[k];
    const Item& it = b.items[order[k]];
    ++attempted;
    bool ok = r.ok;
    if (ok && r.plan) ok = reprove(b, it, *r.plan, rcps);
    if (!ok) {
      ++failed;
      if (!r.error.empty()) b.note_error(r.error);
      continue;
    }
    counts_ok = check_counts(b, seen, it.key, r.counts, "untraced run") && counts_ok;
    samples.push_back({r.ms, order[k]});
  }
  const double rps = static_cast<double>(replies.size()) / window_s;

  std::vector<double> lat;
  for (const Sample& s : samples) lat.push_back(s.ms);
  const double p50 = percentile(lat, 0.50), p95 = percentile(lat, 0.95);
  const std::size_t beyond_p95 =
      static_cast<std::size_t>(std::count_if(lat.begin(), lat.end(), [&](double v) {
        return v > p95;
      }));

  // Latency bands, each taken as the 10th-90th percentile range of its
  // samples: the mix rule holds when p50 and p95 each fall inside one band
  // and the bands do not overlap.  Drift is one class; its bands per kind of
  // delta are reported but overlap by nature.
  const auto band_of = [&](std::uint32_t item) {
    return b.drift() ? kind_of(b, b.items[item]) : b.w.classes[b.items[item].cls].band;
  };
  Obj bands;
  std::string rule = mix_rule(b.w);
  std::vector<std::pair<double, double>> ranges;
  std::vector<std::string> band_names;
  for (std::uint32_t i = 0; i < b.items.size(); ++i) {
    const std::string band = band_of(i);
    if (std::find(band_names.begin(), band_names.end(), band) == band_names.end()) {
      band_names.push_back(band);
    }
  }
  for (const std::string& band : band_names) {
    std::vector<double> v;
    for (const Sample& s : samples) {
      if (band_of(s.item) == band) v.push_back(s.ms);
    }
    if (v.empty()) continue;
    const double lo = percentile(v, 0.10), hi = percentile(v, 0.90);
    ranges.emplace_back(lo, hi);
    bands.raw(band, Obj().num("samples", static_cast<double>(v.size()))
                        .num("share", static_cast<double>(v.size()) / samples.size())
                        .num("p10_ms", lo).num("p50_ms", median(v)).num("p90_ms", hi)
                        .done());
  }
  if (rule.empty() && !b.drift()) {
    for (std::size_t i = 1; i < ranges.size(); ++i) {
      if (ranges[i].first <= ranges[i - 1].second) {
        rule = "bands " + band_names[i - 1] + " and " + band_names[i] + " overlap";
      }
    }
    for (const double p : {p50, p95}) {
      bool inside = false;
      for (const auto& [lo, hi] : ranges) inside = inside || (p >= lo && p <= hi);
      if (ranges.size() > 1 && !inside) rule = "percentile " + num(p) + " lies between bands";
    }
  }

  Obj counts;
  for (const auto& [key, c] : seen) counts.raw(key, counts_json(c));
  Obj detail;
  detail.str("perfbench", "detail")
      .raw("bands", bands.done())
      .str("mix_rule", rule.empty() ? "ok" : rule)
      .num("samples_beyond_p95", static_cast<double>(beyond_p95))
      .raw("setup_s_each", [&] {
        std::string s = "[";
        for (std::size_t i = 0; i < setup_s.size(); ++i) s += (i ? "," : "") + num(setup_s[i]);
        return s + "]";
      }())
      .raw("counts_ok", counts_ok ? "true" : "false")
      .raw("counts", counts.done());
  if (beyond_p95 < 10) {
    std::fprintf(stderr, "perfbench: only %zu samples beyond p95; lengthen --seconds\n",
                 beyond_p95);
  }

  const std::vector<Metric> metrics = {
      {"setup_s", "s", median(setup_s), setup_s.size()},
      {"req_per_s", "1/s", rps, samples.size()},
      {"latency_ms_p50", "ms", p50, samples.size()},
      {"latency_ms_p95", "ms", p95, samples.size()},
      {"ok_frac", "ratio",
       attempted == 0 ? 0.0 : static_cast<double>(attempted - failed) / attempted,
       static_cast<std::size_t>(attempted)},
      {"peak_rss_mb", "MiB", peak_mb, 1},
  };
  const bool correct = failed == 0 && b.warm_failed == 0 && attempted > 0 && counts_ok;
  print_result(b, correct, attempted, failed, metrics, detail, host);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Traced run: each item replayed through the layers' public calls.

/// A compiled class problem as the engine's cache holds it.
struct Compiled {
  std::shared_ptr<const model::LoadedProblem> lp;
  std::unique_ptr<model::CompiledProblem> cp;
};

struct PipeOut {
  double ms = 0.0;
  bool ok = false;
  Counts counts;
  core::PlannerStats stats;
  cp::Stats cps;
  std::size_t bytes = 0;
};

core::PlannerOptions planner_options(Mode mode, const StopSource& stop) {
  core::PlannerOptions opt;
  opt.mode = mode;
  opt.stop = stop.token();
  opt.progress_every = service::PlanRequest{}.progress_every;
  opt.anytime = true;
  return opt;
}

/// Plans `cp` the way the engine's primary rung does, with the simulator as
/// the validator, under spans "plan"/"cp.solve" and "sim.execute".
std::optional<core::Plan> traced_plan(Tracer& tr, std::uint32_t req, const model::CompiledProblem& cp,
                                      Mode mode, PipeOut& out) {
  StopSource stop;
  stop.arm_deadline_ms(kDeadlineMs);
  sim::Executor exec(cp);
  if (mode == Mode::Cp) {
    const Tracer::Scope s(tr, "cp.solve", req);
    const core::PlannerOptions po = planner_options(mode, stop);
    cp::Options co;
    co.symmetry_breaking = po.symmetry_pruning;
    co.forbid_repeated_actions = po.forbid_repeated_actions;
    co.max_nodes = po.max_rg_expansions;
    co.progress_every = po.progress_every;
    co.stop = po.stop;
    co.anytime = po.anytime;
    co.validate = [&](std::span<const ActionId> steps, double cost) {
      const Tracer::Scope q(tr, "sim.execute", req);
      core::Plan candidate;
      candidate.steps.assign(steps.begin(), steps.end());
      candidate.cost_lb = cost;
      return exec.execute(candidate).feasible;
    };
    cp::Result r = cp::solve(cp, co);
    out.cps = r.stats;
    out.counts = {cp.actions.size(), r.stats.branches, r.stats.propagations, 0};
    out.stats.sim_rejections = r.stats.sim_rejections;
    if (!r.ok()) return std::nullopt;
    core::Plan p;
    p.steps = std::move(*r.steps);
    p.cost_lb = r.cost;
    return p;
  }
  const Tracer::Scope s(tr, "plan", req);
  core::Sekitei planner(cp, planner_options(mode, stop));
  core::PlanResult r = planner.plan([&](const core::Plan& p) {
    const Tracer::Scope q(tr, "sim.execute", req);
    return exec.execute(p).feasible;
  });
  out.stats = r.stats;
  out.counts = counts_of(r.stats);
  return std::move(r.plan);
}

void traced_render(Tracer& tr, std::uint32_t req, const model::CompiledProblem& cp,
                   const core::Plan& plan, PipeOut& out, bool frame) {
  const Tracer::Scope s(tr, "wire.render", req);
  service::PlanResponse resp;
  resp.id = tagged("t", req);
  resp.outcome = service::Outcome::Solved;
  resp.cache_hit = true;
  resp.plan_text = plan.str(cp);
  resp.plan = plan;
  resp.stats = out.stats;
  out.bytes = frame ? service::wire::render_response_frame(resp).size()
                    : service::wire::render_response_line(resp).size();
}

/// The layers one request of `it` passes through, called directly.
PipeOut pipeline(Bench& b, const Item& it, const std::vector<Compiled>& compiled, Tracer& tr,
                 std::uint32_t req) {
  PipeOut out;
  const Class& c = b.w.classes[it.cls];
  const Compiled& base = compiled[it.cls];
  const Clock::time_point t0 = Clock::now();
  {
    const Tracer::Scope root(tr, "request", req);
    std::string body;
    if (b.wire()) {
      std::string frame;
      {
        const Tracer::Scope s(tr, "wire.render_request", req);
        frame = service::wire::encode_frame(
            service::wire::render_request(wire_request(b, it, tagged("t", req))));
      }
      service::wire::WireRequest parsed;
      {
        const Tracer::Scope s(tr, "wire.decode", req);
        service::wire::FrameDecoder dec;
        dec.feed(frame);
        if (dec.next(body) != service::wire::FrameDecoder::Status::Frame) return out;
      }
      {
        const Tracer::Scope s(tr, "wire.parse_request", req);
        std::string err;
        if (!service::wire::parse_request(body, parsed, err)) return out;
      }
    }
    {
      const Tracer::Scope s(tr, "fingerprint", req);
      (void)model::fingerprint(base.lp->problem, base.lp->scenario);
    }
    const model::CompiledProblem* target = base.cp.get();
    // Declared in dependency order: each compile points into the network
    // and problem declared before it.
    std::optional<net::Network> bare, damaged;
    std::optional<model::CppProblem> fresh, rp;
    std::optional<model::CompiledProblem> bcp, rcp;
    if (it.pool >= 0) {
      // The engine's repair path with pre-flight on: the unsurvivability cut
      // on the bare damaged network, then survivors, the repair problem and
      // its (uncached) compile, pre-flight, and the repair search.
      const repair::Damage& dmg = b.pool[static_cast<std::size_t>(it.pool)].damage;
      const model::CompiledProblem& cp = *base.cp;
      {
        const Tracer::Scope s(tr, "compile", req);
        bare.emplace(repair::damaged_copy(*cp.net, dmg, nullptr));
        fresh.emplace(*cp.problem);
        fresh->network = &*bare;
        bcp.emplace(model::compile(*fresh, cp.scenario));
      }
      {
        const Tracer::Scope s(tr, "symmetry.attach", req);
        analysis::attach_symmetry(*bcp);
      }
      {
        const Tracer::Scope s(tr, "preflight", req);
        if (analysis::preflight(*bcp).infeasible) return out;
      }
      repair::Survivors survivors;
      {
        const Tracer::Scope s(tr, "repair.survivors", req);
        survivors = repair::compute_survivors(cp, b.prior, b.choices, dmg);
      }
      {
        const Tracer::Scope s(tr, "repair.problem", req);
        damaged.emplace(repair::damaged_copy(*cp.net, dmg, &survivors.residual));
        rp.emplace(repair::repair_problem(*cp.problem, *damaged, survivors));
      }
      {
        const Tracer::Scope s(tr, "repair.compile", req);
        rcp.emplace(model::compile(*rp, cp.scenario));
        repair::apply_adaptation_costs(*rcp, survivors, {});
      }
      {
        const Tracer::Scope s(tr, "symmetry.attach", req);
        analysis::attach_symmetry(*rcp);
      }
      {
        const Tracer::Scope s(tr, "preflight", req);
        if (analysis::preflight(*rcp).infeasible) return out;
      }
      target = &*rcp;
    }
    const std::optional<core::Plan> plan = traced_plan(tr, req, *target, c.mode, out);
    if (!plan) return out;
    traced_render(tr, req, *target, *plan, out, b.wire());
    out.ok = it.pool >= 0 || std::fabs(plan->cost_lb - c.expected_cost) <= kCostTolerance;
  }
  out.ms = ms_between(t0, Clock::now());
  return out;
}

/// Set-up trees of the traced run: each class's problem parsed, compiled and
/// given its symmetry partition, as the engine's cold compile does.
std::vector<Compiled> traced_compile(Bench& b, Tracer& tr) {
  std::vector<Compiled> out;
  for (std::uint32_t c = 0; c < b.w.classes.size(); ++c) {
    const std::uint32_t req = kSetupRequest + c;
    const Tracer::Scope root(tr, "setup", req);
    Compiled x;
    {
      const Tracer::Scope s(tr, "textio.load", req);
      x.lp = model::load_problem(domain_text(), b.w.classes[c].problem_text);
    }
    {
      const Tracer::Scope s(tr, "compile", req);
      x.cp = std::make_unique<model::CompiledProblem>(
          model::compile(x.lp->problem, x.lp->scenario));
    }
    {
      const Tracer::Scope s(tr, "symmetry.attach", req);
      analysis::attach_symmetry(*x.cp);
    }
    out.push_back(std::move(x));
  }
  return out;
}

/// Per-item observations over the traced rounds.
struct ItemTrace {
  std::vector<Reply> replies;          // untraced engine / daemon pass
  std::vector<double> off_ms, on_ms;   // pipeline, tracing off / on
  std::vector<std::uint32_t> requests; // span request ids of the traced pipeline
  std::vector<PipeOut> outs;
};

int run_traced(Bench& b, const HostProbe& host) {
  (void)setup(b);
  Tracer tr;
  tr.enabled = true;
  const std::vector<Compiled> compiled = traced_compile(b, tr);

  // The items the traced run replays: every class, or one delta per kind.
  std::vector<std::size_t> replay;
  if (b.drift()) {
    replay = kind_representatives(b);
  } else {
    for (std::size_t i = 0; i < b.items.size(); ++i) replay.push_back(i);
  }
  std::map<std::size_t, ItemTrace> traces;
  std::uint64_t attempted = 0, failed = 0;
  bool counts_ok = true;
  std::map<std::string, Counts> seen;
  std::map<int, Rebuilt> rcps;
  std::uint32_t next_req = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < 1000; ++round) {
    if (round > 0 && ms_between(start, Clock::now()) >= b.opt.seconds * 1000.0) break;
    for (const std::size_t i : replay) {
      const Item& it = b.items[i];
      ItemTrace& t = traces[i];
      const std::string id = tagged("t", next_req);
      Reply r = b.wire() ? wire_call(b, *b.client, it, id) : engine_call(b, it, id);
      ++attempted;
      if (r.ok && r.plan) r.ok = reprove(b, it, *r.plan, rcps);
      if (!r.ok) {
        ++failed;
        b.note_error(r.error);
      } else {
        counts_ok = check_counts(b, seen, it.key, r.counts, "traced run, service") && counts_ok;
      }
      t.replies.push_back(std::move(r));

      tr.enabled = false;
      t.off_ms.push_back(pipeline(b, it, compiled, tr, next_req).ms);
      tr.enabled = true;
      PipeOut out = pipeline(b, it, compiled, tr, next_req);
      ++attempted;
      if (!out.ok) {
        ++failed;
        b.note_error(it.key + ": traced pipeline found no valid plan");
      } else {
        counts_ok = check_counts(b, seen, it.key, out.counts, "traced pipeline") && counts_ok;
      }
      t.on_ms.push_back(out.ms);
      t.requests.push_back(next_req++);
      t.outs.push_back(std::move(out));
    }
  }
  if (b.netd) b.netd->stop();

  // Self and total time per span name and request.
  const std::vector<double> self = tr.self_ms();
  std::map<std::uint32_t, std::map<std::string, double>> self_by, total_by;
  for (std::size_t k = 0; k < tr.spans.size(); ++k) {
    const Span& s = tr.spans[k];
    self_by[s.request][s.name] += self[k];
    total_by[s.request][s.name] += ms_between(s.start, s.end);
  }

  std::map<std::string, double> agg;  // weighted sums
  double weight_sum = 0.0, on_sum = 0.0, off_sum = 0.0;
  Obj per_item;
  for (const std::size_t i : replay) {
    const Item& it = b.items[i];
    const ItemTrace& t = traces[i];
    const std::uint32_t setup_req = kSetupRequest + it.cls;
    const auto med_of = [&](const std::function<double(std::size_t)>& f) {
      std::vector<double> v;
      for (std::size_t r = 0; r < t.requests.size(); ++r) v.push_back(f(r));
      return median(v);
    };
    // A layer's per-request self time; set-up layers (parse, compile,
    // attach) fall back to the set-up tree when the request does not call
    // them (the engine's cache is warm).
    const auto self_of = [&](const std::string& name) {
      return med_of([&](std::size_t r) {
        const auto& m = self_by[t.requests[r]];
        if (auto f = m.find(name); f != m.end()) return f->second;
        const auto& s = self_by[setup_req];
        const auto g = s.find(name);
        return g == s.end() ? 0.0 : g->second;
      });
    };
    const auto total_of = [&](const std::string& name) {
      return med_of([&](std::size_t r) {
        const auto& m = total_by[t.requests[r]];
        const auto f = m.find(name);
        return f == m.end() ? 0.0 : f->second;
      });
    };
    const auto stat = [&](const std::function<double(const core::PlannerStats&)>& f) {
      return med_of([&](std::size_t r) { return f(t.outs[r].stats); });
    };
    const auto reply = [&](const std::function<double(const Reply&)>& f) {
      return med_of([&](std::size_t r) { return f(t.replies[r]); });
    };
    const auto mean_reply = [&](const std::function<double(const Reply&)>& f) {
      double s = 0.0;
      for (const Reply& r : t.replies) s += f(r);
      return t.replies.empty() ? 0.0 : s / static_cast<double>(t.replies.size());
    };
    const bool leveled = b.w.classes[it.cls].mode == Mode::Leveled;
    const bool cpm = !leveled;

    std::map<std::string, double> m;
    for (const MetricDef& d : kPerLayer) m[d.name] = 0.0;
    if (b.wire()) {
      m["server.overhead_ms_p50"] = reply([](const Reply& r) {
        return r.ms - (r.wait_ms + r.compile_ms + r.preflight_ms + r.solve_ms);
      });
      m["server.retries"] = mean_reply([](const Reply& r) { return double(r.retries); });
      m["wire.parse_request_us"] = 1000.0 * self_of("wire.parse_request");
      m["wire.decode_us"] = 1000.0 * self_of("wire.decode");
    }
    m["wire.render_us"] = 1000.0 * self_of("wire.render");
    m["wire.response_bytes"] = reply([](const Reply& r) { return double(r.bytes); });
    m["engine.wait_ms_p50"] = reply([](const Reply& r) { return r.wait_ms; });
    m["cache.hit_rate"] = mean_reply([](const Reply& r) { return r.cache_hit ? 1.0 : 0.0; });
    // Per request, the layers' self times summed; the latency of the service
    // pass minus that is what no traced layer accounts for.
    const double layers = med_of([&](std::size_t r) {
      double sum = 0.0;
      for (const auto& [name, v] : self_by[t.requests[r]]) {
        if (name != "request") sum += v;
      }
      return sum;
    });
    const double latency = reply([](const Reply& r) { return r.ms; });
    m["engine.unattributed_ms"] = latency - layers;
    m["textio.load_ms"] = self_of("textio.load");
    m["fingerprint_us"] = 1000.0 * self_of("fingerprint");
    m["compile_ms"] = self_of("compile");
    m["compile.actions"] = med_of([&](std::size_t r) { return double(t.outs[r].counts.actions); });
    m["symmetry.attach_ms"] = self_of("symmetry.attach");
    m["preflight_ms"] = self_of("preflight");
    m["sim.execute_us"] = 1000.0 * self_of("sim.execute");
    if (leveled) {
      m["plan_ms"] = total_of("plan");
      m["plrg_ms"] = stat([](const core::PlannerStats& s) { return s.time_graph_ms; });
      m["rg_ms"] = stat([](const core::PlannerStats& s) { return s.time_search_ms; });
      m["slrg.sets"] = stat([](const core::PlannerStats& s) { return double(s.slrg_sets); });
      m["slrg.memo_hit_rate"] = stat([](const core::PlannerStats& s) {
        const double all = double(s.slrg_memo_hits + s.slrg_memo_misses);
        return all > 0 ? double(s.slrg_memo_hits) / all : 0.0;
      });
      m["rg.expansions"] = stat([](const core::PlannerStats& s) { return double(s.rg_expansions); });
      m["rg.nodes"] = stat([](const core::PlannerStats& s) { return double(s.rg_nodes); });
      m["replay.calls"] = stat([](const core::PlannerStats& s) { return double(s.replay_calls); });
      m["replay.calls_per_expansion"] = stat([](const core::PlannerStats& s) {
        return s.rg_expansions > 0 ? double(s.replay_calls) / double(s.rg_expansions) : 0.0;
      });
      m["replay.prune_ratio"] = stat([](const core::PlannerStats& s) {
        return s.replay_calls > 0 ? double(s.rg_pruned_by_replay) / double(s.replay_calls) : 0.0;
      });
      m["rg.pruned_placements"] =
          stat([](const core::PlannerStats& s) { return double(s.pruned_placements); });
    }
    if (cpm) {
      m["cp.solve_ms"] = total_of("cp.solve");
      m["cp.branches"] = med_of([&](std::size_t r) { return double(t.outs[r].cps.branches); });
      m["cp.pruned_symmetry"] =
          med_of([&](std::size_t r) { return double(t.outs[r].cps.pruned_symmetry); });
    }
    m["sim.rejections"] = stat([](const core::PlannerStats& s) { return double(s.sim_rejections); });
    if (it.pool >= 0) {
      m["repair.survivors_us"] = 1000.0 * self_of("repair.survivors");
      m["repair.problem_us"] = 1000.0 * self_of("repair.problem");
      m["repair.compile_ms"] = self_of("repair.compile");
      m["repair.search_ms"] = total_of("plan");
      m["repair.in_place_frac"] = mean_reply([](const Reply& r) {
        return r.ok && r.repaired && !r.full_replan ? 1.0 : 0.0;
      });
      m["repair.migrations_mean"] = mean_reply([](const Reply& r) { return double(r.migrations); });
      m["ladder.full_replan_frac"] =
          mean_reply([](const Reply& r) { return r.full_replan ? 1.0 : 0.0; });
    }
    const double on = median(t.on_ms), off = median(t.off_ms);
    m["trace.overhead_frac"] = off > 0.0 ? (on - off) / off : 0.0;
    const double w = it.weight;
    weight_sum += w;
    on_sum += w * on;
    off_sum += w * off;

    Obj o;
    if (it.pool >= 0) o.str("delta", describe(*b.base_cp, b.pool[static_cast<std::size_t>(it.pool)].damage));
    o.num("rounds", static_cast<double>(t.requests.size()))
        .num("latency_ms", latency)
        .num("traced_ms", on)
        .num("untraced_pipeline_ms", off)
        .num("self_ms.sum", layers);
    std::set<std::string> names;
    for (const std::uint32_t rq : t.requests) {
      for (const auto& [name, v] : self_by[rq]) {
        if (name != "request") names.insert(name);
      }
    }
    for (const std::string& name : names) {
      o.num("self_ms." + name, med_of([&](std::size_t r) {
        const auto& mm = self_by[t.requests[r]];
        const auto f = mm.find(name);
        return f == mm.end() ? 0.0 : f->second;
      }));
    }
    for (const auto& [name, v] : m) {
      o.num(name, v);
      agg[name] += w * v;
    }
    per_item.raw(it.key, o.done());
  }

  std::vector<Metric> metrics;
  for (const MetricDef& d : kPerLayer) {
    double v = weight_sum > 0.0 ? agg[d.name] / weight_sum : 0.0;
    if (std::string(d.name) == "trace.overhead_frac") {
      v = off_sum > 0.0 ? (on_sum - off_sum) / off_sum : 0.0;
    }
    metrics.push_back({d.name, d.unit, v, traces.empty() ? 0 : traces.begin()->second.requests.size()});
  }

  // Spans are kept in memory until here, then written once.
  const std::string path = b.opt.workdir + "/trace-" + b.w.name + "-" +
                           std::to_string(b.opt.seed) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    const Clock::time_point t0 = tr.spans.empty() ? Clock::now() : tr.spans.front().start;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t k = 0; k < tr.spans.size(); ++k) {
      const Span& s = tr.spans[k];
      std::fprintf(f, "%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%s,\"dur\":%s,"
                      "\"args\":{\"request\":%u,\"parent\":%d}}",
                   k ? "," : "", quote(s.name).c_str(),
                   num(1000.0 * ms_between(t0, s.start)).c_str(),
                   num(1000.0 * ms_between(s.start, s.end)).c_str(), s.request, s.parent);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
  }

  Obj counts;
  for (const auto& [key, c] : seen) counts.raw(key, counts_json(c));
  Obj detail;
  detail.str("perfbench", "detail")
      .raw("per_class", per_item.done())
      .raw("counts_ok", counts_ok ? "true" : "false")
      .raw("counts", counts.done())
      .str("trace_file", path)
      .num("spans", static_cast<double>(tr.spans.size()));
  const bool correct = failed == 0 && attempted > 0 && counts_ok;
  print_result(b, correct, attempted, failed, metrics, detail, host);
  return correct ? 0 : 1;
}

}  // namespace

int run(const RunOptions& opt) {
  const int cpu = pin_to_one_cpu();
  const HostProbe host{cpu};
  ::signal(SIGPIPE, SIG_IGN);
  Bench b;
  b.opt = opt;
  b.w = make_workload(opt.workload);
  make_items(b);
  if (b.wire()) {
    b.domain_path = opt.workdir + "/media.sk";
    std::ofstream(b.domain_path) << domain_text();
  }
  return opt.trace ? run_traced(b, host) : run_untraced(b, host);
}

int dump_inputs(const std::string& workload, std::uint64_t seed) {
  Bench b;
  b.opt.seed = seed;
  b.w = make_workload(workload);
  make_items(b);
  Obj out;
  out.str("workload", workload).str("mix_rule", mix_rule(b.w));
  if (b.drift()) {
    (void)setup(b);  // the pool derives from the base plan
    std::string pool = "[";
    for (std::size_t i = 0; i < b.pool.size(); ++i) {
      pool += (i ? "," : "") + quote(describe(*b.base_cp, b.pool[i].damage));
    }
    out.raw("pool", pool + "]");
  }
  const std::vector<std::uint32_t> order = request_order(order_groups(b), seed, 400);
  std::string o = "[";
  for (std::size_t i = 0; i < order.size(); ++i) o += (i ? "," : "") + quote(b.items[order[i]].key);
  out.raw("order", o + "]");
  std::string classes = "[";
  for (std::size_t i = 0; i < b.w.classes.size(); ++i) {
    const Class& c = b.w.classes[i];
    classes += (i ? "," : "") + Obj().str("name", c.name).str("band", c.band)
                                     .num("weight", c.weight).num("cost", c.expected_cost).done();
  }
  out.raw("classes", classes + "]");
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace perfbench
