// Batch planning driver for the concurrent service: load one component
// domain and many problem files, submit everything to the PlanningEngine,
// and stream one NDJSON record per request to stdout.
//
//   $ ./sekitei_serve <domain.sk> <problem.sk>... [--jobs N] [--deadline-ms D]
//                     [--repeat K] [--mode leveled|greedy|cp] [--no-validate]
//                     [--cache-capacity N] [--max-pending N] [--retries N]
//                     [--retry-base-ms D] [--log <level>]
//
// --jobs          worker threads (default: hardware concurrency)
// --deadline-ms   per-request deadline; requests that exceed it either come
//                 back "degraded" with a fallback plan (see request.hpp) or
//                 "deadline_exceeded" with partial stats
// --no-degrade    disable the graceful-degradation ladder (pre-ladder
//                 behavior: a fired deadline is always deadline_exceeded)
// --repeat        submit each problem file K times (cache hit-rate demo: the
//                 2nd..Kth submission of a file reuses its compiled problem)
// --cache-capacity  compiled-problem cache slots; 0 disables caching
// --max-pending   admission control: reject submissions while this many
//                 requests are in flight (0 = unbounded)
// --retries       re-submit an admission-rejected request up to N times with
//                 jittered exponential backoff (default 3; 0 disables)
// --retry-base-ms backoff base delay (default 5; attempt k sleeps
//                 base * 2^k plus up to 50% deterministic jitter)
// --metrics       after the batch, print one NDJSON metrics snapshot
//                 (support/metrics.hpp registry) to stdout
// --metrics-every-ms D  additionally stream a snapshot every D ms while the
//                 batch runs (periodic flusher thread)
// --flight-dir DIR  dump a search flight recording (NDJSON ring of RG
//                 progress samples) to DIR/<id>.flight.ndjson for every
//                 non-solved request
// --drift         drift-stream mode: solve each problem, mutate the solved
//                 instance with a seeded damage delta (repair::seeded_drift),
//                 resubmit the damaged instance as a repair request, and
//                 stream both records (the repair's id gets a "/repair"
//                 suffix).  --drift-seed varies the damage; --migration-
//                 penalty prices each migrated component into repair_cost.
// --drift-unsurvivable  instead of a seeded delta, the damage fails EVERY
//                 link: no repair can exist, so (with --preflight) each
//                 repair record must come back infeasible with
//                 "repair_preflight_rejected":true before any search runs.
//
// Fault injection: SEKITEI_FAULTS=<point>:<nth>[:throw|:fail][,...] arms
// deterministic faults before any request is submitted (support/fault.hpp).
//
// A summary line goes to stderr; the exit code is the maximum per-request
// exit code (solved = 0, infeasible = 1, deadline = 3, cancelled = 4,
// rejected = 5, degraded = 6; 2 is reserved for usage/input errors).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "model/compile.hpp"
#include "repair/repair.hpp"
#include "service/engine.hpp"
#include "service/wire.hpp"
#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/log.hpp"
#include "support/metrics.hpp"
#include "support/retry.hpp"
#include "support/timer.hpp"

namespace {

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) sekitei::raise(std::string("cannot open ") + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

bool is_queue_full(const sekitei::service::PlanResponse& r) {
  return r.outcome == sekitei::service::Outcome::Rejected &&
         r.failure.find("queue full") != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sekitei;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: %s <domain.sk> <problem.sk>... [--jobs N] [--deadline-ms D]\n"
                 "          [--repeat K] [--mode leveled|greedy|cp] [--greedy]\n"
                 "          [--no-validate] [--no-degrade]\n"
                 "          [--cache-capacity N] [--max-pending N] [--retries N]\n"
                 "          [--retry-base-ms D] [--preflight] [--log <level>]\n"
                 "          [--metrics] [--metrics-every-ms D] [--flight-dir DIR]\n"
                 "          [--drift] [--drift-seed N] [--drift-unsurvivable]\n"
                 "          [--migration-penalty P]\n",
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

  service::PlanningEngine::Options engine_opts;
  double deadline_ms = 0.0;
  std::size_t repeat = 1;
  std::size_t retries = 3;
  double retry_base_ms = 5.0;
  core::PlannerOptions::Mode mode = core::PlannerOptions::Mode::Leveled;
  bool validate = true, degrade = true;
  bool metrics_final = false;
  double metrics_every_ms = 0.0;
  bool drift = false;
  bool drift_unsurvivable = false;
  std::uint64_t drift_seed = 0xD21F7;
  double migration_penalty = 0.0;
  std::vector<const char*> files;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      engine_opts.workers = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0 && i + 1 < argc) {
      deadline_ms = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      repeat = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
      if (repeat == 0) repeat = 1;
    } else if (std::strcmp(argv[i], "--cache-capacity") == 0 && i + 1 < argc) {
      engine_opts.cache_capacity =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--max-pending") == 0 && i + 1 < argc) {
      engine_opts.max_pending =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--retries") == 0 && i + 1 < argc) {
      retries = static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--retry-base-ms") == 0 && i + 1 < argc) {
      retry_base_ms = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--greedy") == 0) {
      mode = core::PlannerOptions::Mode::Greedy;
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      const char* m = argv[++i];
      if (std::strcmp(m, "leveled") == 0) {
        mode = core::PlannerOptions::Mode::Leveled;
      } else if (std::strcmp(m, "greedy") == 0) {
        mode = core::PlannerOptions::Mode::Greedy;
      } else if (std::strcmp(m, "cp") == 0) {
        mode = core::PlannerOptions::Mode::Cp;
      } else {
        std::fprintf(stderr, "error: unknown --mode %s (expected leveled, greedy or cp)\n", m);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-validate") == 0) {
      validate = false;
    } else if (std::strcmp(argv[i], "--no-degrade") == 0) {
      degrade = false;
    } else if (std::strcmp(argv[i], "--preflight") == 0) {
      engine_opts.preflight = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      metrics_final = true;
    } else if (std::strcmp(argv[i], "--metrics-every-ms") == 0 && i + 1 < argc) {
      metrics_every_ms = std::strtod(argv[++i], nullptr);
      metrics_final = true;
    } else if (std::strcmp(argv[i], "--flight-dir") == 0 && i + 1 < argc) {
      engine_opts.flight_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--drift") == 0) {
      drift = true;
    } else if (std::strcmp(argv[i], "--drift-seed") == 0 && i + 1 < argc) {
      drift_seed = std::strtoull(argv[++i], nullptr, 10);
      drift = true;
    } else if (std::strcmp(argv[i], "--drift-unsurvivable") == 0) {
      drift_unsurvivable = true;
      drift = true;
    } else if (std::strcmp(argv[i], "--migration-penalty") == 0 && i + 1 < argc) {
      migration_penalty = std::strtod(argv[++i], nullptr);
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
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "error: no problem files given\n");
    return 2;
  }

  try {
    const std::string domain_text = slurp(argv[1]);

    // Parse each file once; repeats share the LoadedProblem (and therefore
    // the compiled-problem cache entry).
    std::vector<std::shared_ptr<const model::LoadedProblem>> problems;
    problems.reserve(files.size());
    for (const char* path : files) {
      problems.push_back(model::load_problem(domain_text, slurp(path)));
    }

    service::PlanningEngine engine(engine_opts);
    Stopwatch wall;

    // Periodic NDJSON metric snapshots interleave with the per-request
    // records on stdout; both are NDJSON, so consumers (sekitei_stats)
    // dispatch on the leading key.  stop() writes one final snapshot, which
    // also serves as the --metrics one-shot when a flusher is running.
    std::unique_ptr<metrics::Flusher> flusher;
    if (metrics_every_ms > 0.0) {
      flusher = std::make_unique<metrics::Flusher>(metrics::registry(), stdout,
                                                   metrics_every_ms);
    }

    auto make_request = [&](std::size_t f, std::size_t k) {
      service::PlanRequest req;
      req.id = repeat == 1 ? std::string(files[f])
                           : std::string(files[f]) + "#" + std::to_string(k);
      req.problem = problems[f];
      req.mode = mode;
      req.deadline_ms = deadline_ms;
      req.validate = validate;
      req.degrade.enabled = degrade;
      return req;
    };

    if (drift) {
      // Drift stream: solve -> seeded damage -> repair, sequentially per
      // instance (the pair only makes sense in order), two records each.
      int worst = 0;
      std::size_t base_solved = 0, pairs = 0, repaired = 0;
      // Each file is compiled once, on its first solved base, for
      // seeded_drift and the link count; --repeat reuses it.
      std::vector<std::optional<model::CompiledProblem>> compiled(files.size());
      for (std::size_t k = 0; k < repeat; ++k) {
        for (std::size_t f = 0; f < files.size(); ++f) {
          service::PlanRequest req = make_request(f, k);
          req.echo_plan = true;
          service::PlanResponse base = engine.plan(std::move(req));
          std::string line = service::wire::render_response_line(base);
          std::fwrite(line.data(), 1, line.size(), stdout);
          int code = service::outcome_exit_code(base.outcome);
          if (code > worst) worst = code;
          if (!base.ok() || !base.plan) continue;
          ++base_solved;
          if (!compiled[f]) {
            compiled[f].emplace(model::compile(problems[f]->problem, problems[f]->scenario));
          }
          const model::CompiledProblem& cp = *compiled[f];
          service::PlanRequest rreq = make_request(f, k);
          rreq.id += "/repair";
          service::RepairSpec spec;
          spec.prior_plan = *base.plan;
          spec.choices = base.choices;
          if (drift_unsurvivable) {
            // Sever every link: the goal cannot be re-delivered anywhere, so
            // the repair pre-flight (if enabled) must certify infeasibility.
            for (std::uint32_t l = 0; l < cp.net->link_count(); ++l) {
              spec.damage.failed_links.push_back(LinkId(l));
            }
          } else {
            spec.damage =
                repair::seeded_drift(cp, *base.plan, drift_seed + k * files.size() + f);
          }
          spec.migration_penalty = migration_penalty;
          rreq.repair = std::move(spec);
          service::PlanResponse rep = engine.plan(std::move(rreq));
          line = service::wire::render_response_line(rep);
          std::fwrite(line.data(), 1, line.size(), stdout);
          code = service::outcome_exit_code(rep.outcome);
          if (code > worst) worst = code;
          ++pairs;
          if (rep.repaired) ++repaired;
        }
      }
      if (flusher) {
        flusher->stop();
      } else if (metrics_final) {
        const std::string snap = metrics::registry().to_ndjson(metrics::wall_ms());
        std::fwrite(snap.data(), 1, snap.size(), stdout);
      }
      std::fflush(stdout);
      std::fprintf(stderr,
                   "sekitei_serve: drift stream %zu pairs (%zu repaired in place) "
                   "from %zu solved bases in %.1f ms\n",
                   pairs, repaired, base_solved, wall.elapsed_ms());
      return worst;
    }

    struct Submitted {
      service::PlanningEngine::Ticket ticket;
      std::size_t file;
      std::size_t rep;
    };
    std::vector<Submitted> tickets;
    tickets.reserve(files.size() * repeat);
    for (std::size_t k = 0; k < repeat; ++k) {
      for (std::size_t f = 0; f < files.size(); ++f) {
        tickets.push_back({engine.submit(make_request(f, k)), f, k});
      }
    }

    // The default Backoff seed is fixed so two identical invocations sleep
    // identically — retry schedules are part of the reproducible behavior
    // under test (support/retry.hpp; the daemon's load generator shares it).
    Backoff backoff({.base_ms = retry_base_ms});
    int worst = 0;
    std::size_t solved = 0, degraded = 0, retried = 0;
    for (auto& sub : tickets) {
      service::PlanResponse r = sub.ticket.response.get();
      // Bounded retry with jittered exponential backoff: admission-control
      // rejections ("queue full") are transient — the queue drains as the
      // workers finish — so re-submission after a short sleep usually lands.
      std::uint32_t attempts = 1;
      while (is_queue_full(r) && attempts <= retries) {
        sleep_ms(backoff.next_delay_ms(attempts - 1));
        r = engine.plan(make_request(sub.file, sub.rep));
        ++attempts;
      }
      if (attempts > 1) ++retried;
      r.attempts = attempts;
      const std::string line = service::wire::render_response_line(r);
      std::fwrite(line.data(), 1, line.size(), stdout);
      const int code = service::outcome_exit_code(r.outcome);
      if (code > worst) worst = code;
      if (r.outcome == service::Outcome::Solved) ++solved;
      if (r.outcome == service::Outcome::Degraded) ++degraded;
    }
    if (flusher) {
      flusher->stop();
    } else if (metrics_final) {
      const std::string snap = metrics::registry().to_ndjson(metrics::wall_ms());
      std::fwrite(snap.data(), 1, snap.size(), stdout);
    }
    std::fflush(stdout);

    const double wall_ms = wall.elapsed_ms();
    const auto cache = engine.cache_stats();
    std::fprintf(stderr,
                 "sekitei_serve: %zu/%zu solved (%zu degraded, %zu retried) in %.1f ms "
                 "(%zu workers, cache %llu hits / %llu misses, hit rate %.2f)\n",
                 solved, tickets.size(), degraded, retried, wall_ms, engine.worker_count(),
                 (unsigned long long)cache.hits, (unsigned long long)cache.misses,
                 cache.hit_rate());
    return worst;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
